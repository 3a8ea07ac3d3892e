"""Weak-drive analytics: two-excitation ansatz, closed-form amplitudes, g2(0).

With the drive weak enough that at most two excitations are present, the
steady state is parametrised by eight amplitudes on top of the ground state
|0,0,-> (its amplitude is fixed to 1).  They solve a linear 8x8 system: the
table's non-Hermitian Hamiltonian projected onto these kets, keeping an entry
only where the row ket has at least as many excitations as the column ket (an
n-excitation amplitude is O(drive^n)).  It holds for any g_a, g_b, and sweeps
solve it at every point.  The paper's closed forms for g_a = g_b, written in
dp = delta - i*kappa/2 and dd = delta_a - i*gamma_a/2, are kept as the
reference the system is checked against.  Pure dephasing is outside this
treatment (gamma_p = 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import FIELDS, operator_table, theta
from .errors import AnalyticSingularityError, UndefinedCorrelationError, WeakDriveDomainError
from .fock import FockSpace
from .params import SystemParams

RESIDUAL_TOL = 1e-12

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AmplitudeSet:
    """The eight steady-state amplitudes of the two-excitation ansatz.

    Ordering of kets is |n_ccw, n_cw, emitter> with '-'/'+' for
    ground/excited; c_000m is the reference amplitude, fixed to 1.
    """

    c_100m: complex
    c_010m: complex
    c_000p: complex
    c_200m: complex
    c_020m: complex
    c_110m: complex
    c_100p: complex
    c_010p: complex
    residual: float
    c_000m: complex = 1.0 + 0.0j

    @property
    def g2_ccw(self) -> float:
        """g2(0) of the driven mode: 2|c_200m|^2 / |c_100m|^4."""
        if self.c_100m == 0:
            raise UndefinedCorrelationError("one-photon amplitude is 0; g2(0) is undefined")
        return float(2.0 * abs(self.c_200m) ** 2 / abs(self.c_100m) ** 4)


# Ansatz kets (n_ccw, n_cw, emitter): |0,0,-> then the AmplitudeSet order.
_KETS = (
    (0, 0, "-"), (1, 0, "-"), (0, 1, "-"), (0, 0, "+"),
    (2, 0, "-"), (0, 2, "-"), (1, 1, "-"), (1, 0, "+"), (0, 1, "+"),
)


@lru_cache(maxsize=1)
def _hamiltonian_parts() -> np.ndarray:
    """Per-field parts of H_nh on _KETS, shape (len(FIELDS), 81), read-only.
    Entries of higher drive order (row ket less excited than column ket) are 0."""
    space = FockSpace(2, 2)
    terms = operator_table(space).nonhermitian
    flat = [space.index(*ket) for ket in _KETS]
    n = np.array([n_a + n_b + (e == "+") for n_a, n_b, e in _KETS])
    keep = n[:, None] >= n
    parts = np.zeros((len(FIELDS), len(_KETS), len(_KETS)), dtype=complex)
    for name, h in terms.items():
        parts[FIELDS.index(name)] = np.where(keep, h[np.ix_(flat, flat)], 0)
    parts = parts.reshape(len(FIELDS), -1)
    parts.setflags(write=False)
    return parts


def _check_domain(params: SystemParams, common_coupling: bool = False) -> None:
    """Reject points outside the weak-drive analysis (and the closed forms)."""
    if common_coupling and params.g_a != params.g_b:
        raise WeakDriveDomainError("closed forms assume a common coupling g_a == g_b")
    if params.gamma_p != 0:
        raise WeakDriveDomainError(
            "the weak-drive analysis neglects pure dephasing; gamma_p must be 0"
        )


def solve_weak_drive(params: SystemParams) -> AmplitudeSet:
    """Solve the 8x8 weak-drive linear system (supports g_a != g_b)."""
    _check_domain(params)
    # H_nh c = 0 on the ansatz kets; c_000m = 1 moves to the right-hand side.
    h = (theta(params) @ _hamiltonian_parts()).reshape(len(_KETS), len(_KETS))
    m, rhs = h[1:, 1:], -h[1:, 0]
    try:
        c = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise AnalyticSingularityError(
            f"weak-drive system singular at {params}"
        ) from exc
    scale = max(float(np.max(np.abs(m))) * float(np.max(np.abs(c))), 1e-300)
    residual = float(np.max(np.abs(m @ c - rhs))) / scale
    if residual > RESIDUAL_TOL:
        raise AnalyticSingularityError(
            f"weak-drive solve residual {residual:.3e} above {RESIDUAL_TOL:.0e} "
            f"at {params}"
        )
    _warn_if_not_weak(c)
    return AmplitudeSet(*c, residual=residual)


def _warn_if_not_weak(c: np.ndarray) -> None:
    """Soft check of the amplitude hierarchy 1 >> singles >> doubles."""
    singles = float(np.max(np.abs(c[:3])))
    doubles = float(np.max(np.abs(c[3:])))
    if singles > 0.3 or doubles > 0.3:
        warnings.warn(
            "weak-drive hierarchy violated (drive is not weak at this point); "
            "amplitudes may not describe the steady state",
            stacklevel=3,
        )


def c_amplitudes_closed_form(params: SystemParams) -> tuple[complex, complex]:
    """Closed-form (c_100m, c_200m) for the common-coupling case g_a = g_b."""
    _check_domain(params, common_coupling=True)
    dp = params.delta - 0.5j * params.kappa
    dd = params.delta_a - 0.5j * params.gamma_a
    g, j, eps = params.g_a, params.j_coupling, params.drive

    denom1 = -2.0 * g**2 + j * dd + dp * dd
    denom2 = (j + dp) ** 2 + dd * (j + dp) - 2.0 * g**2
    scale = max(abs(dp) ** 2, abs(g) ** 2, abs(j) ** 2, 1.0)
    if min(abs(denom1), abs(denom2), abs(j - dp) ** 2) < 1e-14 * scale:
        raise AnalyticSingularityError(
            f"closed-form denominator vanishes at {params}"
        )
    numer2 = (
        dp**3 * dd
        + dp**2 * dd**2
        + j * dp**2 * dd
        - 2.0 * dp * dd * g**2
        - 2.0 * j * dp * g**2
        + g**4
    )
    c_100m = eps * (dp * dd - g**2) / ((j - dp) * denom1)
    c_200m = _SQRT2 * eps**2 * numer2 / (2.0 * (j - dp) ** 2 * denom1 * denom2)
    return c_100m, c_200m


def g2_closed_form(params: SystemParams) -> float:
    """Closed-form g2(0) of the driven mode (g_a = g_b, gamma_p = 0)."""
    _check_domain(params, common_coupling=True)
    dp = params.delta - 0.5j * params.kappa
    dd = params.delta_a - 0.5j * params.gamma_a
    g, j = params.g_a, params.j_coupling

    a1 = dp * (dp**2 * dd + (dd * dp - 2.0 * g**2) * (dd + j)) + g**4
    a2 = dd * (j + dp) - 2.0 * g**2
    a3 = (j + dp) * (j + dp + dd) - 2.0 * g**2
    a4 = dp * dd - g**2
    scale = max(abs(dp) ** 2, abs(g) ** 2, abs(j) ** 2, 1.0)
    if abs(a3) < 1e-14 * scale or abs(a4) < 1e-14 * scale:
        raise AnalyticSingularityError(f"g2 closed form singular at {params}")
    return float(abs(a1) ** 2 * abs(a2) ** 2 / (abs(a3) ** 2 * abs(a4) ** 4))


def g2_ratio_asymptotic(params: SystemParams) -> tuple[float, float, float]:
    """Large-J suppression laws near delta = 0.

    Returns (r1, r2, ratio): the one- and two-photon amplitude suppression
    factors kappa^2/(4 J^2) and kappa^6/(4 J^6), and their combination
    ratio = r2 / r1^2 = 4 kappa^2 / J^2, the predicted g2(J)/g2(J=0).
    """
    j, kappa = params.j_coupling, params.kappa
    if j == 0:
        raise ZeroDivisionError("asymptotic ratio requires a nonzero mode coupling J")
    r1 = kappa**2 / (4.0 * j**2)
    r2 = kappa**6 / (4.0 * j**6)
    return r1, r2, r2 / r1**2
