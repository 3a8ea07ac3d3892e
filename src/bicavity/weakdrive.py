"""Weak-drive analytics: two-excitation ansatz, closed-form amplitudes, g2(0).

With the drive weak enough that at most two excitations are present, the
steady state is parametrised by eight amplitudes on top of the ground state
|0,0,-> (its amplitude is fixed to 1).  They solve a linear 8x8 system: the
table's non-Hermitian Hamiltonian projected onto these kets, keeping an entry
only where the row ket has at least as many excitations as the column ket (an
n-excitation amplitude is O(drive^n)).  It holds for any g_a, g_b.
solve_weak_drive_rows solves it for a stack of parameter rows at once, each
row's matrix one einsum of its parameters with the cached per-field parts;
sweeps call it on chunks of their grid, and solve_weak_drive is its one-row
case.  A singular row gets nan amplitudes and a nan residual, and both
callers take a residual that is not within RESIDUAL_TOL as an analytic
singularity.
The paper's closed forms for g_a = g_b, written in
dp = delta - i*kappa/2 and dd = delta_a - i*gamma_a/2, are kept as the
reference the system is checked against.  Pure dephasing is outside this
treatment (gamma_p = 0).
"""

from __future__ import annotations

import contextlib
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
    ground/excited; the ground amplitude c_000m is fixed to 1 and not stored.
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

    @property
    def g2_ccw(self) -> float:
        """g2(0) of the driven mode: 2|c_200m|^2 / |c_100m|^4."""
        g2 = g2_driven(np.array([self.c_100m]), np.array([self.c_200m]))[0]
        if np.isnan(g2):
            raise UndefinedCorrelationError("one-photon amplitude is 0; g2(0) is undefined")
        return float(g2)


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise.  hypot and a square round alike at every position and
    array length, so a one-element call gives a sweep's value bit for bit."""
    return np.hypot(z.real, z.imag) ** 2


def g2_driven(c_100m: np.ndarray, c_200m: np.ndarray) -> np.ndarray:
    """g2(0) of the driven mode, 2|c_200m|^2 / |c_100m|^4, elementwise over
    amplitude arrays; nan where |c_100m|^4 is 0 and g2(0) is undefined."""
    one = abs2(c_100m)
    denom = one * one
    return np.divide(2.0 * abs2(c_200m), denom, out=np.full(denom.shape, np.nan), where=denom > 0)


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
    n = space.excitations[flat]
    keep = n[:, None] >= n
    parts = np.stack([np.where(keep, terms[name][np.ix_(flat, flat)], 0) for name in FIELDS])
    parts = parts.reshape(len(FIELDS), -1)
    parts.setflags(write=False)
    return parts


def in_domain(thetas: np.ndarray) -> np.ndarray:
    """Rows (theta order) inside the weak-drive analysis: no pure dephasing."""
    return thetas[:, FIELDS.index("gamma_p")] == 0


def _check_domain(params: SystemParams, common_coupling: bool = False) -> None:
    """Reject points outside the weak-drive analysis (and the closed forms)."""
    if common_coupling and params.g_a != params.g_b:
        raise WeakDriveDomainError("closed forms assume a common coupling g_a == g_b")
    if not in_domain(theta(params)[None])[0]:
        raise WeakDriveDomainError(
            "the weak-drive analysis neglects pure dephasing; gamma_p must be 0"
        )


def solve_stacked(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack; a singular system gets nan, each other one its own solve."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        c = np.full(rhs.shape, np.nan, dtype=complex)
        for i in range(len(m)):
            with contextlib.suppress(np.linalg.LinAlgError):
                c[i:i + 1] = np.linalg.solve(m[i:i + 1], rhs[i:i + 1])
        return c


def solve_weak_drive_rows(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 8x8 system at every parameter row, shape (n, len(FIELDS)).

    Returns the amplitudes, shape (n, 8) in AmplitudeSet order, and each row's
    relative residual max|m c - rhs| / (max|m| max|c|).  A singular row gets
    nan amplitudes and a nan residual (solve_stacked).  The domain and the
    residual are left to the caller.
    """
    # einsum sums over the fields in its own loop, not BLAS, so a row's
    # matrix does not depend on the other rows of the stack.
    h = np.einsum("nk,kp->np", thetas, _hamiltonian_parts().view(float))
    h = h.view(complex).reshape(-1, len(_KETS), len(_KETS))
    # H_nh c = 0 on the ansatz kets; c_000m = 1 moves to the right-hand side.
    m, rhs = h[:, 1:, 1:], -h[:, 1:, :1]
    c = solve_stacked(m, rhs)
    scale = np.maximum(np.abs(m).max(axis=(1, 2)) * np.abs(c).max(axis=(1, 2)), 1e-300)
    residual = np.abs(m @ c - rhs).max(axis=(1, 2)) / scale
    return c[..., 0], residual


def hierarchy_violated(c: np.ndarray) -> np.ndarray:
    """Rows of amplitudes (n, 8) where one exceeds 0.3, so that the weak-drive
    hierarchy 1 >> singles >> doubles does not hold (a soft check)."""
    return np.abs(c).max(axis=1) > 0.3


def solve_weak_drive(params: SystemParams) -> AmplitudeSet:
    """Solve the 8x8 weak-drive linear system (supports g_a != g_b)."""
    _check_domain(params)
    c, residual = solve_weak_drive_rows(theta(params)[None])
    if not residual[0] <= RESIDUAL_TOL:  # a singular system's nan residual fails too
        raise AnalyticSingularityError(
            f"weak-drive solve residual {residual[0]:.3e} above {RESIDUAL_TOL:.0e} "
            f"at {params}"
        )
    if hierarchy_violated(c)[0]:
        warnings.warn(
            "weak-drive hierarchy violated (drive is not weak at this point); "
            "amplitudes may not describe the steady state",
            stacklevel=2,
        )
    return AmplitudeSet(*c[0], residual=float(residual[0]))


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
