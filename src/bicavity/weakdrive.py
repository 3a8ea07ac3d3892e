"""Weak-drive analytics: two-excitation ansatz, closed-form amplitudes, g2(0),
linear-response spectra and the scatterer coupling.

With the drive weak enough that at most two excitations are present, the
steady state is parametrised by eight amplitudes on top of the ground state
|0,0,-> (its amplitude is fixed to 1): the coherences rho[k, 0] of these kets
with the vacuum, an n-excitation one O(drive^n).  To leading order they solve
a linear 8x8 system, the vacuum column of the master equation on these kets,
keeping an entry only where the row ket has at least as many excitations as
the column ket.  It holds for any g_a, g_b and gamma_p.  g2 reads
populations, which are the amplitudes' |c|^2 only at gamma_p = 0, so
solve_weak_drive stays there.  solve_weak_drive_rows solves the system for a
stack of parameter rows at once, each row's matrix one einsum of its
parameters with the cached per-field parts; sweeps call it on chunks of their
grid, and solve_weak_drive is its one-row case.  A singular row gets nan
amplitudes and a nan residual, and both callers take a residual that is not
within RESIDUAL_TOL as an analytic singularity.
The paper's closed forms for g_a = g_b, written in
dp = delta - i*kappa/2 and dd = delta_a - i*gamma_a/2, are kept as the
reference the system is checked against.

The spectra are the system's block on its first four kets, the linear
response, which holds at any gamma_p.  Input-output theory gives
<a_out> = i*eps/sqrt(kappa) + sqrt(kappa) <a> and <b_out> = sqrt(kappa) <b>,
with <a>, <b> the coherences of |1,0,->, |0,1,->.  Points are solved at
kappa = 1 and unit drive, so the normalized transmission tends to 1 far off
resonance.
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
    """Per-field parts of the vacuum-column system on _KETS, shape (len(FIELDS), 9, 9),
    read-only.  To leading order i d/dt rho[:, 0] = sum_k theta_k part_k rho[:, 0], with
    part_k = H_k - conj(H_k[0, 0]) 1 + i sum_c c conj(c[0, 0]) over field k's jumps c:
    that is H_k, but gamma_p's is -2i on the emitter-excited kets (only sigma_z has
    c[0, 0] != 0).  Entries of higher drive order (row ket less excited than column ket) are 0."""
    space = FockSpace(2, 2)
    table = operator_table(space)
    flat = [space.index(*ket) for ket in _KETS]  # the vacuum is flat index 0
    n = space.excitations[flat]
    parts = []
    for name in FIELDS:
        h = table.nonhermitian[name]
        jumps = sum(c * np.conj(c[0, 0]) for c in table.jumps.get(name, ()))
        part = (h - np.conj(h[0, 0]) * np.eye(space.dim) + 1j * jumps)[np.ix_(flat, flat)]
        parts.append(np.where(n[:, None] >= n, part, 0))
    parts = np.stack(parts)
    parts.setflags(write=False)
    return parts


def vacuum_column_system(thetas: np.ndarray, kets: int = len(_KETS)) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m, rhs) of the vacuum-column system on the first kets of _KETS
    at every parameter row, shape (n, len(FIELDS)): m c = rhs, with c the
    coherences rho[k, 0] of kets 1 .. kets - 1 and rho[0, 0] = 1."""
    parts = _hamiltonian_parts()[:, 1:kets, :kets].reshape(len(FIELDS), -1)
    # einsum sums over the fields in its own loop, not BLAS, so a row's
    # matrix does not depend on the other rows of the stack.
    h = np.einsum("nk,kp->np", thetas, parts.view(float)).view(complex).reshape(-1, kets - 1, kets)
    return h[..., 1:], -h[..., :1]


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
    m, rhs = vacuum_column_system(thetas)
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


@np.errstate(all="ignore")  # a field / kappa may overflow
def normalized_spectrum(thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p_t, p_r, a_mean, b_mean) of each row (n, len(FIELDS)) at kappa = 1 and unit drive,
    p_t = |i + a_mean|^2 and p_r = |b_mean|^2; a row that overflows there gives nan or inf."""
    scaled = thetas / thetas[:, FIELDS.index("kappa"), None]
    scaled[:, FIELDS.index("drive")] = 1.0
    m, rhs = vacuum_column_system(scaled, 4)
    # Without g_a and g_b the emitter decouples: pin its coherence to 0.
    decoupled = ~thetas[:, [FIELDS.index("g_a"), FIELDS.index("g_b")]].any(axis=1)
    m[decoupled, 2], rhs[decoupled, 2] = (0, 0, 1), 0
    a_mean, b_mean, _ = solve_stacked(m, rhs)[..., 0].T
    return abs2(1j + a_mean), abs2(b_mean), a_mean, b_mean


def spectrum(params: SystemParams, delta_grid) -> tuple[np.ndarray, ...]:
    """normalized_spectrum's (p_t, p_r, a_mean, b_mean) over delta_grid at params.

    The arrays take the grid's shape (at least 1-D).  delta_grid, in the unit
    of params, replaces its delta, and the other fields hold.  Points are
    rescaled to kappa = 1, so the result is drive-independent.  A grid point
    where delta / kappa overflows, or any other field but the drive whose
    value / kappa does, is a ValueError naming it.
    """
    grid = np.atleast_1d(np.asarray(delta_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("delta_grid must contain at least one point")
    if not np.isfinite(grid).all():
        raise ValueError("delta_grid must be finite")
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(grid / params.kappa)
        scaled = dict(zip(FIELDS, theta(params) / params.kappa))
    if overflow.any():
        raise ValueError(f"delta / kappa overflows at delta_grid points {grid[overflow].tolist()}")
    for name in ("delta_a", "j_coupling", "g_a", "g_b", "gamma_a", "gamma_p"):  # not the drive, set to 1
        if not np.isfinite(scaled[name]):
            symbol = "J" if name == "j_coupling" else name
            raise ValueError(
                f"{symbol} / kappa overflows at {name} = {getattr(params, name)!r}, kappa = {params.kappa!r}"
            )
    rows = np.tile(theta(params), (grid.size, 1))
    rows[:, FIELDS.index("delta")] = grid.ravel()
    return tuple(column.reshape(grid.shape) for column in normalized_spectrum(rows))


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


@dataclass(frozen=True)
class ScattererSpec:
    """Nanosphere scatterer in the electrostatic (R << lambda) limit.

    radius, mode_volume and omega share consistent units; mode_function is the
    dimensionless cavity mode function at the scatterer position.  The caller
    is responsible for staying in the R << lambda regime.
    """

    radius: float
    refractive_index: float
    mode_volume: float
    mode_function: float
    omega: float

    def __post_init__(self):
        if self.radius <= 0 or self.refractive_index <= 0 or self.mode_volume <= 0:
            raise ValueError("radius, refractive_index and mode_volume must be positive")

    @property
    def polarizability(self) -> float:
        """Clausius-Mossotti polarizability 4 pi R^3 (n^2-1)/(n^2+2)."""
        n2 = self.refractive_index**2
        return 4.0 * np.pi * self.radius**3 * (n2 - 1.0) / (n2 + 2.0)


def scatterer_coupling(spec: ScattererSpec) -> float:
    """Magnitude of the scatterer-induced mode coupling |J| = alpha f^2 omega / (2V).

    The underlying formula is negative for refractive_index > 1; only |J|
    enters the observable +-J mode splitting, so the magnitude is returned.
    """
    return abs(spec.polarizability * spec.mode_function**2 * spec.omega / (2.0 * spec.mode_volume))
