"""Linear-response transmission/reflection spectra and the scatterer coupling.

At weak drive the outputs are linear in the coherences rho[k, 0] between the
one-excitation kets k and the vacuum: the first-order block of the weak-drive
system (weakdrive.vacuum_column_system on its first four kets), which holds at
any gamma_p.  Input-output theory gives <a_out> = i*eps/sqrt(kappa) + sqrt(kappa) <a>
and <b_out> = sqrt(kappa) <b>, with <a>, <b> the coherences of |1,0,->, |0,1,->.
Points are solved at kappa = 1 and unit drive, so the normalized transmission
tends to 1 far off resonance.  field_means, the g = 0 closed form, is the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FIELDS, theta
from .params import SystemParams
from .weakdrive import abs2, solve_stacked, vacuum_column_system


def field_means(delta, j_coupling, kappa, drive):
    """Steady intracavity means (<a>, <b>) of the g = 0 reduction, elementwise
    over numbers or arrays that broadcast together."""
    denom = (1j * delta + 0.5 * kappa) ** 2 + j_coupling**2
    return drive * (delta - 0.5j * kappa) / denom, -drive * j_coupling / denom


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
