"""Mean-field transmission/reflection spectra and the scatterer coupling.

The spectra implement the emitter-decoupled (g = 0) reduction: the intracavity
means follow from the fixed point of the driven two-mode equations, and the
outputs from input-output theory,
    <a_out> = i*eps/sqrt(kappa) + sqrt(kappa) <a>,   <b_out> = sqrt(kappa) <b>.
Spectra are evaluated with kappa as the base unit (kappa = 1 internally), so
the normalized transmission tends to 1 far off resonance.  The means are one
elementwise formula (field_means); spectrum() and sweeps both evaluate it over
whole arrays through normalized_spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .weakdrive import abs2


def field_means(delta, j_coupling, kappa, drive):
    """Steady intracavity means (<a>, <b>) of the g = 0 reduction, elementwise
    over numbers or arrays that broadcast together."""
    denom = (1j * delta + 0.5 * kappa) ** 2 + j_coupling**2
    return drive * (delta - 0.5j * kappa) / denom, -drive * j_coupling / denom


def normalized_spectrum(delta, j_coupling, kappa):
    """(p_t, p_r, a_mean, b_mean) elementwise over arrays of delta, J and kappa:
    the means of each point rescaled to kappa = 1 and unit drive, and the
    powers p_t = |i + a_mean|^2 and p_r = |b_mean|^2."""
    a_mean, b_mean = field_means(delta / kappa, j_coupling / kappa, 1.0, 1.0)
    return abs2(1j + a_mean), abs2(b_mean), a_mean, b_mean


def spectrum(params: SystemParams, delta_grid) -> tuple[np.ndarray, ...]:
    """normalized_spectrum's (p_t, p_r, a_mean, b_mean) over delta_grid at params' J, kappa.

    The arrays take the grid's shape (at least 1-D).  delta_grid is in the same
    frequency unit as params; points are rescaled internally to kappa = 1 so
    the result is drive-independent.  A grid point where delta / kappa
    overflows, or a point whose J / kappa does, is a ValueError.
    """
    grid = np.atleast_1d(np.asarray(delta_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("delta_grid must contain at least one point")
    if not np.isfinite(grid).all():
        raise ValueError("delta_grid must be finite")
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(grid / params.kappa)
        j_overflow = not np.isfinite(np.float64(params.j_coupling) / params.kappa)
    if overflow.any():
        raise ValueError(f"delta / kappa overflows at delta_grid points {grid[overflow].tolist()}")
    if j_overflow:
        raise ValueError(f"J / kappa overflows at J = {params.j_coupling!r}, kappa = {params.kappa!r}")
    # A finite delta / kappa may still overflow the square in field_means; the
    # infinite denominator then gives the far-detuned limit p_t = 1, p_r = 0.
    with np.errstate(over="ignore"):
        return normalized_spectrum(
            grid, np.full_like(grid, params.j_coupling), np.full_like(grid, params.kappa)
        )


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
