"""Steady state of the Lindblad equation and photon-statistics observables.

steady_state() solves L[rho] = 0 in the Hermitian real coordinates of
dynamics.operator_table: the generator's cached affine parts are summed with
the point's parameters and scattered into a dense real dim^2 x dim^2 matrix,
one row is replaced by the trace constraint, and a real LU solves it.  The
residual max |L[rho]| is then checked by a sparse product with the same table
entries, with a least-squares fallback, and rho must be positive
semi-definite.  The observables read photon numbers cached in the same table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# liouvillian and annihilator are not used here; perfbench/tracer.py wraps them
# as attributes of this module, so they stay importable from it.
from .dynamics import (  # noqa: F401
    Superoperator,
    from_real_coordinates,
    liouvillian,
    operator_table,
)
from .errors import (
    DegenerateSteadyStateError,
    SteadyStateSolverError,
    UndefinedCorrelationError,
)
from .fock import MODES, FockSpace, annihilator, build_space  # noqa: F401
from .params import SystemParams

RESIDUAL_TOL = 1e-10
PSD_TOL = 1e-8
TRUNCATION_TOL = 1e-4


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace steady state with its solver residual."""

    matrix: np.ndarray
    space: FockSpace
    residual: float


def steady_state(lv: Superoperator) -> DensityMatrix:
    """Solve L[rho] = 0 with Tr(rho) = 1.

    Raises DegenerateSteadyStateError if the kernel is not one-dimensional and
    SteadyStateSolverError if the residual cannot be brought below tolerance.
    """
    dim = lv.space.dim
    table = operator_table(lv.space)
    values = table.values(lv.params)
    system = table.dense(values)
    trace = np.zeros(dim * dim)
    trace[np.arange(dim) * (dim + 1)] = 1.0
    # Row 0 is the equation Re L[rho][0, 0] = 0; the trace condition replaces it.
    first = system[0].copy()
    system[0] = trace
    rhs = np.zeros(dim * dim)
    rhs[0] = 1.0

    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            "trace-constrained Liouvillian system is singular; the steady "
            "state is not unique at this parameter point"
        ) from exc

    rho, residual = _state(table, values, x, trace)
    if residual > RESIDUAL_TOL:
        # Least-squares on the stacked [L; trace] system as a fallback.
        system[0] = first
        target = np.zeros(dim * dim + 1)
        target[-1] = 1.0
        x, *_ = np.linalg.lstsq(np.vstack([system, trace]), target, rcond=None)
        rho, residual = _state(table, values, x, trace)
        if residual > RESIDUAL_TOL:
            raise SteadyStateSolverError(
                f"steady-state residual {residual:.3e} above {RESIDUAL_TOL:.0e}",
                residual=residual,
            )

    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -PSD_TOL:
        raise SteadyStateSolverError(
            f"steady state not positive semi-definite (min eigenvalue {min_eig:.3e})",
            residual=residual,
        )
    return DensityMatrix(rho, lv.space, residual)


def _state(table, values, x, trace) -> tuple[np.ndarray, float]:
    """Unit-trace rho from real coordinates x, and its residual max |L[rho]|."""
    x = x / (trace @ x)
    dim = table.space.dim
    residual = float(np.max(np.abs(from_real_coordinates(table.matvec(values, x), dim))))
    return from_real_coordinates(x, dim), residual


def _number(rho: DensityMatrix, mode: str) -> np.ndarray:
    number = operator_table(rho.space).number.get(mode.lower())
    if number is None:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return number


def mean_photon(rho: DensityMatrix, mode: str) -> float:
    """Tr(rho a'a) for the chosen mode."""
    return float(rho.matrix.diagonal().real @ _number(rho, mode))


def g2_zero(rho: DensityMatrix, mode: str, underflow_guard: float = 1e-30) -> float:
    """Equal-time second-order correlation Tr(rho a'a'aa) / Tr(rho a'a)^2."""
    number = _number(rho, mode)
    populations = rho.matrix.diagonal().real
    n = populations @ number
    if n <= underflow_guard:
        raise UndefinedCorrelationError(
            f"mean photon number {n:.3e} below underflow guard "
            f"{underflow_guard:.0e}; g2(0) is undefined"
        )
    # a'a'aa = a'a (a'a - 1) is diagonal too.
    two = populations @ (number * (number - 1.0))
    return float(two / n**2)


def solve_steady(params: SystemParams, n_a_max: int = 4, n_b_max: int = 4) -> DensityMatrix:
    """Convenience: build the space, then solve."""
    return steady_state(Superoperator(params, build_space(n_a_max, n_b_max)))


def master_equation_g2(
    params: SystemParams, n_a_max: int = 4, n_b_max: int = 4, mode: str = "ccw"
) -> float:
    """g2(0) of the chosen mode from the master-equation steady state."""
    return g2_zero(solve_steady(params, n_a_max, n_b_max), mode)


@dataclass(frozen=True)
class TruncationReport:
    """Convergence of g2(0) between photon cutoffs base and base + 1."""

    base_cutoff: int
    g2_base: float | None
    g2_refined: float | None
    rel_change: float | None
    converged: bool
    error: str | None = None


def check_truncation(params: SystemParams, base_cutoff: int, mode: str = "ccw") -> TruncationReport:
    """Compare g2(0) at cutoffs (base, base + 1); flag changes above tolerance."""
    if base_cutoff < 2:
        raise ValueError(f"base_cutoff must be >= 2, got {base_cutoff}")
    try:
        g2_base = master_equation_g2(params, base_cutoff, base_cutoff, mode)
        g2_ref = master_equation_g2(params, base_cutoff + 1, base_cutoff + 1, mode)
    except (UndefinedCorrelationError, SteadyStateSolverError, DegenerateSteadyStateError) as exc:
        return TruncationReport(base_cutoff, None, None, None, False, error=str(exc))
    rel = abs(g2_ref - g2_base) / abs(g2_ref)
    return TruncationReport(base_cutoff, g2_base, g2_ref, rel, rel <= TRUNCATION_TOL)
