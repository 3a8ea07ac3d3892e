"""Steady state of the Lindblad equation and photon-statistics observables.

steady_state() solves L[rho] = 0 in the Hermitian real coordinates of
dynamics.operator_table.  The coordinates fall into groups by the excitation
difference m = |k_i - k_j| (dynamics.BlockLayout), and only the drive joins
neighbouring groups, so L is block tridiagonal over m.  Group 0 holds the
populations and stays real; every other group is solved in complex slots
z = rho_uv with k_u < k_v, half as many unknowns as its real coordinates.
The solve eliminates the groups from the top down to group 1 by Schur
complements, takes the real part of the update into group 0, solves group 0
with the trace condition in place of the row of rho[0, 0], and
back-substitutes: in exact arithmetic the same system as one dense LU, at
about a seventh of its flops.  The table's solve plan (dynamics.BlockLayout,
built once per space) says where each block entry sits, so a point only
forms its entries, fills one fresh buffer per elimination step, and runs the
LAPACK solves and BLAS products on the views.  The elimination does not
pivot across groups and loses digits when the drive is much larger than
kappa, so it is refined with itself: each step solves for the correction
from the residual of the last, and the first step, whose right-hand side at
x = 0 is known (-e_0), is the plain elimination.  The residual max |L[rho]|
is checked after each step by a sparse product with the same entries, read
off the real coordinates by the plan's index maps, and refinement stops at a
step that does not lower it.  rho must be positive
semi-definite; a nan residual or eigenvalue fails these checks.  A point with
g_a = g_b = gamma_a = 0 is refused before any solve: the emitter is then
decoupled and undamped, and its populations are conserved.  The observables
read photon numbers cached in the same table, and g2_zero needs a mean photon
number above UNDERFLOW_GUARD.

The space may cap the total excitation (fock.FockSpace.max_excitation): the
solve is then the same on the generator restricted to the kept kets, whose
vacuum still leads group 0.  solve_steady takes the cap; without one it, and
master_equation_g2 and check_truncation, solve on the full box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# liouvillian and annihilator are not used here; perfbench/tracer.py wraps them
# as attributes of this module, so they stay importable from it.
from .dynamics import (  # noqa: F401
    BlockLayout,
    Superoperator,
    liouvillian,
    operator_table,
)
from .errors import (
    BicavityError,
    DegenerateSteadyStateError,
    SteadyStateSolverError,
    UndefinedCorrelationError,
)
from .fock import MODES, FockSpace, annihilator, build_space  # noqa: F401
from .params import SystemParams

RESIDUAL_TOL = 1e-10
PSD_TOL = 1e-8
UNDERFLOW_GUARD = 1e-30  # g2_zero's least mean photon number
TRUNCATION_TOL = 1e-4


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace steady state with its solver residual."""

    matrix: np.ndarray
    space: FockSpace
    residual: float


def steady_state(lv: Superoperator) -> DensityMatrix:
    """Solve L[rho] = 0 with Tr(rho) = 1.

    Raises DegenerateSteadyStateError if the kernel is not one-dimensional (a
    decoupled, undamped emitter, or a singular block) and
    SteadyStateSolverError if refinement (at most eight solves, up to the first
    that does not lower the residual) ends above tolerance, LAPACK fails in
    the PSD check, or rho is not PSD.  A nan residual or eigenvalue fails.
    """
    p = lv.params
    if p.g_a == 0 and p.g_b == 0 and p.gamma_a == 0:
        raise DegenerateSteadyStateError(
            "the emitter is decoupled and undamped (g_a = g_b = gamma_a = 0): its "
            "populations are conserved, so the steady state is not unique"
        )
    table = operator_table(lv.space)
    layout = table.blocks
    values = table.values(p)
    x = np.zeros(layout.trace.size)
    step = np.zeros(x.size)  # L x and trace @ x - 1 at x = 0
    step[0] = -1.0
    previous = np.inf
    try:
        for _ in range(8):
            x -= _block_solve(layout, values, step)
            rho, residual = _state(table, values, x)
            if residual <= RESIDUAL_TOL or not residual < previous:  # nan fails both
                break
            previous = residual
            step = table.matvec(values, x)
            step[0] = layout.trace @ x - 1.0
        if not residual <= RESIDUAL_TOL:
            raise SteadyStateSolverError(
                f"steady-state residual {residual:.3e} above {RESIDUAL_TOL:.0e}",
                residual=residual,
            )
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            "trace-constrained Liouvillian system is singular; the steady "
            "state is not unique at this parameter point"
        ) from exc

    try:
        min_eig = float(np.linalg.eigvalsh(rho).min())
    except np.linalg.LinAlgError as exc:
        raise SteadyStateSolverError(f"PSD check failed: {exc}", residual) from exc
    if not min_eig >= -PSD_TOL:
        raise SteadyStateSolverError(
            f"steady state not positive semi-definite (min eigenvalue {min_eig:.3e})",
            residual=residual,
        )
    return DensityMatrix(rho, lv.space, residual)


def _block_solve(layout: BlockLayout, values, rhs) -> np.ndarray:
    """Real coordinates x with L x = rhs except in row 0, where trace @ x = rhs[0].

    Group b's rows read L[b, b-1] x_{b-1} + D_b x_b + L[b, b+1] x_{b+1} = r_b,
    with x_b and r_b complex slots for b >= 1 and real for group 0.  From the
    top group down to group 1, x_b = y_b - X_b x_{b-1} with y_b = D_b^-1 r_b
    and X_b = D_b^-1 L[b, b-1], both from one solve against L[b, b-1] and the
    column r_b beside it, which turns group b - 1's diagonal block into
    D_{b-1} = L[b-1, b-1] - L[b-1, b] X_b and its right-hand side into
    r_{b-1} - L[b-1, b] y_b; into group 0 both updates take the real part.
    Group 0's block, with the row of vec position 0 replaced by the trace row,
    then gives x_0.
    """
    top = len(layout.bounds) - 2
    eliminated = [None] * (top + 1)
    entries, parts = layout.entries(values), layout.gather(rhs)
    for b in range(top, 0, -1):
        blocks = layout.assemble(entries, b)
        if b == top:
            d = blocks[top, top]
        lower, upper = blocks[b, b - 1], blocks[b - 1, b]
        lower[:, -1] = parts[b]
        solved = np.linalg.solve(d, lower)
        eliminated[b], parts[b] = solved[:, :-1], solved[:, -1]
        schur, update = upper @ eliminated[b], upper @ parts[b]
        if b == 1:  # L[0, 1] acts on group 1's slots z as Re(L[0, 1] z)
            schur, update = schur.real, update.real
        d = blocks[b - 1, b - 1] - schur
        parts[b - 1] -= update
        del blocks, lower, upper  # free the step's buffer before the next one is filled
    d[0] = layout.trace[layout.members(0)]
    parts[0][0] = rhs[0]
    parts[0] = np.linalg.solve(d, parts[0])
    for b in range(1, top + 1):
        parts[b] -= eliminated[b] @ parts[b - 1]
    return layout.scatter(parts)


def _state(table, values, x) -> tuple[np.ndarray, float]:
    """Unit-trace rho from real coordinates x, and its residual max |L[rho]|."""
    layout = table.blocks
    x = x / (layout.trace @ x)
    return layout.matrix(x), layout.largest(table.matvec(values, x))


def _number(rho: DensityMatrix, mode: str) -> np.ndarray:
    number = operator_table(rho.space).number.get(mode.lower())
    if number is None:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return number


def mean_photon(rho: DensityMatrix, mode: str) -> float:
    """Tr(rho a'a) for the chosen mode."""
    return float(rho.matrix.diagonal().real @ _number(rho, mode))


def g2_zero(rho: DensityMatrix, mode: str) -> float:
    """Equal-time second-order correlation Tr(rho a'a'aa) / Tr(rho a'a)^2."""
    number = _number(rho, mode)
    populations = rho.matrix.diagonal().real
    n = populations @ number
    if n <= UNDERFLOW_GUARD:
        raise UndefinedCorrelationError(
            f"mean photon number {n:.3e} below underflow guard "
            f"{UNDERFLOW_GUARD:.0e}; g2(0) is undefined"
        )
    # a'a'aa = a'a (a'a - 1) is diagonal too.
    two = populations @ (number * (number - 1.0))
    return float(two / n**2)


def solve_steady(
    params: SystemParams, n_a_max: int = 4, n_b_max: int = 4, max_excitation: int | None = None
) -> DensityMatrix:
    """Convenience: build the space, then solve.  max_excitation keeps only the
    kets with at most that many excitations (fock.FockSpace); None is the box."""
    return steady_state(Superoperator(params, build_space(n_a_max, n_b_max, max_excitation)))


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
    """Compare g2(0) at cutoffs (base, base + 1); flag changes above tolerance.
    A package error is reported in `error`; any other exception propagates."""
    if base_cutoff < 2:
        raise ValueError(f"base_cutoff must be >= 2, got {base_cutoff}")
    try:
        g2_base = master_equation_g2(params, base_cutoff, base_cutoff, mode)
        g2_ref = master_equation_g2(params, base_cutoff + 1, base_cutoff + 1, mode)
    except BicavityError as exc:
        return TruncationReport(base_cutoff, None, None, None, False, error=str(exc))
    rel = abs(g2_ref - g2_base) / abs(g2_ref)
    return TruncationReport(base_cutoff, g2_base, g2_ref, rel, rel <= TRUNCATION_TOL)
