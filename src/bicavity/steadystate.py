"""Steady state of the Lindblad equation and photon-statistics observables.

steady_state() solves L[rho] = 0 with Tr(rho) = 1 in the Hermitian real
coordinates of dynamics.operator_table.  Let k be the total excitation of
each kept ket (fock.FockSpace.excitations; the vacuum is ket 0, capped or not).
Every term of L keeps k_i and k_j of the vec position (i, j) it acts on, or,
for the jumps c rho c', lowers both by one; only the drive changes one of
them, by one.  So with the coordinates grouped by m = |k_i - k_j| (both
slots of a pair share one m), L is block tridiagonal over m, and group 0
holds every population and stays real.  In group m >= 1, L maps a coherence
rho_uv with k_u < k_v only to coherences of that orientation or into group
0, so it is complex-linear there: the group is solved in complex slots
z = rho_uv, half as many unknowns as its real coordinates.

solve_plan(space), a BlockLayout built once per space, is the
parameter-independent part of the solve, and building it checks both facts
above on the table.  It lists every entry of the blocks L[a, b], |a - b| <= 1,
with its index in the table's values, a factor +-1 and its place in the
buffer of the elimination step that reads it: a point forms its entries with
one product and fills each step's fresh buffer, C-contiguous blocks with a
zero column beside L[b, b-1] for group b's right-hand side, with one
assignment.  It also holds the trace row and the index maps that read rho
and max |rho_ij| off the real coordinates.  Nothing in it changes per point,
so concurrent solves on one space share it.

_block_solve eliminates the groups from the top down by Schur complements,
solves group 0 with the trace condition in place of the row of rho[0, 0] and
back-substitutes: the same system as one dense LU in exact arithmetic, at
about a seventh of its flops.  It does not pivot across groups and loses
digits when the drive is much larger than kappa, so steady_state refines
with it: each step solves for the correction from the last residual (the
first, at x = 0, is the plain elimination), and refinement stops at a step
that does not lower the residual max |L[rho]|, a sparse product with the
same entries.  The observables read photon numbers cached in the table, and
g2_zero needs a mean photon number above UNDERFLOW_GUARD.  solve_steady
takes an excitation cap; without one it, master_equation_g2 and
check_truncation solve on the full box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import OperatorTable, operator_table
from .errors import (
    BicavityError,
    DegenerateSteadyStateError,
    InvalidTruncationError,
    SteadyStateSolverError,
    UndefinedCorrelationError,
)
# perfbench/tracer.py wraps annihilator and build_space on this module.
from .fock import MODES, FockSpace, _frozen, _is_integer, annihilator, build_space  # noqa: F401
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


@dataclass(frozen=True)
class Superoperator:
    """The Lindblad generator at one parameter point, as a (params, space) pair.

    Its entries are operator_table(space).values(params).  The pair is
    steady_state's argument, and perfbench's tracer reads its space.
    """

    params: SystemParams
    space: FockSpace


def liouvillian(params: SystemParams, space: FockSpace) -> Superoperator:
    """The Lindblad generator of drho/dt = L[rho] at one parameter point."""
    return Superoperator(params, space)


@dataclass(frozen=True)
class BlockLayout:
    """The solve plan of one space: where each group's coordinates, each
    point's block entries and the outputs sit (see the module docstring).

    order   -- group 0's vec positions, then each slot's Re position, by
               group: group b is order[bounds[b]:bounds[b + 1]], and
               position 0 leads group 0
    imag    -- Im position of each slot of order[bounds[1]:]
    sign    -- s of each slot: z = x[Re] + i s x[Im]
    fill    -- (index into the table's values, factor +-1) of every block
               entry, step by step
    steps   -- elimination step b = top, ..., 1 -> (complex elements of its
               buffer; index into the buffer's float64 view of each of its
               entries; the slice of fill they take; {(a, b): (first complex
               element, rows, columns)} of the blocks it reads: L[b, b-1], with
               one more column for group b's right-hand side, L[b-1, b] and
               L[b-1, b-1], and at b = top L[top, top] too)
    trace   -- the trace row: 1 at the diagonal positions pos(i, i)
    hermitian -- (source, weight): the float64 view of rho in C order is
               weight * x[source]
    magnitude -- (diagonal, Re, Im) positions: the diagonal, and the pair
               (pos(i, j), pos(j, i)) of each i < j
    """

    order: np.ndarray
    imag: np.ndarray
    sign: np.ndarray
    bounds: np.ndarray
    fill: tuple[np.ndarray, np.ndarray]
    steps: dict[int, tuple[int, np.ndarray, slice, dict]]
    trace: np.ndarray
    hermitian: tuple[np.ndarray, np.ndarray]
    magnitude: tuple[np.ndarray, np.ndarray, np.ndarray]

    def members(self, b: int) -> np.ndarray:
        """Vec positions of group 0, or the Re positions of group b's slots."""
        return self.order[self.bounds[b] : self.bounds[b + 1]]

    def entries(self, values: np.ndarray) -> np.ndarray:
        """Every block entry at one point, in the order of fill."""
        index, factor = self.fill
        return factor * values[index]

    def assemble(self, entries: np.ndarray, b: int) -> dict[tuple[int, int], np.ndarray]:
        """The blocks elimination step b reads, as views into one fresh buffer
        filled by one assignment from the point's entries.

        Every block is complex but L[0, 0]; L[0, 1] acts on the slots z of
        group 1 as z -> Re(L[0, 1] z).
        """
        size, dest, part, spans = self.steps[b]
        buffer = np.zeros(size, dtype=complex)
        buffer.view(float)[dest] = entries[part]
        blocks = {}
        for key, (start, rows, cols) in spans.items():
            view = buffer[start:].view(float) if key == (0, 0) else buffer[start:]
            blocks[key] = view[: rows * cols].reshape(rows, cols)
        return blocks

    def gather(self, x: np.ndarray) -> list[np.ndarray]:
        """Each group's part of the real coordinates x: group 0 real, then slots z."""
        slots = x[self.order[self.bounds[1] :]] + 1j * self.sign * x[self.imag]
        cuts = (self.bounds[1:] - self.bounds[1]).tolist()
        return [x[self.members(0)], *(slots[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:]))]

    def scatter(self, parts: list[np.ndarray]) -> np.ndarray:
        """Real coordinates from each group's part: the inverse of gather."""
        x = np.empty(self.order.size + self.imag.size)
        x[self.members(0)] = parts[0]
        slots = np.concatenate(parts[1:])
        x[self.order[self.bounds[1] :]] = slots.real
        x[self.imag] = self.sign * slots.imag
        return x

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """Hermitian matrix whose real coordinates are x: where x is finite, bit
        for bit the tests' reference from_real_coordinates (test_properties)."""
        source, weight = self.hermitian
        dim = self.magnitude[0].size  # one diagonal position per ket
        # + 0.0 turns -0.0 into 0.0, as the sums of that reference do
        return (weight * x[source] + 0.0).view(complex).reshape(dim, dim)

    def largest(self, x: np.ndarray) -> float:
        """max |rho_ij| of the Hermitian matrix whose real coordinates are x: nan
        included, the max |.| of the tests' reference from_real_coordinates
        (test_properties)."""
        diagonal, re, im = self.magnitude
        return float(np.maximum(np.abs(x[diagonal]).max(), np.abs(x[re] + 1j * x[im]).max()))


def _layout(table: OperatorTable) -> BlockLayout:
    """The solve plan of the table's generator, built anew on each call."""
    dim = table.space.dim
    n = dim**2
    k = table.space.excitations
    vec = np.arange(n)
    i, j = vec % dim, vec // dim
    transpose = i * dim + j
    group = np.abs(k[i] - k[j])
    # In group m >= 1 the pair of pos(i, j), pos(j, i), i < j, is one complex
    # slot z = rho_uv with k_u < k_v: Re at pos(i, j), Im at pos(j, i), and
    # z = Re + i s Im with s = +1 if u < v, that is if k_i < k_j.
    imag = (group > 0) & (i > j)
    sign = np.where(k[np.minimum(i, j)] < k[np.maximum(i, j)], 1.0, -1.0)
    real = np.flatnonzero(~imag)
    order = real[np.argsort(group[real], kind="stable")]
    bounds = np.searchsorted(group[order], np.arange(group.max() + 2))
    local = np.empty_like(vec)
    local[order] = np.arange(order.size) - bounds[group[order]]
    local[imag] = local[transpose[imag]]

    rows, cols, parts = table.generator
    row_group, col_group = group[rows], group[cols]
    if np.any(np.abs(row_group - col_group) > 1):
        raise AssertionError("generator couples groups that differ by more than one")
    # Between groups m >= 1 the real block is the realification of a complex
    # one: each entry's twin at the transposed row and column holds the same
    # coefficients times s_r s_c, negated if just one of them is an Im position.
    coherent = np.flatnonzero((row_group > 0) & (col_group > 0))
    key = rows * n + cols
    twin_key = transpose[rows[coherent]] * n + transpose[cols[coherent]]
    twin = np.minimum(np.searchsorted(key, twin_key), key.size - 1)
    ratio = sign[rows[coherent]] * sign[cols[coherent]]
    ratio[imag[rows[coherent]] != imag[cols[coherent]]] *= -1.0
    if np.any(key[twin] != twin_key) or not np.array_equal(
        parts[:, twin], ratio * parts[:, coherent]
    ):
        raise AssertionError("generator is not complex-linear on the coherences of groups m >= 1")

    # An entry in an Im row enters the complex block times i s_r, one in an
    # Im column times -i s_c; the Im columns between groups m >= 1 are the
    # twins, implied by the rest.  Every block but L[0, 0] is complex.
    # Elimination step b lays the blocks it reads out in one buffer, each
    # C-contiguous, with L[b, b-1] one column wider for group b's
    # right-hand side; dest indexes the buffer's float64 view, real and
    # imaginary parts interleaved.
    sizes = np.diff(bounds).tolist()
    top = len(sizes) - 1
    first, step = np.zeros((2, top + 1, top + 1), dtype=int)
    buffers = {}
    for s in range(top, 0, -1):
        views, start = {}, 0
        for a, b in [(top, top)] * (s == top) + [(s, s - 1), (s - 1, s), (s - 1, s - 1)]:
            rows_ab, cols_ab = sizes[a], sizes[b] + (a == b + 1)
            views[a, b] = (start, rows_ab, cols_ab)
            first[a, b], step[a, b] = 2 * start, s
            # the real L[0, 0] takes half as many complex elements, rounded up
            start += -(-rows_ab * cols_ab // 2) if a == b == 0 else rows_ab * cols_ab
        buffers[s] = (start, views)
    factor = np.where(imag[rows], sign[rows], 1.0) * np.where(imag[cols], -sign[cols], 1.0)
    width = np.array(sizes)[col_group] + (row_group == col_group + 1)
    flat = local[rows] * width + local[cols]
    complex_block = (row_group > 0) | (col_group > 0)
    flat[complex_block] = 2 * flat[complex_block] + (imag[rows] | imag[cols])[complex_block]
    dest = flat + first[row_group, col_group]
    # One list of entries, step by step from the top, without the twins.
    twins = (row_group > 0) & imag[cols]
    by_step = [np.flatnonzero((step[row_group, col_group] == s) & ~twins) for s in buffers]
    kept = np.concatenate(by_step)
    cuts = np.cumsum([0, *map(len, by_step)]).tolist()
    steps = {
        s: (size, _frozen(dest[index]), slice(lo, hi), views)
        for (s, (size, views)), index, lo, hi in zip(buffers.items(), by_step, cuts, cuts[1:])
    }

    # C-order position v of a dim x dim matrix holds rho[j, i]: Re from
    # pos(lo, hi), Im from pos(hi, lo) times sign(i - j).  The max |rho_ij|
    # reads the diagonal and the pairs (pos(i, j), pos(j, i)), i < j.
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    source = np.stack([hi * dim + lo, lo * dim + hi], axis=1).ravel()
    weight = np.stack([np.ones(n), np.sign(i - j)], axis=1).ravel()
    trace = (i == j).astype(float)
    pairs = np.flatnonzero(i < j)
    slots = order[bounds[1] :]
    return BlockLayout(
        _frozen(order), _frozen(transpose[slots]), _frozen(sign[slots]), _frozen(bounds),
        (_frozen(kept), _frozen(factor[kept])), steps, _frozen(trace),
        (_frozen(source), _frozen(weight)),
        (_frozen(np.flatnonzero(i == j)), _frozen(pairs), _frozen(transpose[pairs])),
    )


@lru_cache(maxsize=8)
def solve_plan(space: FockSpace) -> BlockLayout:
    """The solve plan of the space's operator table, built once per space."""
    return _layout(operator_table(space))


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
    layout = solve_plan(lv.space)
    values = table.values(p)
    x = np.zeros(layout.trace.size)
    step = np.zeros(x.size)  # L x and trace @ x - 1 at x = 0
    step[0] = -1.0
    previous = np.inf
    try:
        for _ in range(8):
            x -= _block_solve(layout, values, step)
            rho, residual = _state(table, layout, values, x)
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

    Group b's rows read L[b, b-1] x_{b-1} + D_b x_b + L[b, b+1] x_{b+1} = r_b.
    From the top group down to group 1, x_b = y_b - X_b x_{b-1} with
    y_b = D_b^-1 r_b and X_b = D_b^-1 L[b, b-1], both from one solve against
    L[b, b-1] and the column r_b beside it, which turns group b - 1's diagonal
    block into D_{b-1} = L[b-1, b-1] - L[b-1, b] X_b and its right-hand side
    into r_{b-1} - L[b-1, b] y_b; into group 0 both updates take the real
    part.  Group 0's block then gives x_0.
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


def _state(table, layout, values, x) -> tuple[np.ndarray, float]:
    """Unit-trace rho from real coordinates x, and its residual max |L[rho]|."""
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
    A base that is not an integer >= 2 raises before any solve; a package error
    of a solve is reported in `error`; any other exception propagates."""
    if not _is_integer(base_cutoff):
        raise InvalidTruncationError(f"base_cutoff must be an integer, got {base_cutoff!r}")
    if base_cutoff < 2:
        raise ValueError(f"base_cutoff must be >= 2, got {base_cutoff}")
    try:
        g2_base = master_equation_g2(params, base_cutoff, base_cutoff, mode)
        g2_ref = master_equation_g2(params, base_cutoff + 1, base_cutoff + 1, mode)
    except BicavityError as exc:
        return TruncationReport(base_cutoff, None, None, None, False, error=str(exc))
    rel = abs(g2_ref - g2_base) / abs(g2_ref)
    return TruncationReport(base_cutoff, g2_base, g2_ref, rel, rel <= TRUNCATION_TOL)
