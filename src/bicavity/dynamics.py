"""Hamiltonians and the Lindblad generator in the drive rotating frame.

Conventions
-----------
* The emitter energy term uses the excitation projector |+><+| (not Pauli-Z),
  so the singly excited emitter state carries detuning delta_a.  This matches
  the single-excitation linear system used by the weak-drive analytics.
* Pure dephasing is the standard Lindblad dissipator with jump operator
  sigma_z (Pauli, eigenvalues +-1) at rate gamma_p:
      (gamma_p/2) (2 sz rho sz - {sz^2, rho}) = gamma_p (sz rho sz - rho);
  sz^2 = 1, so its part of H_nh is -(i/2) gamma_p on the identity.
* The generator's coordinates are indexed by vec position pos(i, j) = j*dim + i,
  the column-stacked position of rho[i, j].

Affine operator table
---------------------
Every SystemParams field enters H_nh = sum_k theta_k H_k and L = sum_k theta_k L_k
linearly.  operator_table(space) caches the H_k and each dissipative field's
jumps c, and builds L_k rho = -i (H_k rho - rho H_k') + sum c rho c' from them
by index arithmetic when a Lindblad solve first asks; weak drive never does.

L maps Hermitian matrices to Hermitian matrices and every theta_k is real, so
the table stores L in Hermitian real coordinates: one real slot per vec
position, with pos(i, j) holding Re rho[i, j] for i <= j and pos(j, i) holding
Im rho[i, j] for i < j.  There L is a real dim^2 x dim^2 matrix (99 % zeros at cutoff 4)
kept as one coefficient row per field over a shared list of nonzero positions.

Excitation-difference blocks
----------------------------
Let k be the total excitation n_a + n_b + [emitter excited] of each basis
state, as the space states it (fock.FockSpace.excitations).  Every term of L
keeps k_i and k_j of the vec position (i, j) it acts on, or, for the jumps
c rho c', lowers both by one, except the drive, which changes one of them by
one.  So with the coordinates grouped by m = |k_i - k_j| (both slots of a pair
share one m), L is block tridiagonal over m and every population lies in
group 0.  In group m >= 1, L maps a coherence rho_uv with k_u < k_v only to
coherences of that orientation or into group 0, so there it is complex-linear
in z = rho_uv: the real block between two such groups is the realification
of a complex block of half the size.  OperatorTable.blocks caches the
grouping, group 0 in real coordinates and the others in complex slots; it
raises if the table holds a term that joins groups further apart, or entries
between groups m >= 1 that are not complex-linear.
On a space that caps the excitation (fock.FockSpace.max_excitation) all of
this holds on the kept kets, and the vacuum still leads group 0.

Solve plan
----------
OperatorTable.blocks (a BlockLayout) is also the parameter-independent part
of the steady-state solve, built once per space.  It holds one flat list of
the entries of every block L[a, b] with |a - b| <= 1: for each, its index in
the table's values, a factor +-1, and its place in the buffer of the
elimination step that reads it, so a point forms all its entries with one
product and fills each step's blocks with one assignment into a fresh
buffer, C-contiguous views with a zero column beside L[b, b-1] for group b's
right-hand side.  It also holds the trace row and the index maps that read
rho and max |rho_ij| straight from the real coordinates.  Nothing in it
changes per point, so concurrent solves on one space share it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .fock import (
    MODES,
    FockSpace,
    annihilator,
    emitter_excitation_projector,
    emitter_lowering,
    pauli_z,
)
from .params import SystemParams

# Order of the table's parts: theta_k is the k-th SystemParams field.
FIELDS = tuple(f.name for f in fields(SystemParams))


def from_real_coordinates(x: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix whose Hermitian real coordinates are x."""
    m = x.reshape((dim, dim), order="F")
    upper, lower = np.triu(m, 1), np.tril(m, -1)
    return np.diag(np.diag(m)) + upper + upper.T + 1j * (lower.T - lower)


def theta(params: SystemParams) -> np.ndarray:
    """The parameter point as the coefficient vector of the table's parts."""
    return np.array([getattr(params, name) for name in FIELDS])


@dataclass(frozen=True)
class OperatorTable:
    """Parameter-independent parts of the model on one space (read-only arrays).

    nonhermitian -- field -> operator in H_nh: real symmetric if coherent, else
                    -(i/2) sum c'c over its jumps
    jumps        -- dissipative field -> jump operators it is the rate of
    number       -- mode -> diagonal of a'a, the photon number of each basis state
    """

    space: FockSpace
    nonhermitian: dict[str, np.ndarray]
    jumps: dict[str, tuple[np.ndarray, ...]]
    number: dict[str, np.ndarray]

    @cached_property
    def generator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero positions of the real-coordinate generator, and each field's
        coefficient there: (rows, cols, parts), built on first use."""
        dim = self.space.dim
        eye = np.eye(dim)
        triplets = []
        for k, name in enumerate(FIELDS):
            # -i (H_k rho - rho H_k') + sum c rho c'
            h = self.nonhermitian[name]
            terms = [(h, eye, -1j), (eye, h.conj().T, 1j)]
            terms += [(c, c.T, 1.0) for c in self.jumps.get(name, ())]
            for left, right, coef in terms:
                rows, cols, vals = _real_coordinates(*_products(left, right, coef, dim), dim)
                triplets.append((np.full(rows.size, k), rows * dim**2 + cols, vals))

        field, flat, vals = (np.concatenate(t) for t in zip(*triplets))
        positions, index = np.unique(flat, return_inverse=True)
        parts = np.zeros((len(FIELDS), positions.size))
        np.add.at(parts, (field, index), vals)
        keep = parts.any(axis=0)
        rows, cols = np.divmod(positions[keep], dim**2)
        return _frozen(rows), _frozen(cols), _frozen(parts[:, keep])

    @cached_property
    def blocks(self) -> BlockLayout:
        """The generator cut into blocks by excitation difference, built on first use."""
        dim = self.space.dim
        n = dim**2
        k = self.space.excitations
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

        rows, cols, parts = self.generator
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
        # pos(lo, hi), Im from pos(hi, lo) times sign(i - j), as in
        # from_real_coordinates.  The max |rho_ij| reads the diagonal and the
        # pairs (pos(i, j), pos(j, i)), i < j.
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

    def values(self, params: SystemParams) -> np.ndarray:
        """Generator entries at the nonzero positions: sum_k theta_k L_k."""
        return theta(params) @ self.generator[2]

    def matvec(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Sparse product of the generator with the real coordinates x."""
        rows, cols, _ = self.generator
        return np.bincount(rows, weights=values * x[cols], minlength=x.size)


@dataclass(frozen=True)
class BlockLayout:
    """The steady-state solve's plan: coordinates grouped by m = |k_i - k_j| at
    vec position (i, j), and where each point's blocks and outputs sit.

    Only the drive changes a k, and by one, so the generator couples group m
    to groups m - 1, m and m + 1 alone: it is block tridiagonal over m.
    Group 0 keeps the real coordinates.  In group m >= 1, L maps each
    coherence rho_uv with k_u < k_v to coherences of that orientation or
    into group 0, so the group is solved in complex slots z = rho_uv.
    Everything here depends on the space alone: a point fills fresh buffers,
    so one plan serves concurrent solves.

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
        group 1 as z -> Re(L[0, 1] z).  The last column of L[b, b-1] is zero,
        left for group b's right-hand side.
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
        """Hermitian matrix whose real coordinates are x: from_real_coordinates
        bit for bit where x is finite."""
        source, weight = self.hermitian
        dim = self.magnitude[0].size  # one diagonal position per ket
        # + 0.0 turns -0.0 into 0.0, as the sums in from_real_coordinates do
        return (weight * x[source] + 0.0).view(complex).reshape(dim, dim)

    def largest(self, x: np.ndarray) -> float:
        """max |rho_ij| of the Hermitian matrix whose real coordinates are x; the same
        number as np.max(np.abs(from_real_coordinates(x, dim))), nan included."""
        diagonal, re, im = self.magnitude
        return float(np.maximum(np.abs(x[diagonal]).max(), np.abs(x[re] + 1j * x[im]).max()))


def _products(left: np.ndarray, right: np.ndarray, coef: complex, dim: int):
    """Vec-space triplets (rows, cols, values) of rho -> coef * left @ rho @ right."""
    k, i = np.nonzero(left)
    j, l = np.nonzero(right)
    # Entry (k, l) of the output picks up left[k, i] rho[i, j] right[j, l].
    rows = (l[None, :] * dim + k[:, None]).ravel()
    cols = (j[None, :] * dim + i[:, None]).ravel()
    return rows, cols, coef * np.outer(left[k, i], right[j, l]).ravel()


def _real_coordinates(rows, cols, vals, dim: int):
    """Real-coordinate triplets of a Hermiticity-preserving vec-space map."""
    i, j = cols % dim, cols // dim
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # rho[i, j] = x[pos(lo, hi)] + 1j * sign(j - i) * x[pos(hi, lo)]
    cols = np.concatenate([hi * dim + lo, lo * dim + hi])
    vals = np.concatenate([vals, 1j * np.sign(j - i) * vals])
    rows = np.concatenate([rows, rows])
    # Output entry (k, l), k <= l, feeds Re at pos(k, l) and, if k < l, Im at
    # pos(l, k); entries with k > l are its conjugates and carry nothing new.
    k, l = rows % dim, rows // dim
    re, im = k <= l, k < l
    return (
        np.concatenate([rows[re], k[im] * dim + l[im]]),
        np.concatenate([cols[re], cols[im]]),
        np.concatenate([vals[re].real, vals[im].imag]),
    )


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def operator_table(space: FockSpace) -> OperatorTable:
    """Build (once per space) the operators of the model; the generator is lazy."""
    a = annihilator(space, "ccw").real
    b = annihilator(space, "cw").real
    sm = emitter_lowering(space).real
    jumps = {"kappa": (a, b), "gamma_a": (sm,), "gamma_p": (pauli_z(space).real,)}
    nonhermitian = {
        "delta": a.T @ a + b.T @ b,
        "delta_a": emitter_excitation_projector(space).real,
        "j_coupling": a.T @ b + b.T @ a,
        "g_a": a.T @ sm + sm.T @ a,
        "g_b": b.T @ sm + sm.T @ b,
        "drive": a + a.T,
        **{name: -0.5j * sum(c.T @ c for c in cs) for name, cs in jumps.items()},
    }
    return OperatorTable(
        space=space,
        nonhermitian={name: _frozen(h) for name, h in nonhermitian.items()},
        jumps={name: tuple(_frozen(c) for c in cs) for name, cs in jumps.items()},
        number={mode: _frozen(np.diag(c.T @ c).copy()) for mode, c in zip(MODES, (a, b))},
    )


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
