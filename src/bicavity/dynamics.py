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
grouping, group 0 in real coordinates and the others in complex slots, and
for every block L[a, b] with |a - b| <= 1 where its entries sit in the
table's values; it raises if the table holds a term that joins groups
further apart, or entries between groups m >= 1 that are not complex-linear.
On a space that caps the excitation (fock.FockSpace.max_excitation) all of
this holds on the kept kets, and the vacuum still leads group 0.
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
        n = self.space.dim**2
        k = self.space.excitations
        vec = np.arange(n)
        i, j = vec % self.space.dim, vec // self.space.dim
        transpose = i * self.space.dim + j
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
        # twins, implied by the rest.  Every block but L[0, 0] is complex, and
        # flat indexes its float64 view, real and imaginary parts interleaved.
        twins = (row_group > 0) & imag[cols]
        factor = np.where(imag[rows], sign[rows], 1.0) * np.where(imag[cols], -sign[cols], 1.0)
        width = np.diff(bounds)[col_group]
        flat = local[rows] * width + local[cols]
        complex_block = (row_group > 0) | (col_group > 0)
        flat[complex_block] = 2 * flat[complex_block] + (imag[rows] | imag[cols])[complex_block]
        entries = {}
        for a in range(len(bounds) - 1):
            for b in range(max(a - 1, 0), min(a + 2, len(bounds) - 1)):
                index = np.flatnonzero((row_group == a) & (col_group == b) & ~twins)
                entries[a, b] = (_frozen(flat[index]), _frozen(index), _frozen(factor[index]))
        slots = order[bounds[1] :]
        return BlockLayout(
            _frozen(order), _frozen(transpose[slots]), _frozen(sign[slots]), _frozen(bounds), entries
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
    """Coordinates grouped by m = |k_i - k_j| at vec position (i, j).

    Only the drive changes a k, and by one, so the generator couples group m
    to groups m - 1, m and m + 1 alone: it is block tridiagonal over m.
    Group 0 keeps the real coordinates.  In group m >= 1, L maps each
    coherence rho_uv with k_u < k_v to coherences of that orientation or
    into group 0, so the group is solved in complex slots z = rho_uv.

    order   -- group 0's vec positions, then each slot's Re position, by
               group: group b is order[bounds[b]:bounds[b + 1]], and
               position 0 leads group 0
    imag    -- Im position of each slot of order[bounds[1]:]
    sign    -- s of each slot: z = x[Re] + i s x[Im]
    entries -- (a, b) with |a - b| <= 1 -> (flat index into the float64 view
               of block L[a, b], index into the table's values, factor +-1)
    """

    order: np.ndarray
    imag: np.ndarray
    sign: np.ndarray
    bounds: np.ndarray
    entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]]

    def members(self, b: int) -> np.ndarray:
        """Vec positions of group 0, or the Re positions of group b's slots."""
        return self.order[self.bounds[b] : self.bounds[b + 1]]

    def block(self, values: np.ndarray, a: int, b: int) -> np.ndarray:
        """Block L[a, b]: rows of group a, columns of group b; complex unless a = b = 0.

        L[0, 1] acts on the slots z of group 1 as z -> Re(L[0, 1] z).
        """
        flat, index, factor = self.entries[a, b]
        shape = (self.bounds[a + 1] - self.bounds[a], self.bounds[b + 1] - self.bounds[b])
        m = np.zeros(shape, dtype=float if a == b == 0 else complex)
        m.view(float).ravel()[flat] = factor * values[index]
        return m

    def gather(self, x: np.ndarray) -> list[np.ndarray]:
        """Each group's part of the real coordinates x: group 0 real, then slots z."""
        slots = x[self.order[self.bounds[1] :]] + 1j * self.sign * x[self.imag]
        return [x[self.members(0)], *np.split(slots, self.bounds[2:-1] - self.bounds[1])]

    def scatter(self, parts: list[np.ndarray]) -> np.ndarray:
        """Real coordinates from each group's part: the inverse of gather."""
        x = np.empty(self.order.size + self.imag.size)
        x[self.members(0)] = parts[0]
        slots = np.concatenate(parts[1:])
        x[self.order[self.bounds[1] :]] = slots.real
        x[self.imag] = self.sign * slots.imag
        return x


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
