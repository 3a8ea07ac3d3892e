"""Hamiltonians and the Lindblad generator in the drive rotating frame.

Conventions
-----------
* The emitter energy term uses the excitation projector |+><+| (not Pauli-Z),
  so the singly excited emitter state carries detuning delta_a.  This matches
  the single-excitation linear system used by the weak-drive analytics.
* Pure dephasing is the standard Lindblad dissipator with jump operator
  sigma_z (Pauli, eigenvalues +-1) at rate gamma_p:
      (gamma_p/2) (2 sz rho sz - {sz^2, rho}) = gamma_p (sz rho sz - rho).
* Superoperators act on column-stacked density matrices,
  vec(rho)[j*dim + i] = rho[i, j], so vec(A rho B) = kron(B.T, A) vec(rho).
  pos(i, j) = j*dim + i below is that vec position.

Affine operator table
---------------------
Every SystemParams field enters the generator linearly, L = sum_k theta_k L_k.
operator_table(space) builds the parts L_k once per space, by index
arithmetic on the nonzeros of the (real) ladder operators, and caches them.

L maps Hermitian matrices to Hermitian matrices and every theta_k is real, so
the table stores L in Hermitian real coordinates: one real slot per vec
position, with pos(i, j) holding Re rho[i, j] for i <= j and pos(j, i) holding
Im rho[i, j] for i < j.  There L is a real dim^2 x dim^2 matrix (99 % zeros at cutoff 4)
kept as one coefficient row per field over a shared list of nonzero positions.
Because L is complex-linear, this real block also fixes its action on
non-Hermitian matrices; Superoperator.matrix rebuilds the complex form.
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


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).flatten(order="F")


def unvectorize(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of vectorize()."""
    return np.asarray(vec).reshape((dim, dim), order="F")


def from_real_coordinates(x: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix whose Hermitian real coordinates are x."""
    m = unvectorize(x, dim)
    upper, lower = np.triu(m, 1), np.tril(m, -1)
    return np.diag(np.diag(m)) + upper + upper.T + 1j * (lower.T - lower)


@dataclass(frozen=True)
class OperatorTable:
    """Parameter-independent parts of the model on one space (read-only arrays).

    hamiltonian -- coherent field -> real symmetric operator it multiplies in H
    jumps       -- dissipative field -> jump operators it is the rate of
    number      -- mode -> diagonal of a'a, the photon number of each basis state
    rows, cols  -- nonzero positions of the real-coordinate generator
    parts       -- (len(FIELDS), nnz): coefficient of each field at each position
    """

    space: FockSpace
    hamiltonian: dict[str, np.ndarray]
    jumps: dict[str, tuple[np.ndarray, ...]]
    number: dict[str, np.ndarray]
    rows: np.ndarray
    cols: np.ndarray
    parts: np.ndarray

    def values(self, params: SystemParams) -> np.ndarray:
        """Generator entries at the nonzero positions: sum_k theta_k L_k."""
        return np.array([getattr(params, name) for name in FIELDS]) @ self.parts

    def dense(self, values: np.ndarray) -> np.ndarray:
        """Scatter values into a dense real dim^2 x dim^2 matrix."""
        n = self.space.dim**2
        m = np.zeros((n, n))
        m[self.rows, self.cols] = values
        return m

    def matvec(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Sparse product of the generator with the real coordinates x."""
        return np.bincount(self.rows, weights=values * x[self.cols], minlength=x.size)


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
    """Build (once per space) the operators and generator parts of the model."""
    dim = space.dim
    a = annihilator(space, "ccw").real
    b = annihilator(space, "cw").real
    sm = emitter_lowering(space).real
    hamiltonian = {
        "delta": a.T @ a + b.T @ b,
        "delta_a": emitter_excitation_projector(space).real,
        "j_coupling": a.T @ b + b.T @ a,
        "g_a": a.T @ sm + sm.T @ a,
        "g_b": b.T @ sm + sm.T @ b,
        "drive": a + a.T,
    }
    jumps = {"kappa": (a, b), "gamma_a": (sm,), "gamma_p": (pauli_z(space).real,)}

    eye = np.eye(dim)
    triplets = []
    for k, name in enumerate(FIELDS):
        if name in hamiltonian:  # -i [H, rho]
            h = hamiltonian[name]
            terms = [(h, eye, -1j), (eye, h, 1j)]
        else:  # c rho c' - (c'c rho + rho c'c) / 2
            terms = []
            for c in jumps[name]:
                cdc = c.T @ c
                terms += [(c, c.T, 1.0), (cdc, eye, -0.5), (eye, cdc, -0.5)]
        for left, right, coef in terms:
            rows, cols, vals = _real_coordinates(*_products(left, right, coef, dim), dim)
            triplets.append((np.full(rows.size, k), rows * dim**2 + cols, vals))

    field, flat, vals = (np.concatenate(t) for t in zip(*triplets))
    positions, index = np.unique(flat, return_inverse=True)
    parts = np.zeros((len(FIELDS), positions.size))
    np.add.at(parts, (field, index), vals)
    keep = parts.any(axis=0)
    rows, cols = np.divmod(positions[keep], dim**2)

    return OperatorTable(
        space=space,
        hamiltonian={name: _frozen(h) for name, h in hamiltonian.items()},
        jumps={name: tuple(_frozen(c) for c in cs) for name, cs in jumps.items()},
        number={mode: _frozen(np.diag(c.T @ c).copy()) for mode, c in zip(MODES, (a, b))},
        rows=_frozen(rows),
        cols=_frozen(cols),
        parts=_frozen(parts[:, keep]),
    )


@dataclass(frozen=True)
class Superoperator:
    """The Lindblad generator at one parameter point, a view over the table."""

    params: SystemParams
    space: FockSpace

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense complex dim^2 x dim^2 matrix acting on column-stacked rho."""
        table = operator_table(self.space)
        m = table.dense(table.values(self.params)).astype(complex)
        # Each off-diagonal pair rho[i, j], rho[j, i] (i < j) has a Re slot u =
        # pos(i, j) and an Im slot w = pos(j, i).  Columns take the pair to its
        # slots' complex combinations, rows take the slots back to the pair.
        i, j = np.triu_indices(self.space.dim, 1)
        u, w = j * self.space.dim + i, i * self.space.dim + j
        m[:, u], m[:, w] = 0.5 * (m[:, u] - 1j * m[:, w]), 0.5 * (m[:, u] + 1j * m[:, w])
        m[u], m[w] = m[u] + 1j * m[w], m[u] - 1j * m[w]
        return m

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvectorize(self.matrix @ vectorize(rho), self.space.dim)


def hamiltonian_eff(params: SystemParams, space: FockSpace) -> np.ndarray:
    """Rotating-frame Hamiltonian (units hbar = 1); exactly Hermitian."""
    terms = operator_table(space).hamiltonian
    return sum(getattr(params, name) * h for name, h in terms.items()).astype(complex)


def nonhermitian_hamiltonian(params: SystemParams, space: FockSpace) -> np.ndarray:
    """Effective Hamiltonian with decay folded into complex detunings.

    Intended for the weak-drive analysis; pure dephasing is not included.
    """
    jumps = operator_table(space).jumps
    decay = sum(
        getattr(params, name) * (c.T @ c) for name in ("kappa", "gamma_a") for c in jumps[name]
    )
    return hamiltonian_eff(params, space) - 0.5j * decay


def liouvillian(params: SystemParams, space: FockSpace) -> Superoperator:
    """Full Lindblad generator: drho/dt = L[rho]."""
    return Superoperator(params, space)
