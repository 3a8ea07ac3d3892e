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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .fock import (
    MODES,
    FockSpace,
    _frozen,
    annihilator,
    emitter_excitation_projector,
    emitter_lowering,
    pauli_z,
)
from .params import SystemParams

# Order of the table's parts: theta_k is the k-th SystemParams field.
FIELDS = tuple(f.name for f in fields(SystemParams))


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

    def values(self, params: SystemParams) -> np.ndarray:
        """Generator entries at the nonzero positions: sum_k theta_k L_k."""
        return theta(params) @ self.generator[2]

    def matvec(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Sparse product of the generator with the real coordinates x."""
        rows, cols, _ = self.generator
        return np.bincount(rows, weights=values * x[cols], minlength=x.size)


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
