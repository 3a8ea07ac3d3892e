"""Truncated composite Hilbert space: two bosonic modes and one two-level emitter.

Basis ordering is row-major over (n_a, n_b, i) with the emitter index i
fastest, i = '-' (ground) before i = '+' (excited):

    flat = (n_a * (n_b_max + 1) + n_b) * 2 + (0 if i == '-' else 1)

Ladder operators are plain truncations (no re-normalisation at the cutoff);
convergence against truncation is checked at the steady-state level.

A space may also cap the total excitation k = n_a + n_b + [emitter excited]:
it then keeps only the kets with k <= max_excitation, in the box order above,
and index, label and dim count the kept kets alone.  Its operators are the
box operators restricted to the kept kets, the same plain truncation.  Every
lowering operator maps a kept ket to a kept ket, so products such as a'a and
a'b of restricted operators equal the restricted box products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidTruncationError

MODES = ("ccw", "cw")
EMITTER_STATES = ("-", "+")


@dataclass(frozen=True)
class FockSpace:
    """Composite space |n_a, n_b, i> with photon cutoffs n_a_max, n_b_max.

    max_excitation, if set, keeps only the kets with n_a + n_b + [i == '+']
    at most that; a cap that every ket meets is the box and is stored as None.
    """

    n_a_max: int
    n_b_max: int
    max_excitation: int | None = None

    def __post_init__(self):
        if self.n_a_max < 1 or self.n_b_max < 1:
            raise InvalidTruncationError(
                f"photon cutoffs must be >= 1, got ({self.n_a_max}, {self.n_b_max})"
            )
        if self.max_excitation is not None:
            if self.max_excitation < 1:
                raise InvalidTruncationError(
                    f"excitation cap must be >= 1, got {self.max_excitation}"
                )
            if self.max_excitation > self.n_a_max + self.n_b_max:
                object.__setattr__(self, "max_excitation", None)

    @cached_property
    def kept(self) -> np.ndarray:
        """Box index of each kept ket, in box order (read-only)."""
        n_a, n_b, i = np.indices((self.n_a_max + 1, self.n_b_max + 1, 2)).reshape(3, -1)
        excitations = n_a + n_b + i
        cap = excitations.max() if self.max_excitation is None else self.max_excitation
        kept = np.flatnonzero(excitations <= cap)
        kept.setflags(write=False)
        return kept

    @property
    def dim(self) -> int:
        if self.max_excitation is None:
            return (self.n_a_max + 1) * (self.n_b_max + 1) * 2
        return self.kept.size

    def index(self, n_a: int, n_b: int, i: str) -> int:
        """Flat index of the basis state |n_a, n_b, i> with i in {'-', '+'}."""
        if not (0 <= n_a <= self.n_a_max and 0 <= n_b <= self.n_b_max):
            raise IndexError(f"photon numbers ({n_a}, {n_b}) outside cutoffs")
        if i not in EMITTER_STATES:
            raise IndexError(f"emitter state must be '-' or '+', got {i!r}")
        e = EMITTER_STATES.index(i)
        if self.max_excitation is not None and n_a + n_b + e > self.max_excitation:
            raise IndexError(
                f"|{n_a}, {n_b}, {i}> has more than {self.max_excitation} excitations"
            )
        return int(np.searchsorted(self.kept, (n_a * (self.n_b_max + 1) + n_b) * 2 + e))

    def label(self, flat: int) -> tuple[int, int, str]:
        """Inverse of index()."""
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} outside [0, {self.dim})")
        box, i = divmod(int(self.kept[flat]), 2)
        n_a, n_b = divmod(box, self.n_b_max + 1)
        return n_a, n_b, EMITTER_STATES[i]

    def labels(self):
        """All basis labels in flat-index order."""
        return [self.label(k) for k in range(self.dim)]


def build_space(n_a_max: int, n_b_max: int, max_excitation: int | None = None) -> FockSpace:
    """Construct the truncated composite space; cutoffs and any cap must be >= 1."""
    return FockSpace(n_a_max, n_b_max, max_excitation)


def _destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), 1).astype(complex)


def _embed(space: FockSpace, op_a=None, op_b=None, op_e=None) -> np.ndarray:
    """Kronecker-embed single-factor operators into the composite space,
    restricted to its kept kets."""
    ia = np.eye(space.n_a_max + 1, dtype=complex)
    ib = np.eye(space.n_b_max + 1, dtype=complex)
    ie = np.eye(2, dtype=complex)
    a = ia if op_a is None else op_a
    b = ib if op_b is None else op_b
    e = ie if op_e is None else op_e
    box = np.kron(a, np.kron(b, e))
    if space.max_excitation is None:
        return box
    return box[np.ix_(space.kept, space.kept)]


def annihilator(space: FockSpace, mode: str) -> np.ndarray:
    """Photon annihilation operator of the 'ccw' or 'cw' mode."""
    mode = mode.lower()
    if mode == "ccw":
        return _embed(space, op_a=_destroy(space.n_a_max))
    if mode == "cw":
        return _embed(space, op_b=_destroy(space.n_b_max))
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# Emitter single-factor matrices in the basis (|->, |+>).
_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
_PROJECTOR_E = np.diag([0.0, 1.0]).astype(complex)
_PAULI_Z = np.diag([-1.0, 1.0]).astype(complex)


def emitter_lowering(space: FockSpace) -> np.ndarray:
    """sigma_- : maps |+> to |->."""
    return _embed(space, op_e=_SIGMA_MINUS)


def emitter_excitation_projector(space: FockSpace) -> np.ndarray:
    """|+><+| on the emitter factor."""
    return _embed(space, op_e=_PROJECTOR_E)


def pauli_z(space: FockSpace) -> np.ndarray:
    """Genuine Pauli-Z (eigenvalues -1 on |->, +1 on |+>)."""
    return _embed(space, op_e=_PAULI_Z)
