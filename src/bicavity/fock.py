"""Truncated composite Hilbert space: two bosonic modes and one two-level emitter.

A space is one table of its kets (n_a, n_b, e), e = 0 for the ground emitter
state '-' and 1 for the excited '+'.  The box (no cap) holds every ket below
the photon cutoffs, row-major over (n_a, n_b, e) with e fastest:

    box flat = (n_a * (n_b_max + 1) + n_b) * 2 + e

A space may also cap the total excitation k = n_a + n_b + e: it then keeps
only the kets with k <= max_excitation, in the box order above, and index,
label and dim count the kept kets alone.

Operators are built on the kets.  A lowering operator puts sqrt(n) at (lowered
ket, ket): a plain truncation, not re-normalised at the cutoff (convergence
against truncation is checked at the steady-state level).  Lowering never
raises k, so the lowered ket is kept, and a capped operator is the box
operator restricted to the kept kets; so are products such as a'a and a'b.
"""

from __future__ import annotations

import numbers
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
        for value in (self.n_a_max, self.n_b_max, self.max_excitation):
            if value is not None and not _is_integer(value):
                raise InvalidTruncationError(
                    f"photon cutoffs and excitation cap must be integers, got {value!r}"
                )
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
    def kets(self) -> np.ndarray:
        """(n_a, n_b, e) of each kept ket, shape (3, dim), in box order (read-only)."""
        kets = np.indices((self.n_a_max + 1, self.n_b_max + 1, 2)).reshape(3, -1)
        if self.max_excitation is not None:
            kets = kets[:, kets.sum(axis=0) <= self.max_excitation]
        return _frozen(kets)

    @cached_property
    def excitations(self) -> np.ndarray:
        """Total excitation k = n_a + n_b + e of each kept ket (read-only)."""
        return _frozen(self.kets.sum(axis=0))

    @property
    def dim(self) -> int:
        return self.kets.shape[1]

    def _flat(self, kets) -> np.ndarray:
        """Flat index of kept kets given as (n_a, n_b, e) columns, found by their
        box flat index (n_a * (n_b_max + 1) + n_b) * 2 + e."""
        box = np.array([(self.n_b_max + 1) * 2, 2, 1])
        return np.searchsorted(box @ self.kets, box @ kets)

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
        return int(self._flat((n_a, n_b, e)))

    def label(self, flat: int) -> tuple[int, int, str]:
        """Inverse of index()."""
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} outside [0, {self.dim})")
        n_a, n_b, e = self.kets[:, flat].tolist()
        return n_a, n_b, EMITTER_STATES[e]

    def labels(self):
        """All basis labels in flat-index order."""
        return [self.label(k) for k in range(self.dim)]


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.setflags(write=False)
    return a


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def build_space(n_a_max: int, n_b_max: int, max_excitation: int | None = None) -> FockSpace:
    """Construct the truncated composite space; cutoffs and any cap must be >= 1."""
    return FockSpace(n_a_max, n_b_max, max_excitation)


def _lowering(space: FockSpace, factor: int) -> np.ndarray:
    """Lower n_a (factor 0), n_b (1) or e (2) by one: sqrt(n) at (lowered ket, ket)."""
    n = space.kets[factor]
    cols = np.flatnonzero(n)
    lowered = space.kets[:, cols].copy()
    lowered[factor] -= 1
    op = np.zeros((space.dim, space.dim), dtype=complex)
    op[space._flat(lowered), cols] = np.sqrt(n[cols])
    return op


def annihilator(space: FockSpace, mode: str) -> np.ndarray:
    """Photon annihilation operator of the 'ccw' or 'cw' mode."""
    mode = mode.lower()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return _lowering(space, MODES.index(mode))


def emitter_lowering(space: FockSpace) -> np.ndarray:
    """sigma_- : maps |+> to |->."""
    return _lowering(space, 2)


def emitter_excitation_projector(space: FockSpace) -> np.ndarray:
    """|+><+| on the emitter factor."""
    return np.diag(space.kets[2]).astype(complex)


def pauli_z(space: FockSpace) -> np.ndarray:
    """Genuine Pauli-Z (eigenvalues -1 on |->, +1 on |+>)."""
    return np.diag(2 * space.kets[2] - 1).astype(complex)
