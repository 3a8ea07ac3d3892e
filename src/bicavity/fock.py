"""Truncated composite Hilbert space: two bosonic modes and one two-level emitter.

Basis ordering is row-major over (n_a, n_b, i) with the emitter index i
fastest, i = '-' (ground) before i = '+' (excited):

    flat = (n_a * (n_b_max + 1) + n_b) * 2 + (0 if i == '-' else 1)

Ladder operators are plain truncations (no re-normalisation at the cutoff);
convergence against truncation is checked at the steady-state level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTruncationError

MODES = ("ccw", "cw")
EMITTER_STATES = ("-", "+")


@dataclass(frozen=True)
class FockSpace:
    """Composite space |n_a, n_b, i> with photon cutoffs n_a_max, n_b_max."""

    n_a_max: int
    n_b_max: int

    def __post_init__(self):
        if self.n_a_max < 1 or self.n_b_max < 1:
            raise InvalidTruncationError(
                f"photon cutoffs must be >= 1, got ({self.n_a_max}, {self.n_b_max})"
            )

    @property
    def dim(self) -> int:
        return (self.n_a_max + 1) * (self.n_b_max + 1) * 2

    def index(self, n_a: int, n_b: int, i: str) -> int:
        """Flat index of the basis state |n_a, n_b, i> with i in {'-', '+'}."""
        if not (0 <= n_a <= self.n_a_max and 0 <= n_b <= self.n_b_max):
            raise IndexError(f"photon numbers ({n_a}, {n_b}) outside cutoffs")
        if i not in EMITTER_STATES:
            raise IndexError(f"emitter state must be '-' or '+', got {i!r}")
        return (n_a * (self.n_b_max + 1) + n_b) * 2 + EMITTER_STATES.index(i)

    def label(self, flat: int) -> tuple[int, int, str]:
        """Inverse of index()."""
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} outside [0, {self.dim})")
        flat, i = divmod(flat, 2)
        n_a, n_b = divmod(flat, self.n_b_max + 1)
        return n_a, n_b, EMITTER_STATES[i]

    def labels(self):
        """All basis labels in flat-index order."""
        return [self.label(k) for k in range(self.dim)]


def build_space(n_a_max: int, n_b_max: int) -> FockSpace:
    """Construct the truncated composite space; cutoffs must be >= 1."""
    return FockSpace(n_a_max, n_b_max)


def _destroy(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), 1).astype(complex)


def _embed(space: FockSpace, op_a=None, op_b=None, op_e=None) -> np.ndarray:
    """Kronecker-embed single-factor operators into the composite space."""
    ia = np.eye(space.n_a_max + 1, dtype=complex)
    ib = np.eye(space.n_b_max + 1, dtype=complex)
    ie = np.eye(2, dtype=complex)
    a = ia if op_a is None else op_a
    b = ib if op_b is None else op_b
    e = ie if op_e is None else op_e
    return np.kron(a, np.kron(b, e))


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
