"""Correctness gate: compare emitted CSV rows with the stored reference outputs.

Each unit of work has its own reference table: every row it must produce, in
order.  A row fails when its axis values or error code differ from the
reference row at the same position, or when one of its outputs differs by
more than the column's relative tolerance.  Master-equation outputs use
steadystate.TRUNCATION_TOL, the accuracy the program itself promises for a
cutoff; analytic and mean-field outputs are closed forms and 8x8 solves,
exact up to rounding, and use 1e-8.  Missing rows count as failed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from workloads import sweep  # puts the checkout's src/ on sys.path first
from bicavity.steadystate import TRUNCATION_TOL

RTOL_MASTER = TRUNCATION_TOL
RTOL_OTHER = 1e-8


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and rows (one float array) of a CSV written by bicavity."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",") if lines else []
    if len(lines) < 2:
        return columns, np.empty((0, len(columns)))
    return columns, np.loadtxt(lines[1:], delimiter=",", dtype=float, ndmin=2)


def n_axes(columns: list[str]) -> int:
    """Number of leading axis columns: those before the first output column."""
    return next(i for i, c in enumerate(columns) if c in sweep.ALL_OUTPUTS)


class ReferenceTable:
    """Stored outputs of one unit, in the order the unit writes them."""

    def __init__(self, columns: list[str], rows: np.ndarray):
        self.columns = list(columns)
        self.rows = rows
        self.n_axes = n_axes(self.columns)
        self.rtol = np.array([RTOL_MASTER if c in sweep.MASTER_OUTPUTS else RTOL_OTHER
                              for c in self.columns[self.n_axes:-1]])

    def failed_rows(self, columns: list[str], rows: np.ndarray) -> int:
        """Reference rows missing from `rows` or wrong there, plus extra rows; at most all."""
        expected = len(self.rows)
        if columns != self.columns or rows.shape[1] != len(columns):
            return expected
        m = min(len(rows), expected)
        got, ref, n = rows[:m], self.rows[:m], self.n_axes
        same = (got[:, :n] == ref[:, :n]).all(axis=1) & (got[:, -1] == ref[:, -1])
        value, want = got[:, n:-1], ref[:, n:-1]
        with np.errstate(invalid="ignore"):
            close = ((value == want) | (np.abs(value - want) <= self.rtol * np.abs(want))
                     | (np.isnan(value) & np.isnan(want)))
        failed = expected - int(np.count_nonzero(same & close.all(axis=1))) + len(rows) - m
        return min(failed, expected)


def code_id(dirs, extra: str) -> str:
    """Digest of every .py file under dirs plus `extra` (library versions)."""
    h = hashlib.sha256(extra.encode())
    for d in dirs:
        for path in sorted(Path(d).rglob("*.py")):
            h.update(str(path.relative_to(d)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestBook:
    """CSV digests per input key, kept on disk across runs of the same code.

    The CSV must be byte-for-byte deterministic, so a digest that differs from
    one recorded earlier for the same inputs and code marks a failed operation.
    """

    def __init__(self, path: Path, code: str):
        self.path = Path(path)
        self.code = code
        try:
            saved = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            saved = {}
        self.entries = saved.get(code, {}) if isinstance(saved, dict) else {}

    def check(self, key: str, digest: str) -> bool:
        """Record the digest of key's CSV; False if it differs from the recorded one."""
        return self.entries.setdefault(key, digest) == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({self.code: self.entries}, indent=0, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
