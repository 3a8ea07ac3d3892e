"""Span tracer that wraps each layer's public functions from outside the program.

Each function is replaced on the module that calls it (for example
``steadystate.liouvillian``, which ``solve_steady`` looks up there), so no
source file changes.  A span holds its name, start, end and parent; spans
stay in memory and are written out when the run ends.  A span's self time is
its duration minus that of its direct children.  The tracer assumes one
thread: the traced phase runs sweeps with threads=1.
"""

from __future__ import annotations

import contextlib
import gzip
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import cli, sweep  # puts the checkout's src/ on sys.path first
from bicavity import dynamics, steadystate

# (module, attribute looked up by that module's callers, span name)
SITES = (
    (dynamics, "annihilator", "fock.annihilator"),
    (dynamics, "emitter_lowering", "fock.emitter_lowering"),
    (dynamics, "emitter_excitation_projector", "fock.emitter_excitation_projector"),
    (dynamics, "pauli_z", "fock.pauli_z"),
    (steadystate, "annihilator", "fock.annihilator"),
    (steadystate, "build_space", "fock.build_space"),
    (steadystate, "liouvillian", "dynamics.liouvillian"),
    (steadystate, "steady_state", "steadystate.steady_state"),
    (sweep, "solve_steady", "steadystate.solve_steady"),
    (sweep, "g2_zero", "steadystate.g2_zero"),
    (sweep, "mean_photon", "steadystate.mean_photon"),
    (sweep, "solve_weak_drive", "weakdrive.solve_weak_drive"),
    (sweep, "g2_closed_form", "weakdrive.g2_closed_form"),
    (sweep, "c_amplitudes_closed_form", "weakdrive.c_amplitudes_closed_form"),
    (sweep, "spectrum", "meanfield.spectrum"),
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep, "emit_csv", "sweep.emit_csv"),
    (cli, "run_sweep", "sweep.run_sweep"),
    (cli, "emit_csv", "sweep.emit_csv"),
    (cli, "main", "cli.main"),
)


class Tracer:
    """In-memory spans plus a few counters read off arguments and results."""

    def __init__(self):
        self.ids: dict[str, int] = {}  # span name -> name id, in first-use order
        # (name id, start ns, end ns, parent index); None while the call runs
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.lu_dims: list[int] = []

    def _span(self, name: str, fn):
        name_id = self.ids.setdefault(name, len(self.ids))
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def _wrap(self, name: str, fn):
        """Span wrapper plus the counters this function feeds (kept outside the span)."""
        inner = self._span(name, fn)
        counters = self.counters
        if name == "dynamics.liouvillian":
            def wrapped(*args, **kwargs):
                lv = inner(*args, **kwargs)
                counters["liouvillians"] += 1
                counters["L_bytes_max"] = max(counters["L_bytes_max"], lv.matrix.nbytes)
                counters["L_nnz_frac_sum"] += np.count_nonzero(lv.matrix) / lv.matrix.size
                return lv
        elif name == "steadystate.steady_state":
            def wrapped(lv, *args, **kwargs):
                self.lu_dims.append(lv.space.dim)
                return inner(lv, *args, **kwargs)
        elif name == "steadystate.solve_steady":
            def wrapped(*args, **kwargs):
                rho = inner(*args, **kwargs)
                counters["residual_max"] = max(counters["residual_max"], rho.residual)
                return rho
        else:
            return inner
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced function on its calling module; restore on exit.

        Warnings are recorded meanwhile, to count weak-drive hierarchy warnings.
        """
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in SITES]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for (module, attr, name), (_, _, fn) in zip(SITES, originals):
                    setattr(module, attr, self._wrap(name, fn))
                yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
        self.counters["hierarchy_warnings"] += sum("hierarchy" in str(w.message) for w in caught)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in seconds."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = list(self.ids)
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total": 0.0, "self": 0.0} for n in names
        }
        for index, (name_id, start, end, _) in enumerate(self.spans):
            entry = out[names[name_id]]
            entry["calls"] += 1
            entry["total"] += (end - start) * 1e-9
            entry["self"] += (end - start - child[index]) * 1e-9
        return out

    def write(self, path: Path) -> None:
        """Spans as text: a header of names, then one 'name start end parent' line each."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# names " + " ".join(self.ids) + "\n")
            fh.write("# name_index start_ns end_ns parent_span\n")
            for span in self.spans:
                fh.write("%d %d %d %d\n" % span)

