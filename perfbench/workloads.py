"""Benchmark workloads: inputs built from a seed, and the timed calls that run them.

A workload is a list of operations that the benchmark cycles through.  An
operation is one or more units; a unit is one call into the program that
writes one CSV.  Only the program's own entry points are called
(``sweep.run_sweep``/``sweep.emit_csv`` and ``cli.main``), and they are looked
up on their modules at call time so that the tracer's wrappers apply.

Reference outputs live in ``reference/``, one table per unit key;
``make_reference.py`` regenerates them.  The me_cut4 reference also holds the
pool of grid points the seed draws from, so every seed has stored outputs to
check against.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

if not (SRC / "bicavity" / "__init__.py").is_file():
    raise ImportError(f"no bicavity sources under {SRC}")
sys.path.insert(0, str(SRC))

from bicavity import cli, sweep  # noqa: E402

WORKLOADS = ("me_cut4", "fig3_cut2", "analytic_scan")

# me_cut4: one point from each of these presets, all at the default cutoff 4.
# Together they cover J = 0 and J >> kappa, gamma_p > 0, g_a != g_b,
# delta != delta_a and the small-kappa corner of fig8a.
ME_PRESETS = ("fig3", "fig4b", "fig8a", "fig9b", "fig10b", "fig14b", "fig15c", "fig15d")
ME_POOL_SIZE = 16

# analytic_scan: fig4a's J family {0, 10, 20, 40} kappa, with kappa = 40.
SCAN_J_FAMILY = (0.0, 400.0, 800.0, 1600.0)
SCAN_COUNT = 201
SCAN_MAX = 80.0  # g_a and g_b over [0, 2 kappa], as in fig15c
TINY_SCAN_STEP = 25

# Workloads whose operation times are scaled to a nominal machine speed by
# run.SpeedProbe.  The probe times 8x8 numpy solves, which is analytic_scan's
# own kernel, and its speed tracks analytic_scan's as the shared host's load
# drifts.  It does not track the dense LU of me_cut4 or the np.kron and
# mid-size solves of fig3_cut2, so scaling their times would only add noise.
SCALED_WORKLOADS = ("analytic_scan",)


class OperationError(RuntimeError):
    """A unit returned a nonzero exit code or raised."""


@dataclass(frozen=True)
class Unit:
    """One call into the program that writes one CSV.

    key       -- identifies the inputs; equal keys must give equal CSV bytes,
                 and it names the unit's reference table
    rows      -- number of grid points (CSV rows) it must produce
    call      -- ("sweep", SweepSpec) or ("cli", argv without --threads/--out)
    """

    key: str
    rows: int
    call: tuple

    def run(self, threads: int, out: Path) -> None:
        kind, payload = self.call
        if kind == "sweep":
            sweep.emit_csv(sweep.run_sweep(payload, threads=threads), out)
            return
        argv = [*payload, "--threads", str(threads), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OperationError(f"bicavity {' '.join(argv)} exited with {code}")


def load_reference(workload: str):
    """Reference outputs of one workload, as an NpzFile that reads arrays on access.

    For each unit key it holds the array ``key`` of the unit's rows and the
    array ``key.columns`` of its header; me_cut4 adds ``pool.<preset>``.
    """
    return np.load(REFERENCE_DIR / f"{workload}.npz")


def point_spec(preset: str, flat_index: int) -> sweep.SweepSpec:
    """One-point sweep at grid point flat_index (first axis outer) of a preset."""
    spec = sweep.figure_preset(preset)
    grid = list(itertools.product(*(axis.values for axis in spec.axes)))
    point = grid[flat_index]
    axes = tuple(sweep.value_axis(axis.name, [v]) for axis, v in zip(spec.axes, point))
    return dataclasses.replace(spec, axes=axes, label=f"{preset}[{flat_index}]")


def scan_ini(j_coupling: float, step: int = 1) -> str:
    """Config of the g_a x g_b scan; step > 1 keeps every step-th grid value."""
    if step == 1:
        axis = f"min = 0\nmax = {SCAN_MAX!r}\ncount = {SCAN_COUNT}"
    else:
        values = np.linspace(0.0, SCAN_MAX, SCAN_COUNT)[::step]
        axis = "values = " + ", ".join(repr(float(v)) for v in values)
    return (
        "[base]\nkappa = 40\ng_a = 20\ng_b = 20\ndrive = 1\ngamma_a = 1\n"
        f"j_coupling = {j_coupling!r}\n"
        f"[axis1]\nname = g_a\n{axis}\n"
        f"[axis2]\nname = g_b\n{axis}\n"
        "[sweep]\noutputs = g2_analytic, c1_abs2, c2_abs2\nengine = analytic\n"
        "label = analytic_scan\n"
    )


def tiny_fig3_ini() -> str:
    """Every 40th delta of fig3 at both J values, cutoff 2: 14 of its 482 rows."""
    spec = sweep.figure_preset("fig3")
    j_values, deltas = (axis.values for axis in spec.axes)
    return (
        "[base]\nkappa = 40\ng_a = 20\ng_b = 20\ndrive = 1\ngamma_a = 1\n"
        "[axis1]\nname = j_coupling\nvalues = " + ", ".join(map(repr, j_values)) + "\n"
        "[axis2]\nname = delta\nvalues = " + ", ".join(map(repr, deltas[::40])) + "\n"
        "[sweep]\noutputs = g2_ccw, g2_analytic\nengine = both\ncutoff = 2\n"
        "tie_delta_a = true\nlabel = fig3\n"
    )


def _figure(name: str, rows: int, *extra: str) -> Unit:
    return Unit(" ".join([name, *extra]), rows, ("cli", ["figure", name, *extra]))


def _ini_unit(workdir: Path, key: str, rows: int, text: str) -> Unit:
    path = workdir / f"{key}.ini"
    path.write_text(text, encoding="utf-8")
    return Unit(key, rows, ("cli", ["sweep", str(path)]))


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[list[Unit]]:
    """Operations of a workload for one seed; writes any config files to workdir.

    tiny shrinks the inputs to a few rows for the benchmark's self-tests.
    """
    rng = random.Random(seed)
    if workload == "me_cut4":
        with load_reference("me_cut4") as reference:
            pools = {preset: reference[f"pool.{preset}"].tolist() for preset in ME_PRESETS}
        ops = []
        for preset in ME_PRESETS:
            flat = rng.choice(pools[preset])
            ops.append([Unit(f"{preset}[{flat}]", 1, ("sweep", point_spec(preset, flat)))])
        return ops[:1] if tiny else ops
    if workload == "fig3_cut2":
        if tiny:
            return [[_ini_unit(workdir, "fig3_tiny", 14, tiny_fig3_ini())]]
        return [[_figure("fig3", 482, "--cutoff", "2")]]
    if workload == "analytic_scan":
        j_coupling = rng.choice(SCAN_J_FAMILY)
        step = TINY_SCAN_STEP if tiny else 1
        side = len(range(0, SCAN_COUNT, step))
        scan = _ini_unit(workdir, f"scan_j{j_coupling:g}" + ("_tiny" if tiny else ""),
                         side * side, scan_ini(j_coupling, step))
        return [[_figure("fig2", 802), _figure("fig7", 482), scan]]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
