"""Parameter sweeps, figure presets and CSV emission.

A sweep walks a 1-D or 2-D grid of parameter values, evaluates the requested
observables at every point and collects the results into a rectangular table.
Failed points are tagged with a numeric error code instead of being dropped,
so 2-D scans always stay rectangular: a package error's `code` names its key
in ERROR_CODES, and any other exception propagates.

The grid is built once as an array of parameter rows.  Engines run in the
order of _OUTPUTS, each on the rows that have not failed yet.  Each engine is
one function of _ENGINES from (spec, readers, rows, threads) to (values
(n, outputs), codes (n,), metadata lines), and run_sweep merges the lines
into the metadata after points_failed.  The weak-drive system is solved as
stacked chunks of rows, and the spectrum outputs p_t, p_r as one stacked
linear-response solve over all rows, both in the calling thread.  Only the
master equation is solved point by point; threads > 1 spreads its points over
a thread pool, in the same row order.  Two threads measured 0.99x the
one-thread speed; the pool stays because the benchmark in perfbench/ passes
threads=.

A master-equation point is decided by _master_row: a ladder of solves on
excitation caps inside the cutoff box, with the box as fallback.  Every solve
goes through this module's solve_steady, with positional arguments, and the
metadata line master_levels counts the points each level decided.

The result stays one float64 array, ResultTable.cells, from run_sweep to the
file: emit_csv writes it in blocks of _CHUNK rows and formats each repeated
value of a column once per block, with the bytes of one repr per cell.

Axis names are SystemParams fields plus two aliases:
  * "g"      sets g_a and g_b together,
  * "delta"  also sets delta_a when the sweep ties the emitter to the cavity.
Two axes may not set the same field, and an output is requested at most once.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .errors import (AnalyticSingularityError, BicavityError, InvalidTruncationError,
                     SweepError, UndefinedCorrelationError, WeakDriveDomainError)
from .dynamics import FIELDS, theta
from .fock import _is_integer
from .params import SystemParams, check_field, reference_baseline
from .steadystate import g2_zero, mean_photon, solve_steady
from .weakdrive import (
    RESIDUAL_TOL,
    abs2,
    g2_driven,
    hierarchy_violated,
    in_domain,
    normalized_spectrum,
    solve_weak_drive_rows,
)
# Not called here; kept as attributes that perfbench/tracer.py SITES patches.
from .weakdrive import c_amplitudes_closed_form, g2_closed_form, solve_weak_drive, spectrum  # noqa: F401

# Output -> (engine, reader of that engine's result), in evaluation order:
# master equation (n before g2), weak drive, spectrum.  Master-equation
# readers take one point's density matrix.  Weak-drive readers take the
# amplitudes of many rows, shape (n, 8) in AmplitudeSet order, and give nan
# where the output is undefined; g2_driven is also what AmplitudeSet.g2_ccw
# reads, so a row matches a single-point solve bit for bit.  Spectrum
# readers take the columns of normalized_spectrum, as spectrum() does.  The
# lambdas look names up at call time, so patched module attributes apply.
_OUTPUTS = {
    "n_ccw": ("master_equation", lambda rho: mean_photon(rho, "ccw")),
    "n_cw": ("master_equation", lambda rho: mean_photon(rho, "cw")),
    "g2_ccw": ("master_equation", lambda rho: g2_zero(rho, "ccw")),
    "g2_cw": ("master_equation", lambda rho: g2_zero(rho, "cw")),
    "g2_analytic": ("analytic", lambda c: g2_driven(c[:, 0], c[:, 3])),
    "c1_abs2": ("analytic", lambda c: abs2(c[:, 0])),
    "c2_abs2": ("analytic", lambda c: abs2(c[:, 3])),
    "p_t": ("spectrum", lambda columns: columns[0]),
    "p_r": ("spectrum", lambda columns: columns[1]),
}
ALL_OUTPUTS = tuple(_OUTPUTS)
MASTER_OUTPUTS = tuple(o for o, (engine, _) in _OUTPUTS.items() if engine == "master_equation")

# Numeric tags for the per-row "error" column; BicavityError.code names the key.
ERROR_CODES = {
    "ok": 0,
    "undefined_correlation": 1,
    "analytic_singularity": 2,
    "solver_failure": 3,
    "degenerate_steady_state": 4,
    "invalid_point": 9,
}
# The master-equation ladder's first cap and tolerance, and the name of its
# box fallback in the master_levels metadata (see _master_row).
LADDER_START = 3
LADDER_RTOL = 1e-6
BOX_LEVEL = "box"
# Rows per stacked weak-drive solve and per block emit_csv formats.  A chunk's
# work arrays take a few MB; one stack of a whole 201 x 201 scan would take
# about 50 MB.
_CHUNK = 1024

_AXIS_NAMES = FIELDS + ("g",)


@dataclass(frozen=True)
class Axis:
    """One swept parameter with its explicit grid values, stored as a tuple of floats."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValueError(f"unknown axis name {self.name!r}; expected one of {_AXIS_NAMES}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) < 1:
            raise ValueError("axis needs at least one value")


def linear_axis(name: str, lo: float, hi: float, count: int) -> Axis:
    """Uniform grid axis; count >= 2 and lo < hi."""
    if count < 2:
        raise ValueError(f"axis count must be >= 2, got {count}")
    if not lo < hi:
        raise ValueError(f"axis needs lo < hi, got [{lo}, {hi}]")
    return Axis(name, np.linspace(lo, hi, count))


def value_axis(name: str, values) -> Axis:
    """Axis over an explicit list of values (e.g. a small family of J)."""
    return Axis(name, values)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep."""

    base: SystemParams
    axes: tuple[Axis, ...]
    outputs: tuple[str, ...]
    cutoff: int = 4
    tie_delta_a: bool = False
    label: str = ""

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep has one or two axes")
        if not self.outputs:
            raise ValueError("at least one output is required")
        if not _is_integer(self.cutoff):
            raise InvalidTruncationError(f"photon cutoff must be an integer, got {self.cutoff!r}")
        if self.cutoff < 1:
            raise InvalidTruncationError(f"photon cutoff must be >= 1, got {self.cutoff}")
        for k, out in enumerate(self.outputs):
            if out not in ALL_OUTPUTS:
                raise ValueError(f"unknown output {out!r}; expected one of {ALL_OUTPUTS}")
            if out in self.outputs[:k]:
                raise ValueError(f"output {out!r} is requested twice")
        if len(self.axes) == 2:
            first, second = (set(_axis_fields(self, axis.name)) for axis in self.axes)
            if first & second:
                raise ValueError(
                    f"axes {self.axes[0].name!r} and {self.axes[1].name!r} both set "
                    f"{', '.join(sorted(first & second))}"
                )
        if "\n" in self.label or "\r" in self.label:
            raise ValueError(f"label must be one line, got {self.label!r}")

    @property
    def engine(self) -> str:
        """The engines the outputs call for, in run order, joined by ','."""
        return ",".join(_plan(self.outputs))


class ResultTable:
    """Rectangular sweep result: named columns, a float64 array of cells, flat metadata.

    cells has shape (rows, len(columns)); rows may be given as a list of lists
    or an array, and a row whose length differs from the columns is a
    ValueError.  Two tables are equal when their columns, metadata and cells
    are, with nan equal to nan and 0.0 equal to -0.0.
    """

    def __init__(self, columns, rows, metadata=None):
        self.columns = list(columns)
        width = len(self.columns)
        if not isinstance(rows, np.ndarray):
            for k, row in enumerate(rows):
                if len(row) != width:
                    raise ValueError(f"row {k} has {len(row)} cells for {width} columns {self.columns}")
        cells = np.array(rows, dtype=float)
        self.cells = cells.reshape(0, width) if cells.shape == (0,) else cells
        if self.cells.ndim != 2 or self.cells.shape[1] != width:
            raise ValueError(f"cells of shape {cells.shape} do not fit {width} columns {self.columns}")
        self.metadata = dict(metadata or {})

    def __eq__(self, other):
        if not isinstance(other, ResultTable):
            return NotImplemented
        return (self.columns == other.columns and self.metadata == other.metadata
                and np.array_equal(self.cells, other.cells, equal_nan=True))

    @property
    def rows(self) -> list[list[float]]:
        """The cells as a new list of lists of Python floats."""
        return self.cells.tolist()

    def column(self, name: str) -> np.ndarray:
        """A copy of one column."""
        return self.cells[:, self.columns.index(name)].copy()

    def with_log10(self, names) -> "ResultTable":
        """Copy with extra log10 columns (nan where the value is <= 0)."""
        idx = [self.columns.index(n) for n in names]
        logs = [[math.log10(v) if v > 0 else math.nan for v in row]
                for row in self.cells[:, idx].tolist()]
        cells = np.hstack([self.cells, np.reshape(logs, (len(self.cells), len(idx)))])
        return ResultTable(self.columns + [f"log10_{n}" for n in names], cells, self.metadata)


def _axis_fields(spec: SweepSpec, name: str) -> tuple[str, ...]:
    """The SystemParams fields one axis sets."""
    if name == "g":
        return ("g_a", "g_b")
    if name == "delta" and spec.tie_delta_a:
        return ("delta", "delta_a")
    return (name,)


def _grid(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis values (P, axes) and parameter rows (P, len(FIELDS)), first axis outer.

    Each axis value is checked once per field it sets, which covers every point.
    """
    points = np.stack(
        np.meshgrid(*(axis.values for axis in spec.axes), indexing="ij"), axis=-1
    ).reshape(-1, len(spec.axes))
    thetas = np.tile(theta(spec.base), (len(points), 1))
    for k, axis in enumerate(spec.axes):
        names = _axis_fields(spec, axis.name)
        for value in axis.values:
            for name in names:
                check_field(name, value)
        thetas[:, [FIELDS.index(name) for name in names]] = points[:, k, None]
    return points, thetas


def _master_row(params: SystemParams, cutoff: int, readers):
    """(outputs, code, residual, level) of one master-equation point.

    Above cutoff LADDER_START the point climbs levels K = LADDER_START, ...,
    cutoff + 1, each solved on the kets of the cutoff box with at most K
    excitations (the box itself is cap 2 cutoff + 1).  Level K is accepted
    when every output is within LADDER_RTOL of level K - 1, relative to its
    own value.  A point that no level accepts, or where a level raises a
    package error or reads a non-finite output, is solved on the box
    (BOX_LEVEL), which alone decides its error code; a failed box solve keeps
    the outputs read so far and nan for the rest.
    """
    previous = None
    for level in range(LADDER_START, cutoff + 2) if cutoff > LADDER_START else ():
        try:
            rho = solve_steady(params, cutoff, cutoff, level)
            out = [read(rho) for read in readers]
        except BicavityError:
            break
        if not all(math.isfinite(v) for v in out):
            break
        if previous is not None and all(
            abs(v - w) <= LADDER_RTOL * abs(v) for v, w in zip(out, previous)
        ):
            return out, ERROR_CODES["ok"], rho.residual, level
        previous = out
    out, code, residual = [math.nan] * len(readers), ERROR_CODES["ok"], math.nan
    try:
        rho = solve_steady(params, cutoff, cutoff)
        residual = rho.residual
        for k, read in enumerate(readers):
            out[k] = read(rho)
    except BicavityError as exc:
        code = ERROR_CODES[exc.code]
    return out, code, residual, BOX_LEVEL


def _master_rows(spec: SweepSpec, readers, thetas: np.ndarray, threads: int):
    """Each point's _master_row, on a pool of threads if threads > 1, in row order.

    The metadata lines are max_residual, the largest residual of the solved
    points, and above cutoff LADDER_START master_levels, the count of points
    decided at each accepted level LADDER_START + 1, ..., cutoff + 1 and at
    the box (BOX_LEVEL).
    """
    params = [SystemParams(*row) for row in thetas.tolist()]
    decide = partial(_master_row, cutoff=spec.cutoff, readers=readers)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(decide, params))
    else:
        results = list(map(decide, params))
    outs, codes, residuals, levels = zip(*results)
    solved = [r for r in residuals if not math.isnan(r)]
    lines = {"max_residual": repr(max(solved)) if solved else "nan"}
    if spec.cutoff > LADDER_START:
        counts = Counter(levels)
        decided = [*range(LADDER_START + 1, spec.cutoff + 2), BOX_LEVEL]
        lines["master_levels"] = ";".join(f"{level}:{counts[level]}" for level in decided)
    return np.array(outs, dtype=float), np.array(codes, dtype=int), lines


def _analytic_rows(spec: SweepSpec, readers, thetas: np.ndarray, threads: int):
    """The weak-drive outputs and codes of every row, from stacked solves in this thread.

    A failed row keeps nan in every weak-drive output, and its code is that of
    the error solve_weak_drive or its g2_ccw raises there: out of the domain,
    a residual above RESIDUAL_TOL (nan if singular), or a nan output.  At most
    one warning reports the rows whose amplitudes break the weak-drive hierarchy.
    """
    values = np.full((len(thetas), len(readers)), np.nan)
    codes = np.where(in_domain(thetas), ERROR_CODES["ok"],
                     ERROR_CODES[WeakDriveDomainError.code])
    solvable = np.flatnonzero(codes == ERROR_CODES["ok"])
    violated = 0
    for start in range(0, solvable.size, _CHUNK):
        rows = solvable[start:start + _CHUNK]
        c, residual = solve_weak_drive_rows(thetas[rows])
        ok = residual <= RESIDUAL_TOL
        codes[rows[~ok]] = ERROR_CODES[AnalyticSingularityError.code]
        violated += int(np.count_nonzero(hierarchy_violated(c[ok])))
        values[rows[ok]] = np.column_stack([read(c[ok]) for read in readers])
    undefined = (codes == ERROR_CODES["ok"]) & np.isnan(values).any(axis=1)
    codes[undefined] = ERROR_CODES[UndefinedCorrelationError.code]
    values[undefined] = np.nan
    if violated:
        warnings.warn(
            f"weak-drive hierarchy violated at {violated} of {len(thetas)} analytic rows "
            "(drive is not weak there); amplitudes may not describe the steady state",
            stacklevel=3,
        )
    return values, codes, {}


def _spectrum_rows(spec: SweepSpec, readers, thetas: np.ndarray, threads: int):
    """The spectrum outputs and codes of every row, from one stacked
    linear-response solve in this thread.  A row with a non-finite output gets
    nan in every spectrum output and invalid_point, the base BicavityError code."""
    columns = normalized_spectrum(thetas)
    values = np.column_stack([read(columns) for read in readers])
    unfit = ~np.isfinite(values).all(axis=1)
    values[unfit] = np.nan
    return values, np.where(unfit, ERROR_CODES[BicavityError.code], ERROR_CODES["ok"]), {}


def _plan(outputs) -> dict[str, list[str]]:
    """{engine: its requested outputs}, both in the order of _OUTPUTS, which is the run order."""
    plan: dict[str, list[str]] = {}
    for name, (engine, _) in _OUTPUTS.items():
        if name in outputs:
            plan.setdefault(engine, []).append(name)
    return plan


_ENGINES = {"master_equation": _master_rows, "analytic": _analytic_rows, "spectrum": _spectrum_rows}


def run_sweep(spec: SweepSpec, threads: int = 1) -> ResultTable:
    """Evaluate the sweep grid; deterministic row order (first axis outer)."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    points, thetas = _grid(spec)
    values = np.full((len(thetas), len(spec.outputs)), np.nan)
    codes = np.zeros(len(thetas), dtype=int)
    lines: dict[str, str] = {}
    for engine, names in _plan(spec.outputs).items():
        live = np.flatnonzero(codes == ERROR_CODES["ok"])
        readers = [_OUTPUTS[name][1] for name in names]
        engine_values, codes[live], engine_lines = _ENGINES[engine](spec, readers, thetas[live], threads)
        lines.update(engine_lines)
        values[np.ix_(live, [spec.outputs.index(name) for name in names])] = engine_values

    failed = int(np.count_nonzero(codes))
    if failed == len(codes):
        raise SweepError("every grid point of the sweep failed")
    columns = [axis.name for axis in spec.axes] + list(spec.outputs) + ["error"]
    metadata = _metadata(spec, len(codes), failed, lines)
    return ResultTable(columns, np.column_stack([points, values, codes]), metadata)


def _metadata(spec: SweepSpec, total: int, failed: int, lines) -> dict[str, str]:
    """The sweep's metadata.  The engines' lines follow points_failed, and
    max_residual is nan unless an engine gives it."""
    md = {
        "tool": "bicavity",
        "version": __version__,
        "label": spec.label or "custom",
        "engine": spec.engine,
        "cutoff_n_a": str(spec.cutoff),
        "cutoff_n_b": str(spec.cutoff),
        "tie_delta_a": str(spec.tie_delta_a).lower(),
        "outputs": ",".join(spec.outputs),
    }
    for name in FIELDS:
        md[f"base.{name}"] = repr(getattr(spec.base, name))
    for k, axis in enumerate(spec.axes, start=1):
        first, last, n = axis.values[0], axis.values[-1], len(axis.values)
        if n > 16 and axis.values == tuple(np.linspace(first, last, n).tolist()):
            md[f"axis{k}"] = f"{axis.name}: linspace({first!r}, {last!r}, {n})"
        else:
            md[f"axis{k}"] = f"{axis.name}: " + ",".join(repr(v) for v in axis.values)
    md["points_total"] = str(total)
    md["points_failed"] = str(failed)
    md.update({"max_residual": "nan", **lines})
    md["error_codes"] = ";".join(f"{v}={k}" for k, v in ERROR_CODES.items())
    return md


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_K = 40.0  # cavity linewidth in units of gamma_a for all reference scans


def _open_interval(hi: float, count: int) -> tuple[float, ...]:
    """(0, hi] grid: uniform, excluding zero."""
    return tuple(float(v) for v in np.linspace(hi / count, hi, count))


def _preset_table() -> dict[str, SweepSpec]:
    """The built-in sweeps reproducing the reference scans, by figure name."""
    base = reference_baseline()
    k = _K
    return {
        "fig2": SweepSpec(
            base=SystemParams(kappa=k, drive=1.0),
            axes=(value_axis("j_coupling", [0.8 * k, 6 * k]),
                  linear_axis("delta", -10 * k, 10 * k, 401)),
            outputs=("p_t", "p_r"),
        ),
        "fig3": SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 30 * k]),
                  linear_axis("delta", -3 * k, 3 * k, 241)),
            outputs=("g2_ccw", "g2_analytic"),
            tie_delta_a=True,
        ),
        "fig4a": SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 10 * k, 20 * k, 40 * k]),
                  value_axis("g", _open_interval(1.5 * k, 201))),
            outputs=("g2_ccw",),
        ),
        "fig4b": SweepSpec(
            base=base,
            axes=(linear_axis("j_coupling", 0.0, 40 * k, 61),
                  value_axis("g", _open_interval(1.5 * k, 61))),
            outputs=("g2_ccw",),
        ),
        "fig7": SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 20 * k]),
                  linear_axis("delta", -3 * k, 3 * k, 241)),
            outputs=("c1_abs2", "c2_abs2"),
            tie_delta_a=True,
        ),
        "fig8a": SweepSpec(
            base=base,
            axes=(linear_axis("kappa", 1.0, 100.0, 61),
                  linear_axis("g", 1.0, 100.0, 61)),
            outputs=("g2_ccw",),
        ),
        "fig8b": SweepSpec(
            base=base.replace(j_coupling=800.0),
            axes=(linear_axis("kappa", 1.0, 100.0, 61),
                  linear_axis("g", 1.0, 100.0, 61)),
            outputs=("g2_ccw",),
        ),
        "fig9a": SweepSpec(
            base=base.replace(gamma_p=3.0),
            axes=(value_axis("j_coupling", [0.0, 10 * k]),
                  linear_axis("delta", -3 * k, 3 * k, 241)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
        ),
        "fig9b": SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 6 * k, 10 * k, 20 * k]),
                  linear_axis("gamma_p", 0.0, 20.0, 201)),
            outputs=("g2_ccw",),
        ),
        "fig10a": SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("gamma_p", 0.0, 10.0, 61)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
        ),
        "fig10b": SweepSpec(
            base=base,
            axes=(linear_axis("j_coupling", 0.0, 20 * k, 61),
                  linear_axis("gamma_p", 0.0, 20.0, 61)),
            outputs=("g2_ccw",),
        ),
        "fig14a": SweepSpec(
            base=base,
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("delta_a", -3 * k, 3 * k, 61)),
            outputs=("g2_ccw",),
        ),
        "fig14b": SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("delta_a", -3 * k, 3 * k, 61)),
            outputs=("g2_ccw",),
        ),
        "fig15a": SweepSpec(
            base=base,
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
        ),
        "fig15b": SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
        ),
        "fig15c": SweepSpec(
            base=base,
            axes=(linear_axis("g_a", 0.0, 2 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
        ),
        "fig15d": SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("g_a", 0.0, 2 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
        ),
    }


_PRESETS = _preset_table()
FIGURE_NAMES = tuple(_PRESETS)


def figure_preset(name: str) -> SweepSpec:
    """Built-in sweep specification reproducing one reference scan."""
    try:
        spec = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown figure preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return replace(spec, label=name)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------


def emit_csv(table: ResultTable, path) -> None:
    """Write the table as UTF-8 CSV with '#'-prefixed metadata lines.

    Every cell is written as repr(float(v)), which round-trips exactly and
    carries at least 12 significant digits whenever they matter.  Output is
    byte-for-byte deterministic for a given table.  The body is written in
    blocks of _CHUNK rows; within a block, a column that repeats a value (by
    bit pattern, so 0.0 and -0.0 stay apart) formats each distinct value once.
    A metadata key, value or column name that read_csv() would not read back
    as written is a ValueError, raised before the file is opened.
    """
    _check_readable(table)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in table.metadata.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(table.columns) + "\n")
        for start in range(0, len(table.cells), _CHUNK):
            block = table.cells[start:start + _CHUNK]
            fh.write("\n".join(map(",".join, zip(*map(_format, block.T)))) + "\n")


def _format(values: np.ndarray) -> list[str]:
    """repr() of each value, formatting a repeated bit pattern once."""
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    if len(distinct) == len(values):
        return list(map(repr, values.tolist()))
    texts = list(map(repr, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def _check_readable(table: ResultTable) -> None:
    """Raise ValueError for a metadata entry or column name that read_csv() would misread."""
    for key, value in table.metadata.items():
        if any(c in f"{key} = {value}" for c in "\n\r"):
            raise ValueError(f"metadata entry {key!r} holds a line break")
        if "=" in f"{key}":
            raise ValueError(f"metadata key {key!r} holds '='")
    for name in table.columns:
        if any(c in name for c in ",\n\r"):
            raise ValueError(f"column name {name!r} holds ',' or a line break")
    header = ",".join(table.columns)
    if not header or header.startswith("#"):
        raise ValueError(f"header line {header!r} is empty or starts with '#'")


def read_csv(path) -> ResultTable:
    """Inverse of emit_csv().  A metadata line is split at the writer's '# ' and
    first ' = ' alone, so keys and values keep their spaces; a line starting
    with '#' that is not '# key = value' is a ValueError."""
    metadata: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[2:].partition(" = ")
                if not (line.startswith("# ") and sep):
                    raise ValueError(f"metadata line {line!r} in {path} is not '# key = value'")
                metadata[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    if columns is None:
        raise ValueError(f"no header row found in {path}")
    return ResultTable(columns, rows, metadata)
