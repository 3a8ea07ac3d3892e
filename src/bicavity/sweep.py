"""Parameter sweeps, figure presets and CSV emission.

A sweep walks a 1-D or 2-D grid of parameter values, evaluates the requested
observables at every point and collects the results into a rectangular table.
Failed points are tagged with a numeric error code instead of being dropped,
so 2-D scans always stay rectangular: a package error's `code` names its key
in ERROR_CODES, and any other exception propagates.

The grid is built once as an array of parameter rows.  Engines run in the
order of _OUTPUTS, each on the rows that have not failed yet.  The weak-drive
system is solved as stacked chunks of rows, and the spectrum outputs p_t, p_r
as one stacked linear-response solve over all rows, both in the calling
thread.  Only the master equation is solved point by point; threads > 1
spreads its points over a thread pool, in the same row order.  Two threads
measured 0.99x the one-thread speed; the pool stays because the benchmark in
perfbench/ passes threads=.

At cutoff N >= 4 a master-equation point first climbs a ladder of smaller
solves (_ladder): level K = 3, 4, ..., N keeps only the kets with at most K
excitations (fock.FockSpace's cap), and level K >= 4 is accepted when every
requested output is within LADDER_RTOL of level K - 1.  A point that no level
decides, or where a level raises a package error or reads a non-finite
output, is solved on the full box, which alone decides error codes.  Below
cutoff 4 no level can be checked and every point goes to the box.  Every
solve goes through this module's solve_steady, with positional arguments,
and the metadata line master_levels counts the points each level decided.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .errors import (AnalyticSingularityError, BicavityError, InvalidTruncationError,
                     SweepError, UndefinedCorrelationError, WeakDriveDomainError)
from .dynamics import FIELDS, theta
from .meanfield import normalized_spectrum
from .params import SystemParams, check_field, reference_baseline
from .steadystate import g2_zero, mean_photon, solve_steady
from .weakdrive import (
    RESIDUAL_TOL,
    abs2,
    g2_driven,
    hierarchy_violated,
    in_domain,
    solve_weak_drive_rows,
)
# Not called here; kept as attributes that perfbench/tracer.py SITES patches.
from .meanfield import spectrum  # noqa: F401
from .weakdrive import c_amplitudes_closed_form, g2_closed_form, solve_weak_drive  # noqa: F401

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
    "p_t": ("mean_field", lambda columns: columns[0]),
    "p_r": ("mean_field", lambda columns: columns[1]),
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
# Master-equation ladder (_ladder): excitation caps LADDER_START, ..., cutoff,
# each checked against the one below to LADDER_RTOL (relative).  The
# master_levels metadata names the full-box fallback BOX_LEVEL.
LADDER_START = 3
LADDER_RTOL = 1e-6
BOX_LEVEL = "box"
# Rows per stacked weak-drive solve.  A chunk's work arrays take a few MB; one
# stack of a whole 201 x 201 scan would take about 50 MB.
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
        """The engines the outputs call for; spectrum outputs ride along with either."""
        engines = {_OUTPUTS[out][0] for out in self.outputs}
        if "master_equation" not in engines:
            return "analytic"
        return "both" if "analytic" in engines else "master_equation"


@dataclass
class ResultTable:
    """Rectangular sweep result: named columns, float rows, flat metadata."""

    columns: list[str]
    rows: list[list[float]]
    metadata: dict[str, str] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[self.columns.index(name)] for row in self.rows])

    def with_log10(self, names) -> "ResultTable":
        """Copy with extra log10 columns (nan where the value is <= 0)."""
        idx = [self.columns.index(n) for n in names]
        columns = self.columns + [f"log10_{n}" for n in names]
        rows = [
            row + [math.log10(row[i]) if row[i] > 0 else math.nan for i in idx]
            for row in self.rows
        ]
        return ResultTable(columns, rows, dict(self.metadata))


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


def _ladder(params: SystemParams, cutoff: int, readers):
    """(level, outputs, residual) of the first capped level K that agrees with
    level K - 1, or None: the row then needs the box.

    Levels K = LADDER_START, ..., cutoff solve on the kets with at most K
    excitations.  Level K is accepted when every output is within LADDER_RTOL
    of level K - 1, relative to its own value.  A level that raises a package
    error or reads a non-finite output ends the ladder, so the box alone
    decides a row's error code.
    """
    if cutoff <= LADDER_START:
        return None
    previous = None
    for level in range(LADDER_START, cutoff + 1):
        try:
            rho = solve_steady(params, cutoff, cutoff, level)
            out = [read(rho) for read in readers]
        except BicavityError:
            return None
        if not all(math.isfinite(v) for v in out):
            return None
        if previous is not None and all(
            abs(v - w) <= LADDER_RTOL * abs(v) for v, w in zip(out, previous)
        ):
            return level, out, rho.residual
        previous = out
    return None


def _master_rows(spec: SweepSpec, readers, thetas: np.ndarray, threads: int):
    """Solve the master equation point by point and read its outputs.

    Each point runs the ladder first and falls back to the box.  Returns
    (values (n, outputs), codes (n,), residuals, levels): on failure a point
    keeps the outputs read so far and nan for the rest, and levels counts the
    points decided at each accepted ladder level and at the box (BOX_LEVEL).
    """

    def work(row):
        params = SystemParams(*row.tolist())
        accepted = _ladder(params, spec.cutoff, readers)
        if accepted is not None:
            level, out, residual = accepted
            return out, ERROR_CODES["ok"], residual, level
        out = [math.nan] * len(readers)
        residual = math.nan
        try:
            rho = solve_steady(params, spec.cutoff, spec.cutoff)
            residual = rho.residual
            for k, read in enumerate(readers):
                out[k] = read(rho)
        except BicavityError as exc:
            return out, ERROR_CODES[exc.code], residual, BOX_LEVEL
        return out, ERROR_CODES["ok"], residual, BOX_LEVEL

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, thetas))
    else:
        results = [work(row) for row in thetas]
    values = np.array([out for out, _, _, _ in results], dtype=float).reshape(len(thetas), -1)
    codes = np.array([code for _, code, _, _ in results], dtype=int)
    residuals = [r for _, _, r, _ in results if not math.isnan(r)]
    levels = Counter(level for _, _, _, level in results)
    return values, codes, residuals, levels


def _analytic_rows(readers, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return values, codes


def run_sweep(spec: SweepSpec, threads: int = 1) -> ResultTable:
    """Evaluate the sweep grid; deterministic row order (first axis outer)."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    points, thetas = _grid(spec)
    values = np.full((len(thetas), len(spec.outputs)), np.nan)
    codes = np.zeros(len(thetas), dtype=int)
    residuals = []
    levels = None
    plan: dict[str, list[str]] = {}
    for name, (engine, _) in _OUTPUTS.items():
        if name in spec.outputs:
            plan.setdefault(engine, []).append(name)
    for engine, names in plan.items():
        live = np.flatnonzero(codes == ERROR_CODES["ok"])
        readers = [_OUTPUTS[name][1] for name in names]
        if engine == "master_equation":
            engine_values, codes[live], residuals, levels = _master_rows(
                spec, readers, thetas[live], threads
            )
        elif engine == "analytic":
            engine_values, codes[live] = _analytic_rows(readers, thetas[live])
        else:
            columns = normalized_spectrum(thetas[live])
            engine_values = np.column_stack([read(columns) for read in readers])
            unfit = ~np.isfinite(engine_values).all(axis=1)
            codes[live[unfit]], engine_values[unfit] = ERROR_CODES[BicavityError.code], np.nan
        values[np.ix_(live, [spec.outputs.index(name) for name in names])] = engine_values

    failed = int(np.count_nonzero(codes))
    if failed == len(codes):
        raise SweepError("every grid point of the sweep failed")
    columns = [axis.name for axis in spec.axes] + list(spec.outputs) + ["error"]
    rows = np.column_stack([points, values, codes]).tolist()
    metadata = _metadata(spec, len(rows), failed, residuals, levels)
    return ResultTable(columns, rows, metadata)


def _metadata(spec: SweepSpec, total: int, failed: int, residuals, levels) -> dict[str, str]:
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
    md["max_residual"] = repr(max(residuals)) if residuals else "nan"
    if levels is not None and spec.cutoff > LADDER_START:
        decided = [*range(LADDER_START + 1, spec.cutoff + 1), BOX_LEVEL]
        md["master_levels"] = ";".join(f"{level}:{levels[level]}" for level in decided)
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

    Floats are emitted with repr(), which round-trips exactly and carries at
    least 12 significant digits whenever they matter.  Output is byte-for-byte
    deterministic for a given table.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in table.metadata.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(table.columns) + "\n")
        for row in table.rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path) -> ResultTable:
    """Inverse of emit_csv()."""
    metadata: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    if columns is None:
        raise ValueError(f"no header row found in {path}")
    return ResultTable(columns, rows, metadata)
