"""Parameter sweeps, figure presets and CSV emission.

A sweep walks a 1-D or 2-D grid of parameter values, evaluates the requested
observables at every point and collects the results into a rectangular table.
Failed points are tagged with a numeric error code instead of being dropped,
so 2-D scans always stay rectangular.  threads > 1 evaluates points on a
thread pool, in the same row order; two threads measured 0.99x the one-thread
speed on the master equation and 0.42x on analytic sweeps.  The pool stays
because the benchmark in perfbench/ passes threads=.

Axis names are SystemParams fields plus two aliases:
  * "g"      sets g_a and g_b together,
  * "delta"  also sets delta_a when the sweep ties the emitter to the cavity.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import (
    AnalyticSingularityError,
    BicavityError,
    DegenerateSteadyStateError,
    InvalidTruncationError,
    SteadyStateSolverError,
    SweepError,
    UndefinedCorrelationError,
)
from .meanfield import spectrum
from .params import SystemParams, reference_baseline
from .steadystate import g2_zero, mean_photon, solve_steady
from .weakdrive import solve_weak_drive
# Not called here; kept as attributes that perfbench/tracer.py SITES patches.
from .weakdrive import c_amplitudes_closed_form, g2_closed_form  # noqa: F401

# Output -> (engine, reader of that engine's per-point result), in evaluation
# order: master equation (n before g2), weak drive, mean field.  The lambdas
# look names up at call time, so patched module attributes apply.
_OUTPUTS = {
    "n_ccw": ("master_equation", lambda rho: mean_photon(rho, "ccw")),
    "n_cw": ("master_equation", lambda rho: mean_photon(rho, "cw")),
    "g2_ccw": ("master_equation", lambda rho: g2_zero(rho, "ccw")),
    "g2_cw": ("master_equation", lambda rho: g2_zero(rho, "cw")),
    "g2_analytic": ("analytic", lambda amps: amps.g2_ccw),
    "c1_abs2": ("analytic", lambda amps: abs(amps.c_100m) ** 2),
    "c2_abs2": ("analytic", lambda amps: abs(amps.c_200m) ** 2),
    "p_t": ("mean_field", lambda point: point.p_t),
    "p_r": ("mean_field", lambda point: point.p_r),
}
# Engine -> its solve at one point.
_SOLVERS = {
    "master_equation": lambda spec, params: solve_steady(params, *spec.cutoffs),
    "analytic": lambda spec, params: solve_weak_drive(params),
    "mean_field": lambda spec, params: spectrum(params, [params.delta])[0],
}
ALL_OUTPUTS = tuple(_OUTPUTS)
MASTER_OUTPUTS = tuple(o for o, (engine, _) in _OUTPUTS.items() if engine == "master_equation")

# Numeric tags for the per-row "error" column.
ERROR_CODES = {
    "ok": 0,
    "undefined_correlation": 1,
    "analytic_singularity": 2,
    "solver_failure": 3,
    "degenerate_steady_state": 4,
    "invalid_point": 9,
}

_PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))
_AXIS_NAMES = _PARAM_FIELDS + ("g",)


@dataclass(frozen=True)
class Axis:
    """One swept parameter with its explicit grid values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValueError(f"unknown axis name {self.name!r}; expected one of {_AXIS_NAMES}")
        if len(self.values) < 1:
            raise ValueError("axis needs at least one value")


def linear_axis(name: str, lo: float, hi: float, count: int) -> Axis:
    """Uniform grid axis; count >= 2 and lo < hi."""
    if count < 2:
        raise ValueError(f"axis count must be >= 2, got {count}")
    if not lo < hi:
        raise ValueError(f"axis needs lo < hi, got [{lo}, {hi}]")
    return Axis(name, tuple(float(v) for v in np.linspace(lo, hi, count)))


def value_axis(name: str, values) -> Axis:
    """Axis over an explicit list of values (e.g. a small family of J)."""
    return Axis(name, tuple(float(v) for v in values))


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to reproduce one sweep."""

    base: SystemParams
    axes: tuple[Axis, ...]
    outputs: tuple[str, ...]
    cutoffs: tuple[int, int] = (4, 4)
    tie_delta_a: bool = False
    label: str = ""

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep has one or two axes")
        if not self.outputs:
            raise ValueError("at least one output is required")
        if min(self.cutoffs) < 1:
            raise InvalidTruncationError(f"photon cutoffs must be >= 1, got {self.cutoffs}")
        for out in self.outputs:
            if out not in ALL_OUTPUTS:
                raise ValueError(f"unknown output {out!r}; expected one of {ALL_OUTPUTS}")

    @property
    def engine(self) -> str:
        """The engines the outputs call for; mean-field outputs ride along with either."""
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


def _point_params(spec: SweepSpec, assignment: dict[str, float]) -> SystemParams:
    changes: dict[str, float] = {}
    for name, value in assignment.items():
        if name == "g":
            changes["g_a"] = value
            changes["g_b"] = value
        elif name == "delta" and spec.tie_delta_a:
            changes["delta"] = value
            changes["delta_a"] = value
        else:
            changes[name] = value
    return spec.base.replace(**changes)


def _evaluate_point(
    spec: SweepSpec, plan, params: SystemParams
) -> tuple[dict[str, float], int, float]:
    """Compute the requested outputs at one point, each engine solved once.

    plan is the requested part of _OUTPUTS, in its order.  Returns (values,
    error_code, master residual or nan); on failure the missing outputs are nan.
    """
    values = {name: math.nan for name in spec.outputs}
    residual = math.nan
    engine = result = None
    try:
        for name, (needed, read) in plan:
            if needed != engine:
                engine = needed
                result = _SOLVERS[engine](spec, params)
                if engine == "master_equation":
                    residual = result.residual
            values[name] = read(result)
    except UndefinedCorrelationError:
        return values, ERROR_CODES["undefined_correlation"], residual
    except AnalyticSingularityError:
        return values, ERROR_CODES["analytic_singularity"], residual
    except SteadyStateSolverError:
        return values, ERROR_CODES["solver_failure"], residual
    except DegenerateSteadyStateError:
        return values, ERROR_CODES["degenerate_steady_state"], residual
    except BicavityError:
        return values, ERROR_CODES["invalid_point"], residual
    return values, ERROR_CODES["ok"], residual


def run_sweep(spec: SweepSpec, threads: int = 1) -> ResultTable:
    """Evaluate the sweep grid; deterministic row order (first axis outer)."""
    grid = list(itertools.product(*(axis.values for axis in spec.axes)))
    names = [axis.name for axis in spec.axes]
    plan = [(name, entry) for name, entry in _OUTPUTS.items() if name in spec.outputs]

    def work(point):
        params = _point_params(spec, dict(zip(names, point)))
        return _evaluate_point(spec, plan, params)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, grid))
    else:
        results = [work(point) for point in grid]

    columns = names + list(spec.outputs) + ["error"]
    rows = [
        list(point) + [values[name] for name in spec.outputs] + [float(code)]
        for point, (values, code, _) in zip(grid, results)
    ]
    failed = sum(1 for _, code, _ in results if code != ERROR_CODES["ok"])
    if failed == len(rows):
        raise SweepError("every grid point of the sweep failed")

    residuals = [r for _, _, r in results if not math.isnan(r)]
    metadata = _metadata(spec, len(rows), failed, residuals)
    return ResultTable(columns, rows, metadata)


def _metadata(spec: SweepSpec, total: int, failed: int, residuals) -> dict[str, str]:
    md = {
        "tool": "bicavity",
        "version": __version__,
        "label": spec.label or "custom",
        "engine": spec.engine,
        "cutoff_n_a": str(spec.cutoffs[0]),
        "cutoff_n_b": str(spec.cutoffs[1]),
        "tie_delta_a": str(spec.tie_delta_a).lower(),
        "outputs": ",".join(spec.outputs),
    }
    for name in _PARAM_FIELDS:
        md[f"base.{name}"] = repr(getattr(spec.base, name))
    for k, axis in enumerate(spec.axes, start=1):
        if len(axis.values) <= 16:
            md[f"axis{k}"] = f"{axis.name}: " + ",".join(repr(v) for v in axis.values)
        else:
            md[f"axis{k}"] = (
                f"{axis.name}: linspace({axis.values[0]!r}, {axis.values[-1]!r}, "
                f"{len(axis.values)})"
            )
    md["points_total"] = str(total)
    md["points_failed"] = str(failed)
    md["max_residual"] = repr(max(residuals)) if residuals else "nan"
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
