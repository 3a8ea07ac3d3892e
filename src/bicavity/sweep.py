"""Parameter sweeps, figure presets and CSV emission.

A sweep walks a 1-D or 2-D grid of parameter values, evaluates the requested
observables at every point and collects the results into a rectangular table.
Failed points are tagged with a numeric error code instead of being dropped,
so 2-D scans always stay rectangular.  Grid points are independent; a bounded
thread pool may evaluate them concurrently (LAPACK releases the GIL) and the
row order is identical either way.

Axis names are SystemParams fields plus two aliases:
  * "g"      sets g_a and g_b together,
  * "delta"  also sets delta_a when the sweep ties the emitter to the cavity.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import (
    AnalyticSingularityError,
    BicavityError,
    DegenerateSteadyStateError,
    SteadyStateSolverError,
    SweepError,
    UndefinedCorrelationError,
)
from .meanfield import spectrum
from .params import SystemParams, reference_baseline
from .steadystate import g2_zero, mean_photon, solve_steady
from .weakdrive import c_amplitudes_closed_form, g2_closed_form, solve_weak_drive

MASTER_OUTPUTS = ("g2_ccw", "g2_cw", "n_ccw", "n_cw")
ANALYTIC_OUTPUTS = ("g2_analytic", "c1_abs2", "c2_abs2")
MEANFIELD_OUTPUTS = ("p_t", "p_r")
ALL_OUTPUTS = MASTER_OUTPUTS + ANALYTIC_OUTPUTS + MEANFIELD_OUTPUTS

ENGINES = ("master_equation", "analytic", "both")

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
    engine: str = "master_equation"
    cutoffs: tuple[int, int] = (4, 4)
    tie_delta_a: bool = False
    label: str = ""

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep has one or two axes")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if not self.outputs:
            raise ValueError("at least one output is required")
        for out in self.outputs:
            if out not in ALL_OUTPUTS:
                raise ValueError(f"unknown output {out!r}; expected one of {ALL_OUTPUTS}")
        if self.engine == "master_equation" and set(self.outputs) & set(ANALYTIC_OUTPUTS):
            raise ValueError("analytic outputs require engine 'analytic' or 'both'")
        if self.engine == "analytic" and set(self.outputs) & set(MASTER_OUTPUTS):
            raise ValueError("master-equation outputs require engine 'master_equation' or 'both'")


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


def _evaluate_point(spec: SweepSpec, params: SystemParams) -> tuple[dict[str, float], int, float]:
    """Compute the requested outputs at one point.

    Returns (values, error_code, master residual or nan); on failure the
    missing outputs are nan.
    """
    values = {name: math.nan for name in spec.outputs}
    residual = math.nan
    wanted = set(spec.outputs)
    try:
        if wanted & set(MASTER_OUTPUTS):
            rho = solve_steady(params, *spec.cutoffs)
            residual = rho.residual
            if "n_ccw" in wanted:
                values["n_ccw"] = mean_photon(rho, "ccw")
            if "n_cw" in wanted:
                values["n_cw"] = mean_photon(rho, "cw")
            if "g2_ccw" in wanted:
                values["g2_ccw"] = g2_zero(rho, "ccw")
            if "g2_cw" in wanted:
                values["g2_cw"] = g2_zero(rho, "cw")
        if wanted & set(ANALYTIC_OUTPUTS):
            # The closed forms need g_a == g_b; otherwise solve the system once.
            amps = None if params.g_a == params.g_b else solve_weak_drive(params)
            if "g2_analytic" in wanted:
                values["g2_analytic"] = g2_closed_form(params) if amps is None else amps.g2_ccw
            if {"c1_abs2", "c2_abs2"} & wanted:
                if amps is None:
                    c1, c2 = c_amplitudes_closed_form(params)
                else:
                    c1, c2 = amps.c_100m, amps.c_200m
                values["c1_abs2"] = abs(c1) ** 2
                values["c2_abs2"] = abs(c2) ** 2
        if wanted & set(MEANFIELD_OUTPUTS):
            point = spectrum(params, [params.delta])[0]
            values["p_t"] = point.p_t
            values["p_r"] = point.p_r
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


def default_threads() -> int:
    return max(1, int(os.environ.get("BICAVITY_THREADS", "1")))


def run_sweep(spec: SweepSpec, threads: int | None = None) -> ResultTable:
    """Evaluate the sweep grid; deterministic row order (first axis outer)."""
    threads = default_threads() if threads is None else max(1, threads)
    grid = list(itertools.product(*(axis.values for axis in spec.axes)))
    names = [axis.name for axis in spec.axes]

    def work(point):
        params = _point_params(spec, dict(zip(names, point)))
        return _evaluate_point(spec, params)

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


def figure_preset(name: str) -> SweepSpec:
    """Built-in sweep specification reproducing one reference scan."""
    base = reference_baseline()
    k = _K
    presets = {
        "fig2": lambda: SweepSpec(
            base=SystemParams(kappa=k, drive=1.0),
            axes=(value_axis("j_coupling", [0.8 * k, 6 * k]),
                  linear_axis("delta", -10 * k, 10 * k, 401)),
            outputs=MEANFIELD_OUTPUTS,
            engine="analytic",
            label=name,
        ),
        "fig3": lambda: SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 30 * k]),
                  linear_axis("delta", -3 * k, 3 * k, 241)),
            outputs=("g2_ccw", "g2_analytic"),
            engine="both",
            tie_delta_a=True,
            label=name,
        ),
        "fig4a": lambda: SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 10 * k, 20 * k, 40 * k]),
                  value_axis("g", _open_interval(1.5 * k, 201))),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig4b": lambda: SweepSpec(
            base=base,
            axes=(linear_axis("j_coupling", 0.0, 40 * k, 61),
                  value_axis("g", _open_interval(1.5 * k, 61))),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig7": lambda: SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 20 * k]),
                  linear_axis("delta", -3 * k, 3 * k, 241)),
            outputs=("c1_abs2", "c2_abs2"),
            engine="analytic",
            tie_delta_a=True,
            label=name,
        ),
        "fig8a": lambda: SweepSpec(
            base=base,
            axes=(linear_axis("kappa", 1.0, 100.0, 61),
                  linear_axis("g", 1.0, 100.0, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig8b": lambda: SweepSpec(
            base=base.replace(j_coupling=800.0),
            axes=(linear_axis("kappa", 1.0, 100.0, 61),
                  linear_axis("g", 1.0, 100.0, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig9a": lambda: SweepSpec(
            base=base.replace(gamma_p=3.0),
            axes=(value_axis("j_coupling", [0.0, 10 * k]),
                  linear_axis("delta", -3 * k, 3 * k, 241)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
            label=name,
        ),
        "fig9b": lambda: SweepSpec(
            base=base,
            axes=(value_axis("j_coupling", [0.0, 6 * k, 10 * k, 20 * k]),
                  linear_axis("gamma_p", 0.0, 20.0, 201)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig10a": lambda: SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("gamma_p", 0.0, 10.0, 61)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
            label=name,
        ),
        "fig10b": lambda: SweepSpec(
            base=base,
            axes=(linear_axis("j_coupling", 0.0, 20 * k, 61),
                  linear_axis("gamma_p", 0.0, 20.0, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig14a": lambda: SweepSpec(
            base=base,
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("delta_a", -3 * k, 3 * k, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig14b": lambda: SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("delta_a", -3 * k, 3 * k, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig15a": lambda: SweepSpec(
            base=base,
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
            label=name,
        ),
        "fig15b": lambda: SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("delta", -3 * k, 3 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
            tie_delta_a=True,
            label=name,
        ),
        "fig15c": lambda: SweepSpec(
            base=base,
            axes=(linear_axis("g_a", 0.0, 2 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
        "fig15d": lambda: SweepSpec(
            base=base.replace(j_coupling=20 * k),
            axes=(linear_axis("g_a", 0.0, 2 * k, 61),
                  linear_axis("g_b", 0.0, 2 * k, 61)),
            outputs=("g2_ccw",),
            label=name,
        ),
    }
    try:
        return presets[name]()
    except KeyError:
        raise ValueError(
            f"unknown figure preset {name!r}; available: {sorted(presets)}"
        ) from None


FIGURE_NAMES = (
    "fig2", "fig3", "fig4a", "fig4b", "fig7", "fig8a", "fig8b",
    "fig9a", "fig9b", "fig10a", "fig10b", "fig14a", "fig14b",
    "fig15a", "fig15b", "fig15c", "fig15d",
)


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
