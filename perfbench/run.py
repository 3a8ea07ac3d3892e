"""bicavity benchmark.

    python3 perfbench/run.py --workload me_cut4 --seed 0 --seconds 35 --trace 0

Runs one workload in a closed loop with one caller for --seconds seconds and
checks every CSV it produces against the stored reference outputs.  With
--trace 0 it reports the end-to-end metrics (on analytic_scan with operation
times scaled to a nominal machine speed by SpeedProbe); with --trace 1 it runs one
untimed warm-up operation, then each operation three ways in turn (untraced,
traced, untraced with threads=2), and reports the per-layer metrics.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
attempted and failed count CSV rows.  Scratch files, CSV digests and span
dumps go to .perfbench-out/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gate
import workloads  # raises ImportError where the checkout has no bicavity sources

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 9

# Operation times of workloads.SCALED_WORKLOADS are scaled to a nominal
# machine speed, rated by SpeedProbe.
PROBE_SOLVES = 100
PROBE_NOMINAL_S = 1.0e-3
PROBE_SHARE = 0.15
PROBE_MIN_S = 0.2

END_TO_END = {"setup_s": "s", "points_per_s": "1/s", "point_p50_ms": "ms", "peak_rss_mb": "MB"}

# Nonzero codes of the CSV "error" column.
ROW_ERRORS = {name: code for name, code in workloads.sweep.ERROR_CODES.items() if code}
LAYERS = ("fock", "dynamics", "steadystate", "weakdrive", "meanfield", "sweep", "cli")
PER_LAYER = {
    "fock.operator_builds_per_point": "count",
    "fock.self_ms_per_point": "ms",
    "dynamics.liouvillian_ms_per_point": "ms",
    "dynamics.L_mbytes": "MB",
    "dynamics.L_nnz_frac": "fraction",
    "steadystate.solve_ms_per_point": "ms",
    "steadystate.lu_gflop_per_point": "GFLOP",
    "steadystate.observables_ms_per_point": "ms",
    "steadystate.residual_max": "1",
    "weakdrive.solves_per_point": "count",
    "weakdrive.solve_us_per_call": "us",
    "weakdrive.closed_form_us_per_call": "us",
    "weakdrive.hierarchy_warnings": "count",
    "meanfield.spectrum_us_per_point": "us",
    "sweep.self_us_per_point": "us",
    "sweep.emit_csv_ms": "ms",
    "sweep.csv_bytes": "bytes",
    **{f"sweep.rows_error.{name}": "count" for name in ROW_ERRORS},
    "sweep.threads2_speedup": "ratio",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "fraction",
    **{f"{layer}.self_share": "fraction" for layer in LAYERS},
}


@dataclass
class Phase:
    """Operations run with one thread setting, inside `context` (for example a tracer)."""

    threads: int
    context: object = contextlib.nullcontext
    durations: list[float] = field(default_factory=list)
    points: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    csv_bytes: int = 0
    codes: Counter = field(default_factory=Counter)


class Runner:
    """Runs operations, times them and checks their CSVs against the references."""

    def __init__(self, ops, tables: dict, book: gate.DigestBook, workdir: Path):
        self.ops = ops
        self.tables = tables
        self.book = book
        self.out = workdir / "out.csv"
        self._verified: dict[str, tuple[int, Counter]] = {}

    def measure(self, phases: list[Phase], budget: float, start: float, between=None) -> None:
        """Run operations until the next one would likely end past start + budget.

        Each operation runs once in every phase, one phase after the other,
        before the next operation starts; so the phases time the same
        operations at nearly the same time, and machine drift cancels in their
        ratios.  The phase order rotates from one operation to the next, so
        that no phase always goes first.  Every phase gets at least one
        operation.  between(fraction of the budget used), if given, runs after
        each operation.
        """
        k = 0
        while True:
            op, position = divmod(k, len(phases))
            self.run_op(self.ops[op % len(self.ops)], phases[(op + position) % len(phases)])
            k += 1
            if between is not None:
                between((time.perf_counter() - start) / budget)
            typical = statistics.median(d for p in phases for d in p.durations)
            if k >= len(phases) and time.perf_counter() - start + typical / 2 >= budget:
                return

    def run_op(self, op, phase: Phase) -> None:
        """Time one operation; only the calls into the program are inside the clock."""
        elapsed = 0.0
        for unit in op:
            self.out.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                with phase.context():
                    unit.run(phase.threads, self.out)
                ok = True
            except Exception:  # counted as failed rows; the run goes on
                ok = False
                traceback.print_exc()
            elapsed += time.perf_counter() - start
            phase.attempted += unit.rows
            phase.failed += self.check(unit, phase) if ok else unit.rows
        phase.durations.append(elapsed)
        phase.points.append(sum(unit.rows for unit in op))

    def check(self, unit, phase: Phase) -> int:
        """Failed rows of the unit's CSV: all of them if its bytes changed."""
        data = self.out.read_bytes()
        phase.csv_bytes += len(data)
        if not self.book.check(unit.key, hashlib.sha256(data).hexdigest()):
            print(f"perfbench: CSV of {unit.key!r} differs from an earlier run of this code",
                  file=sys.stderr)
            return unit.rows
        if unit.key not in self._verified:
            try:
                columns, rows = gate.parse_csv(data.decode("utf-8"))
            except ValueError:
                traceback.print_exc()
                self._verified[unit.key] = (unit.rows, Counter())
            else:
                codes = Counter(int(code) for code in rows[:, -1] if code)
                self._verified[unit.key] = (self.tables[unit.key].failed_rows(columns, rows), codes)
        failed, codes = self._verified[unit.key]
        phase.codes += codes
        return failed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _paired(a: Phase, b: Phase) -> float:
    """Median over operations of a's time over b's for the same operation.

    The phases time operation j as their j-th sample, seconds apart.
    """
    return statistics.median(x / y for x, y in zip(a.durations, b.durations))


def layer_metrics(tracer, plain: Phase, traced: Phase, two: Phase) -> dict[str, float]:
    """Per-layer metrics of the traced phase; the other two give overhead and speed-up."""
    totals = tracer.totals()
    points, ops = sum(traced.points), len(traced.durations)

    def total(name: str, key: str = "total") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, entry in totals.items():
        layer_self[name.split(".")[0]] += entry["self"]
    closed = ("weakdrive.g2_closed_form", "weakdrive.c_amplitudes_closed_form")
    counters = tracer.counters
    all_ops = len(plain.durations) + ops + len(two.durations)
    codes = plain.codes + traced.codes + two.codes
    metrics = {
        "fock.operator_builds_per_point": sum(
            e["calls"] for n, e in totals.items() if n.startswith("fock.") and n != "fock.build_space"
        ) / points,
        "fock.self_ms_per_point": layer_self["fock"] * 1e3 / points,
        "dynamics.liouvillian_ms_per_point": total("dynamics.liouvillian") * 1e3 / points,
        "dynamics.L_mbytes": counters["L_bytes_max"] / 1e6,
        "dynamics.L_nnz_frac": _ratio(counters["L_nnz_frac_sum"], counters["liouvillians"]),
        "steadystate.solve_ms_per_point": total("steadystate.steady_state") * 1e3 / points,
        "steadystate.lu_gflop_per_point":
            sum(8.0 / 3.0 * (d * d) ** 3 for d in tracer.lu_dims) / 1e9 / points,
        "steadystate.observables_ms_per_point":
            (total("steadystate.g2_zero") + total("steadystate.mean_photon")) * 1e3 / points,
        "steadystate.residual_max": counters["residual_max"],
        "weakdrive.solves_per_point": calls("weakdrive.solve_weak_drive") / points,
        "weakdrive.solve_us_per_call":
            _ratio(total("weakdrive.solve_weak_drive") * 1e6, calls("weakdrive.solve_weak_drive")),
        "weakdrive.closed_form_us_per_call":
            _ratio(sum(map(total, closed)) * 1e6, sum(map(calls, closed))),
        "weakdrive.hierarchy_warnings": counters["hierarchy_warnings"],
        "meanfield.spectrum_us_per_point":
            _ratio(total("meanfield.spectrum") * 1e6, calls("meanfield.spectrum")),
        "sweep.self_us_per_point": total("sweep.run_sweep", "self") * 1e6 / points,
        "sweep.emit_csv_ms": total("sweep.emit_csv") * 1e3 / ops,
        "sweep.csv_bytes": traced.csv_bytes / ops,
        **{f"sweep.rows_error.{name}": codes[code] / all_ops for name, code in ROW_ERRORS.items()},
        "sweep.threads2_speedup": _paired(plain, two),
        "cli.self_ms": _ratio(total("cli.main", "self") * 1e3, calls("cli.main")),
        "trace.overhead_frac": _paired(traced, plain) - 1.0,
        **{f"{layer}.self_share": layer_self[layer] / sum(traced.durations) for layer in LAYERS},
    }
    return {name: float(metrics[name]) for name in PER_LAYER}


def openblas_runtime() -> dict:
    """Thread count and core type of numpy's bundled OpenBLAS, asked at run time."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"threads": int(threads()), "config": config().decode()}
    return {}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args, code: str, threads: list[int]) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BICAVITY_THREADS")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads_arg": threads,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy_importable": importlib.util.find_spec("scipy") is not None,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": openblas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_sha": git_sha(), "code_id": code,
    }


class SpeedProbe:
    """Rates the machine's speed between operations with a fixed piece of work.

    The work is 8x8 numpy solves and float arithmetic, the kernel of the
    weak-drive path, and it calls no bicavity code.  A
    sample repeats it for PROBE_SHARE of the operation just timed (at least
    PROBE_MIN_S).  rates[i] is sample i's time per repetition over
    PROBE_NOMINAL_S, so a rate above 1 means a machine slower than nominal.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.solve = np.linalg.solve
        self.a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        self.b = rng.standard_normal(8)
        self.rates: list[float] = []

    def _repetition(self) -> float:
        acc = 0.0
        for k in range(PROBE_SOLVES):
            acc += float(self.solve(self.a, self.b)[k & 7]) * 0.5
        return acc

    def sample(self, seconds: float) -> None:
        seconds = max(PROBE_MIN_S, seconds)
        start, count = time.perf_counter(), 0
        while True:
            self._repetition()
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.rates.append(elapsed / count / PROBE_NOMINAL_S)

    def scaled(self, durations: list[float]) -> list[float]:
        """Each duration over the mean rate of the samples taken just before and after it."""
        rates = self.rates
        return [d * 2.0 / (rates[k] + rates[k + 1]) for k, d in enumerate(durations)]


class SetupProbe:
    """Times fresh processes that import bicavity and build the workload inputs.

    The machine's speed drifts over tens of seconds, so the probes are spread
    over the run rather than taken in one burst.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.cmd += ["--tiny"] if args.tiny else []
        self.times: list[float] = []

    def __call__(self, progress: float) -> None:
        """Take probes until SETUP_REPEATS * progress of them are done (at least one)."""
        while len(self.times) < min(SETUP_REPEATS, max(1, round(progress * SETUP_REPEATS))):
            start = time.perf_counter()
            # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
            subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - start)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bicavity benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few-row inputs, for self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workloads.build(args.workload, args.seed, Path(tmp), args.tiny)
        return 0

    import numpy as np
    import tracer as tracing

    code = gate.code_id([workloads.SRC, HERE], f"{sys.version} numpy {np.__version__}")
    book = gate.DigestBook(OUT_DIR / "digests.json", code)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        start = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, Path(tmp), args.tiny)
        # The traced run's warm-up is the workload's tiny first operation: it
        # pays the cold-start costs without eating much of the budget.
        warm_up = workloads.build(args.workload, args.seed, Path(tmp), tiny=True)[0] if args.trace else []
        with workloads.load_reference(args.workload) as reference:
            tables = {unit.key: gate.ReferenceTable(list(reference[f"{unit.key}.columns"]),
                                                    reference[unit.key])
                      for op in [*ops, warm_up] for unit in op}
        runner = Runner(ops, tables, book, Path(tmp))
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced, two = Phase(1), Phase(1, tracer.installed), Phase(2)
            phases = [Phase(1), plain, traced, two]
            runner.run_op(warm_up, phases[0])
            runner.measure(phases[1:], args.seconds, start)
        else:
            setup = SetupProbe(args)
            speed = SpeedProbe() if args.workload in workloads.SCALED_WORKLOADS else None
            phases = [Phase(1)]

            def between(progress: float) -> None:
                if speed is not None:
                    speed.sample(PROBE_SHARE * phases[0].durations[-1])
                setup(progress)

            setup(0.0)
            if speed is not None:
                speed.sample(PROBE_MIN_S)
            runner.measure(phases, args.seconds, time.perf_counter(), between)
            setup(1.0)
    book.save()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args, code, sorted({p.threads for p in phases}))))
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.txt.gz")
        metrics = layer_metrics(tracer, plain, traced, two)
        units = PER_LAYER
        print(f"operations per phase: {len(plain.durations)} untraced, {len(traced.durations)} "
              f"traced, {len(two.durations)} with threads=2; {len(tracer.spans)} spans")
        for label, phase in (("untraced", plain), ("traced", traced), ("threads=2", two)):
            print(f"{label} operation seconds: " + " ".join(f"{d:.4f}" for d in phase.durations))
    else:
        phase = phases[0]

        def throughput(durations: list[float]) -> dict[str, float]:
            return {
                "points_per_s": sum(phase.points) / sum(durations),
                "point_p50_ms": 1e3 * statistics.median(
                    d / p for d, p in zip(durations, phase.points)),
            }

        metrics = {
            "setup_s": statistics.median(setup.times),
            **throughput(phase.durations if speed is None else speed.scaled(phase.durations)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(f"{len(phase.durations)} operations, {sum(phase.points)} points in "
              f"{sum(phase.durations):.3f} s; setup_s is the median of {SETUP_REPEATS} processes; "
              f"point_p50_ms is the median of {len(phase.durations)} per-operation samples")
        print("operation seconds: " + " ".join(f"{d:.4f}" for d in phase.durations))
        print("setup seconds: " + " ".join(f"{t:.4f}" for t in setup.times))
        if speed is not None:
            print("machine speed rates: " + " ".join(f"{r:.4f}" for r in speed.rates))
            print("unscaled: " + ", ".join(
                f"{name} {value:.6g}" for name, value in throughput(phase.durations).items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} fraction ({failed} of {attempted} rows)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
