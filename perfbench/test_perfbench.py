"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gate
import run as bench
import workloads
from bicavity import steadystate
from workloads import sweep

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_benchmark():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench(HERE.parent, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    report = {line.split()[0]: line.split()[2] for line in lines[:-1] if line.startswith("  ")}
    for m in declared:
        assert report[m["name"]] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
    assert report["failed_frac"] == "fraction"


def _tiny_fig3(tmp_path: Path):
    ops = workloads.build("fig3_cut2", 0, tmp_path, tiny=True)
    [[unit]] = ops
    with workloads.load_reference("fig3_cut2") as reference:
        return ops, list(reference[f"{unit.key}.columns"]), reference[unit.key]


def _failed_frac(ops, columns, rows, tmp_path: Path, book=None) -> float:
    [[unit]] = ops
    book = book or gate.DigestBook(tmp_path / "digests.json", "test")
    runner = bench.Runner(ops, {unit.key: gate.ReferenceTable(columns, rows)}, book, tmp_path)
    phase = bench.Phase(1)
    runner.measure([phase], 0.0, time.perf_counter())
    return phase.failed / phase.attempted


@pytest.mark.parametrize("column, rtol", [("g2_ccw", gate.RTOL_MASTER),
                                          ("g2_analytic", gate.RTOL_OTHER)])
def test_reference_perturbed_beyond_tolerance_raises_failed_frac(tmp_path, column, rtol):
    ops, columns, rows = _tiny_fig3(tmp_path)
    assert gate.RTOL_MASTER == steadystate.TRUNCATION_TOL
    assert _failed_frac(ops, columns, rows, tmp_path) == 0.0
    for factor, failed in ((1 + 0.5 * rtol, 0), (1 + 2 * rtol, 1)):
        perturbed = rows.copy()
        perturbed[3, columns.index(column)] *= factor
        assert _failed_frac(ops, columns, perturbed, tmp_path) == failed / len(rows)


def test_error_code_mismatch_and_changed_csv_bytes_fail_rows(tmp_path):
    ops, columns, rows = _tiny_fig3(tmp_path)
    [[unit]] = ops
    perturbed = rows.copy()
    perturbed[0, -1] = sweep.ERROR_CODES["solver_failure"]
    assert _failed_frac(ops, columns, perturbed, tmp_path) == 1 / len(rows)
    table = gate.ReferenceTable(columns, rows)
    assert table.failed_rows(columns, rows[:-1]) == 1  # a missing row
    assert table.failed_rows(columns, np.vstack([rows, rows[-1:]])) == 1  # an extra row
    assert table.failed_rows(columns[::-1], rows) == len(rows)
    book = gate.DigestBook(tmp_path / "other.json", "test")
    book.check(unit.key, "0" * 64)
    assert _failed_frac(ops, columns, rows, tmp_path, book) == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "me_cut4", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
