"""Smoke test: every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Demo 06 regenerates every preset by default; two small presets at a reduced
# cutoff still run its cutoff override.
ARGS = {"06_figure_tables.py": ["--only", "fig2", "fig7", "--cutoff", "2", "--out-dir", "tables"]}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # -W error: a warning fails the demo, as pyproject.toml's filterwarnings fail a test.
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo), *ARGS.get(demo.name, [])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if demo.name in ARGS:
        assert sorted(p.name for p in (tmp_path / "tables").iterdir()) == ["fig2.csv", "fig7.csv"]
