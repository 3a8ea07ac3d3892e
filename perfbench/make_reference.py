"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs define correctness: the benchmark
counts every later deviation beyond tolerance as a failed row.  It stores
every row of every unit any seed can run, full-size and tiny, so references
exist for all seeds; me_cut4 takes a few minutes.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import numpy as np

import gate
import workloads as wl

POOL_SEED = 1506  # fixed: the pool is part of the reference, not of a run's seed
FIG8A_CORNER = 60  # flat index of kappa = 1, g = 100: fig8a's small-kappa corner


def me_cut4_units() -> tuple[dict, list[wl.Unit]]:
    """Pools of grid points per preset, and the one-point unit of each pool entry."""
    rng = random.Random(POOL_SEED)
    arrays, units = {}, []
    for preset in wl.ME_PRESETS:
        spec = wl.sweep.figure_preset(preset)
        size = len(spec.axes[0].values) * len(spec.axes[1].values)
        pool = [FIG8A_CORNER] if preset == "fig8a" else []
        pool += rng.sample([k for k in range(size) if k not in pool], wl.ME_POOL_SIZE - len(pool))
        arrays[f"pool.{preset}"] = np.array(sorted(pool))
        units += [wl.Unit(f"{preset}[{flat}]", 1, ("sweep", wl.point_spec(preset, flat)))
                  for flat in sorted(pool)]
    return arrays, units


def seeded_units(workload: str, seeds, workdir: Path) -> list[wl.Unit]:
    """Units of the workload's full-size and tiny runs for the given seeds."""
    return [unit for seed in seeds for tiny in (False, True)
            for op in wl.build(workload, seed, workdir, tiny) for unit in op]


def main() -> int:
    j_seeds = [next(s for s in range(100) if random.Random(s).choice(wl.SCAN_J_FAMILY) == j)
               for j in wl.SCAN_J_FAMILY]
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in wl.WORKLOADS:
        print(f"reference {name}", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            arrays = {}
            if name == "me_cut4":
                arrays, units = me_cut4_units()
            else:
                units = seeded_units(name, j_seeds if name == "analytic_scan" else [0], workdir)
            out = workdir / "out.csv"
            for unit in units:
                if unit.key in arrays:
                    continue
                unit.run(1, out)
                columns, rows = gate.parse_csv(out.read_text(encoding="utf-8"))
                if len(rows) != unit.rows:
                    raise RuntimeError(f"{unit.key}: {len(rows)} rows, expected {unit.rows}")
                arrays[unit.key], arrays[f"{unit.key}.columns"] = rows, np.array(columns)
                print(f"  {unit.key}: {len(rows)} rows", flush=True)
        np.savez_compressed(wl.REFERENCE_DIR / f"{name}.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main())
