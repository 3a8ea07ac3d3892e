"""Regenerate every built-in reference scan as a CSV data table.

Equivalent to running ``bicavity figure <name>`` for each preset.  The 2-D
heatmap scans take a few minutes each at the default cutoff; pass a smaller
cutoff or a thread count on the command line to speed things up, e.g.::

    python3 demos/06_figure_tables.py --cutoff 3 --threads 4 --only fig3 fig9b
"""

import argparse
import dataclasses
import pathlib
import time

from bicavity import FIGURE_NAMES, emit_csv, figure_preset, run_sweep


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="figure_tables")
    ap.add_argument("--cutoff", type=int, default=None)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--only", nargs="*", choices=FIGURE_NAMES, default=None)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in args.only or FIGURE_NAMES:
        spec = figure_preset(name)
        if args.cutoff:
            spec = dataclasses.replace(spec, cutoff=args.cutoff)
        t0 = time.perf_counter()
        table = run_sweep(spec, threads=args.threads)
        path = out_dir / f"{name}.csv"
        emit_csv(table, path)
        print(f"{name:7s} -> {path}  ({len(table.cells)} rows, "
              f"{time.perf_counter() - t0:.1f}s)")


if __name__ == "__main__":
    main()
