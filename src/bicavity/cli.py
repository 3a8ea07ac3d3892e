"""Command-line interface.

Subcommands:
  spectrum  -- mean-field transmission/reflection vs detuning
  sweep     -- run a custom sweep from an INI config file
  figure    -- run a built-in figure preset

Exit code 0 on success; a package error, ValueError (bad input) or OSError prints
a JSON error summary to stderr and exits 1, and any other exception propagates.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys

from .errors import BicavityError
from .params import SystemParams
from .sweep import (
    FIGURE_NAMES,
    SweepSpec,
    Axis,
    emit_csv,
    figure_preset,
    linear_axis,
    run_sweep,
    value_axis,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicavity",
        description="Photon statistics of an emitter in a scatterer-coupled bimodal cavity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="mean-field transmission/reflection spectrum")
    sp.add_argument("--kappa", type=float, default=1.0, help="cavity linewidth (frequency unit)")
    sp.add_argument("--j", type=float, required=True, help="mode coupling J (same unit)")
    sp.add_argument("--min", dest="lo", type=float, default=None, help="lowest detuning (default -10 kappa)")
    sp.add_argument("--max", dest="hi", type=float, default=None, help="highest detuning (default +10 kappa)")
    sp.add_argument("--points", type=int, default=401)
    sp.add_argument("--out", default="spectrum.csv")

    sw = sub.add_parser("sweep", help="run a sweep described by an INI config file")
    sw.add_argument("config", help="config file; see README for the format")
    sw.add_argument("--out", default="sweep.csv")
    sw.add_argument("--cutoff", type=int, default=None, help="photon cutoff of both modes")
    sw.add_argument("--threads", type=int, default=1)
    sw.add_argument("--log10", action="store_true", help="append log10 columns for g2 outputs")

    fg = sub.add_parser("figure", help="run a built-in figure preset")
    fg.add_argument("name", choices=FIGURE_NAMES)
    fg.add_argument("--out", default=None, help="output CSV (default <name>.csv)")
    fg.add_argument("--cutoff", type=int, default=None)
    fg.add_argument("--threads", type=int, default=1)
    fg.add_argument("--log10", action="store_true")
    return parser


def _cmd_spectrum(args) -> int:
    lo = -10.0 * args.kappa if args.lo is None else args.lo
    hi = 10.0 * args.kappa if args.hi is None else args.hi
    spec = SweepSpec(
        base=SystemParams(kappa=args.kappa, j_coupling=args.j, drive=1.0),
        axes=(linear_axis("delta", lo, hi, args.points),),
        outputs=("p_t", "p_r"),
        label="spectrum",
    )
    emit_csv(run_sweep(spec), args.out)
    print(f"wrote {args.out}")
    return 0


# The keys each INI section may hold.
_CONFIG_KEYS = {
    "base": {f.name for f in dataclasses.fields(SystemParams)},
    "axis1": {"name", "min", "max", "count", "values"},
    "axis2": {"name", "min", "max", "count", "values"},
    # engine is accepted from older configs and ignored: the outputs decide it
    "sweep": {"outputs", "cutoff", "tie_delta_a", "label", "engine"},
}


def _require(section, *keys) -> None:
    if missing := [key for key in keys if key not in section]:
        raise ValueError(f"config section [{section.name}] needs {', '.join(missing)}")


def _parse_config(path) -> SweepSpec:
    """The sweep an INI file describes; a malformed file or a missing key is a
    ValueError, and a file that cannot be read an OSError."""
    cfg = configparser.ConfigParser()
    cfg.read_dict({"base": {}, "sweep": {}})
    try:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
        for section in cfg.sections():
            if section not in _CONFIG_KEYS:
                raise ValueError(f"unknown config section [{section}]")
            if unknown := sorted(set(cfg[section]) - _CONFIG_KEYS[section]):
                raise ValueError(f"unknown key(s) {unknown} in config section [{section}]")
        _require(cfg["base"], "kappa")

        axes: list[Axis] = []
        for sec in (cfg[name] for name in ("axis1", "axis2") if name in cfg):
            _require(sec, "name")
            if "values" in sec:
                if {"min", "max", "count"} & set(sec):
                    raise ValueError(f"config section [{sec.name}] gives both values and min/max/count")
                axes.append(value_axis(sec["name"], [float(v) for v in sec["values"].split(",")]))
            else:
                _require(sec, "min", "max", "count")
                axes.append(
                    linear_axis(sec["name"], sec.getfloat("min"), sec.getfloat("max"), sec.getint("count"))
                )

        sweep_sec = cfg["sweep"]
        return SweepSpec(
            base=SystemParams(**{k: float(v) for k, v in cfg["base"].items()}),
            axes=tuple(axes),
            outputs=tuple(s.strip() for s in sweep_sec.get("outputs", "g2_ccw").split(",")),
            cutoff=sweep_sec.getint("cutoff", 4),
            tie_delta_a=sweep_sec.getboolean("tie_delta_a", False),
            label=sweep_sec.get("label", "custom"),
        )
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc


def _finish_sweep(spec: SweepSpec, args, out_path) -> int:
    if args.cutoff is not None:
        spec = dataclasses.replace(spec, cutoff=args.cutoff)
    table = run_sweep(spec, threads=args.threads)
    if getattr(args, "log10", False):
        g2_cols = [c for c in table.columns if c.startswith("g2")]
        table = table.with_log10(g2_cols)
    emit_csv(table, out_path)
    print(f"wrote {out_path} ({table.metadata['points_total']} points, "
          f"{table.metadata['points_failed']} failed)")
    return 0


def _cmd_sweep(args) -> int:
    return _finish_sweep(_parse_config(args.config), args, args.out)


def _cmd_figure(args) -> int:
    spec = figure_preset(args.name)
    return _finish_sweep(spec, args, args.out or f"{args.name}.csv")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
    }
    try:
        return handlers[args.command](args)
    except (BicavityError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
