"""Command-line interface.

Subcommands:
  spectrum  -- mean-field transmission/reflection vs detuning
  sweep     -- run a custom sweep from an INI config file
  figure    -- run a built-in figure preset
  check     -- fast self-check of the core numerical invariants

Exit code 0 on success; on failure a machine-readable JSON error summary is
printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys

import numpy as np

from .errors import BicavityError
from .params import SystemParams, reference_baseline
from .steadystate import check_truncation, g2_zero, solve_steady
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
from .weakdrive import c_amplitudes_closed_form, solve_weak_drive
from .dynamics import liouvillian
from .fock import build_space


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

    ck = sub.add_parser("check", help="run the fast numerical invariant suite")
    ck.add_argument("--seed", type=int, default=7)
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


def _parse_config(path) -> SweepSpec:
    cfg = configparser.ConfigParser()
    cfg.read_dict({"base": {}, "sweep": {}})
    if not cfg.read(path):
        raise BicavityError(f"cannot read config file {path}")
    for section in cfg.sections():
        if section not in _CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        if unknown := sorted(set(cfg[section]) - _CONFIG_KEYS[section]):
            raise ValueError(f"unknown key(s) {unknown} in config section [{section}]")

    axes: list[Axis] = []
    for sec in (cfg[name] for name in ("axis1", "axis2") if name in cfg):
        if "values" in sec:
            if {"min", "max", "count"} & set(sec):
                raise ValueError(f"config section [{sec.name}] gives both values and min/max/count")
            axes.append(value_axis(sec["name"], [float(v) for v in sec["values"].split(",")]))
        else:
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


def _cmd_check(args) -> int:
    """Fast battery of the core invariants; prints one line per check."""
    rng = np.random.default_rng(args.seed)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"  {'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    space = build_space(2, 2)
    params = reference_baseline()

    # Lindblad trace preservation on random Hermitian unit-trace inputs.
    lv = liouvillian(params.replace(gamma_p=0.5), space)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        worst = max(worst, abs(np.trace(lv.apply(rho))))
    report("liouvillian trace preservation", worst < 1e-12, f"max |Tr L[rho]| = {worst:.2e}")

    # Steady-state residual.
    rho_ss = solve_steady(params, 3, 3)
    report("steady-state residual", rho_ss.residual <= 1e-10, f"{rho_ss.residual:.2e}")

    # Coherent light from a linear cavity is Poissonian.
    g2_lin = g2_zero(solve_steady(params.replace(g_a=0.0, g_b=0.0), 3, 3), "ccw")
    report("linear-cavity g2 = 1", abs(g2_lin - 1.0) <= 1e-3, f"g2 = {g2_lin:.6f}")

    # Closed forms vs the linear system on random draws.
    worst = 0.0
    for _ in range(25):
        p = SystemParams(
            kappa=float(rng.uniform(1, 60)),
            delta=float(rng.uniform(-40, 40)),
            j_coupling=float(rng.uniform(0, 400)),
            g_a=0.0, g_b=0.0,
            drive=float(rng.uniform(0.001, 0.02)),
            gamma_a=float(rng.uniform(0.1, 4)),
        )
        g = float(rng.uniform(0, 40))
        p = p.replace(g_a=g, g_b=g, delta_a=p.delta)
        amps = solve_weak_drive(p)
        c1, c2 = c_amplitudes_closed_form(p)
        worst = max(worst, abs(amps.c_100m - c1) / abs(c1), abs(amps.c_200m - c2) / abs(c2))
    report("closed form vs linear system", worst <= 1e-10, f"max rel dev = {worst:.2e}")

    # Truncation convergence at the reference drive strength.
    rep = check_truncation(params, 3)
    report("truncation convergence (3 vs 4)", rep.converged,
           f"rel change = {rep.rel_change:.2e}" if rep.rel_change is not None else rep.error or "")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {5 - failures}/5 checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (BicavityError, ValueError, TypeError, KeyError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
