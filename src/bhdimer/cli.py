"""Command-line front end: flags override a preset's defaults, ScenarioSpec
supplies the rest, and a ratio or initial-state list makes a sweep. Exit
status 0: success; 1: a solver failure or a failed sweep cell; 2: refused
input, another of pipeline.RUN_FAILURES or an I/O error. Faults propagate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import DEFAULT_THETA_C, DEFAULT_THETA_R, DEFAULT_WINDOW
from .files import FORMATS
from .model import CouplingConfig
from .pipeline import DEFAULT_STEPS, RUN_FAILURES, ScenarioSpec, check_sweep, run_scenario, sweep
from .presets import DEFAULT_N, PRESETS, default_initial, parse_ratio, realize_ratio
from .spectral import ConvergenceError

__all__ = ["build_parser", "main"]

# ScenarioSpec fields that a preset or a flag of the same name may set: all
# but those main sets itself.
_SPEC_FIELDS = [f.name for f in fields(ScenarioSpec) if f.name not in ("config", "initial", "out")]


def _tokens(sep: str):
    return lambda text: [tok.strip() for tok in text.split(sep) if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bhdimer",
        description=(
            "Exact-diagonalization dynamics of two Josephson-coupled "
            "Bose-Einstein condensates (two-mode Bose-Hubbard dimer)."
        ),
    )
    p.add_argument("--preset", choices=sorted(PRESETS), help="named experiment")
    p.add_argument(
        "--list-presets", action="store_true", help="list presets and exit"
    )
    p.add_argument("--n", type=int, default=DEFAULT_N, help="total boson number N")
    p.add_argument("--k", type=float, help="scattering strength")
    p.add_argument("--ej", dest="e_j", metavar="EJ", type=float, help="tunneling strength")
    p.add_argument("--dmu", type=float, help="external potential bias (default 0)")
    p.add_argument(
        "--ratio", help="coupling ratio k/ej, realized as k=1,ej=1/r (r<=1) or k=r,ej=1"
    )
    p.add_argument(
        "--ratios", type=_tokens(","), help="comma-separated ratio list; triggers a sweep"
    )
    p.add_argument(
        "--initial", help='initial state: "fock:m,n", "cat" or "me" (default fock:N,0)'
    )
    p.add_argument(
        "--initials",
        type=_tokens(";"),
        help="semicolon-separated initial-state list; triggers a sweep",
    )
    p.add_argument("--t-max", type=float, help="end of the time grid")
    p.add_argument("--steps", type=int, help=f"grid points (default {DEFAULT_STEPS})")
    p.add_argument(
        "--window", type=int, help=f"envelope window, odd (default {DEFAULT_WINDOW})"
    )
    p.add_argument(
        "--theta-c", type=float, help=f"collapse threshold (default {DEFAULT_THETA_C})"
    )
    p.add_argument(
        "--theta-r", type=float, help=f"revival threshold (default {DEFAULT_THETA_R})"
    )
    p.add_argument("--out", type=Path, help="output file (sweeps: output directory)")
    p.add_argument(
        "--format", dest="fmt", choices=FORMATS, help="series format (default csv)"
    )
    p.add_argument("--jobs", type=int, default=1, help="concurrent sweep cells")
    return p


def _print_presets() -> None:
    width = max(map(len, PRESETS))
    for name in sorted(PRESETS):
        print(f"{name:<{width}}  {PRESETS[name].description}")


def _print_sweep_table(summary: dict) -> None:
    for cell in summary["cells"]:
        head = f"ratio={cell['ratio']}  initial={cell['initial']}"
        if cell["status"] != "ok":
            print(f"{head}  ERROR: {cell['error']}")
            continue
        s = cell["summary"]
        cr = s["collapse_revival"]
        t_cr = "-" if cr["t_cr"] is None else f"{cr['t_cr']:.4f}"
        print(
            f"{head}  regime={s['regime']['regime']}"
            f"  phase={s['regime']['phase']}"
            f"  mean_imbalance_scaled={s['time_averages']['imbalance_scaled']:+.4f}"
            f"  t_cr={t_cr}"
        )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        _print_presets()
        return 0

    try:
        n = args.n
        run = PRESETS[args.preset].build(n) if args.preset else {}
        if args.ratio is not None and (args.k is not None or args.e_j is not None):
            parser.error("--ratio conflicts with --k/--ej")
        # One coupling or one initial state on the command line replaces the
        # preset's list of them.
        if args.ratio is not None or args.k is not None:
            run.pop("ratios", None)
        if args.initial is not None:
            run.pop("initials", None)
        run.update((key, value) for key, value in vars(args).items() if value is not None)
        initial = run.get("initial", default_initial(n))

        sweep_mode = "ratios" in run or "initials" in run
        if sweep_mode:
            if args.k is not None or args.e_j is not None:
                parser.error("a sweep takes its couplings from --ratio/--ratios, not --k/--ej")
            if "ratios" not in run and args.ratio is None:
                parser.error("a sweep needs --ratios (or a sweep preset)")
            # Every cell sets its own couplings, initial state and file.
            k, e_j, spec_initial, out = 0.0, 1.0, default_initial(n), None
        else:
            if args.jobs < 1:  # refused as sweep() refuses it, though a single run ignores it
                raise ValueError(f"jobs must be >= 1, got {args.jobs}")
            if (args.k is None) != (args.e_j is None):
                parser.error("--k and --ej must be given together")
            if args.ratio is not None:
                run["k"], run["e_j"] = realize_ratio(parse_ratio(args.ratio, n))
            if "k" not in run:
                parser.error("specify couplings via --ratio, --k/--ej or a preset")
            k, e_j, spec_initial, out = run["k"], run["e_j"], initial, args.out

        spec = ScenarioSpec(
            CouplingConfig(n, k=k, delta_mu=run.get("dmu", 0.0), e_j=e_j),
            spec_initial,
            out=out,
            **{key: run[key] for key in _SPEC_FIELDS if key in run},
        )
        if sweep_mode:
            ratios, initials = run.get("ratios", [args.ratio]), run.get("initials", [initial])
            check_sweep(spec, ratios, initials, out_dir=args.out, jobs=args.jobs)
    except ValueError as exc:  # refused input
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if not sweep_mode:
            _, summary = run_scenario(spec)
            print(json.dumps(summary, indent=2))
            return 0
        summary = sweep(spec, ratios, initials, out_dir=args.out, jobs=args.jobs)
        _print_sweep_table(summary)
        return 1 if any(cell["status"] != "ok" for cell in summary["cells"]) else 0
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (*RUN_FAILURES, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
