"""Command-line front end.

Subcommands::

    risdm sweep --config c.json --axis power_dbm --values 7,12,17,22,27
                --methods max-sv,leakage --ris gpg,none --pa fixed
                --trials 1 --seed 1 --out sweep.csv
    risdm pa-surface --config c.json --step 0.01 --out surface.csv
    risdm scenario dump --config c.json

Omitting --config uses the built-in default scenario.  In a sweep, es1d
and es2d search their fixed grids (steps 0.001 and 0.01), and no split
optimizer reads --seed.  pa-surface scores the same split grid, at
es2d's step unless --step says otherwise.  Exit code 0 on success, 2 on
an unknown or malformed argument, 1 with a diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .geometry import ScenarioConfig, default_config, geometry_summary
from .power_allocation import DEFAULT_STEP_2D
from .ris import MODES as RIS_MODES
from .sim import AXES, METHODS, PA_MODES, SweepSpec, pa_surface, run_sweep, write_csv


def _csv_list(text):
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _float_list(text):
    return tuple(float(item) for item in _csv_list(text))


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="risdm",
        description="Double-RIS two-way directional-modulation network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and write CSV records")
    sweep.add_argument("--config", default=None, help="scenario JSON (default: built-in)")
    sweep.add_argument("--axis", required=True, choices=AXES)
    sweep.add_argument("--values", required=True, type=_float_list,
                       help="comma-separated, strictly increasing axis values; "
                            "a list that starts negative takes the = form, --values=-10,0")
    sweep.add_argument("--methods", type=_csv_list, default=("max-sv",),
                       help=f"comma-separated subset of {METHODS}")
    sweep.add_argument("--ris", type=_csv_list, default=("gpg",),
                       help=f"comma-separated subset of {RIS_MODES}")
    sweep.add_argument("--pa", type=_csv_list, default=("fixed",),
                       help=f"comma-separated subset of {PA_MODES}")
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", required=True, help="output CSV path")

    surface = sub.add_parser("pa-surface", help="SSR over the (beta1, beta2) grid")
    surface.add_argument("--config", default=None)
    surface.add_argument("--step", type=float, default=DEFAULT_STEP_2D)
    surface.add_argument("--method", default="max-sv", choices=METHODS)
    surface.add_argument("--ris", default="gpg", choices=RIS_MODES)
    surface.add_argument("--out", required=True)

    scenario = sub.add_parser("scenario", help="scenario inspection")
    scen_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    dump = scen_sub.add_parser("dump", help="print the fully resolved geometry as JSON")
    dump.add_argument("--config", default=None)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = default_config() if args.config is None else ScenarioConfig.from_file(args.config)
        if args.command == "scenario":
            print(json.dumps(geometry_summary(config), indent=2, sort_keys=True))
            return 0
        if args.command == "sweep":
            spec = SweepSpec(
                axis=args.axis, values=args.values, methods=args.methods,
                ris_modes=args.ris, pa_modes=args.pa,
                trials=args.trials, seed=args.seed,
            )
            records = run_sweep(config, spec)
        else:
            records = pa_surface(config, step=args.step, method=args.method, ris_mode=args.ris)
        write_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    except Exception as err:  # surfaced as a diagnostic, not a traceback
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0
