"""Command line front end.

Subcommands: sieve, correlate, spectrum, affinity, admissible, mirsky,
experiment, cache-verify.  Exit codes follow the batch runner convention:
0 success, 1 tolerance failure, 2 unusable configuration or arguments,
3 corrupt sieve cache.

experiment first loads every cache file in MFL_CACHE_DIR, when set (see
load_caches).  Angles take radians via --theta, or turns via --theta-over-2pi.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cache as cache_io
from .config import EXIT_CACHE, EXIT_CONFIG, load_config, run
from .errors import CacheChecksumError, CacheFormatError, ConfigError
from .experiments import EXPERIMENTS, load_caches, run_experiment
from .measures import affinity, hellinger, read_json, write_json
from .sequences import BoundedSeq, correlation_table
from .sieve import LABELS, sieve
from .spectral import periodogram
from .symbolic import is_admissible, mirsky_cylinder_density


def _shift_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_theta_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None, help="angle in radians")
    group.add_argument("--theta-over-2pi", type=float, default=None,
                       help="angle as a multiple of 2*pi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="sieve a label range into a cache file")
    p.add_argument("--label", choices=LABELS, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("correlate", help="lag correlation table of a label window")
    p.add_argument("--label", choices=LABELS, required=True)
    p.add_argument("--n", type=int, required=True, help="window length N")
    p.add_argument("--kmax", type=int, required=True, help="largest lag K")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("spectrum", help="periodogram of a label window as measure JSON")
    p.add_argument("--label", choices=LABELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("affinity", help="affinity and Hellinger distance of two measures")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = sub.add_parser("admissible", help="admissibility of a shift set")
    p.add_argument("--set", dest="shifts", type=_shift_list, required=True)

    p = sub.add_parser("mirsky", help="cylinder density, product formula vs empirical")
    p.add_argument("--ones", type=_shift_list, required=True)
    p.add_argument("--zeros", type=_shift_list, default=[])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("experiment", help="run a batch config or a single experiment")
    p.add_argument("--config", default=None, help="batch config JSON")
    p.add_argument("--id", choices=EXPERIMENTS, default=None)
    p.add_argument("--n-grid", type=_shift_list, default=None)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=JSON", help="experiment parameter, repeatable")
    _add_theta_options(p)
    p.add_argument("--out", default=None, help="report path for a single run")

    p = sub.add_parser("cache-verify", help="validate a sieve cache file")
    p.add_argument("path")

    return parser


def _cmd_sieve(args: argparse.Namespace) -> int:
    seq = sieve(args.label, args.lo, args.hi)
    cache_io.write_cache(args.out, seq)
    print(f"wrote {args.out}: {args.label} on [{args.lo}, {args.hi})")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    window = sieve(args.label, 1, args.n + args.kmax + 1)
    g = BoundedSeq.from_samples(window.values, label=args.label, sup_bound=1.0)
    table = correlation_table(g, args.n, args.kmax)
    table.write_csv(args.out)
    print(f"wrote {args.out}: F_N(k) for k = 0..{args.kmax} at N = {args.n}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    window = sieve(args.label, 1, args.n + 1)
    g = BoundedSeq.from_samples(window.values, label=args.label, sup_bound=1.0)
    gram = periodogram(g, args.n, bins=args.bins)
    write_json(gram.measure, args.out)
    print(f"wrote {args.out}: size-{args.n} periodogram on {gram.measure.bins} bins")
    return 0


def _cmd_affinity(args: argparse.Namespace) -> int:
    lhs = read_json(args.lhs)
    rhs = read_json(args.rhs)
    g = affinity(lhs, rhs)
    print(f"affinity {g!r}")
    print(f"hellinger {hellinger(lhs, rhs)!r}")
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    verdict = is_admissible(args.shifts)
    print("admissible" if verdict else "inadmissible")
    return 0


def _cmd_mirsky(args: argparse.Namespace) -> int:
    result = mirsky_cylinder_density(args.ones, args.zeros, args.n)
    print(f"product_estimate {result.product_estimate!r}")
    print(f"empirical {result.empirical!r}")
    print(f"tail_lower_bound {result.tail_lower_bound!r}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if (args.config is None) == (args.id is None):
        print("experiment needs exactly one of --config or --id")
        return EXIT_CONFIG
    if args.config is not None:
        cfg = load_config(args.config)
        if cfg.cache_dir is None:
            cfg.cache_dir = os.environ.get("MFL_CACHE_DIR")
        return run(cfg)

    params: dict = {}
    for item in args.param:
        key, sep, raw = item.partition("=")
        if not sep:
            print(f"--param needs KEY=VALUE, got {item!r}")
            return EXIT_CONFIG
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    # passed through as given; run_experiment converts turns to radians
    if args.theta is not None:
        params["theta"] = args.theta
    if args.theta_over_2pi is not None:
        params["theta_over_2pi"] = args.theta_over_2pi
    cache_dir = os.environ.get("MFL_CACHE_DIR")
    if cache_dir is not None:
        load_caches(cache_dir)
    report = run_experiment(args.id, params, args.n_grid)
    if args.out:
        report.write(args.out)
    blob = report.to_dict()
    print(json.dumps(blob, sort_keys=True, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches the config code
        return int(exc.code or 0)
    handlers = {
        "sieve": _cmd_sieve,
        "correlate": _cmd_correlate,
        "spectrum": _cmd_spectrum,
        "affinity": _cmd_affinity,
        "admissible": _cmd_admissible,
        "mirsky": _cmd_mirsky,
        "experiment": _cmd_experiment,
    }
    try:
        if args.command == "cache-verify":
            if cache_io.cache_verify(args.path):
                print("valid")
                return 0
            print("corrupt")
            return EXIT_CACHE
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    except (CacheFormatError, CacheChecksumError) as exc:
        print(f"cache error: {exc}")
        return EXIT_CACHE
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
