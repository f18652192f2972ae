"""Command line front end.

Subcommands: sieve, correlate, spectrum, affinity, admissible, mirsky,
experiment, cache-verify.  Exit codes follow the batch runner convention:
0 success, 1 tolerance failure, 2 unusable configuration, arguments or
paths, 3 corrupt sieve cache.

The commands that read sign windows (correlate, spectrum, mirsky and
experiment) first load every cache file in MFL_CACHE_DIR, when set (see
load_caches), and read their windows through experiments.sign_window, so
a window longer than experiments.WINDOW_LIMIT, or a cache file in
MFL_CACHE_DIR longer than it, exits 2 before anything is sieved or
decoded; only a batch config's allow_large raises that limit.  A batch
config's own cache_dir takes the place of MFL_CACHE_DIR.  sieve writes
[lo, hi) directly.  Errors map to exit codes through config.exit_code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cache as cache_io
from .config import EXIT_CACHE, exit_code, load_config, run
from .experiments import EXPERIMENTS, load_caches, run_experiment, sign_window
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


def _param(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="sieve a label range into a cache file")
    p.add_argument("--label", choices=LABELS, required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("correlate", help="lag correlation table of a label window")
    p.add_argument("--label", choices=LABELS, required=True)
    p.add_argument("--n", type=int, required=True, help="window length N")
    p.add_argument("--kmax", type=int, required=True, help="largest lag K")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("spectrum", help="periodogram of a label window as measure JSON")
    p.add_argument("--label", choices=LABELS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("affinity", help="affinity and Hellinger distance of two measures")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(handler=_cmd_affinity)

    p = sub.add_parser("admissible", help="admissibility of a shift set")
    p.add_argument("--set", dest="shifts", type=_shift_list, required=True)
    p.set_defaults(handler=_cmd_admissible)

    p = sub.add_parser("mirsky", help="cylinder density, product formula vs empirical")
    p.add_argument("--ones", type=_shift_list, required=True)
    p.add_argument("--zeros", type=_shift_list, default=[])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_mirsky)

    p = sub.add_parser("experiment", help="run a batch config or a single experiment")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--config", help="batch config JSON")
    mode.add_argument("--id", choices=EXPERIMENTS)
    p.add_argument("--n-grid", type=_shift_list, default=None)
    p.add_argument("--param", type=_param, action="append", default=[],
                   metavar="KEY=JSON", help="experiment parameter, repeatable")
    p.add_argument("--out", default=None, help="report path for a single run")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("cache-verify", help="validate a sieve cache file")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_cache_verify)

    return parser


def _load_env_caches() -> None:
    cache_dir = os.environ.get("MFL_CACHE_DIR")
    if cache_dir is not None:
        load_caches(cache_dir)


def _window(label: str, hi: int) -> BoundedSeq:
    """Values of label for n = 1..hi from the window store, once MFL_CACHE_DIR is loaded."""
    _load_env_caches()
    return BoundedSeq.from_samples(sign_window(label, hi), label=label, sup_bound=1.0)


def _cmd_sieve(args: argparse.Namespace) -> int:
    seq = sieve(args.label, args.lo, args.hi)
    cache_io.write_cache(args.out, seq)
    print(f"wrote {args.out}: {args.label} on [{args.lo}, {args.hi})")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    table = correlation_table(_window(args.label, args.n + args.kmax), args.n, args.kmax)
    table.write_csv(args.out)
    print(f"wrote {args.out}: F_N(k) for k = 0..{args.kmax} at N = {args.n}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    gram = periodogram(_window(args.label, args.n), args.n, bins=args.bins)
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
    _load_env_caches()
    result = mirsky_cylinder_density(args.ones, args.zeros, args.n)
    print(f"product_estimate {result.product_estimate!r}")
    print(f"empirical {result.empirical!r}")
    print(f"tail_lower_bound {result.tail_lower_bound!r}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.config is not None:
        ignored = [flag for flag, value in (("--n-grid", args.n_grid), ("--out", args.out))
                   if value is not None] + ["--param"] * bool(args.param)
        if ignored:
            raise ValueError(f"{', '.join(ignored)} apply only to --id; a --config batch "
                             f"takes its grids, params and output_dir from the config file")
        cfg = load_config(args.config)
        if cfg.cache_dir is None:
            _load_env_caches()
        return run(cfg)

    _load_env_caches()
    report = run_experiment(args.id, dict(args.param), args.n_grid)
    if args.out:
        report.write(args.out)
    print(json.dumps(report.to_dict(), sort_keys=True, indent=1))
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    if cache_io.cache_verify(args.path):
        print("valid")
        return 0
    print("corrupt")
    return EXIT_CACHE


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches the config code
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
