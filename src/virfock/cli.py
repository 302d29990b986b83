"""Command-line front end: run verification suites, dump orbit curves,
print Verma Gram matrices.

Exit codes follow the usual convention: 0 when every check passes, 1
when a suite ran but some check failed, 2 for usage errors (unknown
suite, malformed flags, an ``--out`` path that cannot be written).
`SuiteConfig` rejects a bad suite name, seed or param, which `verify`
reports as ``bad config``; `_write` is the one writer of ``--out`` and
stdout for `verify` and `orbit`.  All
randomness is drawn from numpy's seeded default generator (PCG64), so a
fixed config reproduces a fixed report; ``--no-timestamp`` drops the
only unstable field for byte-for-byte comparisons.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from .reports import csv_table, emit
from .suites import (
    DEFAULT_SEED,
    SUITES,
    SuiteConfig,
    read_config,
    run_suite,
    suite_names,
)
from .virasoro import (
    VirasoroElement,
    convexity_check,
    partitions_of,
    projection_curve,
    verma_gram,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="virfock",
        description="seeded verification suites for circle cocycles, "
                    "Fock-space quadratics and symplectic cones")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named suite (or all)")
    p_verify.add_argument("suite", nargs="?", default=None,
                          help="suite name, or 'all'; may come from --config")
    p_verify.add_argument("--config", default=None,
                          help="JSON config with a 'suite' key and flat "
                               "integer overrides of the params that suite "
                               "declares")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None, help="also write the report here")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--no-timestamp", action="store_true",
                          help="omit the timestamp field (for diffing runs)")

    sub.add_parser("list", help="list available suites")

    p_orbit = sub.add_parser(
        "orbit", help="dump adjoint-orbit curves as CSV for plotting")
    p_orbit.add_argument("--curve", choices=("projection", "convexity"),
                         default="projection")
    p_orbit.add_argument("--beta", type=float, default=0.0)
    p_orbit.add_argument("--alpha", type=float, default=1.0)
    p_orbit.add_argument("--n", type=int, default=2,
                         help="mode of the flow direction d_n - d_{-n}")
    p_orbit.add_argument("--steps", type=int, default=8)
    p_orbit.add_argument("--smax", type=float, default=0.2,
                         help="largest flow time; the flow refit to "
                              "max(--degree, 32) must stay a diffeomorphism "
                              "(phi' > 0): about 0.7 for n=2 and 0.4 for "
                              "n=3 at degree 48, less for higher modes")
    p_orbit.add_argument("--trials", type=int, default=50,
                         help="samples for the convexity curve")
    p_orbit.add_argument("--degree", type=int, default=48)
    p_orbit.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_orbit.add_argument("--out", default=None)

    p_gram = sub.add_parser("gram", help="print a Verma Gram matrix")
    p_gram.add_argument("--level", type=int, default=2)
    p_gram.add_argument("--c", default="1/2",
                        help="central charge, as a fraction or decimal")
    p_gram.add_argument("--h", default="1/16",
                        help="highest weight, as a fraction or decimal")
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _write(path: str | None, text: str) -> int:
    """Write text to path, when given, then to stdout.  On an OSError print
    ``cannot write <path>: <reason>`` and return 2, with nothing on stdout."""
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.suite is None and args.config is None:
        print("verify needs a suite name or --config", file=sys.stderr)
        return 2
    try:
        suite, seed, params = (read_config(args.config) if args.config is not None
                               else (args.suite, DEFAULT_SEED, {}))
        suite = suite if args.suite is None else args.suite
        seed = seed if args.seed is None else args.seed
        configs = [SuiteConfig(name, seed, params) for name in
                   (suite_names() if suite == "all" else [suite])]
    except (OSError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2

    # open --out before any suite runs, so a bad path fails at once
    if _write(args.out, ""):
        return 2
    reports = []
    for cfg in configs:
        reports.append(run_suite(cfg))
        print("\n".join(reports[-1].summary_lines()), file=sys.stderr)
    text = emit(reports, args.format, include_timestamp=not args.no_timestamp)
    return _write(args.out, text) or (
        0 if all(rep.all_passed for rep in reports) else 1)


def _cmd_list(_args) -> int:
    for name in suite_names():
        print(f"{name}: {SUITES[name][1]}")
    return 0


def _orbit_rows(args) -> tuple[list[str], list[list]]:
    _, low, high = SUITES["virasoro-orbits"][2]["degree"]
    if not low <= args.degree <= high:
        raise ValueError(f"--degree must be in [{low}, {high}]")
    if args.n == 0:
        raise ValueError("--n must be nonzero (d_0 - d_0 is the zero field)")
    if not (1 <= args.steps <= 1000 and 1 <= args.trials <= 1000):
        raise ValueError("--steps and --trials must be in [1, 1000]")
    if not all(map(math.isfinite, (args.beta, args.alpha))):
        raise ValueError("--beta and --alpha must be finite")
    if not abs(args.smax) <= 10.0:
        raise ValueError("--smax must be in [-10, 10]")
    x = VirasoroElement.cartan(args.beta, args.alpha, args.degree)
    if args.curve == "projection":
        s_values = [args.smax * (k + 1) / args.steps for k in range(args.steps)]
        pts = projection_curve(x, args.n, s_values)
        rows = [[s, p.beta, p.alpha] for s, p in zip(s_values, pts)]
        return ["s", "beta", "alpha"], rows
    margins = convexity_check(x, args.trials, np.random.default_rng(args.seed))
    rows = [[trial, float(b), float(a)] for trial, (b, a) in enumerate(margins.T)]
    return ["trial", "beta_margin", "alpha_margin"], rows


def _cmd_orbit(args) -> int:
    try:
        with np.errstate(all="ignore"):  # a huge --alpha overflows
            header, rows = _orbit_rows(args)
        if not np.isfinite(np.array(rows, dtype=float)).all():
            raise ValueError("the curve is not finite; lower |--alpha|")
    except ValueError as exc:
        print(f"orbit parameters out of range: {exc}", file=sys.stderr)
        return 2
    return _write(args.out, csv_table(header, rows))


def _cmd_gram(args) -> int:
    try:
        c = Fraction(args.c)
        h = Fraction(args.h)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"bad rational parameter: {exc}", file=sys.stderr)
        return 2
    try:
        G = verma_gram(args.level, c, h)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"level {args.level}, c = {c}, h = {h}")
    labels = ["d" + "".join(f"(-{p})" for p in part) + "v" if part else "v"
              for part in partitions_of(args.level)]
    width = max(len(s) for s in labels)
    for lab, row in zip(labels, G):
        entries = "  ".join(str(v) for v in row)
        print(f"{lab.ljust(width)}  |  {entries}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "list": _cmd_list,
        "orbit": _cmd_orbit,
        "gram": _cmd_gram,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
