"""Command-line front end: enumeration, series, avoidance tables, bijections,
verification suites, and OEIS-style b-file output.

Exit codes: 0 on success (all checks pass), 1 on a verification failure or
a failed kernel cancellation, 2 on a usage error, a word walk over the node
budget, an avoider count over the state budget, or an exponent overflow.
All output is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from . import gf, patterns, verify
from .core import PAscentSequence, count_by_length, enumerate_sequences, stats
from .patterns import Pattern
from .series import MultiPoly, TSeries, scalar_coefficients

class _GF(NamedTuple):
    build: Callable[[argparse.Namespace], TSeries]
    first: int  # b-file index of the first emitted term
    needs: tuple[str, ...]  # of --p, --k, --udeg: the flags the series needs
    takes: tuple[str, ...] = ()  # and the ones it also reads


# The sequence-counting series start their b-files at length 1 (their
# constant term is the empty-sequence convention); the Fishburn series P and
# the five-variable G are emitted from their t^0 term; the run-1 series G1
# starts at t^2.
GFS = {
    "A": _GF(lambda a: gf.eval_A(a.p, a.order, a.z), 1, ("p",)),
    "R": _GF(lambda a: gf.eval_R(a.p, a.order), 1, ("p",)),
    "P": _GF(lambda a: gf.eval_P(a.order), 0, ()),
    "G1u": _GF(lambda a: gf.eval_G1_u(a.p, a.order, a.udeg), 2, ("p",), ("udeg",)),
    "G1": _GF(lambda a: gf.eval_G1_full(a.p, a.order), 2, ("p",)),
    "G": _GF(lambda a: gf.eval_G(a.p, a.order), 0, ("p",)),
    "H": _GF(lambda a: gf.eval_H(a.p, a.order, a.udeg), 1, ("p",), ("udeg",)),
    "maxk": _GF(lambda a: gf.eval_maxk(a.p, a.k, a.order), 1, ("p", "k")),
}


class _UsageError(Exception):
    pass


def _parse_seq(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad sequence {text!r}: letters must be comma-separated integers") from exc


def _parse_assignments(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in text.split(","):
        if "=" not in item:
            raise _UsageError(f"bad --set entry {item!r}: expected var=int")
        name, _, value = item.partition("=")
        name = name.strip()
        try:
            number = int(value)
        except ValueError as exc:
            raise _UsageError(f"bad --set value {value!r}: must be an integer") from exc
        if name not in ("u", "v", "z", "x", "all"):
            raise _UsageError(f"unknown variable {name!r} in --set (use u, v, z, x or all)")
        for var in ("u", "v", "z", "x") if name == "all" else (name,):
            if var in out:
                raise _UsageError(f"--set gives {var} more than once")
            out[var] = number
    return out


def _sequence_stream(args):
    pred = None
    if args.updown:
        pred = lambda seq: stats(seq).up_down
    if args.pattern is not None:
        pat = Pattern.parse(args.pattern)
        base = patterns.iter_avoiders(args.p, pat, args.n, primitive_only=args.primitive)
    elif args.primitive:
        base = enumerate_sequences(args.p, args.n, pred=lambda s: stats(s).primitive)
    else:
        base = enumerate_sequences(args.p, args.n)
    for seq in base:
        if pred is None or pred(seq):
            yield seq


def _cmd_enumerate(args, out) -> int:
    if args.format == "json":
        rows = [list(seq.letters) for seq in _sequence_stream(args)]
        import json

        out.write(json.dumps(rows) + "\n")
    else:
        for seq in _sequence_stream(args):
            out.write(",".join(map(str, seq.letters)) + "\n")
    return 0


def _cmd_count(args, out) -> int:
    if args.pattern is not None and not args.updown:
        pat = Pattern.parse(args.pattern)
        total = patterns.count_avoiders(args.p, pat, args.n, primitive_only=args.primitive)
    elif args.updown or args.primitive:
        total = sum(1 for _ in _sequence_stream(args))
    else:
        total = count_by_length(args.p, args.n)[args.n]
    out.write(f"{total}\n")
    return 0


def _reject(args, context: str, flags) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value is not False:
            raise _UsageError(f"{context} takes no --{flag}")


def _build_series(args) -> TSeries:
    entry = GFS[args.gf]
    for flag in entry.needs:
        if getattr(args, flag) is None:
            raise _UsageError(f"--gf {args.gf} requires --{flag}")
    unread = [f for f in ("p", "k", "udeg") if f not in entry.needs + entry.takes]
    _reject(args, f"--gf {args.gf}", unread)
    values = _parse_assignments(args.set) if args.set else {}
    # A is built with its --set z in place (specializing is a ring homomorphism),
    # so that its z-exponents never reach the overflow bound
    args.z = MultiPoly.const(values["z"]) if "z" in values else MultiPoly.variable("z")
    series = entry.build(args)
    return series.specialize(values) if values else series


def _cmd_series(args, out) -> int:
    series = _build_series(args)
    text = series.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        out.write(text)
    return 0


def _brute_column(args, pat: Pattern) -> list[int]:
    return patterns.avoider_counts(args.p, pat, args.n, primitive_only=args.primitive)


def _closed_column(args, pat: Pattern, fallback=None) -> list[int]:
    """The closed-form counts for n = 0..--n.  Without a closed form, this is
    fallback(error) when given, else the NoClosedFormError (a ValueError, so
    exit 2)."""
    try:
        return [patterns.closed_count(args.p, pat, n, primitive_only=args.primitive)
                for n in range(args.n + 1)]
    except patterns.NoClosedFormError as exc:
        if fallback is None:
            raise
        return fallback(exc)


def _avoid_columns(args) -> tuple[list[str], bool]:
    pat = Pattern.parse(args.pattern)
    if args.closed:
        closed = _closed_column(args, pat)
        return [f"{n} {closed[n]}" for n in range(1, args.n + 1)], True
    brute = _brute_column(args, pat)
    if not args.both:
        return [f"{n} {brute[n]}" for n in range(1, args.n + 1)], True

    def fall_back(exc):
        print(f"pascent: {exc}; falling back to brute force", file=sys.stderr)
        return brute

    closed = _closed_column(args, pat, fall_back)
    return [f"{n} {closed[n]} {brute[n]}" for n in range(1, args.n + 1)], closed == brute


def _cmd_avoid(args, out) -> int:
    lines, equal = _avoid_columns(args)
    for line in lines:
        out.write(line + "\n")
    if not equal:
        print("pascent: closed form and brute force disagree", file=sys.stderr)
        return 1
    return 0


def _cmd_bijection(args, out) -> int:
    letters = _parse_seq(args.seq)
    if args.map in ("10-to-012", "012-to-10") and args.p not in (None, 2):
        raise _UsageError(f"--map {args.map} is only available for p = 2")
    if args.map == "10-to-012":
        result = patterns.bijection_10_to_012(PAscentSequence(2, letters))
    elif args.map == "012-to-10":
        result = patterns.bijection_012_to_10(PAscentSequence(2, letters))
    elif args.map == "embed":
        if args.p is None:
            raise _UsageError("--map embed requires --p (the parameter of the input)")
        result = patterns.embed(PAscentSequence(args.p, letters))
    else:  # project
        if args.p is None:
            raise _UsageError("--map project requires --p (the parameter of the output)")
        result = patterns.project(PAscentSequence(1, letters), args.p)
    out.write(",".join(map(str, result.letters)) + "\n")
    return 0


def _cmd_bfile(args, out) -> int:
    if args.gf is not None and args.avoid:
        raise _UsageError("choose one of --gf and --avoid")
    if args.gf is not None:
        _reject(args, "bfile --gf", ("n", "pattern", "primitive", "closed", "oracle"))
        if args.order is None:
            raise _UsageError("bfile --gf requires --order")
        series = _build_series(args)
        try:
            values = scalar_coefficients(series)
        except ValueError as exc:
            raise _UsageError(f"{exc}; specialize all variables with --set") from exc
        for n in range(GFS[args.gf].first, len(values)):
            out.write(f"{n} {values[n]}\n")
        return 0
    if args.avoid:
        _reject(args, "bfile --avoid", ("order", "k", "udeg", "set"))
        if args.p is None or args.pattern is None or args.n is None:
            raise _UsageError("--avoid requires --p, --pattern and --n")
        pat = Pattern.parse(args.pattern)
        fallback = None if args.closed else lambda exc: _brute_column(args, pat)
        values = _brute_column(args, pat) if args.oracle else _closed_column(args, pat, fallback)
        for n in range(1, args.n + 1):
            out.write(f"{n} {values[n]}\n")
        return 0
    raise _UsageError("bfile needs either --gf or --avoid")


def _suite_reports(args) -> list[verify.CheckReport]:
    if args.suite == "all":
        if (args.p, args.order, args.k) != (None, None, None):
            raise _UsageError("--suite all takes no --p, --order or --k; --budget sizes it")
        return verify.run_all(6 if args.budget is None else args.budget)
    suite = verify.SUITES.get(args.suite)
    if suite is None:
        raise _UsageError(f"unknown suite {args.suite!r}")
    if args.budget is not None:
        raise _UsageError(f"suite {args.suite!r} takes no --budget; --order sizes it")
    if args.k is not None:
        if "k" not in suite.extra:
            raise _UsageError(f"suite {args.suite!r} takes no --k")
        if args.k < 1:
            raise _UsageError("--k must be at least 1")
    # verify.run_suite refuses a p that the suite does not take
    p = args.p if args.p is not None else (suite.ps[0] if len(suite.ps) == 1 else 2)
    order = suite.default_order if args.order is None else args.order
    return [verify.run_suite(args.suite, p, order, 2 if args.k is None else args.k)]


def _cmd_verify(args, out) -> int:
    reports = _suite_reports(args)
    for report in reports:
        out.write(report.to_json() + "\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pascent",
        description="Enumerate p-ascent sequences, evaluate their generating "
        "functions exactly, count pattern avoiders, and verify the identities "
        "connecting them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pn(sp, n_help):
        sp.add_argument("--p", type=int, required=True, help="ascent allowance, p >= 1")
        sp.add_argument("--n", type=int, required=True, help=n_help)

    sp = sub.add_parser("enumerate", help="list p-ascent sequences of a given length")
    add_pn(sp, "sequence length, n >= 0")
    sp.add_argument("--pattern", help="keep only sequences avoiding this pattern")
    sp.add_argument("--primitive", action="store_true", help="no equal adjacent letters")
    sp.add_argument("--updown", action="store_true", help="strictly alternating rise/fall")
    sp.add_argument("--format", choices=("lines", "json"), default="lines")

    sp = sub.add_parser("count", help="count instead of listing")
    add_pn(sp, "sequence length, n >= 0")
    sp.add_argument("--pattern")
    sp.add_argument("--primitive", action="store_true")
    sp.add_argument("--updown", action="store_true")

    sp = sub.add_parser("series", help="emit a generating function as JSON")
    sp.add_argument("--gf", choices=GFS, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--order", type=int, required=True, help="truncation order N")
    sp.add_argument("--k", type=int, help="repetition bound (maxk only)")
    sp.add_argument("--udeg", type=int, help="ascent-degree cutoff (G1u and H; default N)")
    sp.add_argument("--set", help="specializations, e.g. u=1,v=1 or all=1")
    sp.add_argument("--out", help="write JSON to this file instead of stdout")

    sp = sub.add_parser("avoid", help="table of pattern-avoider counts")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", type=int, required=True, help="largest length")
    sp.add_argument("--primitive", action="store_true")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--closed", action="store_true", help="closed form only")
    mode.add_argument("--oracle", action="store_true", help="brute force only (default)")
    mode.add_argument("--both", action="store_true", help="both columns, assert equality")

    sp = sub.add_parser("bijection", help="apply one of the structural maps")
    sp.add_argument(
        "--map", choices=("10-to-012", "012-to-10", "embed", "project"), required=True
    )
    sp.add_argument("--p", type=int, help="parameter for embed (input) or project (output)")
    sp.add_argument("--seq", required=True, help="comma-separated letters, empty for the empty word")

    sp = sub.add_parser("verify", help="run verification suites, print JSON reports")
    sp.add_argument("--suite", required=True, help="all, an identity name, oracle_<gf>, or a pattern suite")
    sp.add_argument("--p", type=int)
    sp.add_argument("--order", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--budget", type=int, help="max enumeration length for --suite all (default 6)")

    sp = sub.add_parser("bfile", help="OEIS b-file lines 'n a(n)'")
    sp.add_argument("--gf", choices=GFS)
    sp.add_argument("--avoid", action="store_true")
    sp.add_argument("--p", type=int)
    sp.add_argument("--order", type=int, help="truncation order (with --gf)")
    sp.add_argument("--n", type=int, help="largest length (with --avoid)")
    sp.add_argument("--pattern")
    sp.add_argument("--primitive", action="store_true")
    sp.add_argument("--k", type=int)
    sp.add_argument("--udeg", type=int)
    sp.add_argument("--set", help="specializations, required until all variables are scalars")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--closed", action="store_true")
    mode.add_argument("--oracle", action="store_true")

    return parser


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "series": _cmd_series,
    "avoid": _cmd_avoid,
    "bijection": _cmd_bijection,
    "verify": _cmd_verify,
    "bfile": _cmd_bfile,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "p", None) is not None and args.p < 1:
        parser.error("--p must be at least 1")
    if getattr(args, "n", None) is not None and args.n < 0:
        parser.error("--n must be nonnegative")
    if getattr(args, "order", None) is not None and args.order < 0:
        parser.error("--order must be nonnegative")
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except (_UsageError, ValueError, verify.BudgetExceededError) as exc:
        print(f"pascent: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a failed kernel cancellation or exact division: the series is wrong
        print(f"pascent: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())
