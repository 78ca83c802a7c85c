"""Command line front end.

Subcommands wrap the library one-to-one: ``integrate`` and ``oracle`` for
the two integral estimators, ``variation`` for the variation calculus,
``decompose`` to split a function into continuous and break parts, and
``converge`` for the bounded-convergence harness.  Functions are read from
JSON spec files (see :mod:`kstieltjes.funcspec_io`), elementary sets from
comma-separated interval literals such as ``[0,0.25],(0.5,0.75)`` where
``[``/``]`` close an endpoint and ``(``/``)`` leave it open.

Reports are line-oriented ``key=value`` text, deterministic for identical
inputs except for the trailing ``elapsed_ms`` line.  Exit codes: 0 on
success, 2 for parse problems (set expressions, spec files, bad flags),
3 for domain or dimension errors, 4 when a convergence hypothesis is
violated, 5 when the oracle fails to stabilise.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
import time
from pathlib import Path

import numpy as np

from .convergence import SequenceFamily, run_bounded_convergence
from .errors import (DimensionMismatchError, DomainError, FunctionSpecError,
                     GaugeTooSmallError, HypothesisViolationError,
                     OracleFailureError, SetExpressionError)
from .funcspec_io import digest, load_function, save_function
from .gauges import oracle_integral
from .integrate import integral_over_elementary, ks_Fdg
from .intervals import ElementarySet, Interval, minimal_decomposition
from .piecewise import jordan_decompose
from .variation import var_elementary

_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def parse_set_expression(text: str) -> ElementarySet:
    """Parse an elementary-set expression.

    Grammar: a comma-separated list of interval literals ``[lo,hi]``,
    ``(lo,hi)``, ``[lo,hi)``, ``(lo,hi]`` or degenerate ``[c]``; the empty
    string denotes the empty set.  Errors carry the failing position.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_number() -> float:
        nonlocal pos
        skip_ws()
        match = _NUMBER.match(text, pos)
        if not match:
            raise SetExpressionError("expected a number", pos)
        pos = match.end()
        return float(match.group())

    intervals = []
    skip_ws()
    if pos == n:
        return ElementarySet.empty()
    while True:
        skip_ws()
        if pos >= n or text[pos] not in "[(":
            found = text[pos] if pos < n else "end of input"
            raise SetExpressionError(f"expected '[' or '(', found {found!r}", pos)
        open_char = text[pos]
        pos += 1
        lo = read_number()
        skip_ws()
        hi = None
        if pos < n and text[pos] == ",":
            pos += 1
            hi = read_number()
            skip_ws()
        if pos >= n or text[pos] not in "])":
            raise SetExpressionError("expected ']' or ')' to close the interval", pos)
        close_char = text[pos]
        pos += 1
        try:
            if hi is None:
                if open_char != "[" or close_char != "]":
                    raise ValueError("a degenerate interval must be written [c]")
                interval = Interval.at(lo)
            else:
                interval = Interval(lo, hi, open_char == "[", close_char == "]")
        except ValueError as exc:
            raise SetExpressionError(str(exc), pos - 1) from exc
        intervals.append(interval)
        skip_ws()
        if pos == n:
            break
        if text[pos] != ",":
            raise SetExpressionError(f"expected ',' between intervals, found {text[pos]!r}", pos)
        pos += 1
    return minimal_decomposition(intervals)


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_value(value) -> str:
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return _fmt_float(value)
    if value.ndim == 1:
        return "[" + ", ".join(_fmt_float(x) for x in value) + "]"
    return "[" + ", ".join(_fmt_value(row) for row in value) + "]"


def _region(args, f) -> ElementarySet:
    if args.set is None:
        return ElementarySet.of(Interval.closed(f.a, f.b))
    return parse_set_expression(args.set)


def cmd_integrate(args) -> list[str]:
    F = load_function(args.spec_F)
    g = load_function(args.spec_g)
    region = _region(args, F)
    if args.orientation == "dFg":
        result = integral_over_elementary(F, g, region)
    else:
        result = ks_Fdg(F.restrict(region), g)
    return [
        "command=integrate",
        f"spec_F={args.spec_F}",
        f"digest_F={digest(args.spec_F)}",
        f"spec_g={args.spec_g}",
        f"digest_g={digest(args.spec_g)}",
        f"orientation={args.orientation}",
        f"set={region}",
        f"value={_fmt_value(result.value)}",
        f"continuous_contribution={_fmt_value(result.continuous_contribution)}",
        f"jump_contribution={_fmt_value(result.jump_contribution)}",
    ]


def cmd_variation(args) -> list[str]:
    f = load_function(args.spec_f)
    region = _region(args, f)
    result = var_elementary(f, region)
    return [
        "command=variation",
        f"spec_f={args.spec_f}",
        f"digest_f={digest(args.spec_f)}",
        f"set={region}",
        f"total={_fmt_float(result.total)}",
        f"continuous_contribution={_fmt_float(result.continuous_contribution)}",
        f"jump_contribution={_fmt_float(result.jump_contribution)}",
    ]


def cmd_decompose(args) -> list[str]:
    f = load_function(args.spec_f)
    f_cont, f_break = jordan_decompose(f)
    source = Path(args.spec_f)
    cont_path = Path(args.out_continuous) if args.out_continuous else \
        source.with_name(source.stem + "_continuous.json")
    break_path = Path(args.out_break) if args.out_break else \
        source.with_name(source.stem + "_break.json")
    save_function(f_cont, cont_path)
    save_function(f_break, break_path)
    return [
        "command=decompose",
        f"spec_f={args.spec_f}",
        f"digest_f={digest(args.spec_f)}",
        f"continuous_file={cont_path}",
        f"break_file={break_path}",
        f"break_jumps={len(f_break.jumps())}",
    ]


def _build_family(args, F) -> SequenceFamily:
    if args.family == "power":
        return SequenceFamily.power()
    if args.family == "spike":
        if args.center is None or args.height is None:
            raise FunctionSpecError("the spike family needs --center and --height")
        return SequenceFamily.spike((F.a, F.b), args.center, args.height)
    # argparse's choices leave "truncation"
    if not args.family_file:
        raise FunctionSpecError("the truncation family needs --family-file "
                                "(a break-function spec)")
    return SequenceFamily.truncation(load_function(args.family_file))


def cmd_converge(args) -> list[str]:
    F = load_function(args.spec_F)
    family = _build_family(args, F)
    if args.bound is not None:
        family = dataclasses.replace(family, bound=args.bound)
    report = run_bounded_convergence(F, family, args.ns, args.threshold)
    lines = [
        "command=converge",
        f"spec_F={args.spec_F}",
        f"digest_F={digest(args.spec_F)}",
        f"family={args.family}",
        f"ns={','.join(str(n) for n in args.ns)}",
        f"threshold={_fmt_float(args.threshold)}",
        f"bound={_fmt_float(family.bound)}",
        f"integral_limit={_fmt_value(report.integral_limit)}",
    ]
    for entry in report.entries:
        lines.append(f"n={entry.n} integral={_fmt_value(entry.integral)} "
                     f"error={_fmt_float(entry.error)}")
    lines.append(f"passed={'true' if report.passed else 'false'}")
    return lines


def cmd_oracle(args) -> list[str]:
    F = load_function(args.spec_F)
    g = load_function(args.spec_g)
    value = oracle_integral(F, g, orientation=args.orientation, tol=args.tol)
    return [
        "command=oracle",
        f"spec_F={args.spec_F}",
        f"digest_F={digest(args.spec_F)}",
        f"spec_g={args.spec_g}",
        f"digest_g={digest(args.spec_g)}",
        f"orientation={args.orientation}",
        f"tol={_fmt_float(args.tol)}",
        f"value={_fmt_value(value)}",
    ]


def _ns_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n in {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("need at least one n")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    as it was, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="kstieltjes",
        description="Stieltjes integration and variation calculus for "
                    "piecewise-polynomial regulated functions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("integrate", help="integral of g against d[F] over a set")
    p.add_argument("spec_F")
    p.add_argument("spec_g")
    p.add_argument("--set", help="elementary-set expression (default: the whole domain)")
    p.add_argument("--orientation", choices=("dFg", "Fdg"), default="dFg")
    common(p)
    p.set_defaults(handler=cmd_integrate)

    p = sub.add_parser("variation", help="variation of f over a set")
    p.add_argument("spec_f")
    p.add_argument("--set", help="elementary-set expression (default: the whole domain)")
    common(p)
    p.set_defaults(handler=cmd_variation)

    p = sub.add_parser("decompose", help="split f into continuous + break parts")
    p.add_argument("spec_f")
    p.add_argument("--out-continuous", dest="out_continuous")
    p.add_argument("--out-break", dest="out_break")
    common(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("converge", help="bounded-convergence experiment")
    p.add_argument("spec_F")
    p.add_argument("--family", choices=("power", "spike", "truncation"), required=True)
    p.add_argument("--center", type=float)
    p.add_argument("--height", type=float)
    p.add_argument("--family-file", dest="family_file")
    p.add_argument("--ns", type=_ns_list, required=True,
                   help="comma-separated list, e.g. 1,2,4,8")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--bound", type=float,
                   help="override the family's declared uniform bound")
    common(p)
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser("oracle", help="gauge-refinement estimate of the integral")
    p.add_argument("spec_F")
    p.add_argument("spec_g")
    p.add_argument("--orientation", choices=("dFg", "Fdg"), default="dFg")
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)
    p.set_defaults(handler=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        lines = args.handler(args)
    except (SetExpressionError, FunctionSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolationError as exc:
        print(f"error: hypothesis violation: {exc}", file=sys.stderr)
        return 4
    except (OracleFailureError, GaugeTooSmallError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (DomainError, DimensionMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    lines.append(f"elapsed_ms={(time.perf_counter() - started) * 1000.0:.3f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
