"""Command-line front end: generate, count, verify, render.

Exit codes: 0 success, 1 check failure, 2 invalid input, 141 (128 + SIGPIPE) stdout closed early.
Every refusal of input is a ValueError, which main reports on stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engines, render, verify
from .errors import CountMismatchError
from .grids import EmbeddedGraph, dual_graph
from .regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    PINWHEEL,
    Region,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
)

# Each family's builder and the options it reads, in argument order, grouped as the
# message for a missing one names them.  A family refuses every option it does not read.
_FAMILIES = {
    "ad": (build_aztec_diamond, (("n",),)),
    "r": (lambda n: build_quartered(n, PINWHEEL), (("n",),)),
    "ka": (lambda n: build_quartered(n, KLEIN_ABUT), (("n",),)),
    "kna": (lambda n: build_quartered(n, KLEIN_NONABUT), (("n",),)),
    "ar": (build_aztec_rectangle, (("m", "n"),)),
    "ar_holey": (build_holey_ar, (("m", "n"), ("keep",))),
    "ar_bar": (build_holey_ar_bar, (("m", "n"), ("remove",))),
}
_FAMILY_OPTIONS = ("n", "m", "keep", "remove")


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_family(args) -> Region | EmbeddedGraph:
    build, groups = _FAMILIES[args.family]
    reads = [option for group in groups for option in group]
    _refuse(args, [o for o in _FAMILY_OPTIONS if o not in reads], args.family)
    for group in groups:
        _need(all(getattr(args, o) is not None for o in group),
              f"{' and '.join(f'--{o}' for o in group)} "
              f"{'is' if len(group) == 1 else 'are'} required for {args.family}")
    return build(*(getattr(args, o) for o in reads))


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _refuse(args, options, reader: str) -> None:
    given = [f"--{o}" for o in options if getattr(args, o) is not None]
    _need(not given, f"{reader} does not read {', '.join(given)}")


def _load_input(path: str) -> Region | EmbeddedGraph:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        if type(data) is dict and "cells" in data:
            return Region.from_json_dict(data)
        return EmbeddedGraph.from_json_dict(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read region/graph JSON from {path}: {exc}") from exc


def _obtain(args) -> Region | EmbeddedGraph:
    if args.input is not None:
        _refuse(args, ("family", *_FAMILY_OPTIONS), "--input")
        return _load_input(args.input)
    _need(args.family is not None, "either --input or --family is required")
    return _build_family(args)


def cmd_gen(args) -> int:
    print(json.dumps(_build_family(args).to_json_dict(), sort_keys=True, separators=(",", ":")))
    return 0


def cmd_count(args) -> int:
    obj = _obtain(args)
    g = dual_graph(obj) if isinstance(obj, Region) else obj
    print(engines.count(g, engine=args.engine, crosscheck=args.crosscheck))
    return 0


def cmd_verify(args) -> int:
    if args.suite == "all":
        _need(args.max_n is None, "suite 'all' takes no max_n bound")
        reports = verify.run_all(max_order=args.max_order)
    else:
        reports = [verify.run_suite(args.suite, max_order=args.max_order, max_n=args.max_n)]
    if args.format == "json":
        print(verify.reports_to_json(reports))
    elif args.format == "csv":
        print(verify.reports_to_csv(reports))
    else:
        for r in reports:
            print(r.pretty())
    return 0 if all(r.ok for r in reports) else 1


def cmd_render(args) -> int:
    obj = _obtain(args)
    if args.format == "ascii":
        out = render.ascii_cells(obj.cells if isinstance(obj, Region) else obj.vertices)
    else:
        out = render.svg_region(obj) if isinstance(obj, Region) else render.svg_graph(obj)
    print(out)
    return 0


def _add_family_options(sub: argparse.ArgumentParser, with_input: bool) -> None:
    if with_input:
        sub.add_argument("--input", help="region/graph JSON file, or - for stdin")
        sub.add_argument("--family", choices=tuple(_FAMILIES))
    sub.add_argument("--n", type=int, help="order (regions) or width (rectangles)")
    sub.add_argument("--m", type=int, help="rectangle height parameter")
    sub.add_argument("--keep", type=_parse_positions, help="kept bottom-row positions")
    sub.add_argument("--remove", type=_parse_positions, help="removed next-row positions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aztec-tilings",
        description="Exact domino-tiling counts for diamond-family lattice regions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("gen", help="emit a region or graph as JSON")
    p_gen.add_argument("family", choices=tuple(_FAMILIES))
    _add_family_options(p_gen, with_input=False)
    p_gen.set_defaults(func=cmd_gen)

    p_count = subs.add_parser("count", help="count perfect matchings / tilings")
    _add_family_options(p_count, with_input=True)
    p_count.add_argument("--engine", choices=engines.ENGINE_CHOICES, default="auto")
    p_count.add_argument("--crosscheck", action="store_true",
                         help="recount with a second engine and compare")
    p_count.set_defaults(func=cmd_count)

    p_verify = subs.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify.SUITE_NAMES + ("all",))
    p_verify.add_argument("--max-order", type=int)
    p_verify.add_argument("--max-n", type=int)
    p_verify.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_render = subs.add_parser("render", help="draw a region or graph")
    _add_family_options(p_render, with_input=True)
    p_render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sys.set_int_max_str_digits(0)  # an exact count may run past Python's 4300-digit default
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the recipe of Python's signal docs: no later flush of stdout can raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CountMismatchError as exc:
        print(f"engine cross-check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
