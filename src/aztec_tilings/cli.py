"""Command-line front end: generate, count, verify, render.

Exit codes: 0 success, 1 verification or cross-check failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
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

_REGION_FAMILIES = ("ad", "r", "ka", "kna")
_GRAPH_FAMILIES = ("ar", "ar_holey", "ar_bar")
_KIND_BY_FAMILY = {"r": PINWHEEL, "ka": KLEIN_ABUT, "kna": KLEIN_NONABUT}


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_family(args) -> Region | EmbeddedGraph:
    family = args.family
    if family == "ad":
        _need(args.n is not None, "--n is required for ad")
        return build_aztec_diamond(args.n)
    if family in _KIND_BY_FAMILY:
        _need(args.n is not None, f"--n is required for {family}")
        return build_quartered(args.n, _KIND_BY_FAMILY[family])
    _need(args.m is not None and args.n is not None, f"--m and --n are required for {family}")
    if family == "ar":
        return build_aztec_rectangle(args.m, args.n)
    if family == "ar_holey":
        _need(args.keep is not None, "--keep is required for ar_holey")
        return build_holey_ar(args.m, args.n, args.keep)
    if family == "ar_bar":
        _need(args.remove is not None, "--remove is required for ar_bar")
        return build_holey_ar_bar(args.m, args.n, args.remove)
    raise SystemExit(2)


def _need(condition: bool, message: str) -> None:
    if not condition:
        print(message, file=sys.stderr)
        raise SystemExit(2)


def _load_input(path: str) -> Region | EmbeddedGraph:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        if "cells" in data:
            return Region.from_json_dict(data)
        return EmbeddedGraph.from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read region/graph JSON from {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _obtain(args) -> Region | EmbeddedGraph:
    if getattr(args, "input", None):
        return _load_input(args.input)
    _need(args.family is not None, "either --input or --family is required")
    return _build_family(args)


def _as_graph(obj: Region | EmbeddedGraph) -> EmbeddedGraph:
    return dual_graph(obj) if isinstance(obj, Region) else obj


def cmd_gen(args) -> int:
    print(_dumps(_build_family(args).to_json_dict()))
    return 0


def cmd_count(args) -> int:
    g = _as_graph(_obtain(args))
    result = engines.count(g, engine=args.engine, crosscheck=args.crosscheck)
    print(result)
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
        sub.add_argument("--family", choices=_REGION_FAMILIES + _GRAPH_FAMILIES)
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
    p_gen.add_argument("family", choices=_REGION_FAMILIES + _GRAPH_FAMILIES)
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
    try:
        return args.func(args)
    except CountMismatchError as exc:
        print(f"engine cross-check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
