"""Lattice regions and structured graphs: diamonds, quarters, holey rectangles.

Coordinate conventions, fixed once and validated by tiling counts:

* Cell (i, j) is the unit square [i, i+1] x [j, j+1]; its center
  (i + 1/2, j + 1/2) is never on an integer line.  The cut is tested on the
  doubled center (p, q) = (2i+1, 2j+1), a pair of odd integers.
* The staircase cut Z descends rightward with 2-unit steps, corner points
  (2k, 1-2k) and (2k, -1-2k); it passes next to the origin.  A center is on
  the +1 side iff it lies above Z, that is q > -2 - 4*floor(p/4).  So in
  column i the cells above Z are those with j >= -1 - 2*floor((2i+1)/4).
* Quarter selection: the pinwheel quarter is the north one (Z together
  with Z rotated 90 degrees); the Klein division superimposes Z and its
  mirror image in the y-axis, giving the north (non-abutting) and west
  (abutting) quarters as representatives.  Each quarter keeps one run of
  j per column i, and _QUARTER_KEEPS holds its bounds per quarter kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .errors import InvalidHolesError, InvalidOrderError
from .grids import EmbeddedGraph, json_int_pairs

Cell = tuple[int, int]

PINWHEEL = "pinwheel"
KLEIN_ABUT = "klein_abut"
KLEIN_NONABUT = "klein_nonabut"
QUARTER_KINDS = (PINWHEEL, KLEIN_ABUT, KLEIN_NONABUT)

# Largest order any builder accepts: above 4*64 + 3 = 259, the largest quarter an
# order-64 replay of the lemmas needs.  On one core of a 2-core VM, ad(300) and its
# dual build in about 0.15 s and 83 MB; ad(400) took 3.8 s and 321 MB through from_points.
MAX_ORDER = 300


@dataclass(frozen=True)
class Region:
    """A finite set of unit cells; empty regions count as having one tiling."""

    cells: frozenset[Cell]
    name: str = ""
    # Set by the builders alone: the cells as column runs (i, lo, hi), for dual_graph.  Not
    # part of ==, hash, repr or JSON, so a region made any other way has none.
    _runs: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.cells)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "cells": [list(c) for c in sorted(self.cells)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Region":
        cells = json_int_pairs(data, "cells", "cell")
        return cls(cells=frozenset(cells), name=str(data.get("name", "")))


def _span(i: int) -> int:
    # max(|i|, |i+1|): how far cell index i reaches from the origin
    return i + 1 if i >= 0 else -i


def _columns(n: int) -> Iterator[tuple[int, int]]:
    # (i, rest): column i of the order-n diamond holds the cells j in [-rest, rest)
    return ((i, n + 1 - _span(i)) for i in range(-n, n))


def _lo(i: int) -> int:
    # smallest j whose cell (i, j) lies above the staircase cut
    return -1 - 2 * ((2 * i + 1) // 4)


# The run [start, stop) of j that each division keeps in column i, clipped to
# the diamond's column [-rest, rest).  Column -i-1 is column i mirrored in the
# y-axis, and j >= 2*floor((i+1)/2) is the north quarter's side of Z rotated by
# 90 degrees.
_QUARTER_KEEPS = {
    PINWHEEL: lambda i, rest: (max(_lo(i), 2 * ((i + 1) // 2), -rest), rest),
    KLEIN_ABUT: lambda i, rest: (max(_lo(-i - 1), -rest), min(_lo(i), rest)),
    KLEIN_NONABUT: lambda i, rest: (max(_lo(i), _lo(-i - 1), -rest), rest),
}


def _from_runs(runs: tuple[tuple[int, int, int], ...], name: str) -> Region:
    # The region of cells (i, j), lo <= j < hi, of runs (i, lo, hi), i ascending, keeping its runs.
    region = Region(cells=frozenset((i, j) for i, lo, hi in runs for j in range(lo, hi)), name=name)
    object.__setattr__(region, "_runs", runs)
    return region


def build_aztec_diamond(n: int) -> Region:
    """Diamond of order n: cells whose corners (x, y) all satisfy |x|+|y| <= n+1."""
    _require_order(n)
    return _from_runs(tuple((i, -rest, rest) for i, rest in _columns(n)), f"ad({n})")


def build_quartered(n: int, kind: str) -> Region:
    """One quarter of the order-n diamond under the chosen two-cut division."""
    _require_order(n)
    _require_kind(kind)
    bounds = _QUARTER_KEEPS[kind]
    return _from_runs(tuple((i, *bounds(i, rest)) for i, rest in _columns(n)), f"{kind}({n})")


def set_A(n: int) -> tuple[int, ...]:
    """Odd positions 1..2n-1 followed by even positions 2n+2..4n."""
    _require_order(n)
    return tuple(range(1, 2 * n, 2)) + tuple(range(2 * n + 2, 4 * n + 1, 2))


def set_B(n: int) -> tuple[int, ...]:
    """Even positions 2..2n followed by odd positions 2n+1..4n-1."""
    _require_order(n)
    return tuple(range(2, 2 * n + 1, 2)) + tuple(range(2 * n + 1, 4 * n, 2))


def _rectangle(m: int, n: int, bottom: Callable[[int], int]) -> EmbeddedGraph:
    # The white squares of a (2m+1) x (2n+1) board with black corners, sent to rotated grid
    # coordinates so diagonal adjacency becomes orthogonal: board (column c, row r) -> (a, b) =
    # ((c+r-1)/2, (r-c+2n+1)/2).  With c = 2a+1-r, column a holds the rows r in
    # [max(1, 2a-2n), min(2m+1, 2a)] at b = r-a+n, less those below row bottom(a).
    return EmbeddedGraph._from_columns(
        (a, max(bottom(a), 2 * a - 2 * n) - a + n, min(2 * m + 1, 2 * a) - a + n + 1)
        for a in range(1, m + n + 1))


def build_aztec_rectangle(m: int, n: int) -> EmbeddedGraph:
    """The m x n rectangle graph on white squares with diagonal adjacency."""
    _require_order(m, n)
    return _rectangle(m, n, lambda a: 1)


def check_index_set(values: tuple[int, ...], size: int, width: int) -> None:
    """Require exactly size strictly ascending int positions (a bool is not one) inside 1..width."""
    if not all(type(v) is int for v in values) or list(values) != sorted(set(values)):
        raise InvalidHolesError(f"positions {values} are not strictly ascending ints")
    if len(values) != size:
        raise InvalidHolesError(f"expected {size} positions, got {len(values)}")
    if values and not (1 <= values[0] and values[-1] <= width):
        raise InvalidHolesError(f"positions {values} outside 1..{width}")


def _holey_rectangle(m: int, n: int, positions: Iterable[int], width: int,
                     listed: int, other: int) -> EmbeddedGraph:
    """The m x n rectangle, column a starting at board row listed if a is one of the
    positions and at other if not; its orders, then its positions, are checked first."""
    _require_order(m, n)
    positions = tuple(positions)
    check_index_set(positions, m, width)
    # Position k of board row 1 (1..n) and of row 2 (1..n+1) is in column k, on its two
    # lowest rows, so either builder's holes cut only the low end of a column.
    chosen = set(positions)
    return _rectangle(m, n, lambda a: listed if a in chosen else other)


def build_holey_ar(m: int, n: int, keep: Iterable[int]) -> EmbeddedGraph:
    """Rectangle graph with the bottom row removed except at m kept positions."""
    return _holey_rectangle(m, n, keep, n, 1, 2)


def build_holey_ar_bar(m: int, n: int, remove: Iterable[int]) -> EmbeddedGraph:
    """Rectangle graph minus its whole bottom row, then m more holes above it."""
    return _holey_rectangle(m, n, remove, n + 1, 3, 2)


def _require_order(*orders: int) -> None:
    """The one order check, for the builders and closed forms: each an int (no bool) in 1..MAX_ORDER."""
    for n in orders:
        if type(n) is not int or not 1 <= n <= MAX_ORDER:
            raise InvalidOrderError(f"order must be in 1..{MAX_ORDER}, got {n!r}")


def _require_kind(kind: str) -> None:
    """The one quarter-kind check, for build_quartered and theorem1_value: one of QUARTER_KINDS."""
    if kind not in QUARTER_KINDS:
        raise ValueError(f"unknown quarter kind {kind!r}")
