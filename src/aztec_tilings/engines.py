"""Three independent exact perfect-matching counters plus a checking front door.

All engines return exact Python ints; no floating point enters any
counting path.  `count_brute` is the definition-level oracle, the
broken-profile sweep is the workhorse, and the determinant method is the
structurally unrelated cross-check.
"""

from __future__ import annotations

from math import isqrt

from .errors import CountMismatchError, TooLargeError, UnsupportedEmbeddingError
from .grids import EmbeddedGraph, connected_components

ENGINE_CHOICES = ("auto", "brute", "profile_dp", "fkt")

BRUTE_VERTEX_LIMIT = 40
PROFILE_WIDTH_LIMIT = 62
AUTO_CROSSCHECK_BELOW = 24


def count_brute(g: EmbeddedGraph) -> int:
    """Count perfect matchings by branching on the lowest uncovered vertex."""
    n = len(g.vertices)
    if n > BRUTE_VERTEX_LIMIT:
        raise TooLargeError(f"{n} vertices exceeds brute-force limit {BRUTE_VERTEX_LIMIT}")
    if n == 0:
        return 1
    if n % 2:
        return 0
    index = {p: i for i, p in enumerate(g.vertices)}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    full = (1 << n) - 1

    def rec(covered: int) -> int:
        if covered == full:
            return 1
        free = ~covered & full
        v = (free & -free).bit_length() - 1
        with_v = covered | (1 << v)
        total = 0
        for u in nbrs[v]:
            if not (covered >> u) & 1:
                total += rec(with_v | (1 << u))
        return total

    return rec(0)


def count_profile_dp(g: EmbeddedGraph) -> int:
    """Count perfect matchings by a broken-profile sweep.

    Vertices are scanned column-major along the wider bounding-box axis,
    so the profile covers the narrower one.  A state is a bitmask over
    profile rows in which bit r = 1 means the frontier position in row r
    is settled (covered, or not a vertex) and bit r = 0 means the vertex
    there still needs its partner from the unscanned side.
    """
    if not g.vertices:
        return 1
    pts = set(g.vertices)
    edge_set = g.edge_set()
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    width = max(xs) - min(xs) + 1
    height = max(ys) - min(ys) + 1
    if height > width:
        pts = {(y, x) for x, y in pts}
        # transposing a unit step keeps its smaller point first
        edge_set = {((p[1], p[0]), (q[1], q[0])) for p, q in edge_set}
        xs, ys = ys, xs
        height = width
    if height > PROFILE_WIDTH_LIMIT:
        raise TooLargeError(f"profile width {height} exceeds limit {PROFILE_WIDTH_LIMIT}")
    x_lo, x_hi = min(xs), max(xs)
    y_lo = min(ys)
    full = (1 << height) - 1

    states = {full: 1}
    for x in range(x_lo, x_hi + 1):
        for r in range(height):
            y = y_lo + r
            bit = 1 << r
            here = (x, y) in pts
            takes_left = here and (x - 1, y) in pts and ((x - 1, y), (x, y)) in edge_set
            takes_down = here and (x, y - 1) in pts and ((x, y - 1), (x, y)) in edge_set
            nxt: dict[int, int] = {}
            get = nxt.get
            for mask, ways in states.items():
                if mask & bit:
                    if here:
                        # vertex may wait for a partner to its right or above
                        nm = mask & ~bit
                        nxt[nm] = get(nm, 0) + ways
                        if takes_down and not mask & (bit >> 1):
                            nm = mask | (bit >> 1)
                            nxt[nm] = get(nm, 0) + ways
                    else:
                        nxt[mask] = get(mask, 0) + ways
                elif takes_left:
                    # the vertex one column back must be matched rightward now
                    nm = mask | bit
                    nxt[nm] = get(nm, 0) + ways
            states = nxt
            if not states:
                return 0
    return states.get(full, 0)


def _gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] - b[0], a[1] - b[1])


def _gdiv_exact(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    norm = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % norm or im % norm:
        raise CountMismatchError("non-exact division in fraction-free elimination")
    return (re // norm, im // norm)


def _det_gaussian(rows: list[list[tuple[int, int]]]) -> tuple[int, int]:
    # Fraction-free (Bareiss) elimination over the Gaussian integers.
    n = len(rows)
    if n == 0:
        return (1, 0)
    sign = 1
    prev = (1, 0)
    for k in range(n - 1):
        if rows[k][k] == (0, 0):
            swap = next((r for r in range(k + 1, n) if rows[r][k] != (0, 0)), None)
            if swap is None:
                return (0, 0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            head = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                num = _gsub(_gmul(pivot, row_i[j]), _gmul(head, row_k[j]))
                row_i[j] = _gdiv_exact(num, prev)
            row_i[k] = (0, 0)
        prev = pivot
    d = rows[n - 1][n - 1]
    return d if sign == 1 else (-d[0], -d[1])


def unit_square_faces_only(g: EmbeddedGraph) -> bool:
    """True iff every bounded face of the embedding is a unit lattice square.

    Euler count: a planar embedding with V vertices, E edges and C
    components has E - V + C bounded faces, and each fully-edged unit
    square is necessarily one of them.
    """
    edge_set = g.edge_set()
    squares = 0
    for (x, y) in g.vertices:
        if (
            ((x, y), (x + 1, y)) in edge_set
            and ((x, y), (x, y + 1)) in edge_set
            and ((x + 1, y), (x + 1, y + 1)) in edge_set
            and ((x, y + 1), (x + 1, y + 1)) in edge_set
        ):
            squares += 1
    c = len(connected_components(g))
    return len(g.edges) - len(g.vertices) + c == squares


def count_fkt(g: EmbeddedGraph) -> int:
    """Count perfect matchings as the modulus of a weighted adjacency determinant.

    Horizontal edges weigh 1 and vertical edges weigh the imaginary unit;
    with all bounded faces unit squares this weighting is valid and the
    determinant's modulus is the matching count, computed here exactly
    over the Gaussian integers.
    """
    if not unit_square_faces_only(g):
        raise UnsupportedEmbeddingError("a bounded face is not a unit square")
    evens = [p for p in g.vertices if (p[0] + p[1]) % 2 == 0]
    odds = [p for p in g.vertices if (p[0] + p[1]) % 2 == 1]
    if len(evens) != len(odds):
        return 0
    if not evens:
        return 1
    row = {p: i for i, p in enumerate(evens)}
    col = {p: i for i, p in enumerate(odds)}
    rows = [[(0, 0)] * len(odds) for _ in evens]
    for p, q in g.point_pairs():
        if p not in row:
            p, q = q, p
        rows[row[p]][col[q]] = (1, 0) if p[1] == q[1] else (0, 1)
    a, b = _det_gaussian(rows)
    m2 = a * a + b * b
    m = isqrt(m2)
    if m * m != m2:
        raise CountMismatchError("determinant modulus is not an integer")
    return m


def fkt_supported(g: EmbeddedGraph) -> bool:
    """Whether count_fkt accepts this embedding."""
    return unit_square_faces_only(g)


_DISPATCH = {
    "brute": count_brute,
    "profile_dp": count_profile_dp,
    "fkt": count_fkt,
}


def count(g: EmbeddedGraph, engine: str = "auto", crosscheck: bool = False) -> int:
    """Front door: dispatch to an engine, optionally double-count and compare.

    "auto" is the profile sweep.  Disagreement between engines raises
    CountMismatchError, and a crosscheck no second engine can run raises
    UnsupportedEmbeddingError; neither is ever silently resolved.
    """
    if engine == "auto":
        engine = "profile_dp"
    if engine not in _DISPATCH:
        raise ValueError(f"unknown engine {engine!r}")
    result = _DISPATCH[engine](g)
    if crosscheck:
        name, value = _second_opinion(g, engine)
        _compare(result, value, engine, name)
    return result


def _second_opinion(g: EmbeddedGraph, engine: str) -> tuple[str, int]:
    # The sweep rechecks the other engines; brute, else fkt, rechecks the sweep.
    if engine != "profile_dp":
        return ("profile_dp", count_profile_dp(g))
    if len(g.vertices) < AUTO_CROSSCHECK_BELOW:
        return ("brute", count_brute(g))
    if fkt_supported(g):
        return ("fkt", count_fkt(g))
    raise UnsupportedEmbeddingError(
        f"no second engine can recheck profile_dp here: {len(g.vertices)} vertices "
        f"(brute needs < {AUTO_CROSSCHECK_BELOW}) and a bounded face is not a unit square (fkt)"
    )


def _compare(a: int, b: int, name_a: str, name_b: str) -> None:
    if a != b:
        raise CountMismatchError(f"{name_a} counted {a} but {name_b} counted {b}")
