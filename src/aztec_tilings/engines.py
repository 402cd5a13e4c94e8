"""Three independent exact perfect-matching counters plus a checking front door.

All engines return exact Python ints; no floating point enters any
counting path.  `count_brute` is the definition-level oracle, the
determinant method (division-free +-1 pivots, then Bareiss on the few
columns left) counts every grid graph in polynomial time and is what
"auto" runs, and the broken-profile sweep, exponential only in the
narrower side and bounded by a live-state budget, rechecks it.  Brute rechecks
every graph within its own limit, BRUTE_VERTEX_LIMIT = 40 vertices; past it and
PROFILE_STATE_LIMIT (already at ad(11)) a crosscheck raises TooLargeError.
`fkt_supported` is on no counting path: it is the unit-square face test
that gates the `engines` verify suite's `:fkt` cases.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterator, Sequence

from .errors import CountMismatchError, TooLargeError
from .grids import EmbeddedGraph, Point

BRUTE_VERTEX_LIMIT = 40
PROFILE_STATE_LIMIT = 1 << 18
_LEAF_WIDTH = 4
# count_fkt's rule for pivoting fewest holders first, read off BENCH_22.json's table
_HOLDERS_MAX_VERTICES = 1000
_HOLDERS_MIN_SIDE = 20


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
    nbrs = [[index[q] for q in ns] for ns in g.adjacency().values()]
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

    Vertices are scanned column-major over the occupied columns, and the
    profile covers the occupied rows, taken along the axis with fewer
    occupied lines.  A state is a bitmask over profile rows in which bit
    r = 1 means the frontier position in row r is settled (covered, or not
    a vertex) and bit r = 0 means the vertex there still needs its partner
    from the unscanned side.  Empty lines are skipped exactly: an edge
    reaches back to column x-1 or row y-1 only if that line holds a
    vertex, and then it is the line scanned just before.
    More than PROFILE_STATE_LIMIT live states raises TooLargeError.
    """
    if not g.vertices:
        return 1
    pts = set(g.vertices)
    edge_set = set(g.edges)
    cols = sorted({x for x, _ in pts})
    rows = sorted({y for _, y in pts})
    if len(rows) > len(cols):
        pts = {(y, x) for x, y in pts}
        # transposing a unit step keeps its smaller point first
        edge_set = {((p[1], p[0]), (q[1], q[0])) for p, q in edge_set}
        cols, rows = rows, cols
    full = (1 << len(rows)) - 1

    states = {full: 1}
    for x in cols:
        for r, y in enumerate(rows):
            bit = 1 << r
            here = (x, y) in pts
            takes_left = ((x - 1, y), (x, y)) in edge_set
            takes_down = ((x, y - 1), (x, y)) in edge_set
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
            if len(states) > PROFILE_STATE_LIMIT:
                raise TooLargeError(
                    f"profile sweep exceeds {PROFILE_STATE_LIMIT} live states at width {len(rows)}"
                )
    return states.get(full, 0)


def _fewest_holders(holders: list[set[int]]) -> Iterator[int]:
    """Each column once, next the one with fewest holders when drawn, ties to the lowest.

    A lazy min-heap of (holder count, column) packed into one int: a top entry
    whose count went stale while the caller eliminated goes back with the new one.
    """
    shift = len(holders).bit_length()
    mask = (1 << shift) - 1
    heap = [len(live) << shift | k for k, live in enumerate(holders)]
    heapify(heap)
    while heap:
        k = heap[0] & mask
        key = len(holders[k]) << shift | k
        if key == heap[0]:
            heappop(heap)
            yield k
        else:
            heapreplace(heap, key)


def _abs_det(rows: list[dict[int, int]], by_holders: bool = False) -> int:
    """|det| of a square matrix as sparse rows (column -> nonzero entry), consumed.

    One pass over the columns clears each that has a +-1 entry u, in its lowest
    such row p: every other row with an entry h there takes row -= h*u*row_p in
    place, which keeps det, touches only row p's columns and divides by nothing;
    row p and the column then leave, taking a factor +-u.  `holders` changes
    only where an entry appears or cancels.  Every entry left is +- a minor of
    the input, as the pivots' block has det +-1.  Columns come in index order
    or, by_holders, from `_fewest_holders`.  A column with no +-1 holder waits
    for `_bareiss`, which takes them in index order; one with no holder at all
    makes det 0.
    """
    holders: list[set[int]] = [set() for _ in rows]  # column -> rows with an entry
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    waiting = []
    for k in _fewest_holders(holders) if by_holders else range(len(rows)):
        live = holders[k]
        if not live:
            return 0
        p = len(rows)
        for i in live:
            if i < p and rows[i][k] in (1, -1):
                p = i
        if p == len(rows):
            waiting.append(k)
            continue
        prow = rows[p]
        for j in prow:  # live is holders[k], so p leaves it too
            holders[j].discard(p)
        u = prow.pop(k)
        scaled = [(j, -u * w) for j, w in prow.items()]
        prow.clear()  # row p is done: free its entries
        for i in live:
            row = rows[i]
            f = row.pop(k)
            for j, w in scaled:
                v = row.get(j)
                if v is None:
                    row[j] = f * w
                    holders[j].add(i)
                else:
                    v += f * w
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        holders[j].discard(i)
    return _bareiss(rows, holders, sorted(waiting))


def _bareiss(rows: list[dict[int, int]], holders: list[set[int]], columns: list[int]) -> int:
    """|det| of the square block of `rows` on `columns`, which it consumes.

    holders[k] holds the rows with an entry in column k; no other row is read.
    Fraction-free (Bareiss) elimination, column by column: column k's pivot
    is the lowest remaining row with an entry there, and only rows with an
    entry in column k are updated.  Other rows stay stale: s = stamp[i] is
    the pivot row i was last scaled to, so its true entries are V = v*prev/s
    and H = head*prev/s, and the Bareiss step (pivot*V - H*w) / prev is
    (pivot*v - head*w) / s, exact since every true entry is a minor; a
    remainder raises at once.  An updated row is rebuilt in one pass over its
    entries, dropping those that cancel, then gains the fill -head*w / s (never
    zero) in the pivot row's other columns.  |det| needs no pivot sign.
    """
    stamp = [1] * len(rows)
    prev = 1
    for k in columns:
        live = holders[k]
        if not live:
            return 0
        p = min(live)
        prow, s = rows[p], stamp[p]
        for j in prow:  # live is holders[k], so p leaves it too
            holders[j].discard(p)
        if s != prev:  # else w*prev/s is w
            for j, w in prow.items():
                prow[j], r = divmod(w * prev, s)
                if r:
                    raise CountMismatchError("non-exact division in fraction-free elimination")
        pivot = prow.pop(k)
        for i in live:
            row, s = rows[i], stamp[i]
            rows[i] = new = {}
            head = row.pop(k)
            for j, v in row.items():
                q, r = divmod(pivot * v - head * prow.get(j, 0), s)
                if r:
                    raise CountMismatchError("non-exact division in fraction-free elimination")
                if q:
                    new[j] = q
                else:
                    holders[j].discard(i)
            for j in prow.keys() - row.keys():
                new[j], r = divmod(-head * prow[j], s)
                if r:
                    raise CountMismatchError("non-exact division in fraction-free elimination")
                holders[j].add(i)
            stamp[i] = pivot
        prev = pivot
    return abs(prev)


def fkt_supported(g: EmbeddedGraph) -> bool:
    """Whether every bounded face of g is a unit lattice square.

    No engine needs this: count_fkt counts every grid graph.  The
    `engines` verify suite gates its `:fkt` cases on it, which keeps that
    suite's case list fixed.  A planar embedding with V vertices, E edges
    and C components has E - V + C bounded faces, one per edge that closes
    a cycle, and each fully-edged unit square is necessarily one of them.
    """
    edge_set = set(g.edges)
    squares = 0
    for (x, y) in g.vertices:
        if (
            ((x, y), (x + 1, y)) in edge_set
            and ((x, y), (x, y + 1)) in edge_set
            and ((x + 1, y), (x + 1, y + 1)) in edge_set
            and ((x, y + 1), (x + 1, y + 1)) in edge_set
        ):
            squares += 1
    parent = {p: p for p in g.vertices}

    def root(p: Point) -> Point:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]  # path halving
        return p

    cycles = 0
    for p, q in g.edges:
        a, b = root(p), root(q)
        if a == b:
            cycles += 1
        else:
            parent[a] = b
    return cycles == squares


def _band_order(points: Sequence[Point], width: int, height: int) -> Sequence[Point]:
    """Sorted points of a width x height box in band order: along the wider x/y axis."""
    return sorted(points, key=lambda p: p[::-1]) if height > width else points


def _dissection_order(points: list[Point]) -> list[Point]:
    """Nested-dissection order of sorted points: low block, high block, separator.

    A block splits across the longer of its u = x + y and v = x - y extents at
    an odd value next to the middle: that line's points are odd, so columns
    only, and no block runs short of rows for its pivots.  A block of at most
    64 points (a smaller one costs more to split than it saves) or at most
    _LEAF_WIDTH wide (band order wins on such strips up to ~2000 long) is a
    leaf in `_band_order`.  Blocks keep input order, so stay sorted, and wait
    on a stack, not the call stack: a split only halves an extent, so blocks
    can nest deeper than Python's recursion limit.
    """
    order: list[Point] = []  # built back to front
    stack = [points]
    while stack:
        block = stack.pop()
        if not block:
            continue
        xs, ys = [x for x, _ in block], [y for _, y in block]
        width, height = max(xs) - min(xs) + 1, max(ys) - min(ys) + 1
        if len(block) <= 64 or min(width, height) <= _LEAF_WIDTH:
            order += reversed(_band_order(block, width, height))
            continue
        us, vs = [x + y for x, y in block], [x - y for x, y in block]
        c = us if max(us) - min(us) >= max(vs) - min(vs) else vs
        m = (min(c) + max(c)) // 2
        m += 1 - m % 2
        low, high, separator = [], [], []  # type: list[Point], list[Point], list[Point]
        for p, t in zip(block, c):
            (low if t < m else high if t > m else separator).append(p)
        order += reversed(separator)
        stack += [low, high]
    return order[::-1]


def count_fkt(g: EmbeddedGraph) -> int:
    """Count perfect matchings as |det| of a +-1 Kasteleyn matrix.

    Rows are the even points (x + y even), columns the odd ones, and an
    edge's entry is its sign: horizontal edges weigh +1, and the vertical
    edge (x, y)-(x, y + 1) weighs -1 iff an odd number of vertices of g
    lie in row y strictly right of x.  This is valid on every subgraph of
    Z^2.  Signing the vertical edges of column x by (-1)^x instead gives
    a lattice cycle of length 2k the sign product (-1)^A, A its area,
    which is (-1)^(k - 1 + I) by Pick's theorem, I the lattice points
    strictly inside.  Flipping the vertical edges crossed by a leftward
    ray from each point of the bounding box that is not a vertex toggles
    a cycle once per such point inside it, leaving (-1)^(k - 1 + J), J
    the vertices inside; per edge the two flips collapse to the rule
    above, up to a flip of every vertical edge, which no cycle sees.  Two
    perfect matchings differ on alternating cycles whose inside vertices
    are matched among themselves, so J is even and each such cycle signs
    (-1)^(k - 1): Kasteleyn's condition, under which every perfect
    matching adds the same sign to the determinant and |det| is the
    count.  Reordering rows or columns only flips the sign of det.  A graph
    less than _HOLDERS_MIN_SIDE wide either way is one band at any size:
    `_band_order` numbers both, and columns come in index order
    (BENCH_29.json).  Other graphs of at most _HOLDERS_MAX_VERTICES keep
    vertex order, and `_abs_det` takes columns fewest holders first, as an
    order costs them more than it saves (BENCH_22.json).  The rest number
    both in `_dissection_order`, which keeps the fill in each block and its
    separator.  Every placement of a shape takes the same path.  `_abs_det`
    pivots on a +-1 entry wherever one is left, so Bareiss runs only on a
    small tail: n columns on ad(n) on every path, 27 of 2328 on r(96).
    """
    vs = g.vertices
    if 2 * sum((x + y) % 2 for x, y in vs) != len(vs):
        return 0
    right: dict[tuple[int, int], int] = {}  # point -> vertices right of it in its row
    seen: dict[int, int] = {}  # row -> its vertices, less one
    for x, y in reversed(vs):
        right[x, y] = seen[y] = seen.get(y, -1) + 1
    width, height = (vs[-1][0] - vs[0][0] + 1, max(seen) - min(seen) + 1) if vs else (0, 0)
    thin = min(width, height) < _HOLDERS_MIN_SIDE
    by_holders = not thin and len(vs) <= _HOLDERS_MAX_VERTICES
    order = _band_order(vs, width, height) if thin else vs if by_holders else _dissection_order(list(vs))
    row: dict[Point, int] = {}  # even point -> its row
    col: dict[Point, int] = {}  # odd point -> its column
    for p in order:
        index = col if (p[0] + p[1]) % 2 else row
        index[p] = len(index)
    rows: list[dict[int, int]] = [{} for _ in row]
    for p, q in g.edges:
        # p is the smaller point, so the lower end of a vertical edge
        sign = -1 if p[0] == q[0] and right[p] % 2 else 1
        i = row.get(p)
        if i is None:
            rows[row[q]][col[p]] = sign
        else:
            rows[i][col[q]] = sign
    return _abs_det(rows, by_holders)


_DISPATCH = {
    "brute": count_brute,
    "profile_dp": count_profile_dp,
    "fkt": count_fkt,
}

ENGINE_CHOICES = ("auto", *_DISPATCH)


def count(g: EmbeddedGraph, engine: str = "auto", crosscheck: bool = False) -> int:
    """Front door: dispatch to an engine, optionally double-count and compare.

    "auto" is the determinant, which counts every grid graph.  Disagreement
    between engines raises CountMismatchError and is never silently resolved.
    """
    engine = "fkt" if engine == "auto" else engine
    if engine not in _DISPATCH:
        raise ValueError(f"unknown engine {engine!r}")
    result = _DISPATCH[engine](g)
    if crosscheck:
        # Brute rechecks every graph within its own limit, the sweep the others, fkt the sweep.
        if engine != "brute" and len(g.vertices) <= BRUTE_VERTEX_LIMIT:
            name, recount = "brute", count_brute
        elif engine != "profile_dp":
            name, recount = "profile_dp", count_profile_dp
        else:
            name, recount = "fkt", count_fkt
        try:
            value = recount(g)
        except TooLargeError as exc:
            raise TooLargeError(f"crosscheck: {name} cannot recheck the {engine} count: {exc}")
        if value != result:
            raise CountMismatchError(f"{engine} counted {result} but {name} counted {value}")
    return result
