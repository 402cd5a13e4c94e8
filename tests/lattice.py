"""Placements of points and graphs on the square lattice, and rectangle board rows, for the tests."""

from aztec_tilings.grids import LATTICE_SYMMETRIES, EmbeddedGraph


def moved(k, dx=0, dy=0):
    """The map p -> LATTICE_SYMMETRIES[k](p) + (dx, dy) on points."""
    sym = LATTICE_SYMMETRIES[k]

    def move(p):
        x, y = sym(*p)
        return (x + dx, y + dy)

    return move


def placed(g, k, dx, dy):
    """g moved by LATTICE_SYMMETRIES[k], then translated by (dx, dy)."""
    move = moved(k, dx, dy)
    return EmbeddedGraph.from_points(map(move, g.vertices), [(move(p), move(q)) for p, q in g.edges])


def bottom_row_points(n):
    """Rotated coordinates of the rectangle's bottom board row, positions 1..n left to right."""
    return [(k, n + 1 - k) for k in range(1, n + 1)]
