"""Exact-counting workbench for domino tilings of diamond-family lattice regions.

Regions and structured graphs are built with fixed coordinate conventions,
perfect matchings are counted by three independent exact engines, and the
verify suites recheck every identity the package relies on.
"""

from .engines import count, count_brute, count_fkt, count_profile_dp, fkt_supported
from .errors import (
    CountMismatchError,
    FactorizationError,
    InvalidHolesError,
    InvalidOrderError,
    TooLargeError,
)
from .factorize import (
    DiagonalAxis,
    FactorizationResult,
    apply_factorization,
    find_diagonal_axis,
)
from .formulas import (
    aztec_diamond_value,
    delta,
    lemma4_value,
    lemma5_value,
    lemma6_lhs,
    lemma6_rhs,
    theorem1_value,
)
from .grids import (
    EmbeddedGraph,
    ReductionReport,
    dual_graph,
    isomorphic_embedded,
    normalize,
    reduce_forced,
)
from .regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    PINWHEEL,
    QUARTER_KINDS,
    Region,
    build_aztec_diamond,
    build_aztec_rectangle,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
    set_A,
    set_B,
)
from .verify import run_all, run_suite

__all__ = [
    "CountMismatchError",
    "DiagonalAxis",
    "EmbeddedGraph",
    "FactorizationError",
    "FactorizationResult",
    "InvalidHolesError",
    "InvalidOrderError",
    "KLEIN_ABUT",
    "KLEIN_NONABUT",
    "PINWHEEL",
    "QUARTER_KINDS",
    "ReductionReport",
    "Region",
    "TooLargeError",
    "apply_factorization",
    "aztec_diamond_value",
    "build_aztec_diamond",
    "build_aztec_rectangle",
    "build_holey_ar",
    "build_holey_ar_bar",
    "build_quartered",
    "count",
    "count_brute",
    "count_fkt",
    "count_profile_dp",
    "delta",
    "dual_graph",
    "find_diagonal_axis",
    "fkt_supported",
    "isomorphic_embedded",
    "lemma4_value",
    "lemma5_value",
    "lemma6_lhs",
    "lemma6_rhs",
    "normalize",
    "reduce_forced",
    "run_all",
    "run_suite",
    "set_A",
    "set_B",
    "theorem1_value",
]
