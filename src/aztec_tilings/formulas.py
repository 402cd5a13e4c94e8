"""Exact closed-form values for quartered-diamond and holey-rectangle counts.

Every closed form is one factor map, a `Counter` from value to exponent whose
negative exponents divide, so shared factors cancel before any product. A count
is its map's value times a power of 2 and must be an integer; a remainder is a
bug, not a rounding issue. Only the lemma6 ratios, which are not integers, are
returned as `Fraction`s.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, starmap
from operator import sub

from .errors import CountMismatchError, InvalidHolesError
from .regions import (KLEIN_ABUT, KLEIN_NONABUT, PINWHEEL, _require_kind, _require_order, check_index_set,
                      set_A, set_B)


def _product(factors: list[int]) -> int:
    # Balanced pairwise rounds keep both operands of each big multiplication
    # about the same size; left to right, every step costs the whole product.
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _as_int(value: Fraction) -> int:
    """value, which must be an integer."""
    if value.denominator != 1:
        # hex, as str of an int fails past 4300 digits
        raise CountMismatchError(f"expected an integer, got {value.numerator:#x}/{value.denominator:#x}")
    return value.numerator


def _differences(s) -> Iterator[int]:
    """Pairwise differences, later minus earlier, of s, one at a time."""
    return starmap(sub, combinations(s[::-1], 2))


def _value(exponents: Counter, k: int = 0) -> Fraction:
    """2^k times the product of v^e over a factor map; negative exponents divide."""
    return Fraction(_product([v ** e for v, e in exponents.items() if e > 0]) << k,
                    _product([v ** -e for v, e in exponents.items() if e < 0]))


# (kind, order % 2) -> (c, shift, strict): with n = (order + c) // 4 the count is
# 2^(n(3n-1)/2) (even order) or 2^(n(3n-3)/2) (odd order) times the product over
# 1 <= i < j <= n (strict) or 1 <= i <= j <= n of (2i + 2j + shift) / (i + j - 1).
_THEOREM1 = {
    (PINWHEEL, 0): (1, -1, True),
    (PINWHEEL, 1): (1, -1, True),
    (KLEIN_ABUT, 0): (2, -3, True),
    (KLEIN_ABUT, 1): (2, -1, False),
    (KLEIN_NONABUT, 0): (0, -1, False),
    (KLEIN_NONABUT, 1): (3, -3, True),
}


def theorem1_value(kind: str, order: int) -> int:
    """Closed-form tiling count of a quartered diamond of the given order."""
    _require_order(order)
    _require_kind(kind)
    if kind == PINWHEEL and order % 4 in (1, 2):
        return 0
    c, shift, strict = _THEOREM1[kind, order % 2]
    n = (order + c) // 4
    sums = Counter(i + j for i in range(1, n + 1) for j in range(i + 1 if strict else i, n + 1))
    factors = Counter({2 * t + shift: e for t, e in sums.items()})
    factors.subtract({t - 1: e for t, e in sums.items()})
    return _as_int(_value(factors, n * (3 * n - 1 - 2 * (order % 2)) // 2))


def aztec_diamond_value(n: int) -> int:
    """Tiling count of the order-n diamond: 2^(n(n+1)/2)."""
    _require_order(n)
    return 1 << (n * (n + 1) // 2)


def _lemma4(m: int, width: int, a: tuple[int, ...]) -> int:
    """lemma4_value at any width, a being m positions in 1..width; orders are the caller's to check."""
    check_index_set(a, m, width)
    factors = Counter(_differences(a))
    factors.subtract(Counter(_differences(range(1, m + 1))))
    return _as_int(_value(factors, m * (m + 1) // 2))


def lemma4_value(m: int, n: int, a: tuple[int, ...]) -> int:
    """Matching count of the rectangle graph keeping bottom positions a."""
    _require_order(m, n)
    return _lemma4(m, n, a)


def lemma5_value(m: int, n: int, a: tuple[int, ...]) -> int:
    """Matching count of the bottomless rectangle graph with holes at a: lemma4's
    count at width n + 1 over 2^m, as the forms differ only in 2^(m(m+1)/2) vs 2^(m(m-1)/2)."""
    _require_order(m, n)
    return _as_int(Fraction(_lemma4(m, n + 1, a), 1 << m))


def delta(s: tuple[int, ...]) -> int:
    """Product of pairwise differences (later minus earlier) of a non-empty tuple of ints."""
    if not s or not all(type(v) is int for v in s):
        raise InvalidHolesError(f"index set must be a non-empty tuple of ints, got {s!r}")
    return _product(list(_differences(s)))


def lemma6_lhs(n: int) -> Fraction:
    """Ratio of pairwise-difference products of the two standard index sets."""
    exponents = Counter(_differences(set_A(n)))
    exponents.subtract(Counter(_differences(set_B(n))))
    return _value(exponents)


def lemma6_rhs(n: int) -> Fraction:
    """The equivalent double product over 1 <= i, j <= n."""
    _require_order(n)
    weights = {k: n - abs(k) for k in range(1 - n, n)}  # number of pairs (i, j) with j - i = k
    exponents = Counter({2 * n + 1 + 2 * k: w for k, w in weights.items()})
    exponents.subtract({2 * n - 1 + 2 * k: w for k, w in weights.items()})
    return _value(exponents)
