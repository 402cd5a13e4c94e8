"""Exact closed-form values for quartered-diamond and holey-rectangle counts.

Every product is evaluated over exact rationals and converted to an
integer at the end; a non-integral result is a bug, not a rounding issue.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CountMismatchError, InvalidHolesError, InvalidOrderError
from .regions import KLEIN_ABUT, KLEIN_NONABUT, PINWHEEL, check_index_set, set_A, set_B


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise CountMismatchError(f"expected an integer, got {value}")
    return value.numerator


def _pair_product(n: int, shift: int, strict: bool) -> Fraction:
    # prod over 1 <= i < j <= n (or i <= j) of (2i + 2j + shift) / (i + j - 1)
    total = Fraction(1)
    for i in range(1, n + 1):
        start = i + 1 if strict else i
        for j in range(start, n + 1):
            total *= Fraction(2 * i + 2 * j + shift, i + j - 1)
    return total


def theorem1_value(kind: str, order: int) -> int:
    """Closed-form tiling count of a quartered diamond of the given order."""
    if order < 1:
        raise InvalidOrderError(f"order must be >= 1, got {order}")
    r = order % 4
    if kind == PINWHEEL:
        if r in (1, 2):
            return 0
        if r == 0:
            n = order // 4
            return _as_int(2 ** (n * (3 * n - 1) // 2) * _pair_product(n, -1, True))
        n = (order + 1) // 4
        return _as_int(2 ** (n * (3 * n - 3) // 2) * _pair_product(n, -1, True))
    if kind == KLEIN_ABUT:
        if r in (0, 2):
            n = (order + 2) // 4 if r == 2 else order // 4
            return _as_int(2 ** (n * (3 * n - 1) // 2) * _pair_product(n, -3, True))
        n = (order + 1) // 4 if r == 3 else (order - 1) // 4
        return _as_int(2 ** (n * (3 * n - 3) // 2) * _pair_product(n, -1, False))
    if kind == KLEIN_NONABUT:
        if r in (0, 2):
            n = order // 4 if r == 0 else (order - 2) // 4
            return _as_int(2 ** (n * (3 * n - 1) // 2) * _pair_product(n, -1, False))
        n = (order + 3) // 4 if r == 1 else (order + 1) // 4
        return _as_int(2 ** (n * (3 * n - 3) // 2) * _pair_product(n, -3, True))
    raise ValueError(f"unknown quarter kind {kind!r}")


def aztec_diamond_value(n: int) -> int:
    """Tiling count of the order-n diamond: 2^(n(n+1)/2)."""
    if n < 1:
        raise InvalidOrderError(f"order must be >= 1, got {n}")
    return 1 << (n * (n + 1) // 2)


def _position_product(a: tuple[int, ...]) -> Fraction:
    total = Fraction(1)
    m = len(a)
    for i in range(m):
        for j in range(i + 1, m):
            total *= Fraction(a[j] - a[i], j - i)
    return total


def lemma4_value(m: int, n: int, a: tuple[int, ...]) -> int:
    """Matching count of the rectangle graph keeping bottom positions a."""
    check_index_set(a, m, n)
    return _as_int(2 ** (m * (m + 1) // 2) * _position_product(a))


def lemma5_value(m: int, n: int, a: tuple[int, ...]) -> int:
    """Matching count of the bottomless rectangle graph with holes at a."""
    check_index_set(a, m, n + 1)
    return _as_int(2 ** (m * (m - 1) // 2) * _position_product(a))


def delta(s: tuple[int, ...]) -> int:
    """Product of pairwise differences (later minus earlier) of an index set."""
    if not s:
        raise InvalidHolesError("index set must be non-empty")
    total = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            total *= s[j] - s[i]
    return total


def lemma6_lhs(n: int) -> Fraction:
    """Ratio of pairwise-difference products of the two standard index sets."""
    return Fraction(delta(set_A(n)), delta(set_B(n)))


def lemma6_rhs(n: int) -> Fraction:
    """The equivalent double product over 1 <= i, j <= n."""
    if n < 1:
        raise InvalidOrderError(f"n must be >= 1, got {n}")
    num = den = 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            num *= 2 * n + 1 + 2 * j - 2 * i
            den *= 2 * n - 1 + 2 * j - 2 * i
    return Fraction(num, den)


def lemma6_check(n: int) -> bool:
    return lemma6_lhs(n) == lemma6_rhs(n)
