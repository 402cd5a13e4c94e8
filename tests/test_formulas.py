import functools
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztec_tilings.engines import count
from aztec_tilings.errors import CountMismatchError, InvalidHolesError, InvalidOrderError
from aztec_tilings.formulas import (
    _as_int,
    _product,
    aztec_diamond_value,
    delta,
    lemma4_value,
    lemma5_value,
    lemma6_lhs,
    lemma6_rhs,
    theorem1_value,
)
from aztec_tilings.grids import dual_graph
from aztec_tilings.regions import (
    KLEIN_ABUT,
    KLEIN_NONABUT,
    MAX_ORDER,
    PINWHEEL,
    QUARTER_KINDS,
    build_holey_ar,
    build_holey_ar_bar,
    build_quartered,
    set_A,
    set_B,
)
from aztec_tilings.verify import run_suite

# Closed-form values for small orders, frozen from brute-force counting of
# the constructed regions.
KNOWN = {
    (PINWHEEL, 1): 0,
    (PINWHEEL, 2): 0,
    (PINWHEEL, 3): 1,
    (PINWHEEL, 4): 2,
    (PINWHEEL, 5): 0,
    (PINWHEEL, 6): 0,
    (PINWHEEL, 7): 20,
    (PINWHEEL, 8): 80,
    (KLEIN_ABUT, 1): 1,
    (KLEIN_ABUT, 2): 2,
    (KLEIN_ABUT, 3): 3,
    (KLEIN_ABUT, 4): 2,
    (KLEIN_ABUT, 5): 3,
    (KLEIN_ABUT, 6): 48,
    (KLEIN_ABUT, 7): 140,
    (KLEIN_ABUT, 8): 48,
    (KLEIN_NONABUT, 1): 1,
    (KLEIN_NONABUT, 2): 1,
    (KLEIN_NONABUT, 3): 1,
    (KLEIN_NONABUT, 4): 6,
    (KLEIN_NONABUT, 5): 12,
    (KLEIN_NONABUT, 6): 6,
    (KLEIN_NONABUT, 7): 12,
    (KLEIN_NONABUT, 8): 560,
}


@pytest.mark.parametrize("kind,order", sorted(KNOWN))
def test_closed_form_matches_frozen_values(kind, order):
    assert theorem1_value(kind, order) == KNOWN[(kind, order)]


@pytest.mark.parametrize("kind", QUARTER_KINDS)
@pytest.mark.parametrize("order", range(1, 9))
def test_closed_form_matches_engine(kind, order):
    counted = count(dual_graph(build_quartered(order, kind)))
    assert theorem1_value(kind, order) == counted


@pytest.mark.parametrize("order", [1, 2, 5, 6, 9, 10, 13, 14])
def test_pinwheel_zero_orders(order):
    assert theorem1_value(PINWHEEL, order) == 0


@pytest.mark.parametrize("n", range(1, 26))
def test_equalities_within_residue_classes(n):
    # Formula-level only: the paired orders share one closed form.
    assert theorem1_value(KLEIN_ABUT, 4 * n - 2) == theorem1_value(KLEIN_ABUT, 4 * n)
    assert theorem1_value(KLEIN_ABUT, 4 * n - 1) == theorem1_value(KLEIN_ABUT, 4 * n + 1)
    assert theorem1_value(KLEIN_NONABUT, 4 * n) == theorem1_value(KLEIN_NONABUT, 4 * n + 2)
    assert theorem1_value(KLEIN_NONABUT, 4 * n - 3) == theorem1_value(KLEIN_NONABUT, 4 * n - 1)


def _reference_pair_product(n, shift, strict):
    # prod over 1 <= i < j <= n (or i <= j) of (2i + 2j + shift) / (i + j - 1)
    total = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1 if strict else i, n + 1):
            total *= Fraction(2 * i + 2 * j + shift, i + j - 1)
    return total


def _reference_theorem1(kind, order):
    # Theorem 1 written out one residue class mod 4 at a time.
    r = order % 4
    if kind == PINWHEEL:
        if r in (1, 2):
            return Fraction(0)
        if r == 0:
            n = order // 4
            return 2 ** (n * (3 * n - 1) // 2) * _reference_pair_product(n, -1, True)
        n = (order + 1) // 4
        return 2 ** (n * (3 * n - 3) // 2) * _reference_pair_product(n, -1, True)
    if kind == KLEIN_ABUT:
        if r in (0, 2):
            n = (order + 2) // 4 if r == 2 else order // 4
            return 2 ** (n * (3 * n - 1) // 2) * _reference_pair_product(n, -3, True)
        n = (order + 1) // 4 if r == 3 else (order - 1) // 4
        return 2 ** (n * (3 * n - 3) // 2) * _reference_pair_product(n, -1, False)
    if r in (0, 2):
        n = order // 4 if r == 0 else (order - 2) // 4
        return 2 ** (n * (3 * n - 1) // 2) * _reference_pair_product(n, -1, False)
    n = (order + 3) // 4 if r == 1 else (order + 1) // 4
    return 2 ** (n * (3 * n - 3) // 2) * _reference_pair_product(n, -3, True)


@pytest.mark.parametrize("kind", QUARTER_KINDS)
def test_closed_form_matches_factor_by_factor_reference(kind):
    for order in range(1, 129):
        assert theorem1_value(kind, order) == _reference_theorem1(kind, order), order


def _position_ratio(a):
    total = Fraction(1)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            total *= Fraction(a[j] - a[i], j - i)
    return total


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n + 1), min_size=1))))
def test_hole_formulas_match_position_ratio(case):
    n, holes = case
    a = tuple(sorted(holes))
    m = len(a)
    want = _position_ratio(a)
    assert lemma5_value(m, n, a) == 2 ** (m * (m - 1) // 2) * want
    if a[-1] <= n:
        assert lemma4_value(m, n, a) == 2 ** (m * (m + 1) // 2) * want


@given(st.lists(st.integers(-10**6, 10**6), max_size=40))
def test_product_equals_math_prod(factors):
    assert _product(factors) == math.prod(factors)


def test_non_integral_ratio_is_a_mismatch():
    assert _as_int(Fraction(9 << 2, 12)) == 3
    with pytest.raises(CountMismatchError):
        _as_int(Fraction(1, 3))
    with pytest.raises(CountMismatchError):
        _as_int(Fraction(3 << 2, 8))
    with pytest.raises(CountMismatchError, match="0x"):
        _as_int(Fraction(10 ** 5000 + 1, 2))  # past str's 4300-digit limit for ints


def test_every_closed_form_is_pinned():
    # hex, not str: str of an int fails past 4300 digits
    lines = [hex(theorem1_value(kind, o)) for kind in QUARTER_KINDS for o in range(1, 301)]
    lines += [hex(aztec_diamond_value(n)) for n in range(1, 301)]
    lines += [hex(lemma4_value(2 * n, 4 * n, set_B(n))) for n in range(1, 76)]
    lines += [hex(lemma5_value(2 * n, 4 * n - 1, set_A(n))) for n in range(1, 76)]
    lines += [hex(delta(set_A(n))) for n in range(1, 76)]
    lines += [f"{hex(r.numerator)}/{hex(r.denominator)}" for r in map(lemma6_lhs, range(1, 101))]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "41e03e08d3872f133c6210e39e63b3ce63d3f878c4be98feb605ffc2034c2bef"


def test_lemma5_raises_on_an_odd_lemma4_value(monkeypatch):
    # lemma5 is lemma4 over 2^m, so a remainder is a mismatch, never a floor
    from aztec_tilings import formulas

    monkeypatch.setattr(formulas, "_lemma4", lambda m, n, a: 2 ** (m * (m + 1) // 2) + 1)
    with pytest.raises(CountMismatchError):
        formulas.lemma5_value(2, 3, (1, 4))


def test_theorem1_rejects_bad_order():
    with pytest.raises(InvalidOrderError):
        theorem1_value(PINWHEEL, 0)
    with pytest.raises(ValueError):
        theorem1_value("octant", 4)


@pytest.mark.parametrize("n", (0, -1))
def test_diamond_value_rejects_bad_order(n):
    with pytest.raises(InvalidOrderError, match=f"order must be in 1..300, got {n}"):
        aztec_diamond_value(n)


# The closed forms take the builders' orders: past MAX_ORDER, theorem1_value(PINWHEEL, 4000)
# once ran past 20 s and aztec_diamond_value(10**10) ran out of memory.
@pytest.mark.parametrize("order", [MAX_ORDER + 1, 2.0, True])
def test_closed_forms_refuse_what_the_builders_refuse(order):
    closed_forms = [aztec_diamond_value] + [functools.partial(theorem1_value, kind) for kind in QUARTER_KINDS]
    for closed_form in closed_forms:
        with pytest.raises(InvalidOrderError) as raised:
            closed_form(order)
        assert str(raised.value) == f"order must be in 1..{MAX_ORDER}, got {order!r}"


# lemma4_value(3, 5.5, (1, 3, 5)) and lemma4_value(3, 400, (1, 3, 5)) once returned 512, and
# lemma4_value(0, 5, ()) == lemma5_value(0, 5, ()) == 1 though no builder takes m = 0
@pytest.mark.parametrize("m, n, a, bad", [(3, 5.5, (1, 3, 5), 5.5), (3, MAX_ORDER + 100, (1, 3, 5), MAX_ORDER + 100),
                                          (3, 0, (1, 3, 5), 0), (3.0, 5, (1, 3, 5), 3.0),
                                          (True, 5, (1,), True), (0, 5, (), 0)])
def test_holey_closed_forms_refuse_what_the_builders_refuse(m, n, a, bad):
    for gate in (lemma4_value, lemma5_value, build_holey_ar, build_holey_ar_bar):
        with pytest.raises(InvalidOrderError) as raised:
            gate(m, n, a)
        assert str(raised.value) == f"order must be in 1..{MAX_ORDER}, got {bad!r}"


def test_holey_closed_forms_take_every_order_the_builders_take():
    # lemma5's positions run to n + 1, which passes MAX_ORDER at n = MAX_ORDER: only m and n are orders
    for closed_form, builder, a in ((lemma4_value, build_holey_ar, (1, MAX_ORDER)),
                                    (lemma5_value, build_holey_ar_bar, (1, MAX_ORDER + 1))):
        assert closed_form(2, MAX_ORDER, a) == count(builder(2, MAX_ORDER, a))


def test_diamond_values():
    assert aztec_diamond_value(1) == 2
    assert aztec_diamond_value(2) == 8
    assert aztec_diamond_value(4) == 1024


def test_lemma4_values():
    assert lemma4_value(3, 5, (1, 3, 5)) == 512
    assert lemma4_value(2, 4, (2, 3)) == 8
    for k in range(1, 6):
        assert lemma4_value(1, 5, (k,)) == 2


def test_lemma5_values():
    assert lemma5_value(3, 5, (3, 4, 6)) == 24
    assert lemma5_value(2, 3, (1, 4)) == 6
    assert lemma5_value(1, 1, (2,)) == 1


def test_hole_formula_preconditions():
    with pytest.raises(InvalidHolesError):
        lemma4_value(2, 4, (1, 2, 3))
    with pytest.raises(InvalidHolesError):
        lemma4_value(2, 4, (2, 5))
    with pytest.raises(InvalidHolesError):
        lemma5_value(2, 3, (4, 1))


def test_delta_values():
    assert delta((1, 4)) == 3
    assert delta((2, 3)) == 1
    assert delta((1, 3, 6, 8)) == 2100
    assert delta((7,)) == 1
    with pytest.raises(InvalidHolesError):
        delta(())
    for s in ((1.0, 3, 5), (1, 3.5), (True, 3)):
        with pytest.raises(InvalidHolesError, match="ints"):
            delta(s)


def test_difference_product_ratio():
    assert lemma6_lhs(1) == 3 == lemma6_rhs(1)
    assert lemma6_lhs(2) == Fraction(35, 3) == lemma6_rhs(2)
    assert lemma6_lhs(30) == lemma6_rhs(30)


@pytest.mark.parametrize("n", range(1, 51))
def test_ratio_identity_up_to_50(n):
    assert lemma6_lhs(n) == lemma6_rhs(n)


def _reference_delta(s):
    # The quadratic form: every pairwise difference listed, then one product.
    return _product([s[j] - s[i] for i in range(len(s)) for j in range(i + 1, len(s))])


def _reference_lemma6_rhs(n):
    # The explicit double product over 1 <= i, j <= n.
    steps = [2 * j - 2 * i for i in range(1, n + 1) for j in range(1, n + 1)]
    return Fraction(_product([2 * n + 1 + d for d in steps]),
                    _product([2 * n - 1 + d for d in steps]))


@pytest.mark.parametrize("n", [*range(1, 41), 100])
def test_lemma6_sides_match_the_quadratic_reference(n):
    a, b = _reference_delta(set_A(n)), _reference_delta(set_B(n))
    assert delta(set_A(n)) == a
    assert delta(set_B(n)) == b
    assert lemma6_lhs(n) == Fraction(a, b)
    assert lemma6_rhs(n) == _reference_lemma6_rhs(n)


def test_lemma6_pinned_values():
    # Exact values of the quadratic products; a ratio that loses either side fails.
    assert lemma6_lhs(3) == Fraction(231, 5) == lemma6_rhs(3)
    assert lemma6_lhs(10) == Fraction(240990435, 323) == lemma6_rhs(10)


@pytest.mark.parametrize("n", [-1, 0, 301])
def test_lemma6_sides_reject_the_same_orders(n):
    with pytest.raises(InvalidOrderError) as lhs:
        lemma6_lhs(n)
    with pytest.raises(InvalidOrderError) as rhs:
        lemma6_rhs(n)
    assert str(lhs.value) == str(rhs.value)


def test_lemma6_sides_accept_the_largest_order():
    assert lemma6_lhs(300) == lemma6_rhs(300)


@given(st.lists(st.integers(-8, 8) | st.integers(-10**12, 10**12), min_size=1, max_size=12))
def test_delta_sign_follows_the_order(values):
    s = tuple(values)
    assert delta(s) == _reference_delta(s)
    assert delta(s + s[:1]) == 0
    if len(set(s)) < len(s):
        assert delta(s) == 0
    else:
        inversions = sum(s[i] > s[j] for i in range(len(s)) for j in range(i + 1, len(s)))
        assert delta(s) == (-1) ** inversions * delta(tuple(sorted(s)))


@functools.cache
def _lemma1_cases() -> dict:
    """The lemma1 suite's cases for n = 1, 2 by id: expected 2^n M(right), actual M(left)."""
    return {c.case_id: c for c in run_suite("lemma1", max_n=2).cases}


@pytest.mark.parametrize("which", ("eq7", "eq8", "eq9", "eq10"))
@pytest.mark.parametrize("n", (1, 2))
def test_doubling_recurrences(which, n):
    assert _lemma1_cases()[f"{which}[n={n}]"].ok


@pytest.mark.parametrize("n", (1, 2))
def test_counted_rectangle_ratios_equal_delta_ratio(n):
    # The A-set and B-set variants of one rectangle differ in count by
    # exactly the ratio of their pairwise-difference products.
    from aztec_tilings.regions import build_holey_ar, build_holey_ar_bar, set_A, set_B

    want = lemma6_lhs(n)
    kept = Fraction(
        count(build_holey_ar(2 * n, 4 * n, set_A(n))),
        count(build_holey_ar(2 * n, 4 * n, set_B(n))),
    )
    barred = Fraction(
        count(build_holey_ar_bar(2 * n, 4 * n - 1, set_A(n))),
        count(build_holey_ar_bar(2 * n, 4 * n - 1, set_B(n))),
    )
    assert kept == want
    assert barred == want


def test_doubling_recurrence_examples():
    cases = _lemma1_cases()
    for which, value in (("eq7", "2"), ("eq9", "6"), ("eq10", "2")):
        case = cases[f"{which}[n=1]"]
        assert (case.expected, case.actual) == (value, value), which
