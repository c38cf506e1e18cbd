from fractions import Fraction
from math import gcd

import pytest
from fraction_reference import fraction_format_gaussian
from hypothesis import example, given
from hypothesis import strategies as st

from solvcohom.errors import ScalarParseError
from solvcohom.lattice import parse_period, period_names
from solvcohom.scalars import (
    I,
    MINUS_ONE,
    ONE,
    ZERO,
    GaussianRational,
    format_gaussian,
    parse_gaussian,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_constructor_and_parts():
    v = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert v.re == Fraction(1, 2)
    assert v.im == -3


def test_immutability():
    v = GaussianRational(1)
    with pytest.raises(AttributeError):
        v.re = Fraction(2)


def test_field_operations():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    # (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
    assert a * b == GaussianRational(5, 5)
    assert a / a == ONE
    assert (a / b) * b == a
    assert -a == GaussianRational(-1, -2)


def test_inverse_and_zero_division():
    assert I.inverse() == GaussianRational(0, -1)
    assert GaussianRational(2).inverse() == GaussianRational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conjugate():
    assert GaussianRational(1, 2).conjugate() == GaussianRational(1, -2)
    assert GaussianRational(5).conjugate() == GaussianRational(5)


def test_truthiness():
    assert not ZERO
    assert ONE


def test_parse_basic_forms():
    assert parse_gaussian("0") == ZERO
    assert parse_gaussian("1") == ONE
    assert parse_gaussian("-1") == MINUS_ONE
    assert parse_gaussian("i") == I
    assert parse_gaussian("-i") == GaussianRational(0, -1)
    assert parse_gaussian("1/2-3*i") == GaussianRational(Fraction(1, 2), -3)
    assert parse_gaussian("-2/3*i") == GaussianRational(0, Fraction(-2, 3))
    assert parse_gaussian(" 1 + i ") == GaussianRational(1, 1)


def test_parse_rejects_garbage():
    for bad in ("", "+", "1+", "x", "1..2", "2i", "i*i", "--1"):
        with pytest.raises(ScalarParseError):
            parse_gaussian(bad)


MALFORMED = "malformed {} literal: {!r}"
NOT_RATIONAL = "not a rational literal: {!r}"
BAD_TERM = "bad period term {!r} in {!r}"


SIGNED_SUM_ERRORS = [
    ("", "empty scalar literal", "empty period literal"),
    (" ", "empty scalar literal", "empty period literal"),
    *[
        (t, MALFORMED.format("scalar", t), MALFORMED.format("period", t))
        for t in ("+", "-", "1+", "1++i", "--1", "1-+a")
    ],
    ("1/0", "zero denominator in '1/0'", "zero denominator in '1/0'"),
    *[(t, NOT_RATIONAL.format(t), BAD_TERM.format(t, t)) for t in ("x", "a*2", "1/2*")],
    ("1 + x", NOT_RATIONAL.format("1 + x"), BAD_TERM.format("+x", "1 + x")),
]


@pytest.mark.parametrize(
    "text,scalar_error,period_error",
    SIGNED_SUM_ERRORS,
    ids=[repr(case[0]) for case in SIGNED_SUM_ERRORS],
)
def test_both_signed_sum_parsers_word_each_error_alike(text, scalar_error, period_error):
    # parse_gaussian and parse_period share one tokenizer; instance files
    # report these texts, so they must not drift apart.
    with pytest.raises(ScalarParseError) as scalar:
        parse_gaussian(text)
    assert str(scalar.value) == scalar_error
    with pytest.raises(ScalarParseError) as period:
        parse_period(text, period_names(["a"]))
    assert str(period.value) == period_error


def test_format_canonical():
    assert format_gaussian(ZERO) == "0"
    assert format_gaussian(GaussianRational(0, 1)) == "i"
    assert format_gaussian(GaussianRational(0, -1)) == "-i"
    assert format_gaussian(GaussianRational(Fraction(1, 2), -3)) == "1/2-3*i"
    assert format_gaussian(GaussianRational(-1, Fraction(2, 7))) == "-1+2/7*i"
    # Stored as (2 + i)/4, each part reduced on its own.
    assert format_gaussian(GaussianRational(Fraction(1, 2), Fraction(1, 4))) == "1/2+1/4*i"


@given(gaussians)
def test_parse_format_round_trip(v):
    assert parse_gaussian(format_gaussian(v)) == v


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(gaussians)
def test_norm_is_rational(v):
    n = v * v.conjugate()
    assert n.im == 0
    assert n.re >= 0


def test_sort_key_orders_lexicographically():
    vals = [GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1, 5), ZERO]
    ordered = sorted(vals, key=lambda g: g.sort_key())
    assert ordered == [GaussianRational(-1, 5), ZERO, GaussianRational(0, 1), GaussianRational(1)]


def test_hashable():
    assert len({GaussianRational(1, 2), GaussianRational(1, 2), GaussianRational(2, 1)}) == 2


# -- the integer kernel against a plain (Fraction, Fraction) reference ----

big_rationals = st.builds(
    Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)
)
parts = st.one_of(rationals, big_rationals)
pairs = st.tuples(parts, parts)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def as_pair(v):
    return (v.re, v.im)


@given(pairs, pairs)
def test_arithmetic_matches_fraction_reference(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert as_pair(a) == x
    assert as_pair(a + b) == (x[0] + y[0], x[1] + y[1])
    assert as_pair(a - b) == (x[0] - y[0], x[1] - y[1])
    assert as_pair(a * b) == ref_mul(x, y)
    assert as_pair(-a) == (-x[0], -x[1])
    assert as_pair(a.conjugate()) == (x[0], -x[1])
    if any(y):
        assert as_pair(a / b) == ref_div(x, y)
        assert as_pair(b.inverse()) == ref_div((Fraction(1), Fraction(0)), y)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    assert bool(a) == any(x)
    assert (a == b) == (x == y)
    assert (a.sort_key() < b.sort_key()) == (x < y)
    assert str(a) == fraction_format_gaussian(a)
    assert parse_gaussian(str(a)) == a


@given(pairs)
def test_parts_are_read_only_fractions(x):
    v = GaussianRational(*x)
    assert type(v.re) is Fraction and type(v.im) is Fraction
    for name in ("re", "im", "_abd"):
        with pytest.raises(AttributeError):
            setattr(v, name, Fraction(1))
    assert as_pair(v) == x


@given(pairs)
def test_hash_is_the_hash_of_the_parts(x):
    # Set iteration order follows the hash, and reports iterate sets of
    # scalars, so the hash must not change with the storage.
    v = GaussianRational(*x)
    assert hash(v) == hash((v.re, v.im)) == hash(x)


def canonical_triple(re_f, im_f):
    """(a, b, d) with (a + b*i)/d == re_f + im_f*i, d > 0 and gcd(a, b, d) == 1."""
    d = re_f.denominator * im_f.denominator // gcd(re_f.denominator, im_f.denominator)
    return (int(re_f * d), int(im_f * d), d)


small_integers = st.integers(-6, 6).map(Fraction)
gaussian_integer_pairs = st.tuples(small_integers, small_integers)


@given(
    st.one_of(
        st.tuples(gaussian_integer_pairs, gaussian_integer_pairs),
        st.tuples(gaussian_integer_pairs, pairs),
        st.tuples(pairs, gaussian_integer_pairs),
    )
)
# Results that cancel: both parts, one part, or down to a Gaussian integer.
@example(((Fraction(3), Fraction(-2)), (Fraction(3), Fraction(-2))))
@example(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))))
@example(((Fraction(1, 2), Fraction(1)), (Fraction(1, 2), Fraction(1))))
@example(((Fraction(1, 2), Fraction(4)), (Fraction(-1, 2), Fraction(4))))
@example(((Fraction(5), Fraction(2, 3)), (Fraction(0), Fraction(2, 3))))
@example(((Fraction(5), Fraction(2, 3)), (Fraction(0), Fraction(0))))
def test_sums_differences_and_products_store_the_canonical_triple(xy):
    # Two Gaussian integers are wrapped without _reduced; mixed operands are not.
    x, y = xy
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert (a + b)._abd == canonical_triple(x[0] + y[0], x[1] + y[1])
    assert (a - b)._abd == canonical_triple(x[0] - y[0], x[1] - y[1])
    assert (a * b)._abd == canonical_triple(*ref_mul(x, y))


@given(pairs)
# gcd(a, d) > 1 or gcd(b, d) > 1 in the triple, +-i, pure imaginary and
# negative parts.
@example((Fraction(1, 2), Fraction(1, 4)))
@example((Fraction(-5, 6), Fraction(3, 4)))
@example((Fraction(0), Fraction(1)))
@example((Fraction(0), Fraction(-1)))
@example((Fraction(0), Fraction(-7, 3)))
@example((Fraction(-2**80, 3), Fraction(0)))
@example((Fraction(3, 2), Fraction(-1)))
@example((Fraction(0), Fraction(0)))
def test_format_matches_the_fraction_text(x):
    v = GaussianRational(*x)
    assert format_gaussian(v) == fraction_format_gaussian(v)


@pytest.mark.parametrize(
    "text,triple",
    [
        ("2/4-6/8*i", (2, -3, 4)),
        ("2/4+1/4*i", (2, 1, 4)),
        ("+0/3", (0, 0, 1)),
        ("-i+i", (0, 0, 1)),
        ("1/6+1/6-1/3*i-i", (1, -4, 3)),
        ("-10/4*i+0*i", (0, -5, 2)),
    ],
)
def test_parsed_scalars_store_the_canonical_triple(text, triple):
    assert parse_gaussian(text).triple == triple


@pytest.mark.parametrize(
    "text,value",
    [
        ("2/4-6/8*i", {"1": (2, -3, 4)}),
        ("+0/3", {}),
        ("-i+i", {}),
        ("a + 1/2*a - i*a + 1/3*i*a", {"a": (9, -4, 6)}),
        ("pi - 2/4*pi + i*pi - 3/6*i*pi", {"pi": (1, 1, 2)}),
        ("2*a - 4/2*a + 6/4*pi", {"pi": (3, 0, 2)}),
    ],
)
def test_parsed_periods_store_the_canonical_triple(text, value):
    parsed = parse_period(text, period_names(["a"]))
    assert {s: c.triple for s, c in parsed.items()} == value


@given(pairs, pairs)
def test_not_equal_is_not_equal(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert (a != b) == (not a == b) == (x != y)
    assert (a != GaussianRational(*x)) is False
    for other in (x, "1", 1, None):
        assert (a != other) is True and (a == other) is False


def test_unreduced_and_mixed_inputs_are_canonical():
    half = GaussianRational(Fraction(2, 4), 0)
    assert half == GaussianRational(Fraction(1, 2)) == parse_gaussian("1/2")
    assert hash(half) == hash(parse_gaussian("1/2"))
    assert GaussianRational(Fraction(3, 6), Fraction(-5, 10)) == parse_gaussian("1/2-1/2*i")
    sixth_quarter = GaussianRational(Fraction(1, 6), Fraction(1, 4))
    assert sixth_quarter * GaussianRational(12) == GaussianRational(2, 3)
    third_i = GaussianRational(Fraction(1, 3), 1)
    assert third_i - third_i == ZERO
    assert hash(third_i - third_i) == hash(ZERO)
    huge = GaussianRational(Fraction(2**70 + 1, 3), -(2**65))
    assert (huge / huge) == ONE
    assert huge * huge.inverse() == ONE


def test_each_operation_is_one_counted_call(monkeypatch):
    # Benchmark traces count scalar work by wrapping these methods, so
    # no method may reach another one (inverse() is counted as its `/`).
    counts = {}
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__bool__", "__neg__"):
        method = getattr(GaussianRational, name)

        def wrapper(*args, _name=name, _method=method):
            counts[_name] = counts.get(_name, 0) + 1
            return _method(*args)

        monkeypatch.setattr(GaussianRational, name, wrapper)
    a, b = GaussianRational(Fraction(1, 2), 3), GaussianRational(-2, Fraction(1, 3))
    for expr, name in [
        (lambda: a + b, "__add__"),
        (lambda: a - b, "__sub__"),
        (lambda: a * b, "__mul__"),
        (lambda: a / b, "__truediv__"),
        (lambda: a.inverse(), "__truediv__"),
        (lambda: bool(a), "__bool__"),
        (lambda: -a, "__neg__"),
    ]:
        counts.clear()
        expr()
        assert counts == {name: 1}
    counts.clear()
    a.conjugate(), a == b, a != b, hash(a), a.sort_key(), str(a)
    assert counts == {}
