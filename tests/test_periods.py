from fractions import Fraction

import pytest
from conftest import combine, make_split_6d
from fraction_reference import fraction_imag_in_pi_integers, fraction_in_2pi_i_integers
from hypothesis import example, given
from hypothesis import strategies as st
from period_reference import (
    named_coords,
    package_value,
    reference_add,
    reference_conjugate,
    reference_format,
    reference_imag_in_pi_integers,
    reference_in_2pi_i_integers,
    reference_names,
    reference_scale,
)

from solvcohom.errors import ScalarParseError, ValidationFailure
from solvcohom.lattice import (
    IMAGINARY,
    REAL,
    LatticeData,
    declared_symbols,
    imag_in_pi_integers,
    in_2pi_i_integers,
    parse_period,
    period_names,
    validate_lattice,
)
from solvcohom.scalars import I, MINUS_ONE, ONE, GaussianRational

SYMBOLS = ("a", "c")
NAMES = period_names(SYMBOLS)


def pv(text):
    return parse_period(text, NAMES)


def test_builtin_symbols_present():
    names = period_names(())
    assert set(names) == {"1", "i", "pi", "i*pi"}
    # i times a real symbol is its imaginary name; i times that is minus it.
    for real, imag in (("1", "i"), ("pi", "i*pi")):
        assert combine((I, parse_period(real, names))) == parse_period(imag, names)
        assert combine((I, parse_period(imag, names))) == parse_period("-" + real, names)


def test_user_symbols_come_in_pairs():
    assert NAMES["a"] == ("a", ONE) and NAMES["i*a"] == ("a", I) and "i*i*a" not in NAMES
    assert set(NAMES) == set(reference_names(SYMBOLS))
    assert combine((I, pv("c"))) == pv("i*c")
    assert combine((I, pv("i*c"))) == pv("-c")


def test_from_declarations_accepts_either_member():
    declarations = [("a", REAL), ("i*a", IMAGINARY), ("b", REAL), ("a", REAL)]
    assert declared_symbols(declarations) == ("a", "b")
    with pytest.raises(ValidationFailure):
        declared_symbols([("b", IMAGINARY)])


def test_table_rejects_bad_names():
    with pytest.raises(ValidationFailure):
        declared_symbols([("2bad", REAL)])
    with pytest.raises(ValidationFailure):
        declared_symbols([("pi", REAL)])  # collides with a builtin
    with pytest.raises(ValidationFailure):
        declared_symbols([("i*i", IMAGINARY)])
    with pytest.raises(ValidationFailure):
        declared_symbols([("a", "complex")])


def text(value):
    return reference_format(named_coords(value), SYMBOLS)


def test_parse_and_format():
    v = pv("a + 2*i*pi")
    assert v == {"a": ONE, "pi": GaussianRational(0, 2)}
    assert text(v) == "2*i*pi + a"
    assert text(pv("1/2 - i")) == "1/2 - i"
    assert text({}) == "0"
    assert pv("-i*pi") == {"pi": -I}
    assert pv("i*pi - i*pi + a - a") == {}


def test_parse_rejects_garbage():
    for bad in ("", "q", "2**a", "a+", "pi pi", "1.5"):
        with pytest.raises(ScalarParseError):
            parse_period(bad, NAMES)


def test_products_are_rejected():
    # A period value is a plain dict: nothing multiplies two of them, and
    # scaling goes through evaluate_weight_on_generator.
    with pytest.raises(TypeError):
        pv("a") * pv("c")
    with pytest.raises(TypeError):
        2 * pv("a")


def test_scale_by_i_uses_companions():
    # i * pi = i*pi, i * (i*pi) = -pi, and the same for user pairs.
    assert combine((I, pv("pi"))) == pv("i*pi")
    assert combine((I, pv("i*pi"))) == pv("-pi")
    assert combine((I, pv("a"))) == pv("i*a")
    assert combine((I, pv("1"))) == pv("i")
    assert combine((I, pv("i"))) == pv("-1")


def test_scale_mixed_scalar():
    v = combine((GaussianRational(2, 1), pv("a + i*pi")))
    # 2(a + i*pi) + i(a + i*pi) = 2a + 2*i*pi + i*a - pi
    assert v == pv("2*a + 2*i*pi + i*a - pi")


def _real_point(first, second):
    """Whether (first, second) is a real point of split_6d's complement."""
    lattice = LatticeData(SYMBOLS, ((pv(first), pv(second)),))
    return validate_lattice(make_split_6d(), lattice) == ()


def test_conjugation_negates_imaginary_parity():
    # split_6d's conjugation swaps its two complement coordinates.
    assert _real_point("a + 2*i*pi - i", "a - 2*i*pi + i")
    assert _real_point("a + c - 1/2", "a + c - 1/2")
    assert not _real_point("a + 2*i*pi - i", "a + 2*i*pi - i")
    assert not _real_point("i*a", "i*a")


def test_mixing_tables_fails():
    # Names of symbols another declaration made are not period terms.
    for bad in ("c", "i*c", "2*c"):
        with pytest.raises(ScalarParseError) as excinfo:
            parse_period(bad, period_names(["a"]))
        assert str(excinfo.value) == f"bad period term {bad!r} in {bad!r}"


def test_in_2pi_i_integers():
    assert in_2pi_i_integers(pv("0"))
    assert in_2pi_i_integers(pv("2*i*pi"))
    assert in_2pi_i_integers(pv("-4*i*pi"))
    assert not in_2pi_i_integers(pv("i*pi"))  # odd multiple
    assert not in_2pi_i_integers(pv("3*i*pi"))
    assert not in_2pi_i_integers(pv("1/2*i*pi"))
    assert not in_2pi_i_integers(pv("2*i*pi + a"))
    assert not in_2pi_i_integers(pv("pi"))
    assert not in_2pi_i_integers(pv("i"))


def test_imag_in_pi_integers():
    # Real-parity coordinates are unconstrained here.
    assert imag_in_pi_integers(pv("a + i*pi"))
    assert imag_in_pi_integers(pv("a + 3*i*pi"))
    assert imag_in_pi_integers(pv("a - 2*i*pi + pi"))
    assert imag_in_pi_integers(pv("5 + 1/2*a"))
    assert not imag_in_pi_integers(pv("a + i"))
    assert not imag_in_pi_integers(pv("1/2*i*pi"))
    assert not imag_in_pi_integers(pv("i*a"))


def test_trivial_implies_ratio_trivial():
    for text in ("0", "2*i*pi", "-6*i*pi"):
        v = pv(text)
        assert in_2pi_i_integers(v)
        assert imag_in_pi_integers(v)


coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def period_values(draw):
    picks = draw(
        st.dictionaries(st.sampled_from(reference_names(SYMBOLS)), coeffs, max_size=4)
    )
    return package_value(picks, SYMBOLS)


@given(period_values())
def test_conjugate_involution(v):
    # A real point needs each coordinate of the pair to be the other's
    # conjugate, so the package conjugates v and its conjugate back.
    conjugate = package_value(reference_conjugate(named_coords(v)), SYMBOLS)
    assert validate_lattice(make_split_6d(), LatticeData(SYMBOLS, ((v, conjugate),))) == ()


@given(period_values())
def test_round_trip_through_text(v):
    assert parse_period(text(v), NAMES) == v


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_2pi_i_lattice_additivity(m, n):
    v = package_value({"i*pi": Fraction(2 * m)}, SYMBOLS)
    w = package_value({"i*pi": Fraction(2 * n)}, SYMBOLS)
    assert in_2pi_i_integers(combine((ONE, v), (ONE, w)))
    assert in_2pi_i_integers(combine((MINUS_ONE, v)))


small_coeffs = st.one_of(
    st.sampled_from([Fraction(k) for k in (0, 1, -1, 2, -2, 4)]), coeffs
)
gaussians = st.builds(GaussianRational, small_coeffs, small_coeffs)


@st.composite
def tables_and_coords(draw):
    """0-2 declared symbols and two name-keyed rational values over them.

    Names are sometimes drawn from pi, i*pi and the real user symbols
    only, so that both membership tests also see values that pass.
    """
    bases = draw(st.lists(st.sampled_from(["a", "b", "s"]), unique=True, max_size=2))
    names = reference_names(bases)
    pool = draw(st.sampled_from([names, ("i*pi",), ("pi", "i*pi", *bases)]))
    values = st.dictionaries(st.sampled_from(pool), small_coeffs, max_size=4)
    return tuple(bases), draw(values), draw(values)


@given(tables_and_coords(), gaussians, gaussians)
def test_agrees_with_the_name_keyed_reference(case, s, t):
    symbols, coords, other = case
    ref = {name: c for name, c in coords.items() if c}
    ref_other = {name: c for name, c in other.items() if c}
    v, w = package_value(coords, symbols), package_value(other, symbols)
    assert v == package_value(ref, symbols)
    assert named_coords(v) == ref
    scaled = reference_scale(ref, s)
    assert named_coords(combine((s, v))) == scaled
    both = reference_add(reference_scale(ref, s), reference_scale(ref_other, t))
    total = combine((s, v), (t, w))
    assert named_coords(total) == both
    assert all(total.values())
    # Real points: the conjugate coordinate passes, and v itself only if real.
    split_6d = make_split_6d()
    conjugate = package_value(reference_conjugate(ref), symbols)
    assert validate_lattice(split_6d, LatticeData(symbols, ((v, conjugate),))) == ()
    assert (validate_lattice(split_6d, LatticeData(symbols, ((v, v),))) == ()) == (
        reference_conjugate(ref) == ref
    )
    for value, named in ((v, ref), (combine((s, v)), scaled)):
        assert in_2pi_i_integers(value) == reference_in_2pi_i_integers(named)
        assert imag_in_pi_integers(value) == reference_imag_in_pi_integers(named)


quarters = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
parts = st.one_of(st.just(Fraction(0)), quarters)


@st.composite
def membership_values(draw):
    """Period values over "1", pi and a declared symbol, denominators 1 to 4.

    pi alone is drawn often, and pi with a zero real part, so that both
    membership tests also see values that pass.
    """
    pool = draw(st.sampled_from([("pi",), ("pi", "a"), ("1", "pi", "a")]))
    value = {}
    for symbol in draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)):
        re_part = draw(st.one_of(st.just(Fraction(0)), parts))
        coeff = GaussianRational(re_part, draw(parts))
        if coeff:
            value[symbol] = coeff
    return value


@given(membership_values())
# Im on pi an integer over d != 1, a real part on pi, an imaginary part on a
# declared symbol or on "1", and the empty value.
@example({"pi": GaussianRational(Fraction(1, 2), 2)})
@example({"pi": GaussianRational(Fraction(1, 3), 3)})
@example({"pi": GaussianRational(0, Fraction(3, 2))})
@example({"pi": GaussianRational(0, -4)})
@example({"pi": GaussianRational(Fraction(-1, 4))})
@example({"a": GaussianRational(Fraction(1, 4))})
@example({"a": GaussianRational(0, Fraction(1, 4)), "pi": GaussianRational(0, 2)})
@example({"1": GaussianRational(0, 2)})
@example({})
def test_membership_tests_agree_with_the_fraction_reference(value):
    trivial, ratio = in_2pi_i_integers(value), imag_in_pi_integers(value)
    assert trivial == fraction_in_2pi_i_integers(value)
    assert ratio == fraction_imag_in_pi_integers(value)
    assert trivial == reference_in_2pi_i_integers(named_coords(value))
    assert ratio == reference_imag_in_pi_integers(named_coords(value))
