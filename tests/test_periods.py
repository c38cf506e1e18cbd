from fractions import Fraction

import pytest
from conftest import combine
from hypothesis import given
from hypothesis import strategies as st
from period_reference import (
    named_coords,
    reference_add,
    reference_conjugate,
    reference_format,
    reference_imag_in_pi_integers,
    reference_in_2pi_i_integers,
    reference_names,
    reference_scale,
)

from solvcohom.errors import ScalarParseError, ValidationFailure
from solvcohom.periods import (
    IMAGINARY,
    REAL,
    PeriodBasisSymbol,
    PeriodValue,
    SymbolTable,
    parse_period,
)
from solvcohom.scalars import I, MINUS_ONE, ONE, GaussianRational

TABLE = SymbolTable(("a", "c"))


def pv(text):
    return parse_period(text, TABLE)


def test_builtin_symbols_present():
    t = SymbolTable()
    assert all(t.has(name) for name in ("1", "i", "pi", "i*pi")) and not t.has("a")
    # i times a real symbol is its imaginary name; i times that is minus it.
    for real, imag in (("1", "i"), ("pi", "i*pi")):
        assert combine((I, parse_period(real, t))) == parse_period(imag, t)
        assert combine((I, parse_period(imag, t))) == parse_period("-" + real, t)


def test_user_symbols_come_in_pairs():
    assert TABLE.has("a") and TABLE.has("i*a") and not TABLE.has("i*i*a")
    assert all(TABLE.has(name) for name in reference_names(TABLE))
    assert combine((I, pv("c"))) == pv("i*c")
    assert combine((I, pv("i*c"))) == pv("-c")


def test_from_declarations_accepts_either_member():
    t = SymbolTable.from_declarations(
        [
            PeriodBasisSymbol("a", REAL),
            PeriodBasisSymbol("i*a", IMAGINARY),
            PeriodBasisSymbol("b", REAL),
        ]
    )
    assert t.user_base_names == ("a", "b")
    with pytest.raises(ValidationFailure):
        SymbolTable.from_declarations([PeriodBasisSymbol("b", IMAGINARY)])


def test_table_rejects_bad_names():
    with pytest.raises(ValidationFailure):
        SymbolTable(("2bad",))
    with pytest.raises(ValidationFailure):
        SymbolTable(("pi",))  # collides with a builtin
    with pytest.raises(ValidationFailure):
        SymbolTable(("a", "a"))


def text(value):
    return reference_format(named_coords(value), value.table)


def test_parse_and_format():
    v = pv("a + 2*i*pi")
    assert v == PeriodValue(TABLE, {"a": Fraction(1), "i*pi": Fraction(2)})
    assert text(v) == "2*i*pi + a"
    assert text(pv("1/2 - i")) == "1/2 - i"
    assert text(PeriodValue(TABLE, {})) == "0"
    assert parse_period("-i*pi", TABLE) == PeriodValue(TABLE, {"i*pi": Fraction(-1)})


def test_parse_rejects_garbage():
    for bad in ("", "q", "2**a", "a+", "pi pi", "1.5"):
        with pytest.raises(ScalarParseError):
            parse_period(bad, TABLE)


def test_products_are_rejected():
    with pytest.raises(TypeError):
        pv("a") * pv("c")
    with pytest.raises(TypeError):
        2 * pv("a")


def test_scale_by_i_uses_companions():
    # i * pi = i*pi, i * (i*pi) = -pi, and the same for user pairs.
    assert combine((I, pv("pi"))) == pv("i*pi")
    assert combine((I, pv("i*pi"))) == pv("-pi")
    assert combine((I, pv("a"))) == parse_period("i*a", TABLE)
    assert combine((I, pv("1"))) == pv("i")
    assert combine((I, pv("i"))) == pv("-1")


def test_scale_mixed_scalar():
    v = combine((GaussianRational(2, 1), pv("a + i*pi")))
    # 2(a + i*pi) + i(a + i*pi) = 2a + 2*i*pi + i*a - pi
    assert v == pv("2*a + 2*i*pi + i*a - pi")


def test_conjugation_negates_imaginary_parity():
    assert pv("a + 2*i*pi - i").conjugate() == pv("a - 2*i*pi + i")


def test_mixing_tables_fails():
    with pytest.raises(ValidationFailure):
        PeriodValue(TABLE, {"q": Fraction(1)})


def test_in_2pi_i_integers():
    assert pv("0").in_2pi_i_integers()
    assert pv("2*i*pi").in_2pi_i_integers()
    assert pv("-4*i*pi").in_2pi_i_integers()
    assert not pv("i*pi").in_2pi_i_integers()  # odd multiple
    assert not pv("3*i*pi").in_2pi_i_integers()
    assert not pv("1/2*i*pi").in_2pi_i_integers()
    assert not pv("2*i*pi + a").in_2pi_i_integers()
    assert not pv("pi").in_2pi_i_integers()
    assert not pv("i").in_2pi_i_integers()


def test_imag_in_pi_integers():
    # Real-parity coordinates are unconstrained here.
    assert pv("a + i*pi").imag_in_pi_integers()
    assert pv("a + 3*i*pi").imag_in_pi_integers()
    assert pv("a - 2*i*pi + pi").imag_in_pi_integers()
    assert pv("5 + 1/2*a").imag_in_pi_integers()
    assert not pv("a + i").imag_in_pi_integers()
    assert not pv("1/2*i*pi").imag_in_pi_integers()
    assert not parse_period("i*a", TABLE).imag_in_pi_integers()


def test_trivial_implies_ratio_trivial():
    for text in ("0", "2*i*pi", "-6*i*pi"):
        v = pv(text)
        assert v.in_2pi_i_integers()
        assert v.imag_in_pi_integers()


coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def period_values(draw):
    picks = draw(
        st.dictionaries(st.sampled_from(reference_names(TABLE)), coeffs, max_size=4)
    )
    return PeriodValue(TABLE, picks)


@given(period_values())
def test_conjugate_involution(v):
    assert v.conjugate().conjugate() == v


@given(period_values())
def test_round_trip_through_text(v):
    assert parse_period(text(v), TABLE) == v


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_2pi_i_lattice_additivity(m, n):
    v = PeriodValue(TABLE, {"i*pi": Fraction(2 * m)})
    w = PeriodValue(TABLE, {"i*pi": Fraction(2 * n)})
    assert combine((ONE, v), (ONE, w)).in_2pi_i_integers()
    assert combine((MINUS_ONE, v)).in_2pi_i_integers()


small_coeffs = st.one_of(
    st.sampled_from([Fraction(k) for k in (0, 1, -1, 2, -2, 4)]), coeffs
)
gaussians = st.builds(GaussianRational, small_coeffs, small_coeffs)


@st.composite
def tables_and_coords(draw):
    """A table with 0-2 user symbols and two name-keyed rational values.

    Names are sometimes drawn from pi, i*pi and the real user symbols
    only, so that both membership tests also see values that pass.
    """
    bases = draw(st.lists(st.sampled_from(["a", "b", "s"]), unique=True, max_size=2))
    table = SymbolTable(bases)
    names = reference_names(table)
    pool = draw(st.sampled_from([names, ("i*pi",), ("pi", "i*pi", *bases)]))
    values = st.dictionaries(st.sampled_from(pool), small_coeffs, max_size=4)
    return table, draw(values), draw(values)


@given(tables_and_coords(), gaussians, gaussians)
def test_agrees_with_the_name_keyed_reference(case, s, t):
    table, coords, other = case
    ref = {name: c for name, c in coords.items() if c}
    ref_other = {name: c for name, c in other.items() if c}
    v, w = PeriodValue(table, coords), PeriodValue(table, other)
    assert v == PeriodValue(table, ref)
    assert named_coords(v) == ref
    scaled = reference_scale(ref, s)
    assert combine((s, v)) == PeriodValue(table, scaled)
    acc = {}
    v.add_scaled_into(acc, s)
    w.add_scaled_into(acc, t)
    both = reference_add(reference_scale(ref, s), reference_scale(ref_other, t))
    assert PeriodValue.from_symbols(table, acc) == PeriodValue(table, both)
    assert all(acc.values())
    assert v.conjugate() == PeriodValue(table, reference_conjugate(ref))
    for value, named in ((v, ref), (combine((s, v)), scaled)):
        assert value.in_2pi_i_integers() == reference_in_2pi_i_integers(named)
        assert value.imag_in_pi_integers() == reference_imag_in_pi_integers(named)
