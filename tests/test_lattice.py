import functools
from fractions import Fraction

import pytest
from conftest import (
    INSTANCE_DIR,
    char_trivial_on_lattice,
    kept_indices,
    make_split_6d,
    ratio_char_trivial_on_lattice,
    zero_tag_indices,
)
from hypothesis import given
from hypothesis import strategies as st
from period_reference import (
    named_coords,
    package_value,
    reference_add,
    reference_names,
    reference_scale,
)

from solvcohom import lattice
from solvcohom.cecomplex import cohomology
from solvcohom.errors import ModeMismatchError, ValidationFailure
from solvcohom.instances import build_representation, build_weight_assignment, load_instance
from solvcohom.lattice import (
    LatticeData,
    char_unitary,
    check_conditions,
    dolbeault_hodge_table,
    evaluate_weight_on_generator,
    parse_period,
    period_names,
    select_de_rham,
    select_dolbeault,
    validate_lattice,
)
from solvcohom.liealg import adjoint_representation, trivial_representation
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational, parse_gaussian
from solvcohom.weights import InvariantComplex, build_invariant_complex, infer_weights


def make_lattice(symbols, rows):
    names = period_names(symbols)
    return LatticeData(
        tuple(symbols), tuple(tuple(parse_period(t, names) for t in row) for row in rows)
    )


def invariant(g, rep=None):
    rep = rep if rep is not None else trivial_representation(g)
    return build_invariant_complex(g, rep, infer_weights(g, rep))


@pytest.fixture
def split_6d_ic(split_6d):
    return invariant(split_6d, adjoint_representation(split_6d))


def pi_lattice_6d():
    return make_lattice(
        ["a", "c"], [["a + i*pi", "a - i*pi"], ["c + i*pi", "c - i*pi"]]
    )


def generic_lattice_6d():
    return make_lattice(["a", "c"], [["a + i", "a - i"], ["c + i", "c - i"]])


def test_evaluate_weight_on_generator():
    names = period_names(["a"])
    gen = [parse_period("a + i*pi", names), parse_period("a - i*pi", names)]
    value = evaluate_weight_on_generator((ONE, MINUS_ONE), gen)
    assert value == parse_period("2*i*pi", names)
    doubled = evaluate_weight_on_generator((GaussianRational(2), ZERO), gen)
    assert doubled == parse_period("2*i*pi + 2*a", names)
    # Terms that cancel leave no coefficient behind.
    assert evaluate_weight_on_generator((ONE, ONE), gen) == parse_period("2*a", names)


_SYMBOLS = ("a", "b")
_fractions = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
_NAMES = reference_names(_SYMBOLS)
_periods = st.builds(
    lambda cs: package_value(dict(zip(_NAMES, cs)), _SYMBOLS),
    st.lists(_fractions, min_size=len(_NAMES), max_size=len(_NAMES)),
)
_scalars = st.builds(GaussianRational, _fractions, _fractions)


@given(data=st.data(), width=st.integers(0, 4))
def test_evaluate_weight_equals_scale_and_add_fold(data, width):
    # One accumulated dict must give exactly the value of summing the
    # mu_j * delta_j terms in the name-keyed reference.
    mu = data.draw(st.lists(_scalars, min_size=width, max_size=width))
    gen = data.draw(st.lists(_periods, min_size=width, max_size=width))
    fold = {}
    for coeff, coord in zip(mu, gen):
        fold = reference_add(fold, reference_scale(named_coords(coord), coeff))
    value = evaluate_weight_on_generator(tuple(mu), gen)
    assert value == package_value(fold, _SYMBOLS)
    assert named_coords(value) == fold


def test_character_triviality_predicates():
    lat = make_lattice(["a"], [["a + i*pi", "a - i*pi"]])
    assert char_trivial_on_lattice((ONE, MINUS_ONE), lat)
    assert not char_trivial_on_lattice((ONE, ZERO), lat)
    # Im(a + i*pi) = pi is an integer multiple of pi.
    assert ratio_char_trivial_on_lattice((ONE, ZERO), lat)
    assert not ratio_char_trivial_on_lattice((parse_gaussian("1/2"), ZERO), lat)
    assert not ratio_char_trivial_on_lattice((parse_gaussian("i"), ZERO), lat)


def test_empty_lattice_accepts_everything():
    lat = LatticeData((), ())
    assert char_trivial_on_lattice((ONE,), lat)
    assert ratio_char_trivial_on_lattice((ONE,), lat)


def test_lattice_coordinates_share_its_symbol_table():
    # A coordinate may use 1, pi and the lattice's declared symbols only.
    names = period_names(["a", "b"])
    LatticeData(("a",), ((parse_period("a + i*pi - 1", names),),))
    with pytest.raises(ValidationFailure) as excinfo:
        LatticeData(("a",), ((parse_period("a + i*pi", names), parse_period("b", names)),))
    assert str(excinfo.value) == "generator coordinate uses undeclared symbol 'b'"
    # A stored zero would make equal values compare unequal, as in the
    # real-point check of validate_lattice.
    with pytest.raises(ValidationFailure) as excinfo:
        LatticeData(("a",), (({"a": ZERO, "pi": ONE},),))
    assert str(excinfo.value) == "generator coordinate has a zero coefficient on 'a'"


def test_char_unitary(split_6d, split_3d):
    # Conjugation swaps the two complement directions, so (1, -1) pairs
    # with itself while (1, 0) picks up modulus.
    assert char_unitary((ONE, MINUS_ONE), split_6d) is True
    assert char_unitary((ONE, ZERO), split_6d) is False
    assert char_unitary((ZERO, ZERO), split_6d) is True
    assert char_unitary((ONE,), split_3d) is None


def test_validate_lattice_width(split_6d):
    lat = make_lattice(["a"], [["a + i*pi"]])
    issues = validate_lattice(split_6d, lat)
    assert "lattice-width" in [i.code for i in issues]


def test_validate_lattice_conjugation(split_6d):
    lat = make_lattice(["a", "c"], [["a + i*pi", "c - i*pi"]])
    issues = validate_lattice(split_6d, lat)
    assert "lattice-conjugation" in [i.code for i in issues]
    good = pi_lattice_6d()
    assert validate_lattice(split_6d, good) == ()


def test_de_rham_selection_pi_lattice(split_6d_ic):
    sel = select_de_rham(split_6d_ic, pi_lattice_6d())
    assert sel.kind == "derham"
    assert sel.complex.dims == (2, 12, 26, 32, 26, 12, 2)
    assert cohomology(sel.complex).betti == (0, 6, 14, 12, 8, 6, 2)


def test_de_rham_selection_generic_lattice(split_6d_ic):
    sel = select_de_rham(split_6d_ic, generic_lattice_6d())
    assert sel.complex.dims == (2, 8, 14, 16, 14, 8, 2)
    assert cohomology(sel.complex).betti == (0, 2, 6, 8, 8, 6, 2)


def test_zero_tags_always_kept(split_6d_ic):
    sel = select_de_rham(split_6d_ic, generic_lattice_6d())
    zeros = zero_tag_indices(split_6d_ic)
    for p, kept in enumerate(kept_indices(split_6d_ic, sel)):
        for i in zeros[p]:
            assert i in kept


def test_selection_scans_the_tag_ids_once(split_6d_ic, monkeypatch):
    # restrict_complex's scan over every cochain is the selection's only one.
    calls = []
    scan = InvariantComplex.indices_with_tag_ids
    monkeypatch.setattr(
        InvariantComplex,
        "indices_with_tag_ids",
        lambda ic, tag_ids: calls.append(1) or scan(ic, tag_ids),
    )
    select_de_rham(split_6d_ic, generic_lattice_6d())
    assert len(calls) == 1


def test_dolbeault_selection_pi_lattice(split_3d):
    ic = invariant(split_3d)
    sel = select_dolbeault(ic, make_lattice(["a"], [["a + i*pi"]]))
    assert sel.complex.dims == (1, 3, 3, 1)
    assert cohomology(sel.complex).betti == (1, 3, 3, 1)


def test_dolbeault_selection_generic_lattice(split_3d):
    ic = invariant(split_3d)
    sel = select_dolbeault(ic, make_lattice(["c"], [["c + i"]]))
    assert sel.complex.dims == (1, 1, 1, 1)
    assert cohomology(sel.complex).betti == (1, 1, 1, 1)


def test_selection_mode_mismatch(split_3d, split_6d_ic):
    ic = invariant(split_3d)
    lat = LatticeData((), ())
    with pytest.raises(ModeMismatchError):
        select_de_rham(ic, lat)
    with pytest.raises(ModeMismatchError):
        select_dolbeault(split_6d_ic, lat)


def test_conditions_nilpotent(heisenberg):
    ic = invariant(heisenberg)
    report = check_conditions(ic, LatticeData((), ()))
    assert report.diamond1 is True
    assert report.diamond2 is True
    assert report.star is True
    assert report.box is True
    assert report.witnesses == ()


def test_conditions_split_3d_pi(split_3d):
    ic = invariant(split_3d)
    report = check_conditions(ic, make_lattice(["a"], [["a + i*pi"]]))
    assert report.diamond1 is True
    assert report.diamond2 is None  # no conjugation table
    assert report.star is False
    assert report.box is True
    assert any(w.condition == "star" for w in report.witnesses)


def test_conditions_split_3d_generic(split_3d):
    ic = invariant(split_3d)
    report = check_conditions(ic, make_lattice(["c"], [["c + i"]]))
    assert report.diamond1 is True
    assert report.diamond2 is None
    assert report.star is True
    assert report.box is False
    box = [w for w in report.witnesses if w.condition == "box"]
    assert {w.label for w in box} == {"e2", "e3"}
    assert all(w.degree == -1 for w in box)


def test_conditions_split_6d_pi(split_6d_ic):
    report = check_conditions(split_6d_ic, pi_lattice_6d())
    assert report.diamond1 is False
    assert report.diamond2 is False
    assert report.star is False
    assert report.box is True


def test_conditions_split_6d_generic(split_6d_ic):
    report = check_conditions(split_6d_ic, generic_lattice_6d())
    assert report.diamond1 is True
    assert report.diamond2 is False
    assert report.star is False
    assert report.box is False


def test_witnesses_deduplicated_per_tag(split_6d_ic):
    report = check_conditions(split_6d_ic, pi_lattice_6d())
    keys = [
        (w.condition, w.tag) for w in report.witnesses if w.condition != "box"
    ]
    assert len(keys) == len(set(keys))
    # Without dedup the 6-dim complex would emit hundreds of witnesses.
    assert len(report.witnesses) < 40


def test_hodge_table():
    table = dolbeault_hodge_table(3, (1, 3, 3, 1))
    assert table == (
        (1, 3, 3, 1),
        (3, 9, 9, 3),
        (3, 9, 9, 3),
        (1, 3, 3, 1),
    )
    assert dolbeault_hodge_table(1, (1, 1)) == ((1, 1), (1, 1))


def _check_verdicts(ic, lat):
    """Each verdict equals both public predicates, from no more evaluations."""
    calls = []
    evaluate = lattice.evaluate_weight_on_generator

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(lattice, "evaluate_weight_on_generator", counted)
        verdicts = lattice._verdicts(ic, lat)
        walked = len(calls)
        assert [v.tag for v in verdicts] == list(ic.tag_table)
        for v in verdicts:
            assert v.trivial_on_lattice == char_trivial_on_lattice(v.tag, lat)
            assert v.ratio_trivial == ratio_char_trivial_on_lattice(v.tag, lat)
    assert walked <= len(calls) - walked


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")))
def test_verdicts_equal_both_predicates_on_shipped_instances(name):
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    rep = build_representation(inst)
    ic = build_invariant_complex(inst.algebra, rep, build_weight_assignment(inst, rep))
    _check_verdicts(ic, inst.lattice)


@functools.cache
def _split_6d_adjoint_ic():
    g = make_split_6d()
    return invariant(g, adjoint_representation(g))


_coordinates = st.builds(
    lambda coeffs: package_value(coeffs, ("a",)),
    st.dictionaries(
        st.sampled_from(["pi", "i*pi", "a", "i*a", "1", "i"]),
        st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 3, 4)]),
        max_size=3,
    ),
)


@given(st.lists(st.lists(_coordinates, min_size=2, max_size=2), max_size=3))
def test_verdicts_equal_both_predicates_on_a_drawn_lattice(generators):
    lat = LatticeData(("a",), tuple(map(tuple, generators)))
    _check_verdicts(_split_6d_adjoint_ic(), lat)
