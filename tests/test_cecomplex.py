import subprocess
import sys
import textwrap

import pytest
from ce_reference import ce_differential, monomial_label, wedge_insert_sign
from conftest import INSTANCE_DIR, dense_matrix
from span_reference import greedy_lower_central_series_dims, greedy_representatives
from subset_reference import degree_basis, subset_mask
from test_imports import private_imports

from solvcohom import cecomplex, linalg
from solvcohom.cecomplex import (
    FiniteComplex,
    cohomology,
    degree_masks,
    mask_position,
    module_basis_names,
    nilshadow,
)
from solvcohom.errors import CertificateError, NilshadowError, ValidationFailure
from solvcohom.instances import build_representation, build_weight_assignment, load_instance
from solvcohom.liealg import (
    adjoint_representation,
    lower_central_series_dims,
    trivial_representation,
)
from solvcohom.linalg import ExactMatrix
from solvcohom.oracle import twist_at
from solvcohom.scalars import MINUS_ONE, ONE, ZERO
from solvcohom.weights import build_invariant_complex, infer_weights, restrict_complex


def test_degree_basis_lex_order():
    assert degree_masks(3, 0) == (0,)
    assert degree_masks(3, 1) == (0b001, 0b010, 0b100)
    assert degree_masks(3, 2) == (0b011, 0b101, 0b110)
    assert degree_masks(4, 4) == (0b1111,)
    pos = mask_position(4, 2)
    assert pos[0b0011] == 0
    assert pos[0b1100] == len(degree_masks(4, 2)) - 1


def test_degree_masks_follow_the_combinations_reference():
    # Every degree up to n = 12: the package's masks are the reference's
    # lexicographic tuples, and mask_position inverts them.
    for n in range(13):
        for p in range(n + 1):
            masks = degree_masks(n, p)
            assert masks == tuple(subset_mask(I) for I in degree_basis(n, p))
            position = mask_position(n, p)
            assert len(position) == len(masks)
            assert all(position[mask] == pos for pos, mask in enumerate(masks))


def test_wedge_insert_sign():
    # x2 into x0^x1 passes two factors: sign +1 at the end.
    assert wedge_insert_sign(2, (0, 1)) == 1
    assert wedge_insert_sign(0, (1, 2)) == 1
    assert wedge_insert_sign(1, (0, 2)) == -1
    assert wedge_insert_sign(5, ()) == 1


def test_the_reference_kernel_takes_no_private_name_from_the_package():
    # ce_reference checks ce_kernel, so it reads the structure constants
    # through bracket_table() and tabulates dx_t itself.
    source = (INSTANCE_DIR.parent / "tests" / "ce_reference.py").read_text()
    assert private_imports(source) == []


def test_heisenberg_one_form_differential(heisenberg):
    # dz* = -x*^y*; dx* = dy* = 0.
    d1 = ce_differential(heisenberg, trivial_representation(heisenberg), (), 1)
    # Degree-2 rows in lex order: x^y, x^z, y^z.
    assert d1.row_maps[0].get(2, ZERO) == MINUS_ONE
    assert all(
        d1.row_maps[r].get(c, ZERO) == ZERO for r in range(3) for c in range(3) if (r, c) != (0, 2)
    )


def test_split_3d_one_form_signs(split_3d):
    # de2* = -e1*^e2*, de3* = +e1*^e3*.
    d1 = ce_differential(split_3d, trivial_representation(split_3d), (ZERO,), 1)
    assert d1.row_maps[0].get(1, ZERO) == MINUS_ONE
    assert d1.row_maps[1].get(2, ZERO) == ONE
    assert d1.row_maps[2].get(0, ZERO) == ZERO


def test_ce_image_action_term(split_3d):
    # Twist by mu = (1): d(1 (x) v) gains a mu(e1) e1* term.
    rep = trivial_representation(split_3d)
    # Row 0 of degree 1 is e1* (x) v, column 0 of degree 0 is 1 (x) v.
    assert ce_differential(split_3d, rep, (ONE,), 0).row_maps[0].get(0, ZERO) == ONE


@pytest.mark.parametrize("twist", [(), (ONE, ONE)], ids=["short", "long"])
def test_ce_kernel_refuses_a_twist_of_the_wrong_width(split_3d, twist):
    # ce_kernel forms no twist; the oracle's twist_at places one on the
    # complement, which for split_3d has one direction. A long twist must
    # not be cut to its first coordinate, which would be a valid twist.
    assert twist_at(split_3d, (ONE,)) == (ONE, ZERO, ZERO)
    with pytest.raises(ValidationFailure, match="^weight covector length != complement size$"):
        twist_at(split_3d, twist)


def test_heisenberg_ce_betti(heisenberg):
    rep = trivial_representation(heisenberg)
    w = infer_weights(heisenberg, rep)
    ic = build_invariant_complex(heisenberg, rep, w)
    assert ic.complex.dims == (1, 3, 3, 1)
    res = cohomology(ic.complex)
    assert res.betti == (1, 2, 2, 1)
    assert res.euler_characteristic() == 0


def test_heisenberg_representatives(heisenberg):
    rep = trivial_representation(heisenberg)
    ic = build_invariant_complex(heisenberg, rep, infer_weights(heisenberg, rep))
    res = cohomology(ic.complex, representatives=True)
    # z* is not closed, so H^1 is spanned by x* and y*.
    d1 = ic.complex.differentials[1]
    for vec in res.representatives[1]:
        column = ExactMatrix.from_entries(d1.ncols, 1, {(i, 0): c for i, c in vec.items()})
        assert (d1 @ column).is_zero()
        assert vec.get(2, ZERO) == ZERO
        assert all(vec.values())  # sparse: no stored zeros


@pytest.mark.parametrize(
    "wrong_ends, message",
    [
        # Dropping the end of d(z*) = -x*^y* leaves one class too many.
        (lambda ends: dict(list(ends.items())[1:]), "3 representatives for betti 2 at degree 2"),
        # A spurious end at column 0 leaves one class too few.
        (lambda ends: {0: {0: ONE}, **ends}, "0 representatives for betti 1 at degree 0"),
    ],
    ids=["dropped-end", "spurious-end"],
)
def test_representative_count_is_certified(heisenberg, monkeypatch, wrong_ends, message):
    real = linalg.trailing_echelon
    monkeypatch.setattr(cecomplex, "trailing_echelon", lambda vecs: wrong_ends(real(vecs)))
    rep = trivial_representation(heisenberg)
    ic = build_invariant_complex(heisenberg, rep, infer_weights(heisenberg, rep))
    with pytest.raises(CertificateError, match=message):
        cohomology(ic.complex, representatives=True)


def _shipped_pipeline(name):
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    rep = build_representation(inst)
    w = build_weight_assignment(inst, rep)
    return inst.algebra, w, build_invariant_complex(inst.algebra, rep, w)


_SHIPPED = sorted(p.stem for p in INSTANCE_DIR.glob("*.json"))


@pytest.mark.parametrize("name", _SHIPPED)
def test_representatives_equal_the_greedy_reference_on_every_tag_block(name):
    _, _, ic = _shipped_pipeline(name)
    for tid in range(len(ic.tag_table)):
        block = restrict_complex(ic, [tid])
        got = cohomology(block, representatives=True).representatives
        want = greedy_representatives(block)
        assert [[list(v.items()) for v in vs] for vs in got] == [
            [list(v.items()) for v in vs] for vs in want
        ]


@pytest.mark.parametrize("name", _SHIPPED)
def test_lower_central_series_equals_the_greedy_reference(name):
    g, w, _ = _shipped_pipeline(name)
    shadow = nilshadow(g, w.algebra_weights)
    for alg in (g, shadow):
        for indices in (frozenset(alg.nilradical), frozenset(range(alg.dim))):
            assert lower_central_series_dims(alg, indices) == greedy_lower_central_series_dims(
                alg, indices
            )


def plain_ce_complex(g):
    """Untwisted Chevalley-Eilenberg complex with trivial coefficients."""
    rep = trivial_representation(g)
    dims = [len(degree_basis(g.dim, p)) for p in range(g.dim + 1)]
    untwisted = (ZERO,) * len(g.complement)
    diffs = [ce_differential(g, rep, untwisted, p) for p in range(g.dim)]
    return FiniteComplex(tuple(dims), tuple(diffs))


def test_split_3d_plain_ce_betti(split_3d):
    # Untwisted: the +-1 weight lines cancel, leaving (1, 1, 1, 1).
    res = cohomology(plain_ce_complex(split_3d))
    assert res.betti == (1, 1, 1, 1)


@pytest.mark.parametrize("representatives", [False, True])
def test_cohomology_skips_the_next_pivot_columns(split_6d, monkeypatch, representatives):
    # Top down, one call per differential through the module global. Only
    # Betti numbers: each skips the pivot columns of the one above it.
    # Representatives: nothing is skipped.
    calls = []
    real = cecomplex.rank_and_kernel

    def recording(matrix, skip_rows):
        rank, reduced = real(matrix, skip_rows)
        calls.append((matrix, set(skip_rows), set(reduced)))
        return rank, reduced

    monkeypatch.setattr(cecomplex, "rank_and_kernel", recording)
    complex_ = plain_ce_complex(split_6d)
    res = cohomology(complex_, representatives)
    assert [m for m, _, _ in calls] == list(reversed(complex_.differentials))
    assert calls[0][1] == set()
    for (_, _, pivots), (_, skipped, _) in zip(calls, calls[1:]):
        assert skipped == (set() if representatives else pivots)
    assert any(skipped for _, skipped, _ in calls) != representatives
    assert res.betti == cohomology(complex_, representatives=not representatives).betti


def test_split_3d_invariant_complex_betti(split_3d):
    # Per-tag twisting makes every block contribute: (1, 3, 3, 1).
    rep = trivial_representation(split_3d)
    ic = build_invariant_complex(split_3d, rep, infer_weights(split_3d, rep))
    res = cohomology(ic.complex)
    assert res.betti == (1, 3, 3, 1)


def test_adjoint_complex_squares_to_zero(split_6d):
    rep = adjoint_representation(split_6d)
    ic = build_invariant_complex(split_6d, rep, infer_weights(split_6d, rep))
    ic.complex.check_complex()  # raises on failure
    assert ic.complex.dims == (6, 36, 90, 120, 90, 36, 6)


def test_finite_complex_shape_checks():
    with pytest.raises(ValidationFailure) as excinfo:
        FiniteComplex((1, 2), ())
    assert str(excinfo.value) == "need exactly one differential per adjacent pair"
    with pytest.raises(ValidationFailure) as excinfo:
        FiniteComplex((1, 2), (ExactMatrix.zero(3, 1),))
    assert str(excinfo.value) == "differential at degree 0 has wrong shape"
    fc = FiniteComplex((2, 1), (ExactMatrix.zero(1, 2),))
    assert fc.top_degree == 1


def _records():
    """One of each record a derham answer builds, from heisenberg3."""
    inst = load_instance(INSTANCE_DIR / "heisenberg3.json")
    rep = build_representation(inst)
    w = build_weight_assignment(inst, rep)
    ic = build_invariant_complex(inst.algebra, rep, w)
    fc = restrict_complex(ic, range(len(ic.tag_table)))
    return {
        "FiniteComplex": fc,
        "CohomologyResult": cohomology(fc, representatives=True),
        "RepresentationData": rep,
        "WeightAssignment": w,
        "LatticeData": inst.lattice,
    }


@pytest.mark.parametrize(
    "name, field",
    [
        ("FiniteComplex", "dims"),
        ("CohomologyResult", "betti"),
        ("RepresentationData", "matrices"),
        ("WeightAssignment", "algebra_weights"),
        ("LatticeData", "generators"),
    ],
)
def test_records_refuse_assignment(name, field):
    record = _records()[name]
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        setattr(record, "extra", value)
    assert getattr(record, field) is value


def test_check_complex_catches_bad_differential():
    d0 = dense_matrix([[ONE]])
    d1 = dense_matrix([[ONE]])
    fc = FiniteComplex((1, 1, 1), (d0, d1))
    with pytest.raises(ValidationFailure, match="degree 0"):
        fc.check_complex()


def test_check_complex_stops_at_the_first_nonzero_row(monkeypatch):
    # Row 0 of d1 @ d0 is nonzero, so row 1 is never multiplied.
    calls = []
    row_times = cecomplex.row_times

    def counted(row, matrix):
        calls.append(row)
        return row_times(row, matrix)

    d0 = dense_matrix([[ONE], [ONE]])
    d1 = dense_matrix([[ONE, ZERO], [ONE, MINUS_ONE]])
    fc = FiniteComplex((1, 2, 2), (d0, d1))
    monkeypatch.setattr(cecomplex, "row_times", counted)
    with pytest.raises(ValidationFailure, match="not a complex: d.d != 0 starting at degree 0"):
        fc.check_complex()
    assert calls == [{0: ONE}]


def test_check_complex_survives_optimize_flag():
    script = textwrap.dedent(
        """
        from solvcohom.cecomplex import FiniteComplex
        from solvcohom.errors import ValidationFailure
        from solvcohom.linalg import ExactMatrix
        from solvcohom.scalars import ONE

        assert False, "asserts must be stripped under -O"
        d = ExactMatrix(1, 1, ({0: ONE},))
        try:
            FiniteComplex((1, 1, 1), (d, d)).check_complex()
        except ValidationFailure as exc:
            print(exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "not a complex: d.d != 0 starting at degree 0"


def _fails_at_degrees_0_and_2():
    # d1 d0 != 0 and d3 d2 != 0, but d2 d1 == 0.
    d0 = dense_matrix([[ONE]])
    d1 = dense_matrix([[ONE], [ZERO]])
    d2 = dense_matrix([[ZERO, ONE]])
    d3 = dense_matrix([[ONE]])
    return FiniteComplex((1, 1, 2, 1, 1), (d0, d1, d2, d3))


@pytest.mark.parametrize("representatives", [False, True])
def test_cohomology_names_the_lowest_failing_degree(representatives):
    # Top down, degree 2 fails first; the message still names degree 0.
    with pytest.raises(ValidationFailure) as raised:
        cohomology(_fails_at_degrees_0_and_2(), representatives)
    assert str(raised.value) == "not a complex: d.d != 0 starting at degree 0"


def test_cohomology_checks_d_d_under_optimize_flag():
    script = textwrap.dedent(
        """
        from solvcohom.cecomplex import FiniteComplex, cohomology
        from solvcohom.errors import ValidationFailure
        from solvcohom.linalg import ExactMatrix
        from solvcohom.scalars import ONE

        assert False, "asserts must be stripped under -O"
        d = ExactMatrix(1, 1, ({0: ONE},))
        for representatives in (False, True):
            try:
                cohomology(FiniteComplex((1, 1, 1, 1), (d, d, d)), representatives)
            except ValidationFailure as exc:
                print(exc)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["not a complex: d.d != 0 starting at degree 0"] * 2


def test_cohomology_of_a_complex_multiplies_no_differentials(split_6d, monkeypatch):
    # On a complex, d.d = 0 is certified against the certified kernels
    # alone: check_complex and the row products are never called.
    def forbidden(*args):
        raise AssertionError("called on a valid complex")

    complex_ = plain_ce_complex(split_6d)
    monkeypatch.setattr(FiniteComplex, "check_complex", forbidden)
    monkeypatch.setattr(cecomplex, "row_times", forbidden)
    monkeypatch.setattr(linalg, "row_times", forbidden)
    assert cohomology(complex_).betti == cohomology(complex_, representatives=True).betti


def test_a_wrong_certified_kernel_on_a_complex_raises_certificate_error(monkeypatch):
    # d1 d0 == 0, but a wrong reduced row of d1, returned past its own
    # certificate, puts d0 outside the kernel it claims.
    d0 = dense_matrix([[ONE], [ONE]])
    d1 = dense_matrix([[ONE, MINUS_ONE]])
    real = cecomplex.rank_and_kernel

    def wrong(matrix, skip_rows):
        rank, reduced = real(matrix, skip_rows)
        if matrix is d1:
            assert reduced == {0: {0: ONE, 1: MINUS_ONE}}
            reduced = {0: {0: ONE, 1: ONE}}
        return rank, reduced

    monkeypatch.setattr(cecomplex, "rank_and_kernel", wrong)
    with pytest.raises(CertificateError, match="degree 0 leaves the certified kernel at degree 1"):
        cohomology(FiniteComplex((1, 2, 1), (d0, d1)))


def test_labels(heisenberg):
    rep = trivial_representation(heisenberg)
    names = module_basis_names(heisenberg, rep)
    assert names == ("1",)
    assert monomial_label(heisenberg, (0, 2), 0, names) == "x*^z* (x) 1"
    assert monomial_label(heisenberg, (), 0, names) == "1 (x) 1"
    ad = adjoint_representation(heisenberg)
    ad_names = module_basis_names(heisenberg, ad)
    assert ad_names == ("x", "y", "z")
    # The builder forms its label strings itself; they must be these.
    ic = build_invariant_complex(heisenberg, ad, infer_weights(heisenberg, ad))
    n, m = heisenberg.dim, ad.m
    for p in range(n + 1):
        count = len(degree_basis(n, p)) * m
        assert ic.labels(p, range(count)) == [
            monomial_label(heisenberg, degree_basis(n, p)[i // m], i % m, ad_names)
            for i in range(count)
        ]


def test_nilshadow_flattens_split_algebras(split_3d, split_6d):
    for g in (split_3d, split_6d):
        rep = trivial_representation(g)
        w = infer_weights(g, rep)
        shadow = nilshadow(g, w.algebra_weights)
        assert shadow.dim == g.dim
        assert shadow.bracket_table() == {}  # abelian
        assert shadow.nilradical == frozenset(range(g.dim))


def test_nilshadow_fixes_nilpotent_input(heisenberg):
    rep = trivial_representation(heisenberg)
    w = infer_weights(heisenberg, rep)
    shadow = nilshadow(heisenberg, w.algebra_weights)
    assert shadow.bracket_table() == heisenberg.bracket_table()
    assert shadow.basis == heisenberg.basis


def test_nilshadow_idempotent(split_6d):
    rep = trivial_representation(split_6d)
    w = infer_weights(split_6d, rep)
    shadow = nilshadow(split_6d, w.algebra_weights)
    zero_w = tuple(() for _ in range(shadow.dim))
    again = nilshadow(shadow, zero_w)
    assert again.bracket_table() == shadow.bracket_table()


def test_nilshadow_rejects_inconsistent_weights(split_3d):
    # Wrong sign on the e3 weight leaves [e1, e3] = -2 e3 in the shadow.
    bad = ((ZERO,), (ONE,), (ONE,))
    with pytest.raises(NilshadowError) as raised:
        nilshadow(split_3d, bad)
    assert str(raised.value) == (
        "nilshadow bracket fails validation (inconsistent weight data): "
        "ad(e1) is not nilpotent; lower central series of the nilradical does not reach zero"
    )
    with pytest.raises(ValidationFailure):
        nilshadow(split_3d, ((ZERO,),))  # arity


def test_cohomology_of_zero_complex():
    fc = FiniteComplex((2,), ())
    res = cohomology(fc)
    assert res.betti == (2,)
