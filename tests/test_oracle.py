import pytest
from ce_reference import ce_differential
from conftest import INSTANCE_DIR, make_heisenberg_power, make_split_6d_plus_heisenberg
from oracle_reference import (
    reference_action_table,
    reference_degree_skeleton,
    reference_sector_differential,
)

from solvcohom.cecomplex import twist_at
from solvcohom.errors import ValidationFailure
from solvcohom.instances import build_representation, build_weight_assignment, load_instance
from solvcohom.liealg import RepresentationData, adjoint_representation, trivial_representation
from solvcohom.linalg import ExactMatrix
from solvcohom.oracle import (
    _action_table,
    _alternating_evaluation,
    _degree_skeleton,
    _sector_differential,
    _signed,
    sector_cohomology_full,
    sector_skeleton,
    verify_quasi_iso,
)
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational
from solvcohom.weights import build_invariant_complex, infer_weights


def test_alternating_evaluation_signs():
    assert _alternating_evaluation((0, 1), (0, 1)) == 1
    assert _alternating_evaluation((0, 1), (1, 0)) == -1
    assert _alternating_evaluation((0, 1, 2), (2, 0, 1)) == 1
    assert _alternating_evaluation((0, 1, 2), (0, 2, 1)) == -1
    assert _alternating_evaluation((), ()) == 1


def test_alternating_evaluation_degeneracies():
    assert _alternating_evaluation((0, 1), (0, 0)) == 0
    assert _alternating_evaluation((0, 1), (0, 2)) == 0
    assert _alternating_evaluation((0,), (1,)) == 0


def test_full_sector_untwisted_heisenberg(heisenberg):
    rep = trivial_representation(heisenberg)
    result = sector_cohomology_full(heisenberg, rep, None)
    assert result.betti == (1, 2, 2, 1)
    zero = (ZERO for _ in heisenberg.complement)
    assert sector_cohomology_full(heisenberg, rep, tuple(zero)).betti == (
        1,
        2,
        2,
        1,
    )


@pytest.mark.parametrize("twist", [(), (ONE, ONE)], ids=["short", "long"])
def test_full_sector_refuses_a_twist_of_the_wrong_width(split_3d, twist):
    # One coordinate short or long of split_3d's one-direction complement;
    # the long one must not be cut to the valid twist (1).
    rep = trivial_representation(split_3d)
    with pytest.raises(ValidationFailure, match="^weight covector length != complement size$"):
        sector_cohomology_full(split_3d, rep, twist)


def test_full_sector_twisted_split_3d(split_3d):
    rep = trivial_representation(split_3d)
    assert sector_cohomology_full(split_3d, rep, (ZERO,)).betti == (1, 1, 1, 1)
    # Nonzero tags still carry cohomology here: d is not injective on the
    # twisted complex of this algebra.
    assert sector_cohomology_full(split_3d, rep, (ONE,)).betti == (0, 1, 1, 0)
    assert sector_cohomology_full(split_3d, rep, (MINUS_ONE,)).betti == (
        0,
        1,
        1,
        0,
    )


def test_quasi_iso_split_3d(split_3d):
    rep = trivial_representation(split_3d)
    ic = build_invariant_complex(split_3d, rep, infer_weights(split_3d, rep))
    report = verify_quasi_iso(ic)
    assert report.ok
    by_tag = {s.tag: s for s in report.sectors}
    assert by_tag[(ZERO,)].block_betti == (1, 1, 1, 1)
    assert by_tag[(ONE,)].block_betti == (0, 1, 1, 0)
    assert by_tag[(MINUS_ONE,)].full_betti == (0, 1, 1, 0)
    assert len(report.summary_lines()) == 3
    assert all(line.endswith("[ok]") for line in report.summary_lines())


def test_quasi_iso_heisenberg(heisenberg):
    rep = trivial_representation(heisenberg)
    ic = build_invariant_complex(
        heisenberg, rep, infer_weights(heisenberg, rep)
    )
    report = verify_quasi_iso(ic)
    assert report.ok
    assert len(report.sectors) == 1
    assert report.sectors[0].block_betti == (1, 2, 2, 1)


def test_quasi_iso_split_6d_adjoint(split_6d):
    rep = adjoint_representation(split_6d)
    ic = build_invariant_complex(split_6d, rep, infer_weights(split_6d, rep))
    report = verify_quasi_iso(ic)
    assert report.ok
    assert len(report.sectors) == 21


def test_quasi_iso_heisenberg_power_n12():
    # n = 12: the oracle rebuilds the full 4096-cochain complex. The Betti
    # numbers of a direct sum are the convolution of its summands'.
    g = make_heisenberg_power(4)
    rep = trivial_representation(g)
    report = verify_quasi_iso(build_invariant_complex(g, rep, infer_weights(g, rep)))
    assert report.ok
    expected = [1]
    for _ in range(4):
        product = [0] * (len(expected) + 3)
        for i, a in enumerate(expected):
            for j, b in enumerate((1, 2, 2, 1)):
                product[i + j] += a * b
        expected = product
    assert len(report.sectors) == 1
    assert report.sectors[0].full_betti == tuple(expected)


def _insertion_inputs(name):
    """(algebra, module, weights) of a shipped instance, or of the n = 9 sum."""
    if name == "split_6d+heisenberg":
        g = make_split_6d_plus_heisenberg()
        rep = trivial_representation(g)
        return g, rep, infer_weights(g, rep)
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    rep = build_representation(inst)
    return inst.algebra, rep, build_weight_assignment(inst, rep)


@pytest.mark.parametrize(
    "name",
    sorted(p.stem for p in INSTANCE_DIR.glob("*.json")) + ["split_6d+heisenberg"],
)
def test_sector_differential_equals_insertion_formula(name):
    # Entry by entry, not only Betti numbers: the raw-evaluation oracle
    # and the insertion-formula builder must produce the same matrices,
    # with the shared skeleton and without it.
    g, rep, w = _insertion_inputs(name)
    ic = build_invariant_complex(g, rep, w)
    skeletons = sector_skeleton(g)
    for tag in ic.distinct_tags():
        rho = _action_table(rep, twist_at(g, tag))
        for p in range(g.dim):
            expected = ce_differential(g, rep, tag, p)
            assert _sector_differential(g, rep.m, p, skeletons[p], _signed(rho)) == expected
        shared = sector_cohomology_full(g, rep, tag, skeletons)
        alone = sector_cohomology_full(g, rep, tag)
        assert shared.betti == alone.betti


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")) + ["split_6d+heisenberg"]
)
def test_skeleton_equals_pair_scanning_reference(name):
    # Sources enumerated from the argument tuples must give what scanning
    # every (J, I) pair gives, with the same list and dict order.
    if name == "split_6d+heisenberg":
        g = make_split_6d_plus_heisenberg()
    else:
        g = load_instance(str(INSTANCE_DIR / f"{name}.json")).algebra
    for p in range(g.dim):
        action_terms, bracket_terms = _degree_skeleton(g, p)
        ref_action_terms, ref_bracket_terms = reference_degree_skeleton(g, p)
        assert action_terms == ref_action_terms
        assert list(bracket_terms.items()) == list(ref_bracket_terms.items())


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")))
def test_sector_rows_equal_entry_keyed_reference(name):
    # On every sector and degree: the same action table, and the same
    # rows as the (row, column)-keyed reference builds, down to key order.
    g, rep, w = _insertion_inputs(name)
    ic = build_invariant_complex(g, rep, w)
    skeletons = sector_skeleton(g)
    for tag in ic.tag_table:
        rho = _action_table(rep, twist_at(g, tag))
        assert rho == reference_action_table(g, rep, tag)
        for p in range(g.dim):
            got = _sector_differential(g, rep.m, p, skeletons[p], _signed(rho))
            want = reference_sector_differential(g, rep.m, p, skeletons[p], rho)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert [list(r.items()) for r in got.row_maps] == [
                list(r.items()) for r in want.row_maps
            ]


def test_action_table_adds_mu_on_the_diagonal(split_3d):
    # mu(e1) = 1 cancels R(e1)[0, 0] = -1, and lands on the empty
    # diagonals of rows 1 and 2; the table lists (l, k) in order and
    # holds no zero.
    r = ExactMatrix(3, 3, [[MINUS_ONE, ONE, ZERO], [ZERO, ZERO, GaussianRational(5)], [ZERO] * 3])
    zero = ExactMatrix.zero(3, 3)
    rep = RepresentationData(3, (r, zero, zero))
    rho = _action_table(rep, twist_at(split_3d, (ONE,)))
    assert rho == reference_action_table(split_3d, rep, (ONE,))
    assert rho[0] == [(0, 1, ONE), (1, 1, ONE), (1, 2, GaussianRational(5)), (2, 2, ONE)]
