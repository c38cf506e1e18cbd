import itertools

import pytest
from ce_reference import ce_differential
from conftest import (
    INSTANCE_DIR,
    load_bench,
    make_heisenberg_power,
    make_split_6d_plus_heisenberg,
)
from oracle_reference import (
    alternating_evaluation,
    reference_action_table,
    reference_degree_skeleton,
    reference_sector_differential,
)
from subset_reference import degree_basis, subset_position

from solvcohom.errors import ValidationFailure
from solvcohom.instances import (
    build_representation,
    build_weight_assignment,
    load_instance,
    parse_instance,
)
from solvcohom.liealg import RepresentationData, adjoint_representation, trivial_representation
from solvcohom.linalg import ExactMatrix
from solvcohom import oracle
from solvcohom.oracle import (
    _action_table,
    _conjugate_pairs,
    _degree_skeleton,
    _is_conjugate_image,
    _sector_differential,
    _sort_sign,
    sector_cohomology_full,
    sector_skeleton,
    twist_at,
    verify_quasi_iso,
)
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational
from solvcohom.weights import build_invariant_complex, infer_weights


def test_alternating_evaluation_signs():
    assert alternating_evaluation((0, 1), (0, 1)) == 1
    assert alternating_evaluation((0, 1), (1, 0)) == -1
    assert alternating_evaluation((0, 1, 2), (2, 0, 1)) == 1
    assert alternating_evaluation((0, 1, 2), (0, 2, 1)) == -1
    assert alternating_evaluation((), ()) == 1
    # The oracle's sign helper is the reference's evaluation on every
    # permutation of range(k).
    for k in range(6):
        for arguments in itertools.permutations(range(k)):
            assert _sort_sign(arguments) == alternating_evaluation(tuple(range(k)), arguments)


def test_alternating_evaluation_degeneracies():
    assert alternating_evaluation((0, 1), (0, 0)) == 0
    assert alternating_evaluation((0, 1), (0, 2)) == 0
    assert alternating_evaluation((0,), (1,)) == 0


def test_full_sector_untwisted_heisenberg(heisenberg):
    rep, skeletons = trivial_representation(heisenberg), sector_skeleton(heisenberg)
    result = sector_cohomology_full(heisenberg, rep, None, skeletons)
    assert result.betti == (1, 2, 2, 1)
    zero = tuple(ZERO for _ in heisenberg.complement)
    assert sector_cohomology_full(heisenberg, rep, zero, skeletons).betti == (1, 2, 2, 1)


@pytest.mark.parametrize("twist", [(), (ONE, ONE)], ids=["short", "long"])
def test_full_sector_refuses_a_twist_of_the_wrong_width(split_3d, twist):
    # One coordinate short or long of split_3d's one-direction complement;
    # the long one must not be cut to the valid twist (1).
    rep = trivial_representation(split_3d)
    with pytest.raises(ValidationFailure, match="^weight covector length != complement size$"):
        sector_cohomology_full(split_3d, rep, twist, sector_skeleton(split_3d))


def test_full_sector_twisted_split_3d(split_3d):
    rep, skeletons = trivial_representation(split_3d), sector_skeleton(split_3d)
    assert sector_cohomology_full(split_3d, rep, (ZERO,), skeletons).betti == (1, 1, 1, 1)
    # Nonzero tags still carry cohomology here: d is not injective on the
    # twisted complex of this algebra.
    assert sector_cohomology_full(split_3d, rep, (ONE,), skeletons).betti == (0, 1, 1, 0)
    assert sector_cohomology_full(split_3d, rep, (MINUS_ONE,), skeletons).betti == (0, 1, 1, 0)


def test_quasi_iso_split_3d(split_3d):
    rep = trivial_representation(split_3d)
    ic = build_invariant_complex(split_3d, rep, infer_weights(split_3d, rep))
    report = verify_quasi_iso(ic)
    assert report.ok
    by_tag = {s.tag: s for s in report.sectors}
    assert by_tag[(ZERO,)].block_betti == (1, 1, 1, 1)
    assert by_tag[(ONE,)].block_betti == (0, 1, 1, 0)
    assert by_tag[(MINUS_ONE,)].full_betti == (0, 1, 1, 0)
    assert len(report.sectors) == 3
    assert all(s.equal for s in report.sectors)


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
    # and the insertion-formula builder must produce the same matrices.
    g, rep, w = _insertion_inputs(name)
    ic = build_invariant_complex(g, rep, w)
    skeletons = sector_skeleton(g)
    for tag in ic.distinct_tags():
        rho = _action_table(rep, twist_at(g, tag))
        for p in range(g.dim):
            expected = ce_differential(g, rep, tag, p)
            assert _sector_differential(g, rep.m, p, skeletons[p], rho) == expected


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
        reference = reference_action_table(g, rep, tag)
        assert rho == _with_negatives(reference)
        for p in range(g.dim):
            got = _sector_differential(g, rep.m, p, skeletons[p], rho)
            want = reference_sector_differential(g, rep.m, p, skeletons[p], reference)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert [list(r.items()) for r in got.row_maps] == [
                list(r.items()) for r in want.row_maps
            ]


def _with_negatives(table):
    """(entries, negated entries) per j of a reference action table."""
    return [(entries, [(l, k, -v) for l, k, v in entries]) for entries in table]


def test_action_table_adds_mu_on_the_diagonal(split_3d):
    # mu(e1) = 1 cancels R(e1)[0, 0] = -1, and lands on the empty
    # diagonals of rows 1 and 2; the table lists (l, k) in order and
    # holds no zero, and each j's negated entries follow them.
    r = ExactMatrix(3, 3, ({0: MINUS_ONE, 1: ONE}, {2: GaussianRational(5)}, {}))
    zero = ExactMatrix.zero(3, 3)
    rep = RepresentationData(3, (r, zero, zero))
    rho = _action_table(rep, twist_at(split_3d, (ONE,)))
    assert rho == _with_negatives(reference_action_table(split_3d, rep, (ONE,)))
    assert rho[0][0] == [(0, 1, ONE), (1, 1, ONE), (1, 2, GaussianRational(5)), (2, 2, ONE)]
    assert rho[0][1] == [
        (0, 1, MINUS_ONE), (1, 1, MINUS_ONE), (1, 2, GaussianRational(-5)), (2, 2, MINUS_ONE)
    ]


def _conjugate_tag(g, mu):
    at = dict(zip(g.complement, mu))
    return tuple(at[g.conjugation[j]].conjugate() for j in g.complement)


def _reference_cochain_map(g, m, tau, p):
    """(image index, s_I) of each cochain (I, k), read off the tuple subsets."""
    position = subset_position(g.dim, p)
    out = []
    for I in degree_basis(g.dim, p):
        image = [g.conjugation[i] for i in I]
        inversions = sum(a > b for x, a in enumerate(image) for b in image[x + 1 :])
        base = position[tuple(sorted(image))] * m
        out.extend((base + tau[k], (-1) ** inversions) for k in range(m))
    return out


def test_conjugate_sectors_follow_the_sign_rule_on_example_7_1_generic():
    # Entry v of D_p(mu) at (J, l; I, k) is s_J s_I conj(v) at
    # (sigma J, tau l; sigma I, tau k) of D_p(sigma-bar mu), on the
    # rescanning references, for every ordered pair of distinct partners.
    g, rep, w = _insertion_inputs("example-7-1-generic")
    tags = build_invariant_complex(g, rep, w).tag_table
    ordered = [(mu, _conjugate_tag(g, mu)) for mu in tags]
    ordered = [(mu, nu) for mu, nu in ordered if nu != mu and nu in tags]
    assert len(tags) == 21 and len(ordered) == 18
    tau = [g.conjugation[k] for k in range(g.dim)]
    cochain_maps = [_reference_cochain_map(g, rep.m, tau, p) for p in range(g.dim + 1)]
    maps = _conjugate_pairs(g, rep, tags)[0]
    assert maps == [[(t, s < 0) for t, s in cm] for cm in cochain_maps]
    skeletons = [reference_degree_skeleton(g, p) for p in range(g.dim)]
    sectors = {
        mu: [
            reference_sector_differential(
                g, rep.m, p, skeletons[p], reference_action_table(g, rep, mu)
            )
            for p in range(g.dim)
        ]
        for mu in tags
    }
    for mu, nu in ordered:
        for p, (d, image) in enumerate(zip(sectors[mu], sectors[nu])):
            rows, cols = cochain_maps[p + 1], cochain_maps[p]
            for r, row in enumerate(d.row_maps):
                target, s_r = rows[r]
                assert len(image.row_maps[target]) == len(row)
                for c, v in row.items():
                    col, s_c = cols[c]
                    want = v.conjugate() if s_r * s_c > 0 else -v.conjugate()
                    assert image.row_maps[target][col] == want
            assert _is_conjugate_image(d, image, maps[p + 1], maps[p])


def _count_eliminations(monkeypatch):
    """The complexes that oracle.cohomology eliminates, blocks and sectors."""
    seen = []
    real = oracle.cohomology
    monkeypatch.setattr(oracle, "cohomology", lambda c: seen.append(c) or real(c))
    return seen


def _product_inputs(spec):
    """(algebra, module, weights) of bench/products.py factors joined by "+":
    one factor as loaded, several as their Kunneth product at seed 1."""
    products = load_bench("products")
    factors = [products.load_factor(INSTANCE_DIR, f) for f in spec.split("+")]
    data = factors[0] if len(factors) == 1 else products.product_instance(factors, 1, spec)
    inst = parse_instance(data)
    rep = build_representation(inst)
    return inst.algebra, rep, build_weight_assignment(inst, rep)


@pytest.mark.parametrize(
    "spec,tags,sectors",
    [
        pytest.param(spec, tags, sectors, id=f"{spec}-{sectors}")
        for spec, tags, sectors in [
            ("example-7-1-generic", 21, 12),
            ("example-7-1-pi", 21, 12),
            ("example-7-2-generic", 3, 3),
            ("example-7-2-pi", 3, 3),
            ("heisenberg3", 1, 1),
            ("torus-complex-n3", 1, 1),
            ("example-7-1-generic:trivial", 9, 6),
            ("example-7-1-pi:trivial", 9, 6),
            ("example-7-1-generic:trivial+heisenberg3:trivial", 9, 6),
        ]
    ],
)
def test_conjugate_pairs_skip_one_elimination_each(monkeypatch, spec, tags, sectors):
    # Each 7-1 instance has 9 pairs of distinct partners among its 21 tags,
    # and 3 among its 9 on trivial coefficients, where tau is the identity,
    # alone or times heisenberg3; heisenberg3's conjugation is the identity
    # and the others have none.
    g, rep, w = _product_inputs(spec)
    ic = build_invariant_complex(g, rep, w)
    skeletons = sector_skeleton(g)
    unpaired = [sector_cohomology_full(g, rep, tag, skeletons).betti for tag in ic.tag_table]
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    assert len(ic.tag_table) == tags
    assert len(seen) - tags == sectors
    assert report.ok
    assert [s.full_betti for s in report.sectors] == unpaired


def test_a_mutated_partner_is_eliminated_on_its_own(monkeypatch):
    # One entry (r, c) of degree 0 of a later partner is doubled. D_1 has
    # no entry in column r, so the sector stays a complex; it must reach its
    # own elimination rather than take its partner's Betti numbers.
    g, rep, w = _insertion_inputs("example-7-1-generic")
    ic = build_invariant_complex(g, rep, w)
    maps, later, _ = _conjugate_pairs(g, rep, ic.tag_table)
    nu = next(iter(later))
    skeletons = sector_skeleton(g)

    def differential(mu, p):
        rho = _action_table(rep, twist_at(g, mu))
        return _sector_differential(g, rep.m, p, skeletons[p], rho)

    d0, d1, partner_d0 = differential(nu, 0), differential(nu, 1), differential(later[nu], 0)
    assert _is_conjugate_image(partner_d0, d0, maps[1], maps[0])
    # An entry added anywhere is also refused: its row is longer than its preimage.
    for i, row in enumerate(d0.row_maps):
        extra = [dict(x) for x in d0.row_maps]
        extra[i][next(c for c in range(d0.ncols) if c not in row)] = ONE
        grown = ExactMatrix(d0.nrows, d0.ncols, tuple(extra))
        assert not _is_conjugate_image(partner_d0, grown, maps[1], maps[0])
    r, c = next(
        (r, c)
        for r, row in enumerate(d0.row_maps)
        for c in row
        if all(r not in row1 for row1 in d1.row_maps)
    )
    current, mutants = [], []
    real_sector, real_differential = oracle.sector_cohomology_full, oracle._sector_differential

    def tagged(g, rep, mu, *args):
        current.append(mu)
        return real_sector(g, rep, mu, *args)

    def mutated(g, m, p, skeleton, rho):
        d = real_differential(g, m, p, skeleton, rho)
        if current[-1] == nu and p == 0:
            rows = [dict(row) for row in d.row_maps]
            rows[r][c] = rows[r][c] + rows[r][c]
            d = ExactMatrix(d.nrows, d.ncols, tuple(rows))
            mutants.append(d)
        return d

    monkeypatch.setattr(oracle, "sector_cohomology_full", tagged)
    monkeypatch.setattr(oracle, "_sector_differential", mutated)
    seen = _count_eliminations(monkeypatch)
    verify_quasi_iso(ic)
    assert len(mutants) == 1
    assert not _is_conjugate_image(partner_d0, mutants[0], maps[1], maps[0])
    assert len(seen) - len(ic.tag_table) == 13
    assert any(complex_.differentials[0] is mutants[0] for complex_ in seen)


def test_explicit_matrices_are_never_paired(monkeypatch):
    # The adjoint module of example 7.1 as explicit matrices, with the
    # algebra's conjugation table: no tau is known, so all 21 sectors are
    # eliminated, and the report is the adjoint module's.
    g, adjoint, w = _insertion_inputs("example-7-1-generic")
    assert g.conjugation is not None
    explicit = RepresentationData(adjoint.m, adjoint.matrices)
    ic = build_invariant_complex(g, explicit, infer_weights(g, explicit))
    assert _conjugate_pairs(g, explicit, ic.tag_table) is None
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    assert len(seen) == 2 * len(ic.tag_table) == 42
    assert report == verify_quasi_iso(build_invariant_complex(g, adjoint, w))
