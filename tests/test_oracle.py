import dataclasses
import itertools
import math

import pytest
from ce_reference import ce_differential
from conftest import (
    INSTANCE_DIR,
    SKEWED_HEISENBERG,
    bracket_entries,
    load_bench,
    make_heisenberg_power,
    make_split_6d_plus_heisenberg,
    tag_ids,
)
from hypothesis import example, given
from hypothesis import strategies as st
from oracle_reference import (
    alternating_evaluation,
    cochain_maps,
    is_image,
    is_signed_image,
    map_from_first,
    orbit_paths,
    reference_action_table,
    reference_degree_skeleton,
    reference_sector_differential,
)
from subset_reference import cochain_key, degree_basis, key_position, subset_mask, subset_position

from solvcohom.automorphisms import SEARCH_NODES, linear_automorphisms
from solvcohom.cecomplex import cohomology, degree_masks
from solvcohom.errors import ValidationFailure, WeightGradingError
from solvcohom.instances import (
    build_representation,
    build_weight_assignment,
    load_instance,
    parse_instance,
)
from solvcohom.liealg import (
    LieAlgebraData,
    RepresentationData,
    adjoint_representation,
    trivial_representation,
    validate_representation,
)
from solvcohom.linalg import ExactMatrix
from solvcohom import oracle
from solvcohom.oracle import (
    _action_table,
    _certified,
    _sector_differential,
    _sector_orbits,
    mask_position,
    sector_cohomology_full,
    sector_skeleton,
    twist_at,
    verify_quasi_iso,
)
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational

gaussians = st.builds(
    GaussianRational, *[st.fractions(min_value=-50, max_value=50, max_denominator=12)] * 2
)
from solvcohom.weights import build_invariant_complex, infer_weights, restrict_complex


def test_mask_position_inverts_degree_masks():
    pos = mask_position(4, 2)
    assert pos[0b0011] == 0
    assert pos[0b1100] == len(degree_masks(4, 2)) - 1
    # Every degree up to n = 12, against the reference's lexicographic tuples.
    for n in range(13):
        for p in range(n + 1):
            assert mask_position(n, p) == {
                subset_mask(I): i for I, i in subset_position(n, p).items()
            }


def test_alternating_evaluation_signs():
    assert alternating_evaluation((0, 1), (0, 1)) == 1
    assert alternating_evaluation((0, 1), (1, 0)) == -1
    assert alternating_evaluation((0, 1, 2), (2, 0, 1)) == 1
    assert alternating_evaluation((0, 1, 2), (0, 2, 1)) == -1
    assert alternating_evaluation((), ()) == 1
    # sector_skeleton's sign: x_I on (X_t, sorted rest), I = rest + t, is
    # (-1)^popcount(rest & ((1 << t) - 1)), for every t and rest in range(k).
    for k in range(6):
        for t in range(k):
            others = [r for r in range(k) if r != t]
            for size in range(k):
                for rest in itertools.combinations(others, size):
                    bits = sum(1 << r for r in rest)
                    sign = -1 if (bits & (1 << t) - 1).bit_count() % 2 else 1
                    I = tuple(sorted(rest + (t,)))
                    assert alternating_evaluation(I, (t,) + rest) == sign


def test_alternating_evaluation_degeneracies():
    assert alternating_evaluation((0, 1), (0, 0)) == 0
    assert alternating_evaluation((0, 1), (0, 2)) == 0
    assert alternating_evaluation((0,), (1,)) == 0


def test_full_sector_untwisted_heisenberg(heisenberg):
    rep, skeleton = trivial_representation(heisenberg), sector_skeleton(heisenberg)
    result = sector_cohomology_full(heisenberg, rep, (), skeleton)
    assert result.betti == (1, 2, 2, 1)
    zero = tuple(ZERO for _ in heisenberg.complement)
    assert sector_cohomology_full(heisenberg, rep, zero, skeleton).betti == (1, 2, 2, 1)


@pytest.mark.parametrize("twist", [(), (ONE, ONE)], ids=["short", "long"])
def test_full_sector_refuses_a_twist_of_the_wrong_width(split_3d, twist):
    # One coordinate short or long of split_3d's one-direction complement;
    # the long one must not be cut to the valid twist (1).
    rep = trivial_representation(split_3d)
    with pytest.raises(ValidationFailure, match="^weight covector length != complement size$"):
        sector_cohomology_full(split_3d, rep, twist, sector_skeleton(split_3d))


def test_full_sector_twisted_split_3d(split_3d):
    rep, skeleton = trivial_representation(split_3d), sector_skeleton(split_3d)
    assert sector_cohomology_full(split_3d, rep, (ZERO,), skeleton).betti == (1, 1, 1, 1)
    # Nonzero tags still carry cohomology here: d is not injective on the
    # twisted complex of this algebra.
    assert sector_cohomology_full(split_3d, rep, (ONE,), skeleton).betti == (0, 1, 1, 0)
    assert sector_cohomology_full(split_3d, rep, (MINUS_ONE,), skeleton).betti == (0, 1, 1, 0)


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


SKEWED = {
    "heisenberg3-skewed": SKEWED_HEISENBERG,
    "heisenberg3-skewed-adjoint": {**SKEWED_HEISENBERG, "representation": {"adjoint": True}},
}


def _insertion_inputs(name):
    """(algebra, module, weights) of a shipped instance, of the n = 9 sum, or of
    heisenberg3 in the skewed basis."""
    if name == "split_6d+heisenberg":
        g = make_split_6d_plus_heisenberg()
        rep = trivial_representation(g)
        return g, rep, infer_weights(g, rep)
    inst = parse_instance(SKEWED[name]) if name in SKEWED else load_instance(
        str(INSTANCE_DIR / f"{name}.json")
    )
    rep = build_representation(inst)
    return inst.algebra, rep, build_weight_assignment(inst, rep)


SHIPPED = sorted(p.stem for p in INSTANCE_DIR.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED + ["split_6d+heisenberg"])
def test_sector_differential_equals_insertion_formula(name):
    # Entry by entry, not only Betti numbers: the raw-evaluation oracle
    # and the insertion-formula builder must produce the same matrices.
    g, rep, w = _insertion_inputs(name)
    ic = build_invariant_complex(g, rep, w)
    skeleton = sector_skeleton(g)
    for tag in ic.distinct_tags():
        rho = _action_table(rep, twist_at(g, tag))
        for p in range(g.dim):
            expected = ce_differential(g, rep, tag, p)
            assert _sector_differential(g, rep.m, p, skeleton, rho) == expected


@pytest.mark.parametrize("name", SHIPPED + ["heisenberg3-skewed", "split_6d+heisenberg"])
def test_skeleton_equals_pair_scanning_reference(name):
    # The bracket terms formed from the pairs in the bracket table must be
    # what scanning every (J, I) pair gives, in the same order. The
    # reference's action terms are the ones _sector_differential walks:
    # source J without j_a, sign (-1)^a, sources ascending. Only the skewed
    # basis has bracket terms with t in {a, b}.
    g = _insertion_inputs(name)[0]
    skeleton = sector_skeleton(g)
    for p in range(g.dim):
        ref_action_terms, ref_bracket_terms = reference_degree_skeleton(g, p)
        bracket_terms = [
            ((jpos, ipos), c)
            for jpos, mask in enumerate(degree_masks(g.dim, p + 1))
            for ipos, c in skeleton.get(mask, ())
        ]
        assert bracket_terms == list(ref_bracket_terms.items())
        position = mask_position(g.dim, p)
        walked = []
        for jpos, mask in enumerate(degree_masks(g.dim, p + 1)):
            J = [j for j in range(g.dim) if mask >> j & 1]
            for a in range(p, -1, -1):
                walked.append((jpos, position[mask ^ 1 << J[a]], J[a], (-1) ** a))
        assert walked == ref_action_terms


@pytest.mark.parametrize("name", SHIPPED + list(SKEWED) + ["split_6d+heisenberg"])
def test_sector_rows_equal_entry_keyed_reference(name):
    # On every sector and degree: the same action table, and the same rows
    # as the (row, column)-keyed reference builds from the pair-scanning
    # skeleton, down to key order. On the skewed basis, bracket terms land
    # on action terms' entries and some sums drop out.
    g, rep, w = _insertion_inputs(name)
    ic = build_invariant_complex(g, rep, w)
    skeleton = sector_skeleton(g)
    reference_skeleton = [reference_degree_skeleton(g, p) for p in range(g.dim)]
    for tag in ic.tag_table:
        rho = _action_table(rep, twist_at(g, tag))
        reference = reference_action_table(g, rep, tag)
        assert rho == _with_negatives(reference)
        for p in range(g.dim):
            got = _sector_differential(g, rep.m, p, skeleton, rho)
            want = reference_sector_differential(g, rep.m, p, reference_skeleton[p], reference)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert [list(r.items()) for r in got.row_maps] == [
                list(r.items()) for r in want.row_maps
            ]


def test_skeleton_reads_brackets_from_the_table(monkeypatch):
    # n = 9: the skeleton visits only the pairs that bracket_table() lists,
    # and asks bracket() nothing. It adds only where two terms meet one
    # source, which no two do on heisenberg3:trivial^3.
    calls, adds = [], []
    real = LieAlgebraData.bracket
    monkeypatch.setattr(LieAlgebraData, "bracket", lambda g, i, j: calls.append(1) or real(g, i, j))
    add = GaussianRational.__add__
    monkeypatch.setattr(GaussianRational, "__add__", lambda x, y: adds.append(1) or add(x, y))
    for spec in ["example-7-1-generic:trivial+heisenberg3:trivial", "+".join(["heisenberg3:trivial"] * 3)]:
        g = _product_inputs(spec)[0]
        calls.clear()
        adds.clear()
        skeleton = sector_skeleton(g)
        assert skeleton and calls == []
    assert adds == [], "an add on heisenberg3:trivial^3"


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


def _linear_tag(g, perm, mu):
    at = {perm[j][0]: -x if perm[j][1] else x for j, x in zip(g.complement, mu)}
    return tuple(at[j] for j in g.complement)


def _reference_cochain_map(g, m, perm, tau, p):
    """(image index, s_I s_k) of each cochain (I, k), read off the tuple subsets:
    perm and tau give each index's (image, whether its sign is -1)."""
    position = subset_position(g.dim, p)
    out = []
    for I in degree_basis(g.dim, p):
        image = [perm[i][0] for i in I]
        inversions = sum(a > b for x, a in enumerate(image) for b in image[x + 1 :])
        inversions += sum(perm[i][1] for i in I)
        base = position[tuple(sorted(image))] * m
        out.extend((base + tau[k][0], (-1) ** (inversions + tau[k][1])) for k in range(m))
    return out


def _reference_sectors(g, rep, tags):
    skeletons = [reference_degree_skeleton(g, p) for p in range(g.dim)]
    return {
        mu: [
            reference_sector_differential(
                g, rep.m, p, skeletons[p], reference_action_table(g, rep, mu)
            )
            for p in range(g.dim)
        ]
        for mu in tags
    }


def _assert_sign_rule(sectors, ordered, reference, conjugate):
    """Entry v of D_p(mu) at (J, l; I, k) is s_J s_l s_I s_k v, conjugated if
    conjugate, at the images of (J, l) and (I, k) in D_p(nu), for each (mu, nu)."""
    codes = [[2 * t + (s < 0) for t, s in cm] for cm in reference]
    for mu, nu in ordered:
        for p, (d, image) in enumerate(zip(sectors[mu], sectors[nu])):
            rows, cols = reference[p + 1], reference[p]
            for r, row in enumerate(d.row_maps):
                target, s_r = rows[r]
                assert len(image.row_maps[target]) == len(row)
                for c, v in row.items():
                    col, s_c = cols[c]
                    w = v.conjugate() if conjugate else v
                    assert image.row_maps[target][col] == (w if s_r * s_c > 0 else -w)
            assert is_image(d, image, codes[p + 1], codes[p], conjugate)


def test_conjugate_sectors_follow_the_sign_rule_on_example_7_1_generic():
    # Entry v of D_p(mu) at (J, l; I, k) is s_J s_I conj(v) at
    # (sigma J, tau l; sigma I, tau k) of D_p(sigma-bar mu), on the
    # rescanning references, for every ordered pair of distinct partners.
    g, rep, w = _insertion_inputs("example-7-1-generic")
    tags = build_invariant_complex(g, rep, w).tag_table
    ordered = [(mu, _conjugate_tag(g, mu)) for mu in tags]
    ordered = [(mu, nu) for mu, nu in ordered if nu != mu and nu in tags]
    assert len(tags) == 21 and len(ordered) == 18
    sigma = tuple((g.conjugation[k], False) for k in range(g.dim))
    reference = [_reference_cochain_map(g, rep.m, sigma, sigma, p) for p in range(g.dim + 1)]
    maps = cochain_maps(g.dim, sigma, sigma)
    assert maps == [[2 * t + (s < 0) for t, s in cm] for cm in reference]
    _assert_sign_rule(_reference_sectors(g, rep, tags), ordered, reference, True)


def test_linear_sectors_follow_the_sign_rule_on_example_7_1_generic():
    # The search finds, per component {v1, v3, v5} and {v2, v4, v6}, the
    # identity and v5 -> -v5 (v6 -> -v6) with v1 <-> v3 (v2 <-> v4) up to
    # sign, and the swap of the two. For each that moves a tag, entry v of
    # D_p(mu) is s_J s_l s_I s_k v at the images in D_p(pi.mu), tau = pi.
    g, rep, w = _insertion_inputs("example-7-1-generic")
    tags = build_invariant_complex(g, rep, w).tag_table
    perms, nodes = linear_automorphisms(g)
    assert len(perms) == 5 and 0 < nodes < SEARCH_NODES
    assert sorted((perm[4], perm[5]) for perm in perms) == [
        ((4, False), (5, False)),
        ((4, False), (5, False)),
        ((4, False), (5, True)),
        ((4, True), (5, False)),
        ((5, False), (4, False)),
    ]
    sectors = _reference_sectors(g, rep, tags)
    moved = 0
    for perm in perms:
        # Each keeps the brackets: [pi X_i, pi X_j] = pi [X_i, X_j].
        for i in range(g.dim):
            for j in range(g.dim):
                (pi, si), (pj, sj) = perm[i], perm[j]
                image = {perm[k][0]: -c if perm[k][1] != (si != sj) else c
                         for k, c in g.bracket(i, j).items()}
                assert g.bracket(pi, pj) == image
        ordered = [(mu, _linear_tag(g, perm, mu)) for mu in tags]
        ordered = [(mu, nu) for mu, nu in ordered if nu != mu]
        assert all(nu in tags for _, nu in ordered)
        moved += bool(ordered)
        reference = [_reference_cochain_map(g, rep.m, perm, perm, p) for p in range(g.dim + 1)]
        assert cochain_maps(g.dim, perm, perm) == [
            [2 * t + (s < 0) for t, s in cm] for cm in reference
        ]
        _assert_sign_rule(sectors, ordered, reference, False)
    assert moved == 3


def _count_eliminations(monkeypatch):
    """The complexes that oracle.cohomology eliminates: each sector built,
    then one complex holding every block."""
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


def _assert_eliminations(monkeypatch, spec, tags, sectors):
    g, rep, w = _product_inputs(spec)
    ic = build_invariant_complex(g, rep, w)
    skeleton = sector_skeleton(g)
    unpaired = [sector_cohomology_full(g, rep, tag, skeleton).betti for tag in ic.tag_table]
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    assert len(ic.tag_table) == tags
    assert len(seen) - 1 == sectors
    assert seen[-1].dims == tuple(math.comb(g.dim, p) * rep.m for p in range(g.dim + 1))
    assert report.ok
    assert [s.full_betti for s in report.sectors] == unpaired


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
    # sigma alone, with the search finding nothing: each 7-1 instance has 9
    # pairs of distinct partners among its 21 tags, and 3 among its 9 on
    # trivial coefficients, where tau is the identity, alone or times
    # heisenberg3; heisenberg3's conjugation is the identity and the others
    # have none.
    monkeypatch.setattr(oracle, "linear_automorphisms", lambda g: ([], 0))
    _assert_eliminations(monkeypatch, spec, tags, sectors)


@pytest.mark.parametrize(
    "spec,tags,sectors",
    [
        pytest.param(spec, tags, sectors, id=f"{spec}-{sectors}")
        for spec, tags, sectors in [
            ("example-7-1-generic", 21, 5),
            ("example-7-1-pi", 21, 5),
            ("example-7-2-generic", 3, 2),
            ("example-7-2-pi", 3, 2),
            ("heisenberg3", 1, 1),
            ("torus-complex-n3", 1, 1),
            ("example-7-1-generic:trivial", 9, 3),
            ("example-7-1-pi:trivial", 9, 3),
            ("example-7-1-generic:trivial+heisenberg3:trivial", 9, 3),
        ]
    ],
)
def test_orbits_eliminate_one_sector_each(monkeypatch, spec, tags, sectors):
    # One elimination per orbit. Example 7.1's 21 tags (a, b) fall into 5
    # orbits under sigma (a, b) -> (b, a) and the negations of a and of b,
    # its 9 trivial-coefficient tags into 3; example 7.2's e1 -> -e1,
    # e2 <-> e3 pairs its tags (-1) and (1). heisenberg3 has no complement,
    # so nothing of it moves a tag.
    _assert_eliminations(monkeypatch, spec, tags, sectors)


BLOCK_SPECS = sorted(p.stem for p in INSTANCE_DIR.glob("*.json")) + [
    "example-7-1-generic:trivial+heisenberg3:trivial",
    "+".join(["heisenberg3:trivial"] * 4),
]


@pytest.mark.parametrize(
    "spec",
    BLOCK_SPECS,
    ids=lambda spec: spec if spec.count("+") < 3 else "heisenberg3:trivial^4",
)
def test_every_block_equals_its_own_elimination(spec):
    # Reference: each tag's block, built and eliminated alone, must give
    # the Betti numbers that the oracle reads off one elimination of every
    # block.
    g, rep, w = _product_inputs(spec)
    ic = build_invariant_complex(g, rep, w)
    report = verify_quasi_iso(ic)
    assert report.ok
    assert [s.tag for s in report.sectors] == list(ic.tag_table)
    assert [s.block_betti for s in report.sectors] == [
        cohomology(restrict_complex(ic, (tid,))).betti for tid in range(len(ic.tag_table))
    ]


def test_a_kernel_entry_across_tags_above_degree_1_is_refused():
    # Counting each block's rank off the pivot columns of its tag needs
    # every entry to stay in its column's tag. A kernel that moves one
    # degree-2 entry onto a degree-3 row of another tag, past the build's
    # check of degrees 0 and 1, must make the oracle raise, not report.
    g, rep, w = _product_inputs("example-7-1-generic")
    ic = build_invariant_complex(g, rep, w)
    n, m, target_ids = g.dim, rep.m, tag_ids(ic)[3]
    moved = []

    def leaky(columns):
        columns = list(columns)
        entries = ic.kernel(columns)
        if entries and not moved and (columns[0] // m).bit_count() == 2:
            (r, c), v = next(iter(entries.items()))
            del entries[(r, c)]
            at = key_position(n, m, r)
            away = next(i for i, t in enumerate(target_ids) if t != target_ids[at])
            entries[(cochain_key(n, m, 3, away), c)] = v
            moved.append(c)
        return entries

    assert verify_quasi_iso(ic).ok
    with pytest.raises(WeightGradingError, match="weight grading violated"):
        verify_quasi_iso(dataclasses.replace(ic, kernel=leaky))
    assert len(moved) == 1


def _spy_certificates(monkeypatch):
    """(perm, conjugate, passed) of each generator the oracle certifies."""
    calls = []

    def spy(g, rep, perm, conjugate):
        calls.append((perm, conjugate, _certified(g, rep, perm, conjugate)))
        return calls[-1][2]

    monkeypatch.setattr(oracle, "_certified", spy)
    return calls


def _unpaired_report(monkeypatch, ic):
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_sector_orbits", lambda g, rep, tags: {})
        return verify_quasi_iso(ic)


MEMBER_SPECS = sorted(p.stem for p in INSTANCE_DIR.glob("*.json")) + [
    "example-7-1-generic:trivial+heisenberg3:trivial",
    "+".join(["example-7-2-generic:trivial"] * 4),
]


@pytest.mark.parametrize(
    "spec",
    MEMBER_SPECS,
    ids=lambda spec: spec if spec.count("+") < 3 else "example-7-2-generic:trivial^4",
)
def test_every_member_sector_is_the_image_of_its_orbits_first(monkeypatch, spec):
    # The check the oracle no longer makes: every member sector is built
    # raw and compared entry by entry with Phi of its orbit's first sector,
    # Phi composed along the member's path of certified generators. Every
    # generator these instances offer passes its certificate.
    g, rep, w = _product_inputs(spec)
    tags = build_invariant_complex(g, rep, w).tag_table
    calls = _spy_certificates(monkeypatch)
    first = _sector_orbits(g, rep, tags)
    assert all(passed for _, _, passed in calls)
    generators = [(perm, conjugate) for perm, conjugate, _ in calls]
    path = orbit_paths(list(tags), generators, g.complement)
    assert path.keys() == first.keys()
    maps = [
        (cochain_maps(g.dim, perm, perm if rep.adjoint else ((0, False),)), conjugate)
        for perm, conjugate in generators
    ]
    skeleton = sector_skeleton(g)

    def differentials(mu):
        rho = _action_table(rep, twist_at(g, mu))
        return [_sector_differential(g, rep.m, p, skeleton, rho) for p in range(g.dim)]

    held = {}
    for nu in path:
        root = nu
        while root in path:
            root = path[root][0]
        assert root == first[nu]
        if root not in held:
            held[root] = differentials(root)
        composed, conjugate = map_from_first(path, maps, nu)
        for p, (d, image) in enumerate(zip(held[root], differentials(nu))):
            assert is_image(d, image, composed[p + 1], composed[p], conjugate)


def test_a_module_that_is_not_ad_refuses_every_generator(monkeypatch):
    # R(v1) also maps v6 to v1. It still raises the weight under R(v5) by
    # one and keeps it under R(v6), so the module still validates, with
    # the same weights and 21 tags. But it is not ad: sigma, the two sign
    # changes and the swap each send the new entry where the module has
    # none, or flip its sign. On the adjoint module all four pass; here all
    # four are refused, and every sector is eliminated.
    g, adjoint, _ = _insertion_inputs("example-7-1-generic")
    rows = [dict(row) for row in adjoint.matrices[0].row_maps]
    rows[0][5] = ONE
    matrices = (ExactMatrix(6, 6, tuple(rows)),) + adjoint.matrices[1:]
    mutant = RepresentationData(6, matrices, adjoint=True)
    assert validate_representation(g, mutant) == ()
    calls = _spy_certificates(monkeypatch)
    ic = build_invariant_complex(g, adjoint, infer_weights(g, adjoint))
    _sector_orbits(g, adjoint, ic.tag_table)
    assert [(conjugate, passed) for _, conjugate, passed in calls] == [
        (True, True), (False, True), (False, True), (False, True)
    ]
    calls.clear()
    ic = build_invariant_complex(g, mutant, infer_weights(g, mutant))
    assert len(ic.tag_table) == 21
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    assert [(conjugate, passed) for _, conjugate, passed in calls] == [
        (True, False), (False, False), (False, False), (False, False)
    ]
    assert len(seen) == 1 + 21
    assert report.ok
    assert report == _unpaired_report(monkeypatch, ic)


def test_a_flipped_bracket_sign_refuses_the_automorphism(monkeypatch):
    # e1 -> -e1, e2 <-> e3 keeps [e1,e2] = e2 and [e1,e3] = -e3; with the
    # second flipped to [e1,e3] = e3 it keeps neither.
    g, rep, _ = _insertion_inputs("example-7-2-generic")
    (pi,) = [perm for perm in linear_automorphisms(g)[0] if perm[0] == (0, True)]
    assert pi == ((0, True), (2, False), (1, False)) and _certified(g, rep, pi, False)
    flipped = LieAlgebraData(3, g.basis, [(0, 1, 1, ONE), (0, 2, 2, ONE)], [1, 2], [0])
    assert not _certified(flipped, trivial_representation(flipped), pi, False)
    # The same flip in the first factor of example-7-2-generic^2, under the
    # generators found before the flip: 9 tags (a, b), a in {0, 1, 2} and
    # b in {-1, 0, 1}, fall into 6 orbits under b -> -b alone.
    g, rep, _ = _product_inputs("example-7-2-generic+example-7-2-generic")
    perms, _ = linear_automorphisms(g)
    entries = [(i, j, k, -c if (i, j, k) == (0, 2, 2) else c) for i, j, k, c in bracket_entries(g)]
    assert entries != bracket_entries(g)
    flipped = LieAlgebraData(6, g.basis, entries, g.nilradical, g.complement)
    rep = trivial_representation(flipped)
    ic = build_invariant_complex(flipped, rep, infer_weights(flipped, rep))
    monkeypatch.setattr(oracle, "linear_automorphisms", lambda g: (perms, 0))
    calls = _spy_certificates(monkeypatch)
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    # The first factor's e1 -> -e1 now sends no tag onto another, so it is
    # not certified; the second factor's is, and the swap is refused.
    assert perms[3][4] == (4, True) and perms[4][0] == (4, False)
    assert [(perm, passed) for perm, _, passed in calls] == [(perms[3], True), (perms[4], False)]
    assert len(seen) - 1 == 6
    assert report == _unpaired_report(monkeypatch, ic)


def test_a_conjugation_that_is_not_conjugate_equivariant_is_refused(monkeypatch):
    # example 7.1 with [v3, v5] = 2 v3: sigma sends it to [v4, v6] = v4, not
    # 2 v4, so sigma is refused, on the algebra and its adjoint module alike.
    # The search still finds v6 -> -v6, v2 <-> v4, which pairs alone.
    g, adjoint, _ = _insertion_inputs("example-7-1-generic")
    sigma = tuple((g.conjugation[i], False) for i in range(g.dim))
    assert _certified(g, adjoint, sigma, True)
    entries = [(i, j, k, c + c if (i, j) == (2, 4) else c) for i, j, k, c in bracket_entries(g)]
    mutant = LieAlgebraData(6, g.basis, entries, g.nilradical, g.complement, g.conjugation)
    rep = adjoint_representation(mutant)
    assert not _certified(mutant, rep, sigma, True)
    assert not _certified(mutant, trivial_representation(mutant), sigma, True)
    ic = build_invariant_complex(mutant, rep, infer_weights(mutant, rep))
    calls = _spy_certificates(monkeypatch)
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    assert [(conjugate, passed) for _, conjugate, passed in calls] == [(True, False), (False, True)]
    assert len(seen) - 1 < len(ic.tag_table)
    assert report == _unpaired_report(monkeypatch, ic)


def test_explicit_matrices_are_never_paired(monkeypatch):
    # The adjoint module of example 7.1 as explicit matrices, with the
    # algebra's conjugation table: no tau is known, so no search runs, all
    # 21 sectors are eliminated, and the report is the adjoint module's.
    g, adjoint, w = _insertion_inputs("example-7-1-generic")
    assert g.conjugation is not None
    explicit = RepresentationData(adjoint.m, adjoint.matrices)
    ic = build_invariant_complex(g, explicit, infer_weights(g, explicit))
    searches = []
    monkeypatch.setattr(oracle, "linear_automorphisms", lambda g: searches.append(g))
    assert _sector_orbits(g, explicit, ic.tag_table) == {}
    seen = _count_eliminations(monkeypatch)
    report = verify_quasi_iso(ic)
    assert len(seen) == 1 + len(ic.tag_table) == 22
    assert searches == []
    monkeypatch.undo()
    assert report == verify_quasi_iso(build_invariant_complex(g, adjoint, w))


def test_an_instance_with_one_tag_runs_no_search(monkeypatch):
    g, rep, w = _insertion_inputs("heisenberg3")
    ic = build_invariant_complex(g, rep, w)
    assert len(ic.tag_table) == 1
    searches = []
    monkeypatch.setattr(oracle, "linear_automorphisms", lambda g: searches.append(g))
    assert verify_quasi_iso(ic).ok
    assert searches == []


def _abelian_n12():
    # Six complement indices, each its own component of the bracket graph,
    # all isomorphic: the search finds +-1 on each and five swaps.
    return LieAlgebraData(12, [f"a{i}" for i in range(12)], [], range(6), range(6, 12))


@pytest.mark.parametrize("name", ["abelian-n12", "heisenberg3:trivial^4"])
def test_the_search_stays_within_its_node_budget(name):
    g = _abelian_n12() if name == "abelian-n12" else make_heisenberg_power(4)
    perms, nodes = linear_automorphisms(g)
    # heisenberg3 has no complement index, so no component is searched;
    # test_quasi_iso_heisenberg_power_n12 pins its report.
    assert (len(perms), nodes) == ((17, 17) if name == "abelian-n12" else (0, 0))
    assert nodes < SEARCH_NODES
    if name == "abelian-n12":
        # One tag, so nothing is paired; d = 0, and the report is unchanged.
        rep = trivial_representation(g)
        report = verify_quasi_iso(build_invariant_complex(g, rep, infer_weights(g, rep)))
        assert report.ok
        assert [s.full_betti for s in report.sectors] == [
            tuple(math.comb(12, p) for p in range(13))
        ]


@given(
    gaussians,
    gaussians,
    st.booleans(),
    st.booleans(),
    st.sampled_from(["conj", "-conj", "same", "-same", "drawn"]),
)
@example(ZERO, ONE, False, True, "drawn")
@example(GaussianRational(3), ONE, True, True, "conj")
@example(GaussianRational(0, 2), ONE, False, True, "-conj")
@example(GaussianRational(0, 2), ONE, False, False, "-same")
@example(GaussianRational(3), ONE, True, False, "conj")
def test_is_signed_conjugate_agrees_with_conjugate_and_negation(v, drawn, negate, conjugate, pick):
    # is_signed_image, linear and conjugated. Drawn partners almost never
    # match, so w is also formed from v.
    w = {"conj": v.conjugate(), "-conj": -v.conjugate(), "same": v, "-same": -v, "drawn": drawn}
    w = w[pick]
    image = v.conjugate() if conjugate else v
    assert is_signed_image(w, v, negate, conjugate) == (w == (-image if negate else image))
