"""Randomized invariants that hold for every admissible input.

Each property here is a theorem about the constructions, not a sampled
regression: twisted differentials square to zero because characters kill
the derived subalgebra, selections are unions of tag blocks and tag
blocks are subcomplexes, and the zero tag passes every triviality test.
"""
from fractions import Fraction

import pytest
from ce_reference import (
    ce_differential,
    kernel_column,
    kernel_columns,
    reference_ce_image,
    reference_ce_kernel,
    reference_tag,
)
from conftest import (
    INSTANCE_DIR,
    SKEWED_HEISENBERG,
    combine,
    diagonal_weights,
    kept_indices,
    make_heisenberg,
    make_split_3d,
    make_split_6d,
    make_split_6d_plus_heisenberg,
    zero_tag_indices,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from period_reference import named_coords, package_value, reference_conjugate, reference_names
from subset_reference import degree_basis

from solvcohom.cecomplex import (
    FiniteComplex,
    ce_kernel,
    cohomology,
    subset_sums,
)
from solvcohom.instances import (
    build_representation,
    build_weight_assignment,
    load_instance,
    parse_instance,
)
from solvcohom.lattice import LatticeData, select_de_rham, select_dolbeault, validate_lattice
from solvcohom.liealg import (
    LieAlgebraData,
    RepresentationData,
    adjoint_representation,
    trivial_representation,
    validate_representation,
)
from solvcohom.linalg import ExactMatrix
from solvcohom.oracle import sector_cohomology_full, sector_skeleton
from solvcohom.scalars import I, MINUS_ONE, ONE, ZERO, GaussianRational
from solvcohom.weights import (
    WeightAssignment,
    build_invariant_complex,
    infer_weights,
    weight_sort_key,
)

small_fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)

ALGEBRAS = {
    "heisenberg": make_heisenberg(),
    "split_3d": make_split_3d(),
    "split_6d": make_split_6d(),
    "split_6d+heisenberg": make_split_6d_plus_heisenberg(),
}

# Built once; hypothesis draws only the cheap random part per example.
_IC_6D = build_invariant_complex(
    ALGEBRAS["split_6d"],
    adjoint_representation(ALGEBRAS["split_6d"]),
    infer_weights(
        ALGEBRAS["split_6d"], adjoint_representation(ALGEBRAS["split_6d"])
    ),
)
_IC_3D = build_invariant_complex(
    ALGEBRAS["split_3d"],
    trivial_representation(ALGEBRAS["split_3d"]),
    infer_weights(
        ALGEBRAS["split_3d"], trivial_representation(ALGEBRAS["split_3d"])
    ),
)

_SYMBOLS = ("a",)


def period_values():
    names = reference_names(_SYMBOLS)
    return st.builds(
        lambda cs: package_value(dict(zip(names, cs)), _SYMBOLS),
        st.lists(small_fractions, min_size=len(names), max_size=len(names)),
    )


def lattices(width: int):
    gen = st.lists(period_values(), min_size=width, max_size=width)
    return st.builds(
        lambda gens: LatticeData(_SYMBOLS, tuple(map(tuple, gens))),
        st.lists(gen, min_size=0, max_size=3),
    )


def twisted_complex(g: LieAlgebraData, mu):
    rep = trivial_representation(g)
    dims = [len(degree_basis(g.dim, p)) for p in range(g.dim + 1)]
    diffs = [ce_differential(g, rep, mu, p) for p in range(g.dim)]
    return FiniteComplex(tuple(dims), tuple(diffs))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_twisted_differential_squares_to_zero(name, data):
    g = ALGEBRAS[name]
    mu = tuple(
        data.draw(scalars, label=f"mu_{i}") for i in range(len(g.complement))
    )
    fc = twisted_complex(g, mu)
    fc.check_complex()  # raises on any nonzero entry of d.d


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_euler_characteristic_matches_dimensions(name, data):
    g = ALGEBRAS[name]
    mu = tuple(
        data.draw(scalars, label=f"mu_{i}") for i in range(len(g.complement))
    )
    fc = twisted_complex(g, mu)
    result = cohomology(fc)
    by_dims = sum((-1) ** p * d for p, d in enumerate(fc.dims))
    assert result.euler_characteristic() == by_dims


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ce_image_equals_reference_formula(name, data):
    # Column (I, k) of the bitmask kernel against the tuple-sorting
    # insertion formula, for a drawn twist, subset and module index, with
    # the trivial or the adjoint module.
    g = ALGEBRAS[name]
    rep = data.draw(st.sampled_from([trivial_representation, adjoint_representation]))(g)
    mu = tuple(
        data.draw(scalars, label=f"mu_{i}") for i in range(len(g.complement))
    )
    I = tuple(sorted(data.draw(st.sets(st.integers(0, g.dim - 1)), label="I")))
    k = data.draw(st.integers(0, rep.m - 1), label="k")
    assert kernel_column(g, rep, mu, I, k) == reference_ce_image(g, rep, mu, I, k)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ce_differential_columns_equal_reference(name, data):
    # Every column of a drawn degree, so that the columns (I, k) with
    # k >= 1 reuse the bracket terms formed for (I, 0).
    g = ALGEBRAS[name]
    rep = data.draw(st.sampled_from([trivial_representation, adjoint_representation]))(g)
    mu = tuple(
        data.draw(scalars, label=f"mu_{i}") for i in range(len(g.complement))
    )
    p = data.draw(st.integers(0, g.dim), label="p")
    expected = [
        reference_ce_image(g, rep, mu, I, k)
        for I in degree_basis(g.dim, p)
        for k in range(rep.m)
    ]
    assert kernel_columns(g, rep, mu, p) == expected


# Small values, so that a drawn R_c[k, k] often equals a partial sum of
# c_{ct}^t.
_ENTRY_VALUES = st.sampled_from(
    (ZERO, ONE, MINUS_ONE, GaussianRational(2), GaussianRational(-2), I, GaussianRational(1, 1))
)

# split_3d plus a central complement direction e4: the twist at X_e4
# meets R_e4[k, k] with no bracket term beside it.
# split_5d: e1 acts on e2, e3, e4 by 1, -1, 1 and e5 on e3 by 1. In column
# e2*^e3*^e4*, the diagonal coefficient at e1*^e2*^e3*^e4* sums three
# bracket terms and the twist, whose partial sums return to zero.
# The kernel forms neither coefficient, and the reference must cancel
# both. heisenberg3 in the basis x, y, y + z: ad(x) has the diagonal
# (0, -1, 1) though x lies in the nilradical, so the kernel's tables fill.
_KERNEL_ALGEBRAS = {
    **ALGEBRAS,
    "heisenberg3-skewed": parse_instance(SKEWED_HEISENBERG).algebra,
    "split_3d+line": LieAlgebraData(
        dim=4,
        basis=("e1", "e2", "e3", "e4"),
        brackets=[(0, 1, 1, ONE), (0, 2, 2, MINUS_ONE)],
        nilradical=[1, 2],
        complement=[0, 3],
    ),
    "split_5d": LieAlgebraData(
        dim=5,
        basis=("e1", "e2", "e3", "e4", "e5"),
        brackets=[(0, 1, 1, ONE), (0, 2, 2, MINUS_ONE), (0, 3, 3, ONE), (4, 2, 2, ONE)],
        nilradical=[1, 2, 3],
        complement=[0, 4],
    ),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_subset_sums_equal_the_direct_sum_of_every_mask(data):
    # Vectors come from a small pool holding the zero vector and pairs
    # (v, -v), so masks share sums, cancel to zero, and skip zero bits.
    width = data.draw(st.integers(0, 3), label="width")
    vector = st.tuples(*[scalars] * width)
    base = data.draw(st.lists(vector, max_size=2), label="base")
    pool = [(ZERO,) * width] + base + [tuple(-x for x in v) for v in base]
    vectors = data.draw(st.lists(st.sampled_from(pool), max_size=6), label="vectors")
    table, ids = subset_sums(vectors, width)
    assert len(ids) == 2 ** len(vectors)
    for mask, i in enumerate(ids):
        direct = (ZERO,) * width
        for t, v in enumerate(vectors):
            if mask >> t & 1:
                direct = tuple(x + y for x, y in zip(direct, v))
        assert table[i] == direct
    assert len(set(table)) == len(table)
    assert subset_sums([v for v in vectors if any(v)], width)[0] == table


def test_subset_sums_reuse_ids_across_zero_vectors_and_cancellation():
    zero, v = (ZERO, ZERO), (ONE, MINUS_ONE)
    neg = (MINUS_ONE, ONE)
    assert subset_sums([zero, v, zero], 2) == ([zero, v], [0, 0, 1, 1, 0, 0, 1, 1])
    assert subset_sums([v, neg], 2) == ([zero, v, neg], [0, 1, 2, 0])
    assert subset_sums([(), ()], 0) == ([()], [0, 0, 0, 0])
    assert subset_sums([], 2) == ([zero], [0])


@pytest.mark.parametrize("name", sorted(_KERNEL_ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ce_kernel_entries_equal_bitmask_reference(name, data):
    # The kernel twists each column by its own weight tag without forming
    # it, forms no term that the twist cancels and sums the nilradical
    # diagonal terms where they meet; the reference forms every term in
    # the module twisted by the tag and lets the sums cancel. The entries
    # must agree on a drawn subset of a degree's columns in drawn order,
    # twice from one kernel (a call must not change the next), dict item
    # order included at degrees 0 and 1, the only ones where the kernel
    # promises it. Modules: the trivial or adjoint one with the tags of
    # build_invariant_complex; or drawn, unvalidated matrices, nonzero
    # diagonals in the nilradical included, whose weights are their
    # diagonals, with the tags of reference_tag.
    g = _KERNEL_ALGEBRAS[name]
    p = data.draw(st.integers(0, g.dim - 1), label="p")
    rng = data.draw(st.randoms(use_true_random=False))
    mode = data.draw(st.sampled_from(("own tag", "drawn module")), label="mode")
    if mode == "own tag":
        rep = data.draw(st.sampled_from([trivial_representation, adjoint_representation]))(g)
        ic = build_invariant_complex(g, rep, infer_weights(g, rep))
        twists, column_tag = ic.tag_table, dict(enumerate(ic.tag_ids[p]))
    else:
        m = data.draw(st.integers(1, 3), label="m")
        matrices = []
        position = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
        for j in range(g.dim):
            entries = data.draw(st.dictionaries(position, _ENTRY_VALUES), label=f"R_{j}")
            matrices.append(ExactMatrix.from_entries(m, m, entries))
        rep, w = RepresentationData(m, tuple(matrices)), diagonal_weights(g, matrices)
        tags = [reference_tag(w, I, k) for I in degree_basis(g.dim, p) for k in range(m)]
        twists = sorted(set(tags), key=weight_sort_key)
        column_tag = {c: twists.index(tag) for c, tag in enumerate(tags)}
    columns = list(range(len(degree_basis(g.dim, p)) * rep.m))
    if data.draw(st.booleans(), label="subset"):
        columns = rng.sample(columns, rng.randint(0, len(columns)))
    expected = reference_ce_kernel(g, rep, twists)({c: column_tag[c] for c in columns}, p)
    kernel = ce_kernel(g, rep)
    for _ in range(2):
        entries = kernel(columns, p)
        assert entries == expected
        if p <= 1:
            assert list(entries.items()) == list(expected.items())


def test_ce_kernel_puts_a_diagonal_with_no_action_part_after_the_action_terms():
    # heisenberg3 in the basis x, y, y + z, adjoint module, column y* (x) x.
    # The diagonal at x*^y* (x) x has action part R_x[x, x] = 0 and bracket
    # part -c_{xy}^y = 1, with x in the nilradical, so it follows the
    # action terms at y*^z* (x) y and y*^z* (x) z (from ad(z) x = y - z),
    # though its row comes first. Term order at degree 1, as the reference
    # gives in the untwisted module, the column's tag being ().
    g = parse_instance(SKEWED_HEISENBERG).algebra
    rep = adjoint_representation(g)
    columns = [degree_basis(3, 1).index((1,)) * 3]
    entries = ce_kernel(g, rep)(columns, 1)
    rows = degree_basis(3, 2)
    assert [(rows[r // 3], r % 3, v) for (r, _), v in entries.items()] == [
        ((1, 2), 1, MINUS_ONE),
        ((1, 2), 2, ONE),
        ((0, 1), 0, ONE),
        ((0, 2), 0, ONE),
    ]
    expected = reference_ce_kernel(g, rep, [()])(dict.fromkeys(columns, 0), 1)
    assert list(entries.items()) == list(expected.items())


def test_ce_kernel_sums_a_diagonal_at_its_action_term_and_drops_a_zero_sum():
    # heisenberg3 in the basis x, y, y + z, adjoint module, degree 1. In
    # column z* (x) z, R_x[z, z] = 1 meets the bracket term -c_{xz}^z = -1
    # at x*^z* (x) z and the entry is gone, between the action term at
    # x*^z* (x) y and the bracket term at x*^y* (x) z. In column z* (x) y,
    # R_x[y, y] = -1 meets the same bracket term at x*^z* (x) y, and the
    # sum -2 stays where the action term put it, before the action term at
    # x*^z* (x) z and the bracket term at x*^y* (x) y.
    g = parse_instance(SKEWED_HEISENBERG).algebra
    rep = adjoint_representation(g)
    rows = degree_basis(3, 2)
    z_star = degree_basis(3, 1).index((2,)) * 3
    want = {
        2: [((0, 2), 1, MINUS_ONE), ((0, 1), 2, MINUS_ONE)],
        1: [((0, 2), 1, GaussianRational(-2)), ((0, 2), 2, ONE), ((0, 1), 1, MINUS_ONE)],
    }
    for k, terms in want.items():
        columns = [z_star + k]
        entries = ce_kernel(g, rep)(columns, 1)
        assert [(rows[r // 3], r % 3, v) for (r, _), v in entries.items()] == terms
        expected = reference_ce_kernel(g, rep, [()])(dict.fromkeys(columns, 0), 1)
        assert list(entries.items()) == list(expected.items())


@settings(max_examples=40, deadline=None)
@given(lat=lattices(2))
def test_de_rham_selection_closed_and_keeps_zero_tag(lat):
    # restrict_complex builds only the kept tags' columns and checks the
    # grading of every entry, so each lands on a kept row: closed by
    # construction.
    sel = select_de_rham(_IC_6D, lat)
    zeros = zero_tag_indices(_IC_6D)
    for p, kept in enumerate(kept_indices(_IC_6D, sel)):
        assert set(zeros[p]) <= set(kept)


@settings(max_examples=40, deadline=None)
@given(lat=lattices(1))
def test_dolbeault_selection_closed_and_keeps_zero_tag(lat):
    sel = select_dolbeault(_IC_3D, lat)
    zeros = zero_tag_indices(_IC_3D)
    for p, kept in enumerate(kept_indices(_IC_3D, sel)):
        assert set(zeros[p]) <= set(kept)


def _conjugate(value):
    return package_value(reference_conjugate(named_coords(value)), _SYMBOLS)


@settings(max_examples=40, deadline=None)
@given(v=period_values())
def test_period_conjugation_is_an_involution(v):
    # A real point of split_6d needs each coordinate of the pair to be the
    # other's conjugate, so the package conjugates v and back again.
    lat = LatticeData(_SYMBOLS, ((v, _conjugate(v)),))
    assert validate_lattice(ALGEBRAS["split_6d"], lat) == ()


@settings(max_examples=40, deadline=None)
@given(v=period_values(), c=scalars)
def test_period_conjugation_twists_scaling(v, c):
    # conj(c * v) = conj(c) * conj(v), so the pair is a real point.
    pair = (combine((c, v)), combine((c.conjugate(), _conjugate(v))))
    assert validate_lattice(ALGEBRAS["split_6d"], LatticeData(_SYMBOLS, (pair,))) == ()


def abelian(n: int) -> LieAlgebraData:
    return LieAlgebraData(
        n,
        tuple(f"t{i}" for i in range(n)),
        [],
        nilradical=[],
        complement=range(n),
    )


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_abelian_nonzero_twist_has_no_cohomology(n, data):
    # The twisted complex of an abelian algebra is a Koszul complex on
    # the covector; it is exact whenever the covector is nonzero.
    g = abelian(n)
    mu = tuple(data.draw(scalars, label=f"mu_{i}") for i in range(n))
    rep = trivial_representation(g)
    betti = sector_cohomology_full(g, rep, mu, sector_skeleton(g)).betti
    if any(mu):
        assert betti == tuple(0 for _ in range(n + 1))
    else:
        from math import comb

        assert betti == tuple(comb(n, p) for p in range(n + 1))


def check_tag_table(ic):
    """The interned tag table against reference_tag, label by label."""
    w = ic.weights
    n, m = ic.algebra.dim, ic.representation.m
    reference = [
        [
            reference_tag(w, degree_basis(n, p)[i // m], i % m)
            for i in range(len(degree_basis(n, p)) * m)
        ]
        for p in range(n + 1)
    ]
    assert [[ic.tag_table[t] for t in per] for per in ic.tag_ids] == reference
    distinct = {t for per in reference for t in per}
    assert ic.distinct_tags() == tuple(sorted(distinct, key=weight_sort_key))
    for tid, tag in enumerate(ic.tag_table):
        scan = tuple(
            tuple(i for i, t in enumerate(per) if t == tag) for per in reference
        )
        assert ic.indices_with_tag_ids((tid,)) == scan
    # An id past the table names no tag and selects nothing.
    assert ic.indices_with_tag_ids((len(ic.tag_table),)) == tuple(() for _ in reference)


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json"))
)
def test_tag_table_matches_weights_on_shipped_instances(name):
    inst = load_instance(INSTANCE_DIR / f"{name}.json")
    rep = build_representation(inst)
    w = build_weight_assignment(inst, rep)
    check_tag_table(build_invariant_complex(inst.algebra, rep, w))


@pytest.mark.parametrize("name", ["split_3d", "split_6d"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_tag_table_matches_weights_on_drawn_weights(name, data):
    # Any linear image A*lambda of the inferred weights, with the module
    # weights shifted by a common covector s, is still additive; a
    # singular A merges tags. The build takes only the ad and R diagonals
    # as weights, so the abelian complement acts on the abelian
    # nilradical by the drawn algebra weights, and the module is the
    # adjoint one with R(X_c) shifted by s(X_c).
    g = ALGEBRAS[name]
    inferred = infer_weights(g, adjoint_representation(g))
    width = len(g.complement)
    A = [[data.draw(scalars) for _ in range(width)] for _ in range(width)]
    s = [data.draw(scalars) for _ in range(width)]

    def image(lam, shift):
        return tuple(
            sum((A[r][c] * lam[c] for c in range(width)), shift[r])
            for r in range(width)
        )

    zero = [GaussianRational(0)] * width
    w = WeightAssignment(
        tuple(image(lam, zero) for lam in inferred.algebra_weights),
        tuple(image(lam, s) for lam in inferred.rep_weights),
        g.complement,
    )
    drawn = LieAlgebraData(
        dim=g.dim,
        basis=g.basis,
        brackets=[
            (c, i, i, w.algebra_weights[i][pos])
            for pos, c in enumerate(g.complement)
            for i in sorted(g.nilradical)
            if w.algebra_weights[i][pos]
        ],
        nilradical=g.nilradical,
        complement=g.complement,
        mode=g.mode,
    )
    matrices = []
    for j, R in enumerate(adjoint_representation(drawn).matrices):
        entries = {(l, k): v for l, row in enumerate(R.row_maps) for k, v in row.items()}
        if j in g.complement:
            for k in range(g.dim):
                entries[(k, k)] = entries.get((k, k), ZERO) + s[g.complement.index(j)]
        matrices.append(ExactMatrix.from_entries(g.dim, g.dim, entries))
    check_tag_table(build_invariant_complex(drawn, RepresentationData(g.dim, tuple(matrices)), w))


def _diagonal_module(g, data):
    # Drawn diagonals on the complement, zero on the nilradical: diagonal
    # matrices commute, and every bracket lands in the nilradical, which
    # acts by zero, so this is a representation. The small pool makes
    # equal entries, hence merged tags, common.
    m = data.draw(st.integers(min_value=1, max_value=3))
    entries = st.one_of(st.sampled_from([ZERO, ONE, MINUS_ONE]), scalars)
    matrices = []
    for j in range(g.dim):
        diagonal = [data.draw(entries) for _ in range(m)] if j in g.complement else []
        matrices.append(
            ExactMatrix.from_entries(m, m, {(k, k): v for k, v in enumerate(diagonal) if v})
        )
    return RepresentationData(m, tuple(matrices))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_tag_table_matches_weights_on_drawn_modules(name, data):
    # The subset-mask build against WeightAssignment.tag on every (I, k)
    # of the trivial, the adjoint or a drawn diagonal module.
    g = ALGEBRAS[name]
    kind = data.draw(st.sampled_from(["trivial", "adjoint", "diagonal"]))
    if kind == "trivial":
        rep = trivial_representation(g)
    elif kind == "adjoint":
        rep = adjoint_representation(g)
    else:
        rep = _diagonal_module(g, data)
        assert validate_representation(g, rep) == ()
    check_tag_table(build_invariant_complex(g, rep, infer_weights(g, rep)))
