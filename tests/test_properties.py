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
    combine,
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
from solvcohom.instances import build_representation, build_weight_assignment, load_instance
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


# Small values, so that a twist often equals a partial sum of c_{ct}^t.
_TWIST_VALUES = st.sampled_from(
    (ZERO, ONE, MINUS_ONE, GaussianRational(2), GaussianRational(-2), I, GaussianRational(1, 1))
)

# split_3d plus a central complement direction e4: a twist at X_e4 is a
# diagonal coefficient with no R or bracket term beside it.
# split_5d: e1 acts on e2, e3, e4 by 1, -1, 1 and e5 on e3 by 1. In column
# e2*^e3*^e4*, the diagonal coefficient at e1*^e2*^e3*^e4* sums three
# bracket terms, whose partial sums return to the action part twice
# when that part is 0.
_KERNEL_ALGEBRAS = {
    **ALGEBRAS,
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
    # The kernel forms only off-diagonal terms and reads each diagonal
    # coefficient from tables; the reference forms every term and lets
    # the sums cancel. The entries must agree on a drawn subset of a
    # degree's columns in drawn order, twice from one kernel (the second
    # call reads the filled tables), dict item order included at degrees
    # 0 and 1, the only ones where the kernel promises it. Twists: one
    # for every column, as ce_differential uses; one of a few drawn ones
    # per column; each column's own tag, as build_invariant_complex uses,
    # whose diagonal coefficients all vanish; or that tag shifted by a
    # drawn covector, which is not the ad/R diagonal.
    g = _KERNEL_ALGEBRAS[name]
    rep = data.draw(st.sampled_from([trivial_representation, adjoint_representation]))(g)
    p = data.draw(st.integers(0, g.dim - 1), label="p")
    rng = data.draw(st.randoms(use_true_random=False))
    columns = list(range(len(degree_basis(g.dim, p)) * rep.m))
    if data.draw(st.booleans(), label="subset"):
        columns = rng.sample(columns, rng.randint(0, len(columns)))
    covector = st.tuples(*[_TWIST_VALUES] * len(g.complement))
    mode = data.draw(st.sampled_from(("fixed", "drawn", "own tag", "shifted tag")), label="mode")
    if mode in ("fixed", "drawn"):
        count = 1 if mode == "fixed" else data.draw(st.integers(2, 3), label="count")
        twists = [data.draw(covector, label="twist") for _ in range(count)]
        column_twist = {c: rng.randrange(count) for c in columns}
    else:
        ic = build_invariant_complex(g, rep, infer_weights(g, rep))
        shift = data.draw(covector, label="shift") if mode == "shifted tag" else None
        twists = [
            tag if shift is None else tuple(x + y for x, y in zip(tag, shift))
            for tag in ic.tag_table
        ]
        column_twist = {c: ic.tag_ids[p][c] for c in columns}
    expected = reference_ce_kernel(g, rep, twists)(column_twist, p)
    kernel = ce_kernel(g, rep, twists)
    for _ in range(2):
        entries = kernel(column_twist, p)
        assert entries == expected
        if p <= 1:
            assert list(entries.items()) == list(expected.items())


def test_ce_kernel_puts_a_diagonal_with_no_action_part_after_the_action_terms():
    # Column e2* twisted by mu = (0, 1): the diagonal at e1*^e2* has action
    # part R_{e1}[0, 0] + mu(X_e1) = 0 and bracket part c_{e1,e2}^{e2} = 1,
    # so it follows the entry at e2*^e4* (action part mu(X_e4) = 1), though
    # its row comes first. Term order at degree 1, as the reference gives.
    g = _KERNEL_ALGEBRAS["split_3d+line"]
    rep = trivial_representation(g)
    twists = [(ZERO, ONE)]
    column_twist = {degree_basis(4, 1).index((1,)): 0}
    entries = ce_kernel(g, rep, twists)(column_twist, 1)
    rows = degree_basis(4, 2)
    assert [(rows[r], v) for (r, _), v in entries.items()] == [
        ((1, 3), MINUS_ONE),
        ((0, 1), MINUS_ONE),
    ]
    expected = reference_ce_kernel(g, rep, twists)(column_twist, 1)
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
    # weights shifted by a common covector s, is still additive, so the
    # build succeeds; a singular A merges tags.
    g = ALGEBRAS[name]
    rep = adjoint_representation(g)
    inferred = infer_weights(g, rep)
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
    check_tag_table(build_invariant_complex(g, rep, w))


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
