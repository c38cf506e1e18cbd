import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvcohom import liealg
from solvcohom.errors import ValidationFailure
from solvcohom.instances import build_representation, parse_instance
from solvcohom.liealg import (
    LieAlgebraData,
    RepresentationData,
    ValidationIssue,
    adjoint_representation,
    lower_central_series_dims,
    trivial_representation,
    validate_algebra,
    validate_representation,
)
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational, I

from conftest import (
    INSTANCE_DIR,
    bracket_entries,
    load_bench,
    make_heisenberg,
    make_split_3d,
    make_split_6d,
)


def test_shipped_algebras_validate(heisenberg, split_3d, split_6d):
    for g in (heisenberg, split_3d, split_6d):
        assert validate_algebra(g) == ()


def test_bracket_lookup(heisenberg):
    assert heisenberg.bracket(0, 1) == {2: ONE}
    assert heisenberg.bracket(1, 0) == {2: MINUS_ONE}
    assert heisenberg.bracket(0, 2) == {}


def test_ad_matrix(split_3d):
    ad = split_3d.ad_matrix(0)
    # ad(e1) = diag(0, 1, -1).
    assert ad.row_maps[1].get(1, ZERO) == ONE
    assert ad.row_maps[2].get(2, ZERO) == MINUS_ONE
    assert ad.row_maps[0].get(0, ZERO) == ZERO


def test_split_must_partition():
    overlap = validate_algebra(
        LieAlgebraData(2, ("x", "y"), [], nilradical=[0], complement=[0])
    )
    assert "split-overlap" in [i.code for i in overlap]
    gap = validate_algebra(
        LieAlgebraData(2, ("x", "y"), [], nilradical=[0], complement=[])
    )
    assert "split-incomplete" in [i.code for i in gap]


def test_antisymmetry_violation_detected():
    g = LieAlgebraData(
        2, ("x", "y"), [(0, 0, 1, ONE)], nilradical=[0, 1], complement=[]
    )
    assert "antisymmetry" in [i.code for i in validate_algebra(g)]
    # Conflicting orientations of the same bracket.
    g2 = LieAlgebraData(
        2,
        ("x", "y"),
        [(0, 1, 0, ONE), (1, 0, 0, ONE)],
        nilradical=[0, 1],
        complement=[],
    )
    assert "antisymmetry" in [i.code for i in validate_algebra(g2)]


def test_sl2_with_a_nilradical_split_fails_only_the_nilradical_checks():
    # [e,f] = -h is sl2 with f rescaled by -1, so Jacobi holds; [e,f]
    # leaves span{e,f}, which therefore is neither an ideal nor nilpotent.
    g = LieAlgebraData(
        3,
        ("h", "e", "f"),
        [(0, 1, 1, GaussianRational(2)), (0, 2, 2, GaussianRational(-2)), (1, 2, 0, MINUS_ONE)],
        nilradical=[1, 2],
        complement=[0],
    )
    assert [i.code for i in validate_algebra(g)] == ["nilradical-ideal", "nilradical-lcs"]


def test_jacobi_violation_detected():
    # Every bracket lies in the nilradical, so only Jacobi can fail: on
    # (x1, x2, x3) the cyclic sum is [x1,x5] - [x2,x4] + [x3,x3] = -x5.
    g = LieAlgebraData(
        5,
        ("x1", "x2", "x3", "x4", "x5"),
        [(0, 1, 2, ONE), (0, 2, 3, ONE), (1, 2, 4, ONE), (0, 3, 4, ONE), (1, 3, 4, ONE)],
        nilradical=range(5),
        complement=[],
    )
    assert validate_algebra(g) == (
        ValidationIssue("jacobi", "Jacobi identity fails on (x1,x2,x3)", (0, 1, 2)),
    )


def _jacobi_failures_of_every_triple(g):
    """The triples i < j < k whose cyclic sum is nonzero, all C(n, 3) scanned."""
    failures = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for t, x in g.bracket(b, c).items():
                for u, y in g.bracket(a, t).items():
                    acc[u] = acc.get(u, ZERO) + x * y
        if any(acc.values()):
            failures.append((i, j, k))
    return failures


def test_jacobi_checks_the_triples_through_a_stored_pair_in_order():
    # The algebra above, plus [x7,x4] = x1 stored after [x4,x7] cancelled to
    # an empty row, and [x6,x1] = x3: bracket_table() lists no pair of
    # (x4,x6,x7), yet Jacobi fails there through [x7,x4]. Every failing
    # triple is found, in the order a scan of all triples gives.
    g = LieAlgebraData(
        7,
        [f"x{i}" for i in range(1, 8)],
        [(0, 1, 2, ONE), (0, 2, 3, ONE), (1, 2, 4, ONE), (0, 3, 4, ONE), (1, 3, 4, ONE),
         (3, 6, 5, ONE), (3, 6, 5, MINUS_ONE), (6, 3, 0, ONE), (5, 0, 2, ONE)],
        nilradical=range(7),
        complement=[],
    )
    assert (3, 6) not in g.bracket_table()
    issues = validate_algebra(g)
    assert [i.code for i in issues] == ["antisymmetry"] + ["jacobi"] * 4 + ["nilradical-lcs"]
    assert issues[1:5] == tuple(
        ValidationIssue("jacobi", f"Jacobi identity fails on ({names})", triple)
        for names, triple in [
            ("x1,x2,x3", (0, 1, 2)),
            ("x1,x2,x6", (0, 1, 5)),
            ("x1,x3,x7", (0, 2, 6)),
            ("x4,x6,x7", (3, 5, 6)),
        ]
    )
    assert [i.witness for i in issues[1:5]] == _jacobi_failures_of_every_triple(g)


def _product(specs):
    """The product of the given shipped factors at seed 1 (bench/products.py)."""
    products = load_bench("products")
    factors = [products.load_factor(INSTANCE_DIR, spec) for spec in specs]
    return parse_instance(products.product_instance(factors, 1, "p"))


def test_validate_calls_bracket_104_times_on_a_product(monkeypatch):
    # example-7-1-generic:trivial^2 (n = 12, seed 1): 1,040 calls when the
    # Jacobi check visited all 220 triples, 608 through the stored pairs only,
    # 404 once the conjugation check and ad_matrix read only those pairs,
    # 112 once Jacobi took only the nonzero products of stored brackets,
    # and 104 once the nilradical-ideal check read each stored row directly.
    g = _product(["example-7-1-generic:trivial"] * 2).algebra
    calls = []
    real = LieAlgebraData.bracket
    monkeypatch.setattr(LieAlgebraData, "bracket", lambda g, i, j: calls.append(1) or real(g, i, j))
    assert validate_algebra(g) == ()
    assert len(calls) == 104


@pytest.mark.parametrize(
    "specs, products",
    [(["example-7-1-generic:trivial"] * 2, 0), (["example-7-1-generic", "heisenberg3"], 40)],
    ids=["trivial-squared", "times-heisenberg3"],
)
def test_validate_representation_forms_no_product_of_an_empty_row(specs, products, monkeypatch):
    # Products at seed 1. The trivial module's matrices are all zero, so
    # only the 8 stored pairs are checked and every row is empty: 16 calls
    # when each checked row formed both products, 132 when all 66 pairs
    # were checked. Times heisenberg3 (n = 9), 192 calls formed both.
    inst = _product(specs)
    calls = []
    real = liealg.row_times
    monkeypatch.setattr(liealg, "row_times", lambda row, m: calls.append(1) or real(row, m))
    assert validate_representation(inst.algebra, build_representation(inst)) == ()
    assert len(calls) == products


coefficients = st.sampled_from([ONE, MINUS_ONE, I, GaussianRational(2)])


@st.composite
def sparse_entries(draw, max_dim=6):
    """(n, entries, nilradical) on a few drawn brackets, some stored in both
    orientations (as negations or not) and some rows cancelled to empty."""
    n = draw(st.integers(3, max_dim))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, index, coefficients), max_size=8))
    for i, j, k, c in list(entries):
        how = draw(st.sampled_from(["once", "negated", "reversed", "conflicting"]))
        if how == "negated":
            entries.append((i, j, k, -c))
        elif how == "reversed":
            entries.append((j, i, k, -c))
        elif how == "conflicting":
            entries.append((j, i, draw(index), c))
    return n, entries, draw(st.sets(index))


def _algebra(n, entries, nilradical):
    return LieAlgebraData(
        n, [f"x{i}" for i in range(1, n + 1)], entries, nilradical, set(range(n)) - nilradical
    )


def sparse_tables(max_dim=6):
    """A LieAlgebraData on sparse_entries."""
    return sparse_entries(max_dim).map(lambda drawn: _algebra(*drawn))


def _stored_rows(entries):
    """The rows as given: entries summed per ordered pair, zero sums dropped, in table order."""
    table = {}
    for i, j, k, c in entries:
        row = table.setdefault((i, j), {})
        acc = row.get(k, ZERO) + c
        if acc:
            row[k] = acc
        else:
            row.pop(k, None)
    return table


def _two_lookup_bracket(table, i, j):
    """[X_i, X_j]: zero at i = j, else the row stored at (i, j), else the
    negated row stored at (j, i), else zero."""
    if i == j:
        return {}
    if (i, j) in table:
        return dict(table[(i, j)])
    return {k: -c for k, c in table.get((j, i), {}).items()}


@settings(max_examples=300, deadline=None)
@given(sparse_entries())
def test_bracket_reads_the_stored_row_or_the_negated_reverse(drawn):
    g, table = _algebra(*drawn), _stored_rows(drawn[1])
    for i, j in itertools.product(range(g.dim), repeat=2):
        ref = _two_lookup_bracket(table, i, j)
        assert list(g.bracket(i, j).items()) == list(ref.items())
    # A copy: changing it leaves the algebra as it was.
    for i, j in table:
        g.bracket(i, j)[0] = ONE
        assert g.bracket(i, j) == _two_lookup_bracket(table, i, j)


@settings(max_examples=300, deadline=None)
@given(sparse_entries())
def test_bracket_table_equals_the_walk_of_the_stored_rows(drawn):
    g, table = _algebra(*drawn), _stored_rows(drawn[1])
    rows = {}
    for (i, j), row in table.items():
        if i < j:
            rows[(i, j)] = row
        elif i > j and (j, i) not in table:
            rows[(j, i)] = {k: -c for k, c in row.items()}
    ref = {pair: tuple(sorted(row.items())) for pair, row in sorted(rows.items()) if row}
    assert list(g.bracket_table().items()) == list(ref.items())


@settings(max_examples=300, deadline=None)
@given(sparse_entries())
def test_antisymmetry_issues_equal_the_scan_of_every_pair(drawn):
    # Nonzero [X_i, X_i] first, in table order, then every pair i < j
    # stored in both orientations that are not negations, ascending.
    g, table = _algebra(*drawn), _stored_rows(drawn[1])
    witnesses = [(i, i) for (i, j), row in table.items() if i == j and row]
    witnesses += [
        (i, j)
        for i, j in itertools.combinations(range(g.dim), 2)
        if (i, j) in table
        and (j, i) in table
        and table[(i, j)] != {k: -c for k, c in table[(j, i)].items()}
    ]
    issues = [i.witness for i in validate_algebra(g) if i.code == "antisymmetry"]
    assert issues == witnesses


@settings(max_examples=300, deadline=None)
@given(sparse_tables())
def test_jacobi_issues_equal_the_scan_of_every_triple(g):
    issues = [i for i in validate_algebra(g) if i.code == "jacobi"]
    failures = _jacobi_failures_of_every_triple(g)
    assert [i.witness for i in issues] == failures
    assert [i.message for i in issues] == [
        f"Jacobi identity fails on ({g.basis[i]},{g.basis[j]},{g.basis[k]})"
        for i, j, k in failures
    ]


def _ad_matrix_by_table_scan(g, table, j):
    """ad(X_j) read off a scan of the whole stored table for j's pairs."""
    stored = {b if a == j else a for (a, b), row in table.items() if row and j in (a, b)}
    entries = {}
    for i in sorted(stored):
        for k, c in g.bracket(j, i).items():
            entries[(k, i)] = c
    return ExactMatrix.from_entries(g.dim, g.dim, entries)


@settings(max_examples=200, deadline=None)
@given(sparse_entries())
def test_ad_matrix_equals_the_table_scan(drawn):
    # Entries and their order in each row, on tables with both orientations,
    # cancelled rows and [X_i, X_i] entries.
    g, table = _algebra(*drawn), _stored_rows(drawn[1])
    for j in range(g.dim):
        ad, ref = g.ad_matrix(j), _ad_matrix_by_table_scan(g, table, j)
        assert [list(r.items()) for r in ad.row_maps] == [list(r.items()) for r in ref.row_maps]


def _conjugation_failures_of_every_pair(g):
    """The pairs i < j with sigma[X_i, X_j] != [X_sigma(i), X_sigma(j)], all scanned."""
    sigma = g.conjugation
    return [
        (i, j)
        for i, j in itertools.combinations(range(g.dim), 2)
        if g.bracket(sigma[i], sigma[j])
        != {sigma[k]: c.conjugate() for k, c in g.bracket(i, j).items()}
    ]


@pytest.mark.parametrize(
    "sigma, involution",
    [({0: 3, 3: 0, 1: 1, 2: 2}, True), ({0: 1, 1: 2, 2: 0, 3: 3}, False)],
    ids=["swap", "cycle"],
)
def test_conjugation_check_visits_the_stored_pairs_and_their_preimages(sigma, involution):
    # [x1,x2] = x3. The swap x1 <-> x4 fails on (x1,x2), and on (x2,x4),
    # whose bracket is zero but whose image [x2,x1] is not. The cycle
    # x1 -> x2 -> x3 -> x1 fails on (x1,x2) and on (x1,x3), the preimage of
    # (x1,x2) under the cycle's inverse, not its image (x2,x3). Every
    # failing pair is found, in the order a scan of all pairs gives.
    g = LieAlgebraData(
        4, ["x1", "x2", "x3", "x4"], [(0, 1, 2, ONE)], range(4), [], conjugation=sigma
    )
    issues = validate_algebra(g)
    failures = [i.witness for i in issues if i.code == "conjugation-brackets"]
    assert failures == _conjugation_failures_of_every_pair(g)
    assert failures == ([(0, 1), (1, 3)] if involution else [(0, 1), (0, 2)])
    assert [i.code for i in issues if i.code != "conjugation-brackets"] == (
        [] if involution else ["conjugation-involution"] * 3
    )


def test_nilradical_must_be_ideal():
    # [x, n] = x escapes the nilradical span.
    g = LieAlgebraData(
        2, ("n", "x"), [(1, 0, 1, ONE)], nilradical=[0], complement=[1]
    )
    assert "nilradical-ideal" in [i.code for i in validate_algebra(g)]


def test_nilradical_must_be_nilpotent():
    # Declaring the whole of [x, y] = y as nilradical: ad(x) has
    # eigenvalue 1 and the lower central series sticks at span{y}.
    g = LieAlgebraData(
        2, ("x", "y"), [(0, 1, 1, ONE)], nilradical=[0, 1], complement=[]
    )
    codes = [i.code for i in validate_algebra(g)]
    assert "nilradical-ad" in codes
    assert "nilradical-lcs" in codes


def test_conjugation_checks(split_6d):
    # Identity conjugation is allowed (all structure constants real).
    ident = LieAlgebraData(
        split_6d.dim,
        split_6d.basis,
        bracket_entries(split_6d),
        split_6d.nilradical,
        split_6d.complement,
        conjugation={0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
    )
    assert validate_algebra(ident) == ()
    # Mapping a nilradical vector to a complement vector is not.
    crossing = LieAlgebraData(
        split_6d.dim,
        split_6d.basis,
        bracket_entries(split_6d),
        split_6d.nilradical,
        split_6d.complement,
        conjugation={0: 4, 4: 0, 1: 1, 2: 2, 3: 3, 5: 5},
    )
    assert "conjugation-split" in [i.code for i in validate_algebra(crossing)]
    # Non-involutions are flagged.
    cycle = LieAlgebraData(
        split_6d.dim,
        split_6d.basis,
        bracket_entries(split_6d),
        split_6d.nilradical,
        split_6d.complement,
        conjugation={0: 1, 1: 2, 2: 0, 3: 3, 4: 4, 5: 5},
    )
    assert "conjugation-involution" in [i.code for i in validate_algebra(cycle)]
    # A table that does not permute every index is refused before the
    # involution test, which would index outside it.
    partial = LieAlgebraData(
        split_6d.dim,
        split_6d.basis,
        bracket_entries(split_6d),
        split_6d.nilradical,
        split_6d.complement,
        conjugation={0: 1, 1: 0, 2: 3, 3: 2, 4: 5},
    )
    assert validate_algebra(partial) == (
        ValidationIssue("conjugation-domain", "conjugation must permute all indices"),
    )


def test_conjugation_equivariance():
    # [v5,v1] = i*v1 conjugates to [v6,v2] = c[v6,v2]; declaring the
    # conjugate bracket with +i instead of -i must be flagged.
    g = LieAlgebraData(
        6,
        ("v1", "v2", "v3", "v4", "v5", "v6"),
        [
            (4, 0, 0, GaussianRational(0, 1)),
            (4, 2, 2, GaussianRational(0, -1)),
            (5, 1, 1, GaussianRational(0, 1)),
            (5, 3, 3, GaussianRational(0, -1)),
        ],
        nilradical=[0, 1, 2, 3],
        complement=[4, 5],
        conjugation={0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
    )
    assert "conjugation-brackets" in [i.code for i in validate_algebra(g)]


def test_lower_central_series(heisenberg, split_6d):
    assert lower_central_series_dims(heisenberg, frozenset({0, 1, 2})) == [3, 1, 0]
    # The 4-dim nilradical of the split algebra is abelian.
    assert lower_central_series_dims(split_6d, frozenset({0, 1, 2, 3})) == [4, 0]


def test_trivial_and_adjoint_representations(split_6d):
    triv = trivial_representation(split_6d)
    assert triv.m == 1
    assert validate_representation(split_6d, triv) == ()
    ad = adjoint_representation(split_6d)
    assert ad.m == 6
    assert ad.adjoint
    assert validate_representation(split_6d, ad) == ()


def heisenberg_unipotent_rep():
    # x -> E12, y -> E23, z -> E13 inside strictly upper triangular 3x3.
    def e(i, j):
        return ExactMatrix.from_entries(3, 3, {(i, j): ONE})

    return RepresentationData(3, (e(0, 1), e(1, 2), e(0, 2)))


def test_explicit_representation_validates(heisenberg):
    rep = heisenberg_unipotent_rep()
    assert validate_representation(heisenberg, rep) == ()


def test_homomorphism_violation_detected(heisenberg):
    def e(i, j):
        return ExactMatrix.from_entries(3, 3, {(i, j): ONE})

    # Swapping the image of z breaks [R_x, R_y] = R_z.
    rep = RepresentationData(3, (e(0, 1), e(1, 2), e(1, 2)))
    assert "rep-homomorphism" in [i.code for i in validate_representation(heisenberg, rep)]


def _dense_law_breaks(g, rep):
    """Pairs (i, j) with [R_i, R_j] != sum_k c_ij^k R_k, by dense arithmetic."""
    m = rep.m
    dense = [[[R.row_maps[r].get(c, ZERO) for c in range(m)] for r in range(m)]
             for R in rep.matrices]

    def entry(i, j, r, c):
        ab = sum((dense[i][r][t] * dense[j][t][c] for t in range(m)), ZERO)
        ba = sum((dense[j][r][t] * dense[i][t][c] for t in range(m)), ZERO)
        return ab - ba - sum((v * dense[k][r][c] for k, v in g.bracket(i, j).items()), ZERO)

    return [
        (i, j)
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
        if any(entry(i, j, r, c) for r in range(m) for c in range(m))
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_homomorphism_check_matches_dense_arithmetic(data):
    # The adjoint module satisfies the law; each perturbed entry may break
    # it on some pairs, and validate must name exactly those, in order.
    g = data.draw(st.sampled_from([make_heisenberg, make_split_3d, make_split_6d]))()
    matrices = list(adjoint_representation(g).matrices)
    for _ in range(data.draw(st.integers(0, 2))):
        j, r, c = (data.draw(st.integers(0, g.dim - 1)) for _ in range(3))
        entries = {(a, b): v for a, row in enumerate(matrices[j].row_maps) for b, v in row.items()}
        entries[(r, c)] = entries.get((r, c), ZERO) + data.draw(st.sampled_from([ONE, MINUS_ONE, I]))
        matrices[j] = ExactMatrix.from_entries(g.dim, g.dim, entries)
    rep = RepresentationData(g.dim, tuple(matrices))
    issues = [i for i in validate_representation(g, rep) if i.code == "rep-homomorphism"]
    breaks = _dense_law_breaks(g, rep)
    assert [i.witness for i in issues] == breaks
    assert [i.message for i in issues] == [
        f"[R({g.basis[i]}),R({g.basis[j]})] != R([{g.basis[i]},{g.basis[j]}])"
        for i, j in breaks
    ]


@st.composite
def sparse_modules(draw, g):
    """A module of g of dimension 1-3, about half its matrices zero."""
    m = draw(st.integers(1, 3))
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    matrices = []
    for _ in range(g.dim):
        cells = draw(st.one_of(st.just({}), st.dictionaries(cell, coefficients, max_size=3)))
        matrices.append(ExactMatrix.from_entries(m, m, cells))
    return RepresentationData(m, tuple(matrices))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_homomorphism_witnesses_equal_the_scan_of_every_pair(data):
    # Pairs with no stored bracket and a zero matrix are skipped; the law
    # must still fail on exactly the pairs a check of every pair names.
    fixtures = st.sampled_from([make_heisenberg(), make_split_6d()])
    g = data.draw(st.one_of(sparse_tables(max_dim=5), fixtures))
    rep = data.draw(sparse_modules(g))
    issues = [i.witness for i in validate_representation(g, rep) if i.code == "rep-homomorphism"]
    assert issues == _dense_law_breaks(g, rep)


def test_unipotence_violation_detected(heisenberg):
    rep = RepresentationData(
        1,
        (
            ExactMatrix(1, 1, ({0: ONE},)),
            ExactMatrix.zero(1, 1),
            ExactMatrix.zero(1, 1),
        ),
    )
    codes = [i.code for i in validate_representation(heisenberg, rep)]
    assert "rep-unipotence" in codes or "rep-homomorphism" in codes


def test_rep_weight_declaration_checked(split_3d):
    # A 1-dim module with declared weight (2) but zero matrix: the
    # diagonal of R(e1) does not match the declared weight.
    rep = RepresentationData(
        1,
        tuple(ExactMatrix.zero(1, 1) for _ in range(3)),
        rep_weights=((GaussianRational(2),),),
    )
    assert "rep-weight-diagonal" in [i.code for i in validate_representation(split_3d, rep)]


def test_representation_shape_checks():
    with pytest.raises(ValidationFailure) as excinfo:
        RepresentationData(2, (ExactMatrix.zero(2, 2), ExactMatrix.zero(2, 1)))
    assert str(excinfo.value) == "representation matrix has wrong shape"
    with pytest.raises(ValidationFailure) as excinfo:
        RepresentationData(2, (ExactMatrix.zero(2, 2),), rep_weights=((ZERO,),))
    assert str(excinfo.value) == "need one rep weight per module basis vector"


def test_rep_arity_checked(heisenberg):
    rep = RepresentationData(2, (ExactMatrix.zero(2, 2),))
    assert "rep-arity" in [i.code for i in validate_representation(heisenberg, rep)]


def test_equality_by_bracket_table():
    a = make_heisenberg()
    b = make_heisenberg()
    assert a == b
    assert make_split_3d() != make_split_6d()


def test_bracket_table_reads_each_pair_once_in_canonical_form():
    # [x3,x0] is given only reversed, [x0,x1] in both orientations, and
    # [x1,x2]'s two terms cancel; the table is bracket(i, j) for i < j
    # wherever it is nonzero, keyed in order, terms sorted.
    two = GaussianRational(2)
    g = LieAlgebraData(
        4,
        ["x0", "x1", "x2", "x3"],
        [
            (3, 0, 2, ONE),
            (1, 0, 3, MINUS_ONE),
            (0, 1, 3, ONE),
            (0, 1, 2, two),
            (1, 2, 0, ONE),
            (1, 2, 0, MINUS_ONE),
        ],
        [0, 1, 2, 3],
        [],
    )
    table = g.bracket_table()
    assert table == {(0, 1): ((2, two), (3, ONE)), (0, 3): ((2, MINUS_ONE),)}
    assert list(table) == [(0, 1), (0, 3)]
    assert table == {
        (i, j): tuple(sorted(g.bracket(i, j).items()))
        for i in range(4)
        for j in range(i + 1, 4)
        if g.bracket(i, j)
    }
