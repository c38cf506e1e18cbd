from solvcohom.liealg import (
    LieAlgebraData,
    RepresentationData,
    adjoint_representation,
    lower_central_series_dims,
    trivial_representation,
    validate_algebra,
    validate_representation,
)
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational

from conftest import bracket_entries, make_heisenberg, make_split_3d, make_split_6d


def test_shipped_algebras_validate(heisenberg, split_3d, split_6d):
    for g in (heisenberg, split_3d, split_6d):
        report = validate_algebra(g)
        assert report.ok, report.issues


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
    assert "split-overlap" in [i.code for i in overlap.issues]
    gap = validate_algebra(
        LieAlgebraData(2, ("x", "y"), [], nilradical=[0], complement=[])
    )
    assert "split-incomplete" in [i.code for i in gap.issues]


def test_antisymmetry_violation_detected():
    g = LieAlgebraData(
        2, ("x", "y"), [(0, 0, 1, ONE)], nilradical=[0, 1], complement=[]
    )
    assert "antisymmetry" in [i.code for i in validate_algebra(g).issues]
    # Conflicting orientations of the same bracket.
    g2 = LieAlgebraData(
        2,
        ("x", "y"),
        [(0, 1, 0, ONE), (1, 0, 0, ONE)],
        nilradical=[0, 1],
        complement=[],
    )
    assert "antisymmetry" in [i.code for i in validate_algebra(g2).issues]


def test_jacobi_violation_detected():
    # sl2-like triple but with a wrong sign on one relation.
    g = LieAlgebraData(
        3,
        ("h", "e", "f"),
        [(0, 1, 1, GaussianRational(2)), (0, 2, 2, GaussianRational(-2)), (1, 2, 0, MINUS_ONE)],
        nilradical=[1, 2],
        complement=[0],
    )
    report = validate_algebra(g)
    codes = [i.code for i in report.issues]
    assert "jacobi" in codes or "nilradical-ideal" in codes


def test_nilradical_must_be_ideal():
    # [x, n] = x escapes the nilradical span.
    g = LieAlgebraData(
        2, ("n", "x"), [(1, 0, 1, ONE)], nilradical=[0], complement=[1]
    )
    assert "nilradical-ideal" in [i.code for i in validate_algebra(g).issues]


def test_nilradical_must_be_nilpotent():
    # Declaring the whole of [x, y] = y as nilradical: ad(x) has
    # eigenvalue 1 and the lower central series sticks at span{y}.
    g = LieAlgebraData(
        2, ("x", "y"), [(0, 1, 1, ONE)], nilradical=[0, 1], complement=[]
    )
    codes = [i.code for i in validate_algebra(g).issues]
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
    assert validate_algebra(ident).ok
    # Mapping a nilradical vector to a complement vector is not.
    crossing = LieAlgebraData(
        split_6d.dim,
        split_6d.basis,
        bracket_entries(split_6d),
        split_6d.nilradical,
        split_6d.complement,
        conjugation={0: 4, 4: 0, 1: 1, 2: 2, 3: 3, 5: 5},
    )
    assert "conjugation-split" in [i.code for i in validate_algebra(crossing).issues]
    # Non-involutions are flagged.
    cycle = LieAlgebraData(
        split_6d.dim,
        split_6d.basis,
        bracket_entries(split_6d),
        split_6d.nilradical,
        split_6d.complement,
        conjugation={0: 1, 1: 2, 2: 0, 3: 3, 4: 4, 5: 5},
    )
    assert "conjugation-involution" in [i.code for i in validate_algebra(cycle).issues]


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
    assert "conjugation-brackets" in [i.code for i in validate_algebra(g).issues]


def test_lower_central_series(heisenberg, split_6d):
    assert lower_central_series_dims(heisenberg, frozenset({0, 1, 2})) == [3, 1, 0]
    # The 4-dim nilradical of the split algebra is abelian.
    assert lower_central_series_dims(split_6d, frozenset({0, 1, 2, 3})) == [4, 0]


def test_trivial_and_adjoint_representations(split_6d):
    triv = trivial_representation(split_6d)
    assert triv.m == 1
    assert validate_representation(split_6d, triv).ok
    ad = adjoint_representation(split_6d)
    assert ad.m == 6
    assert ad.adjoint
    assert validate_representation(split_6d, ad).ok


def heisenberg_unipotent_rep():
    # x -> E12, y -> E23, z -> E13 inside strictly upper triangular 3x3.
    def e(i, j):
        return ExactMatrix.from_entries(3, 3, {(i, j): ONE})

    return RepresentationData(3, (e(0, 1), e(1, 2), e(0, 2)))


def test_explicit_representation_validates(heisenberg):
    rep = heisenberg_unipotent_rep()
    assert validate_representation(heisenberg, rep).ok


def test_homomorphism_violation_detected(heisenberg):
    def e(i, j):
        return ExactMatrix.from_entries(3, 3, {(i, j): ONE})

    # Swapping the image of z breaks [R_x, R_y] = R_z.
    rep = RepresentationData(3, (e(0, 1), e(1, 2), e(1, 2)))
    assert "rep-homomorphism" in [i.code for i in validate_representation(heisenberg, rep).issues]


def test_unipotence_violation_detected(heisenberg):
    rep = RepresentationData(
        1,
        (
            ExactMatrix(1, 1, [[ONE]]),
            ExactMatrix.zero(1, 1),
            ExactMatrix.zero(1, 1),
        ),
    )
    report = validate_representation(heisenberg, rep)
    codes = [i.code for i in report.issues]
    assert "rep-unipotence" in codes or "rep-homomorphism" in codes


def test_rep_weight_declaration_checked(split_3d):
    # A 1-dim module with declared weight (2) but zero matrix: the
    # diagonal of R(e1) does not match the declared weight.
    rep = RepresentationData(
        1,
        tuple(ExactMatrix.zero(1, 1) for _ in range(3)),
        rep_weights=((GaussianRational(2),),),
    )
    assert "rep-weight-diagonal" in [i.code for i in validate_representation(split_3d, rep).issues]


def test_rep_arity_checked(heisenberg):
    rep = RepresentationData(2, (ExactMatrix.zero(2, 2),))
    assert "rep-arity" in [i.code for i in validate_representation(heisenberg, rep).issues]


def test_equality_by_bracket_table():
    a = make_heisenberg()
    b = make_heisenberg()
    assert a == b
    assert make_split_3d() != make_split_6d()
