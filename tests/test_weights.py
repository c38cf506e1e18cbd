import os
import subprocess
import sys
import textwrap

import pytest
from ce_reference import (
    monomial_label,
    reference_grading_check,
    reference_invariant_differentials,
)
from conftest import (
    INSTANCE_DIR,
    dense_matrix,
    load_bench,
    diagonal_weights,
    make_heisenberg,
    make_heisenberg_power,
    make_split_3d,
    make_split_6d,
    make_split_6d_plus_heisenberg,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jordan_reference import (
    ExtendScalarsError,
    axpy,
    char_poly,
    jordan_chevalley_additive,
    matrix_inverse,
)
from subset_reference import degree_basis

from solvcohom.cecomplex import module_basis_names
from solvcohom.errors import ValidationFailure, WeightGradingError, WeightInferenceError
from solvcohom.instances import (
    build_representation,
    build_weight_assignment,
    load_instance,
    parse_instance,
)
from solvcohom.liealg import (
    LieAlgebraData,
    RepresentationData,
    ValidationIssue,
    adjoint_representation,
    trivial_representation,
)
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import I, MINUS_ONE, ONE, ZERO, GaussianRational
from solvcohom.weights import (
    WeightAssignment,
    build_invariant_complex,
    format_weight,
    infer_weights,
    validate_weight_assignment,
    weight_sort_key,
)


def test_char_poly():
    # x^2 - 3x + 2 for [[1,1],[0,2]]; coefficients ascending.
    assert char_poly(dense_matrix([[1, 1], [0, 2]])) == (GaussianRational(2), GaussianRational(-3), ONE)
    assert char_poly(dense_matrix([[0, 1], [0, 0]])) == (ZERO, ZERO, ONE)
    assert char_poly(dense_matrix([[1]])) == (MINUS_ONE, ONE)


def jc_checks(M):
    S, N = jordan_chevalley_additive(M)
    assert axpy(S, N) == M
    assert S @ N == N @ S
    assert N.is_nilpotent()
    return S, N


def test_jordan_chevalley_distinct_eigenvalues():
    M = dense_matrix([[1, 1], [0, 2]])
    S, N = jc_checks(M)
    assert N.is_zero()  # already semisimple
    assert S == M


def test_jordan_chevalley_jordan_block():
    M = dense_matrix([[1, 1], [0, 1]])
    S, N = jc_checks(M)
    assert S == dense_matrix([[1, 0], [0, 1]])
    assert N == dense_matrix([[0, 1], [0, 0]])


def test_jordan_chevalley_nilpotent():
    M = dense_matrix([[0, 1], [0, 0]])
    S, N = jc_checks(M)
    assert S.is_zero()
    assert N == M


def test_jordan_chevalley_mixed_3x3():
    M = dense_matrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    S, N = jc_checks(M)
    assert S == dense_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert N == dense_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])


def test_jordan_chevalley_splits_over_gaussians():
    # x^2 + 1 = (x - i)(x + i): semisimple over Q(i).
    M = dense_matrix([[0, 1], [-1, 0]])
    S, N = jc_checks(M)
    assert N.is_zero()


def test_jordan_chevalley_similarity_invariance():
    # Conjugating a split matrix keeps the decomposition conjugated.
    P = dense_matrix([[1, 1], [0, 1]])
    D = dense_matrix([[I, ZERO], [ZERO, GaussianRational(0, -1)]])
    M = P @ D @ matrix_inverse(P)
    S, N = jc_checks(M)
    assert N.is_zero()
    assert S == M


def test_extend_scalars_error_names_factor():
    # x^2 - 2 is irreducible over Q(i).
    with pytest.raises(ExtendScalarsError) as err:
        jordan_chevalley_additive(dense_matrix([[0, 1], [2, 0]]))
    assert "x**2 - 2" in str(err.value)
    assert "extend scalars" in str(err.value)


def test_jordan_certificate_survives_optimize_flag():
    # A wrong modular inverse gives non-idempotent eigenprojections; the
    # certificate must still fire with asserts stripped. The roots of
    # diag(1, 2) are given directly, so the subprocess skips sympy.
    script = textwrap.dedent(
        """
        import jordan_reference
        from solvcohom.errors import CertificateError
        from solvcohom.linalg import ExactMatrix
        from solvcohom.scalars import ONE, GaussianRational

        assert False, "asserts must be stripped under -O"
        jordan_reference._factor_linear_over_q_i = lambda p: [(ONE, 1), (GaussianRational(2), 1)]
        jordan_reference._inverse_mod = lambda a, modulus: (ONE,)
        m = ExactMatrix.from_entries(2, 2, {(0, 0): ONE, (1, 1): GaussianRational(2)})
        try:
            jordan_reference.jordan_chevalley_additive(m)
        except CertificateError as err:
            print(err)
        """
    )
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(filter(None, [tests_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "eigenprojection is not idempotent"


_FIXTURES = {
    "heisenberg": (make_heisenberg, trivial_representation),
    "heisenberg3^2": (lambda: make_heisenberg_power(2), trivial_representation),
    "split_3d": (make_split_3d, trivial_representation),
    "split_6d": (make_split_6d, adjoint_representation),
    "split_6d+heisenberg": (make_split_6d_plus_heisenberg, adjoint_representation),
}


def _diagonal(column):
    n = len(column)
    return ExactMatrix.from_entries(n, n, {(i, i): c for i, c in enumerate(column)})


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")) + sorted(_FIXTURES)
)
def test_inferred_weights_are_the_semisimple_parts(name):
    # In an adapted basis the semisimple part of ad(X_j) and of R(X_j) is
    # diagonal, and its diagonal is the weight column infer_weights reads.
    if name in _FIXTURES:
        make_algebra, make_module = _FIXTURES[name]
        g = make_algebra()
        rep = make_module(g)
    else:
        inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
        g, rep = inst.algebra, build_representation(inst)
    w = infer_weights(g, rep)
    for pos, j in enumerate(g.complement):
        S, _ = jordan_chevalley_additive(g.ad_matrix(j))
        assert S == _diagonal([lam[pos] for lam in w.algebra_weights])
        S, _ = jordan_chevalley_additive(rep.matrices[j])
        assert S == _diagonal([lam[pos] for lam in w.rep_weights])


gaussian_integers = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def upper_triangular(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return ExactMatrix.from_entries(
        n, n, {(i, j): draw(gaussian_integers) for i in range(n) for j in range(i, n)}
    )


@settings(max_examples=30, deadline=None)
@given(M=upper_triangular())
def test_semisimple_part_of_a_triangular_matrix_keeps_its_diagonal(M):
    S, _ = jordan_chevalley_additive(M)
    assert [S.row_maps[i].get(i, ZERO) for i in range(S.nrows)] == [
        M.row_maps[i].get(i, ZERO) for i in range(M.nrows)
    ]


def test_weight_assignment_tag(split_6d):
    rep = adjoint_representation(split_6d)
    w = infer_weights(split_6d, rep)
    # lambda_{v1} = (1, 0); adjoint module weight of v3 is (-1, 0).
    assert w.algebra_weights[0] == (ONE, ZERO)
    assert w.rep_weights[2] == (MINUS_ONE, ZERO)
    # tag(v1* ^ v2* (x) v3) = (1,0) + (0,1) - (-1,0) = (2, 1). In the
    # invariant complex, v1* ^ v2* is the first subset of degree 2, so
    # that element is 0 * 6 + 2; 1 (x) v5 is element 4 of degree 0.
    ic = build_invariant_complex(split_6d, rep, w)
    assert ic.tag_table[ic.tag_ids[2][2]] == (GaussianRational(2), ONE)
    assert ic.tag_table[ic.tag_ids[0][4]] == (ZERO, ZERO)


def test_infer_weights_trivial_rep(split_3d):
    w = infer_weights(split_3d, trivial_representation(split_3d))
    assert w.algebra_weights == ((ZERO,), (ONE,), (MINUS_ONE,))
    assert w.rep_weights == ((ZERO,),)


def test_infer_weights_refuses_unadapted_basis():
    # ad(x3) acts on span{x1, x2} by the swap matrix: eigenvectors exist
    # over Q but not along the supplied axes.
    g = LieAlgebraData(
        3,
        ("x1", "x2", "x3"),
        [(2, 0, 1, ONE), (2, 1, 0, ONE)],
        nilradical=[0, 1],
        complement=[2],
    )
    assert not g.ad_matrix(2).is_nilpotent()
    rep = trivial_representation(g)
    with pytest.raises(WeightInferenceError, match="adapted basis"):
        infer_weights(g, rep)


def test_validate_weight_assignment_codes(split_3d):
    rep = trivial_representation(split_3d)
    good = infer_weights(split_3d, rep)
    assert validate_weight_assignment(split_3d, rep, good) == ()
    bad = WeightAssignment(
        ((ZERO,), (ONE,), (ONE,)), ((ZERO,),), split_3d.complement
    )
    issues = validate_weight_assignment(split_3d, rep, bad)
    assert "weights-ad-diagonal" in [i.code for i in issues]


def test_validate_weight_assignment_refuses_a_reordered_complement(split_6d):
    # Weights over (v6, v5) cannot be compared with the algebra's (v5, v6).
    rep = trivial_representation(split_6d)
    w = infer_weights(split_6d, rep)
    swapped = WeightAssignment(w.algebra_weights, w.rep_weights, (5, 4))
    assert validate_weight_assignment(split_6d, rep, swapped) == (
        ValidationIssue("weights-complement", "weight complement order mismatch"),
    )


@pytest.mark.parametrize(
    "algebra, rep",
    [
        (((ZERO,), (ONE, ZERO), (ONE,)), ((ZERO,),)),
        (((ZERO,), (ONE,), (ONE,)), ((),)),
    ],
)
def test_weight_assignment_width_check(split_3d, algebra, rep):
    with pytest.raises(ValidationFailure) as excinfo:
        WeightAssignment(algebra, rep, split_3d.complement)
    assert str(excinfo.value) == "weight covector width != complement size"


def test_weight_formatting():
    assert format_weight((ONE, MINUS_ONE)) == "(1, -1)"
    assert format_weight(()) == "()"
    assert weight_sort_key((GaussianRational(1, 2),)) < weight_sort_key((GaussianRational(2),))


def test_invariant_complex_tags(split_6d):
    rep = adjoint_representation(split_6d)
    ic = build_invariant_complex(split_6d, rep, infer_weights(split_6d, rep))
    tags = ic.distinct_tags()
    assert len(tags) == 21
    kept = ic.indices_with_tag_ids((tags.index((ZERO, ZERO)),))
    # The zero-tag block of degree 0 is {1 (x) v5, 1 (x) v6}.
    assert kept[0] == (4, 5)


def test_weight_grading_violation_raises(split_3d):
    # R(e1) maps v2 to v1 + v2, so its diagonal puts v1 and v2 on the
    # weight lines 0 and 1, which R(e1) v2 crosses.
    rep = RepresentationData(
        2,
        (
            ExactMatrix.from_entries(2, 2, {(0, 1): ONE, (1, 1): ONE}),
            ExactMatrix.zero(2, 2),
            ExactMatrix.zero(2, 2),
        ),
    )
    w = WeightAssignment(
        ((ZERO,), (ONE,), (MINUS_ONE,)),
        ((ZERO,), (ONE,)),
        split_3d.complement,
    )
    with pytest.raises(WeightGradingError) as excinfo:
        build_invariant_complex(split_3d, rep, w)
    # The witness is the first offending coefficient in column order.
    assert str(excinfo.value) == (
        "weight grading violated: d(1 (x) u2) hits e1* (x) u1 "
        "across tags (-1) -> (0); invalid weight data"
    )


def test_weight_grading_witness_in_degree_one():
    # [t, x] = x, [t, y] = x + 2y: ad(t) minus its diagonal (0, 1, 2) is
    # nilpotent, so the weights are the diagonals and pass validation.
    # With trivial coefficients d vanishes on degree 0, and d(x*) holds
    # -t*^y* from c_{ty}^x, which crosses from weight 1 to weight 2.
    g = LieAlgebraData(
        dim=3,
        basis=("t", "x", "y"),
        brackets=[(0, 1, 1, ONE), (0, 2, 1, ONE), (0, 2, 2, GaussianRational(2))],
        nilradical=[1, 2],
        complement=[0],
    )
    rep = trivial_representation(g)
    w = infer_weights(g, rep)
    assert validate_weight_assignment(g, rep, w) == ()
    witness = (
        "weight grading violated: d(x* (x) 1) hits t*^y* (x) 1 "
        "across tags (1) -> (2); invalid weight data"
    )
    assert _grading_verdict(build_invariant_complex, g, rep, w) == witness
    assert _grading_verdict(reference_grading_check, g, rep, w) == witness


def _off_diagonal_verdicts(g, rep, w):
    """For weights off the ad/R diagonals: validate_weight_assignment's
    codes, the twisted reference's grading verdict and the build's refusal.

    The build's kernel forms no twist: on weights that are the diagonals
    the twist cancels every diagonal coefficient at a complement
    direction, so the kernel forms none. Off the diagonals those
    coefficients are the reference's witnesses, which the build never
    sees, so it refuses such weights before its grading check.
    """
    with pytest.raises(ValidationFailure) as refused:
        build_invariant_complex(g, rep, w)
    return (
        [issue.code for issue in validate_weight_assignment(g, rep, w)],
        _grading_verdict(reference_grading_check, g, rep, w),
        str(refused.value),
    )


def test_weight_grading_witness_is_a_bracket_term(split_3d):
    # The declared weight of e1 is 1, so in the module twisted by the
    # declared tags d(e2*) = -e1*^e2* crosses tags on a module with m = 2.
    # Nothing twists that column: mu(e1) = 0 and R(e1) vanishes at v1,
    # so the reference's witness is the bracket term alone. Column
    # (e2*, u2) holds the same violation, but a bracket term's tag
    # difference does not depend on k, so it can never be the first.
    # The weights of e1 and e2 are not ad(e1)'s diagonal.
    rep = RepresentationData(
        2,
        (
            ExactMatrix.from_entries(2, 2, {(1, 1): ONE}),
            ExactMatrix.zero(2, 2),
            ExactMatrix.zero(2, 2),
        ),
    )
    w = WeightAssignment(
        ((ONE,), (ZERO,), (MINUS_ONE,)),
        ((ZERO,), (ONE,)),
        split_3d.complement,
    )
    assert _off_diagonal_verdicts(split_3d, rep, w) == (
        ["weights-ad-diagonal"],
        "weight grading violated: d(e2* (x) u1) hits e1*^e2* (x) u1 "
        "across tags (0) -> (1); invalid weight data",
        "algebra weights disagree with the diagonal of ad(e1)",
    )


def _split_6d_witness(v1, v5, v6):
    # split_6d with trivial coefficients and explicit algebra weights: the
    # given ones for v1, v5 and v6, the ad diagonals for the rest. The
    # tag of v1* is lambda_{v1}, so in the module twisted by it column
    # (v1*, 1) has the diagonal coefficient
    # +-(lambda_{v1}(X_{v5}) - c_{v5,v1}^{v1}) at v1*^v5*, whose tag moves
    # by lambda_{v5}.
    g = make_split_6d()
    rep = trivial_representation(g)
    alg = (v1, (ZERO, ONE), (MINUS_ONE, ZERO), (ZERO, MINUS_ONE), v5, v6)
    return g, rep, WeightAssignment(alg, ((ZERO, ZERO),), g.complement)


def test_weight_grading_witness_is_a_diagonal_with_an_action_part():
    # lambda_{v1}(X_{v5}) = 2 against c_{v5,v1}^{v1} = 1: the coefficient
    # at v1*^v5* is nonzero and sits at its action term (j = v5), ahead
    # of the violation at v1*^v6* (action part lambda_{v1}(X_{v6}) = 1, no
    # bracket part), which it would follow from a bracket term's place.
    g, rep, w = _split_6d_witness((GaussianRational(2), ONE), (ONE, ZERO), (ZERO, ONE))
    assert _off_diagonal_verdicts(g, rep, w) == (
        ["weights-ad-diagonal"] * 2,
        "weight grading violated: d(v1* (x) 1) hits v1*^v5* (x) 1 "
        "across tags (2, 1) -> (3, 1); invalid weight data",
        "algebra weights disagree with the diagonal of ad(v5)",
    )


def test_weight_grading_witness_is_a_diagonal_with_no_action_part():
    # lambda_{v1}(X_{v5}) = 0, so the coefficient at v1*^v5* is the bracket
    # part -c_{v5,v1}^{v1} alone, placed at its bracket term, after the
    # action terms of column (v1*, 1); v1*^v6* now holds no coefficient.
    g, rep, w = _split_6d_witness((ZERO, ZERO), (ONE, ZERO), (ZERO, ONE))
    assert _off_diagonal_verdicts(g, rep, w) == (
        ["weights-ad-diagonal"] * 2,
        "weight grading violated: d(v1* (x) 1) hits v1*^v5* (x) 1 "
        "across tags (0, 0) -> (1, 0); invalid weight data",
        "algebra weights disagree with the diagonal of ad(v5)",
    )


def _split_3d_case(r_e1):
    """split_3d with R(e1) given by its entries, R(e2) = R(e3) = 0, m = 2."""
    matrices = (ExactMatrix.from_entries(2, 2, r_e1),) + (ExactMatrix.zero(2, 2),) * 2
    rep = RepresentationData(2, matrices)
    return "split_3d", rep, diagonal_weights(make_split_3d(), matrices)

_GRADING_ALGEBRAS = {
    "split_3d": make_split_3d(),
    "split_6d": make_split_6d(),
    "split_6d+heisenberg": make_split_6d_plus_heisenberg(),
    **{p.stem: load_instance(str(p)).algebra for p in INSTANCE_DIR.glob("*.json")},
}

_ENTRIES = (ZERO, ZERO, ONE, MINUS_ONE, GaussianRational(2), I)


@st.composite
def grading_cases(draw):
    """An algebra with unvalidated module matrices (m <= 3) and their weights.

    Matrices are zero, diagonal or full, and the weights are the operator
    diagonals, as validation requires. Both verdicts occur: a full matrix
    whose diagonal entries differ moves between weight lines.
    """
    name = draw(st.sampled_from(sorted(_GRADING_ALGEBRAS)))
    g = _GRADING_ALGEBRAS[name]
    m = draw(st.integers(1, 3))
    matrices = []
    for j in range(g.dim):
        shapes = ("zero", "diagonal", "diagonal", "diagonal", "full")
        if j not in g.complement:
            shapes = ("zero",) * 7 + ("full",)
        shape = draw(st.sampled_from(shapes))
        entries = {}
        for l in range(m):
            for k in range(m):
                if shape == "full" or (shape == "diagonal" and l == k):
                    entries[(l, k)] = draw(st.sampled_from(_ENTRIES))
        matrices.append(ExactMatrix.from_entries(m, m, entries))
    return name, RepresentationData(m, tuple(matrices)), diagonal_weights(g, matrices)


def _grading_verdict(check, g, rep, w):
    try:
        check(g, rep, w)
    except WeightGradingError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None)
@given(case=grading_cases())
@example(case=_split_3d_case({(1, 1): ONE}))
@example(case=_split_3d_case({(0, 1): ONE, (1, 1): ONE}))
def test_degree_zero_and_one_certify_the_grading(case):
    # The build checks degrees 0 and 1 only; the reference checks every
    # degree. Same verdict and, on a violation, the same first witness.
    # The examples give both verdicts: R(e1) diagonal passes, and
    # R(e1) v2 = v1 + v2 crosses from weight 1 to weight 0.
    name, rep, w = case
    g = _GRADING_ALGEBRAS[name]
    assert _grading_verdict(build_invariant_complex, g, rep, w) == _grading_verdict(
        reference_grading_check, g, rep, w
    )


# The n = 9 sum takes the adjoint module, so m = 9 columns share each I;
# at n = 12 a bracket's lower index reaches 9, past every other case.
_GENERATED = {
    "split_6d+heisenberg": (make_split_6d_plus_heisenberg, adjoint_representation),
    "heisenberg3^4": (lambda: make_heisenberg_power(4), trivial_representation),
}


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")) + sorted(_GENERATED)
)
def test_invariant_differentials_equal_column_reference(name):
    # Every column twisted by its own tag, one column at a time, against
    # the degree kernel that shares bracket terms and action tables.
    if name in _GENERATED:
        make_algebra, make_module = _GENERATED[name]
        g = make_algebra()
        rep = make_module(g)
        w = infer_weights(g, rep)
    else:
        inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
        g, rep = inst.algebra, build_representation(inst)
        w = build_weight_assignment(inst, rep)
    ic = build_invariant_complex(g, rep, w)
    assert list(ic.complex.differentials) == reference_invariant_differentials(g, rep, w)


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")))
def test_second_kernel_pass_adds_no_scalars(name, monkeypatch):
    # A work guard that needs no clock. The shipped bases are adapted to
    # the nilradical, so the kernel keeps no diagonal bracket term and
    # every entry is a single term: a pass over every column of every
    # degree, the second as the first, makes no scalar addition or
    # subtraction.
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    g, rep = inst.algebra, build_representation(inst)
    ic = build_invariant_complex(g, rep, build_weight_assignment(inst, rep))
    columns = [range(len(ids)) for ids in ic.tag_ids[:-1]]
    first = [ic.kernel(cols, p) for p, cols in enumerate(columns)]
    calls = []
    for method in ("__add__", "__sub__"):
        original = getattr(GaussianRational, method)
        monkeypatch.setattr(
            GaussianRational, method, lambda a, b, f=original: calls.append(a) or f(a, b)
        )
    second = [ic.kernel(cols, p) for p, cols in enumerate(columns)]
    monkeypatch.undo()
    assert len(calls) == 0
    assert [list(e.items()) for e in second] == [list(e.items()) for e in first]


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")))
def test_build_adds_no_zero_operand(name, monkeypatch):
    # A work guard that needs no clock. The tags' algebra parts are subset
    # sums that skip zero vectors and zero entries, a tag subtracts a
    # module weight only where both sides are nonzero, and the kernel adds
    # a term only into a stored entry, which is nonzero, so no addition or
    # subtraction in the build has a zero operand.
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    g, rep = inst.algebra, build_representation(inst)
    w = build_weight_assignment(inst, rep)
    calls = []
    for method in ("__add__", "__sub__"):
        original = getattr(GaussianRational, method)
        monkeypatch.setattr(
            GaussianRational, method, lambda a, b, f=original: calls.append((a, b)) or f(a, b)
        )
    build_invariant_complex(g, rep, w)
    monkeypatch.undo()
    assert [(a, b) for a, b in calls if not a or not b] == []


def test_build_hashes_each_tag_once_on_a_product(monkeypatch):
    # A work guard that needs no clock, on example-7-1-generic:trivial^2
    # (n = 12, seed 1, 81 distinct tags of width 4): subset_sums hashes 524
    # scalars and the tags 324, once each. 1,496 when the tags were hashed
    # by a set, a dict and a lookup pass.
    products = load_bench("products")
    factor = products.load_factor(INSTANCE_DIR, "example-7-1-generic:trivial")
    inst = parse_instance(products.product_instance([factor] * 2, 1, "p"))
    g, rep = inst.algebra, build_representation(inst)
    w = build_weight_assignment(inst, rep)
    calls = []
    real = GaussianRational.__hash__
    monkeypatch.setattr(GaussianRational, "__hash__", lambda c: calls.append(1) or real(c))
    ic = build_invariant_complex(g, rep, w)
    monkeypatch.undo()
    assert len(ic.tag_table) == 81
    assert len(calls) <= 848


@pytest.mark.parametrize("name", sorted(p.stem for p in INSTANCE_DIR.glob("*.json")))
def test_label_equals_monomial_label_on_shipped_instances(name):
    # Labels are formed on demand from per-complex name tuples; every one
    # must be the reference name of its (I, k).
    inst = load_instance(str(INSTANCE_DIR / f"{name}.json"))
    g, rep = inst.algebra, build_representation(inst)
    ic = build_invariant_complex(g, rep, build_weight_assignment(inst, rep))
    names = module_basis_names(g, rep)
    for p, per in enumerate(ic.tag_ids):
        subsets = degree_basis(g.dim, p)
        assert [ic.label(p, i) for i in range(len(per))] == [
            monomial_label(g, subsets[i // rep.m], i % rep.m, names) for i in range(len(per))
        ]


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
mixed_gaussians = st.one_of(
    gaussian_integers, st.builds(GaussianRational, _fractions, _fractions), st.just(ZERO)
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_weight_sort_key_orders_as_the_fraction_pairs(data):
    # Integer parts are keyed as ints and the others as Fractions; the
    # order must be exactly that of the (re, im) Fraction pairs.
    width = data.draw(st.integers(min_value=0, max_value=3))
    weight = st.lists(mixed_gaussians, min_size=width, max_size=width).map(tuple)
    weights = data.draw(st.lists(weight, max_size=12))

    def reference(w):
        return tuple((c.re, c.im) for c in w)

    assert sorted(weights, key=weight_sort_key) == sorted(weights, key=reference)
    for a in weights:
        for b in weights:
            assert (weight_sort_key(a) < weight_sort_key(b)) == (reference(a) < reference(b))
            assert (weight_sort_key(a) == weight_sort_key(b)) == (a == b)
