"""Reference Jordan-Chevalley splitting over Q(i), with its helpers.

No command reaches the general splitting: infer_weights reads the weights
off the operator diagonals in an adapted basis, and the weight-grading
check of build_invariant_complex certifies them. This module keeps the
splitting as the reference those diagonals are compared against: for an
adapted basis, the semisimple part of each operator is the diagonal
matrix of its weights. Factorization over Q(i) is delegated to sympy,
which only the tests need.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from solvcohom.errors import CertificateError, SolvcohomError, ValidationFailure
from solvcohom.linalg import ExactMatrix
from solvcohom.scalars import MINUS_ONE, ONE, ZERO, GaussianRational


class ExtendScalarsError(SolvcohomError):
    """A characteristic polynomial does not split over Q(i)."""

    def __init__(self, factor_text: str):
        self.factor_text = factor_text
        super().__init__(
            "matrix is not triangularizable over Q(i): "
            f"irreducible factor {factor_text}; extend scalars or supply an "
            "adapted basis"
        )


Poly = tuple[GaussianRational, ...]  # ascending coefficients, no top zeros


# ---------------------------------------------------------------------------
# Exact polynomial arithmetic over Q(i), used by the Jordan splitting.


def poly_trim(coeffs: Sequence[GaussianRational]) -> Poly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return poly_trim(out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ca = a[i] if i < len(a) else ZERO
        cb = b[i] if i < len(b) else ZERO
        out.append(ca - cb)
    return poly_trim(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [ZERO] * max(len(a) - len(b) + 1, 0)
    inv_lead = b[-1].inverse()
    while len(rem) >= len(b) and poly_trim(rem):
        rem = list(poly_trim(rem))
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = rem[-1] * inv_lead
        quot[shift] = quot[shift] + factor
        for i, cb in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * cb
    return poly_trim(quot), poly_trim(rem)


def poly_derivative(a: Poly) -> Poly:
    return poly_trim(
        [GaussianRational(Fraction(i)) * c for i, c in enumerate(a)][1:]
    )


def axpy(a: ExactMatrix, b: ExactMatrix, factor: GaussianRational = ONE) -> ExactMatrix:
    """a + factor * b, for matrices of one shape."""
    entries: dict[tuple[int, int], GaussianRational] = {}
    for matrix, f in ((a, ONE), (b, factor)):
        for i, row in enumerate(matrix.row_maps):
            for j, v in row.items():
                entries[(i, j)] = entries.get((i, j), ZERO) + f * v
    return ExactMatrix.from_entries(a.nrows, a.ncols, entries)


def poly_eval_matrix(a: Poly, M: ExactMatrix) -> ExactMatrix:
    n = M.nrows
    result = ExactMatrix.zero(n, n)
    for c in reversed(a):
        result = result @ M
        if c:
            result = axpy(result, ExactMatrix.from_entries(n, n, {(i, i): c for i in range(n)}))
    return result


def char_poly(M: ExactMatrix) -> Poly:
    """Monic characteristic polynomial via Faddeev-LeVerrier."""
    if M.nrows != M.ncols:
        raise ValidationFailure("characteristic polynomial of a non-square matrix")
    n = M.nrows
    coeffs = [ONE]  # descending: x^n + c_1 x^{n-1} + ...
    Mk = M
    for k in range(1, n + 1):
        trace = sum((row.get(i, ZERO) for i, row in enumerate(Mk.row_maps)), ZERO)
        ck = trace * GaussianRational(Fraction(-1, k))
        coeffs.append(ck)
        if k < n:
            Mk = M @ axpy(Mk, ExactMatrix.from_entries(n, n, {(i, i): ck for i in range(n)}))
    return poly_trim(tuple(reversed(coeffs)))


def _factor_linear_over_q_i(poly: Poly) -> list[tuple[GaussianRational, int]]:
    """Roots with multiplicities; raises naming any irreducible factor.

    Factorization over Q(i) is delegated to sympy's gaussian domain; the
    rest of the splitting stays on the package's own exact types.
    """
    from sympy import I as sym_i
    from sympy import Poly as SymPoly
    from sympy import Rational, symbols

    x = symbols("x")
    expr = sum(
        (Rational(c.re.numerator, c.re.denominator)
         + Rational(c.im.numerator, c.im.denominator) * sym_i) * x**i
        for i, c in enumerate(poly)
    )
    _, factors = SymPoly(expr, x, gaussian=True).factor_list()
    roots: list[tuple[GaussianRational, int]] = []
    for factor, mult in factors:
        coeffs = factor.all_coeffs()
        if len(coeffs) != 2:
            raise ExtendScalarsError(str(factor.as_expr()))
        const = coeffs[1]
        re_part, im_part = const.as_real_imag()
        root = -GaussianRational(
            Fraction(re_part.p, re_part.q), Fraction(im_part.p, im_part.q)
        )
        roots.append((root, int(mult)))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def jordan_chevalley_additive(M: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """M = S + N with S diagonalizable over Q(i), N nilpotent, SN = NS.

    S is found twice, by Newton iteration on the squarefree part of the
    characteristic polynomial and by summing generalized eigenprojections,
    and the two answers are required to agree. Both are polynomials in M.
    Every certificate raises CertificateError, so they hold under -O.
    """
    if M.nrows != M.ncols:
        raise ValidationFailure("Jordan splitting needs a square matrix")
    n = M.nrows
    if n == 0:
        return M, M
    p = char_poly(M)
    roots = _factor_linear_over_q_i(p)
    _certify(sum(m for _, m in roots) == n, "root multiplicities do not sum to the size")

    # Route 1: Newton iteration A <- A - q(A) q'(A)^{-1} on the squarefree q.
    q: Poly = (ONE,)
    for root, _ in roots:
        q = poly_mul(q, (-root, ONE))
    dq = poly_derivative(q)
    A = M
    for _ in range(n + 1):
        qA = poly_eval_matrix(q, A)
        if qA.is_zero():
            break
        A = axpy(A, qA @ matrix_inverse(poly_eval_matrix(dq, A)), MINUS_ONE)
    _certify(poly_eval_matrix(q, A).is_zero(), "Newton iteration did not converge")

    # Route 2: generalized eigenprojections P_i = (u_i g_i)(M) with
    # u_i g_i = 1 mod (x - root_i)^{mult_i}.
    projections = []
    identity = ExactMatrix.from_entries(n, n, {(i, i): ONE for i in range(n)})
    S2 = ExactMatrix.zero(n, n)
    for root, mult in roots:
        power: Poly = (ONE,)
        for _ in range(mult):
            power = poly_mul(power, (-root, ONE))
        g_i = poly_divmod(p, power)[0]
        u_i = _inverse_mod(g_i, power)
        P = poly_eval_matrix(poly_mul(u_i, g_i), M)
        projections.append(P)
        S2 = axpy(S2, P, root)
    total = ExactMatrix.zero(n, n)
    for P in projections:
        _certify((P @ P) == P, "eigenprojection is not idempotent")
        total = axpy(total, P)
    _certify(total == identity, "eigenprojections do not sum to the identity")
    _certify(A == S2, "Newton route and projection route disagree")

    S = S2
    N = axpy(M, S, MINUS_ONE)
    _certify((S @ N) == (N @ S), "semisimple and nilpotent parts do not commute")
    _certify(N.is_nilpotent(), "nilpotent part is not nilpotent")
    check = identity
    for root, _ in roots:
        check = check @ axpy(S, identity, -root)
    _certify(check.is_zero(), "semisimple part is not diagonalizable over Q(i)")
    return S, N


def _certify(holds: bool, message: str) -> None:
    if not holds:
        raise CertificateError(message)


def _inverse_mod(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a modulo a coprime polynomial, by extended Euclid."""
    r0, r1 = modulus, poly_divmod(a, modulus)[1]
    s0: Poly = ()
    s1: Poly = (ONE,)
    while r1:
        quot, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quot, s1))
    if len(r0) != 1:
        raise ValidationFailure("polynomials are not coprime")
    inv_lead = r0[0].inverse()
    return poly_divmod(tuple(c * inv_lead for c in s0), modulus)[1]


def matrix_inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan on the augmented matrix."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.nrows
    aug = [[row.get(j, ZERO) for j in range(n)] + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(matrix.row_maps)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * a for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return ExactMatrix.from_entries(
        n, n, {(i, j): a for i, row in enumerate(aug) for j, a in enumerate(row[n:])}
    )
