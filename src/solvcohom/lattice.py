"""Lattice data, period values, character triviality tests, and subcomplex selection.

A lattice enters only through the images of its generators in the
abelianized complement: one period value per generator and complement
index. A period value is a {real symbol: nonzero Gaussian rational} dict,
the finite sum c_s * s over the real symbols s: "1", "pi" and the
declared ones. Every symbol is real, so conjugation acts on the
coefficients alone. A weight covector mu is evaluated on a generator as
the period value sum_j mu_j * delta_j; the two membership tests are

    trivial on the lattice:       mu(delta) in 2*pi*i*Z  for all generators
    ratio-trivial on the lattice: Im mu(delta) in pi*Z   for all generators

The selections evaluate each (tag, generator) pair once for both tests.

Period text names each real and imaginary part on its own: "1", "i", "pi",
"i*pi", and s, "i*s" for a declared symbol s. The grammar is a signed sum
of terms `rat`, `name`, or `rat*name`, e.g. "a + 2*i*pi", "1/2 - i".

The de Rham complex keeps the labels whose tag is trivial; the Dolbeault
complex keeps the ratio-trivial ones. Both selections are unions of
weight-tag blocks, built by weights.restrict_complex from the kept tags'
columns only; its grading check on every built entry makes them closed
under the differential by construction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .cecomplex import FiniteComplex, Weight
from .errors import ModeMismatchError, ScalarParseError, ValidationFailure
from .liealg import (
    MODE_COMPLEX,
    MODE_REAL,
    LieAlgebraData,
    ValidationIssue,
)
from .linalg import row_axpy
from .scalars import I, ONE, ZERO, GaussianRational, parse_rational, signed_terms
from .weights import InvariantComplex, format_weight, restrict_complex, weight_is_zero

Period = dict[str, GaussianRational]

REAL = "real"
IMAGINARY = "imaginary"

_BUILTIN_NAMES = {"1": ("1", ONE), "i": ("1", I), "pi": ("pi", ONE), "i*pi": ("pi", I)}
_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_RAT = re.compile(r"^\d+(/\d+)?$")


def declared_symbols(declarations: Iterable[tuple[str, str]]) -> tuple[str, ...]:
    """The real symbols that (name, parity) declarations declare, in order.

    A real declaration names its symbol s and an imaginary one names i*s;
    either declares s. Each parity is checked as its declaration is read,
    so a caller that yields the declarations lazily reports every
    declaration's own errors in declaration order. The i*<base> naming is
    checked next, then each base: an identifier other than i and pi.
    """
    checked = []
    for name, parity in declarations:
        if parity not in (REAL, IMAGINARY):
            raise ValidationFailure(f"unknown parity {parity!r}")
        checked.append((name, parity))
    bases = []
    for name, parity in checked:
        if parity == IMAGINARY:
            if not name.startswith("i*"):
                raise ValidationFailure(f"imaginary symbol {name!r} must be named i*<base>")
            name = name[2:]
        bases.append(name)
    symbols = tuple(dict.fromkeys(bases))
    for base in symbols:
        if not _NAME.match(base):
            raise ValidationFailure(f"bad symbol name {base!r}")
        if base in _BUILTIN_NAMES:
            raise ValidationFailure(f"duplicate symbol {base!r}")
    return symbols


def period_names(symbols: Iterable[str]) -> dict[str, tuple[str, GaussianRational]]:
    """Each name period text may use: its real symbol and unit, ONE or I.

    s and "i*s" stand for (s, ONE) and (s, I), as "1" and "i" do for the
    unit and "pi" and "i*pi" for pi.
    """
    names = dict(_BUILTIN_NAMES)
    for s in symbols:
        names[s] = (s, ONE)
        names["i*" + s] = (s, I)
    return names


def parse_period(text: str, names: Mapping[str, tuple[str, GaussianRational]]) -> Period:
    """Parse period text against the names of period_names."""
    value: Period = {}
    for negative, body, term in signed_terms(text, "period"):
        head, _, tail = body.partition("*")
        if body in names:
            name, coeff = body, ONE
        elif _RAT.match(body):
            name, coeff = "1", parse_rational(body, text)
        elif _RAT.match(head) and tail in names:
            name, coeff = tail, parse_rational(head, text)
        else:
            raise ScalarParseError(f"bad period term {term!r} in {text!r}")
        symbol, unit = names[name]
        old = value.get(symbol, ZERO)
        value[symbol] = old - unit * coeff if negative else old + unit * coeff
    return {s: c for s, c in value.items() if c}


def in_2pi_i_integers(value: Period) -> bool:
    """True iff the value lies in 2*pi*i*Z: pi times i times an even integer."""
    for symbol, coeff in value.items():
        a, b, d = coeff.triple
        if symbol != "pi" or a or d != 1 or b % 2:
            return False
    return True


def imag_in_pi_integers(value: Period) -> bool:
    """True iff Im lies in pi*Z: integer Im on pi, real coefficients elsewhere."""
    for symbol, coeff in value.items():
        _, b, d = coeff.triple
        # Im is b/d, an integer iff d divides b.
        if (b % d) if symbol == "pi" else b:
            return False
    return True


@dataclass(frozen=True)
class LatticeData:
    """Generator images in the abelianized complement, as period values.

    `symbols` lists the declared real symbols in declaration order; a
    coordinate may use them, "1" and "pi", each with a nonzero coefficient.
    """

    symbols: tuple[str, ...]
    generators: tuple[tuple[Period, ...], ...]

    def __post_init__(self):
        known = {"1", "pi", *self.symbols}
        for gen in self.generators:
            for value in gen:
                for symbol, coeff in value.items():
                    if symbol not in known:
                        raise ValidationFailure(
                            f"generator coordinate uses undeclared symbol {symbol!r}"
                        )
                    if not coeff:
                        raise ValidationFailure(
                            f"generator coordinate has a zero coefficient on {symbol!r}"
                        )


def validate_lattice(g: LieAlgebraData, lat: LatticeData) -> tuple[ValidationIssue, ...]:
    """The lattice's issues: generator widths and, with a conjugation, real points."""
    issues: list[ValidationIssue] = []
    width = len(g.complement)
    for gi, gen in enumerate(lat.generators):
        if len(gen) != width:
            issues.append(
                ValidationIssue(
                    "lattice-width",
                    f"generator {gi} has {len(gen)} coordinates, expected {width}",
                    (gi,),
                )
            )
    pos = {j: p for p, j in enumerate(g.complement)}
    if (
        g.mode == MODE_REAL
        and g.conjugation is not None
        and not any(i.code == "lattice-width" for i in issues)
        # A sigma that leaves the complement is validate_algebra's
        # conjugation-split issue; there is no coordinate to compare.
        and all(g.conjugation[j] in pos for j in g.complement)
    ):
        # Real points of the complexified complement: the sigma(j) coordinate
        # must be the conjugate of the j coordinate.
        for gi, gen in enumerate(lat.generators):
            for j in g.complement:
                other = g.conjugation[j]
                if gen[pos[other]] != {s: c.conjugate() for s, c in gen[pos[j]].items()}:
                    issues.append(
                        ValidationIssue(
                            "lattice-conjugation",
                            f"generator {gi} coordinates at {g.basis[j]} and "
                            f"{g.basis[other]} are not conjugate",
                            (gi, j),
                        )
                    )
    return tuple(issues)


def evaluate_weight_on_generator(mu: Weight, generator: Sequence[Period]) -> Period:
    """sum_j mu_j * delta_j as a period value, nonzero coefficients only."""
    acc: Period = {}
    for coeff, coord in zip(mu, generator):
        if coord and coeff:
            acc = row_axpy(acc, coord, coeff)
    return acc


def _triviality(mu: Weight, lat: LatticeData) -> tuple[bool, bool]:
    """(trivial, ratio-trivial) on the lattice, one evaluation per generator.

    2*pi*i*Z lies inside {Im in pi*Z}, so a generator failing the ratio
    test fails the trivial one too, and the walk stops there.
    """
    trivial = True
    for gen in lat.generators:
        value = evaluate_weight_on_generator(mu, gen)
        if not imag_in_pi_integers(value):
            return False, False
        trivial = trivial and in_2pi_i_integers(value)
    return trivial, True


def char_unitary(mu: Weight, g: LieAlgebraData) -> Optional[bool]:
    """|e^mu| = 1 on real points; None when no conjugation table exists."""
    if g.conjugation is None:
        return None
    pos = {j: p for p, j in enumerate(g.complement)}
    for j in g.complement:
        other = g.conjugation[j]
        if mu[pos[j]] + mu[pos[other]].conjugate():
            return False
    return True


@dataclass(frozen=True)
class TagVerdict:
    tag: Weight
    trivial_on_g: bool
    trivial_on_lattice: bool
    ratio_trivial: bool
    unitary: Optional[bool]


@dataclass(frozen=True)
class SelectionResult:
    kind: str  # "derham" or "dolbeault"
    complex: FiniteComplex
    verdicts: tuple[TagVerdict, ...]  # indexed by the complex's tag ids
    kept: tuple[int, ...]  # the tag ids whose blocks make up complex


def _verdicts(ic: InvariantComplex, lat: LatticeData) -> tuple[TagVerdict, ...]:
    out = []
    for tag in ic.tag_table:
        trivial, ratio = _triviality(tag, lat)
        out.append(
            TagVerdict(
                tag=tag,
                trivial_on_g=weight_is_zero(tag),
                trivial_on_lattice=trivial,
                ratio_trivial=ratio,
                unitary=char_unitary(tag, ic.algebra),
            )
        )
    return tuple(out)


def _select(ic: InvariantComplex, lat: LatticeData, kind: str) -> SelectionResult:
    verdicts = _verdicts(ic, lat)
    kept = tuple(t for t, v in enumerate(verdicts)
                 if (v.trivial_on_lattice if kind == "derham" else v.ratio_trivial))
    return SelectionResult(kind, restrict_complex(ic, kept), verdicts, kept)


def select_de_rham(ic: InvariantComplex, lat: LatticeData) -> SelectionResult:
    """Subcomplex of labels whose tag is trivial on the lattice."""
    if ic.algebra.mode != MODE_REAL:
        raise ModeMismatchError(
            "the twisted de Rham selection needs a real-complexified instance"
        )
    return _select(ic, lat, "derham")


def select_dolbeault(ic: InvariantComplex, lat: LatticeData) -> SelectionResult:
    """Subcomplex of labels whose tag is ratio-trivial on the lattice."""
    if ic.algebra.mode != MODE_COMPLEX:
        raise ModeMismatchError(
            "the Dolbeault selection needs a complex-mode instance"
        )
    return _select(ic, lat, "dolbeault")


@dataclass(frozen=True)
class ConditionWitness:
    condition: str
    degree: int
    label: str
    tag: str


@dataclass(frozen=True)
class ConditionReport:
    """The four selection-regularity flags with failure witnesses.

    diamond1: tag vanishes iff trivial on the lattice (twisted de Rham
              selects exactly the zero-tag block).
    diamond2: every nonzero tag is non-unitary; None when no conjugation
              table is available to test unitarity.
    star:     tag vanishes iff ratio-trivial on the lattice.
    box:      every basis weight lambda_i is ratio-trivial on the lattice.
    """

    diamond1: bool
    diamond2: Optional[bool]
    star: bool
    box: bool
    witnesses: tuple[ConditionWitness, ...]


def check_conditions(ic: InvariantComplex, lat: LatticeData) -> ConditionReport:
    verdicts = _verdicts(ic, lat)
    m = ic.representation.m
    witnesses: list[ConditionWitness] = []
    diamond1 = True
    star = True
    diamond2: Optional[bool] = True
    # Each tag is witnessed by its first cochain in (degree, index) order.
    for t, key in ic.first_cochains().items():
        v = verdicts[t]
        p = (key // m).bit_count()
        label = ic.label(key)
        tag_text = format_weight(v.tag)
        if v.trivial_on_g != v.trivial_on_lattice:
            diamond1 = False
            witnesses.append(ConditionWitness("diamond1", p, label, tag_text))
        if v.trivial_on_g != v.ratio_trivial:
            star = False
            witnesses.append(ConditionWitness("star", p, label, tag_text))
        if not v.trivial_on_g:
            if v.unitary is None:
                if diamond2 is True:
                    diamond2 = None
            elif v.unitary:
                diamond2 = False
                witnesses.append(ConditionWitness("diamond2", p, label, tag_text))
    box = True
    for i, lam in enumerate(ic.weights.algebra_weights):
        if not _triviality(lam, lat)[1]:
            box = False
            witnesses.append(
                ConditionWitness(
                    "box", -1, ic.algebra.basis[i], format_weight(lam)
                )
            )
    return ConditionReport(diamond1, diamond2, star, box, tuple(witnesses))


def dolbeault_hodge_table(n: int, betti: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """h^{p,q} = C(n,p) * betti_q for 0 <= p, q <= n."""
    from math import comb

    return tuple(
        tuple(comb(n, p) * betti[q] for q in range(len(betti)))
        for p in range(n + 1)
    )
