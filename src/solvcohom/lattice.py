"""Lattice data, character triviality tests, and subcomplex selection.

A lattice enters only through the images of its generators in the
abelianized complement: one vector of PeriodValues per generator, with
one coordinate per complement index. A weight covector mu is evaluated
on a generator as sum_j mu_j * delta_j, a Q(i)-combination of the real
period symbols; the two membership tests are

    trivial on the lattice:       mu(delta) in 2*pi*i*Z  for all generators
    ratio-trivial on the lattice: Im mu(delta) in pi*Z   for all generators

The selections evaluate each (tag, generator) pair once for both tests.

The de Rham complex keeps the labels whose tag is trivial; the Dolbeault
complex keeps the ratio-trivial ones. Both selections are unions of
weight-tag blocks, built by weights.restrict_complex from the kept tags'
columns only; its grading check on every built entry makes them closed
under the differential by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cecomplex import FiniteComplex, Weight
from .errors import ModeMismatchError, ValidationFailure
from .liealg import (
    MODE_COMPLEX,
    MODE_REAL,
    LieAlgebraData,
    ValidationIssue,
)
from .periods import PeriodValue, SymbolTable
from .scalars import GaussianRational
from .weights import InvariantComplex, format_weight, restrict_complex, weight_is_zero


@dataclass(frozen=True)
class LatticeData:
    """Generator images in the abelianized complement, as period vectors."""

    table: SymbolTable
    generators: tuple[tuple[PeriodValue, ...], ...]

    def __post_init__(self):
        for gen in self.generators:
            for v in gen:
                if v.table != self.table:
                    raise ValidationFailure(
                        "generator coordinate uses a foreign symbol table"
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
                if gen[pos[other]] != gen[pos[j]].conjugate():
                    issues.append(
                        ValidationIssue(
                            "lattice-conjugation",
                            f"generator {gi} coordinates at {g.basis[j]} and "
                            f"{g.basis[other]} are not conjugate",
                            (gi, j),
                        )
                    )
    return tuple(issues)


def evaluate_weight_on_generator(
    mu: Weight, generator: Sequence[PeriodValue], table: SymbolTable
) -> PeriodValue:
    """sum_j mu_j * delta_j, accumulated in one {symbol: Q(i)} dict."""
    acc: dict[str, GaussianRational] = {}
    for coeff, coord in zip(mu, generator):
        if coeff:
            if coord.table != table:
                raise ValidationFailure("period values from different symbol tables")
            coord.add_scaled_into(acc, coeff)
    return PeriodValue.from_symbols(table, acc)


def ratio_char_trivial_on_lattice(mu: Weight, lat: LatticeData) -> bool:
    """conj(e^mu)/e^mu = 1 on every generator: Im mu(delta) in pi*Z."""
    return all(
        evaluate_weight_on_generator(mu, gen, lat.table).imag_in_pi_integers()
        for gen in lat.generators
    )


def char_unitary(mu: Weight, g: LieAlgebraData) -> Optional[bool]:
    """|e^mu| = 1 on real points; None when no conjugation table exists."""
    if g.conjugation is None:
        return None
    pos = {j: p for p, j in enumerate(g.complement)}
    for j in g.complement:
        other = g.conjugation[j]
        if mu[pos[j]] + mu[pos[other]].conjugate() != GaussianRational(0):
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
    """Both lattice tests from one evaluation of each (tag, generator).

    2*pi*i*Z lies inside {Im in pi*Z}, so a generator failing the ratio
    test fails the trivial one too, and the walk stops there.
    """
    out = []
    for tag in ic.tag_table:
        trivial = ratio = True
        for gen in lat.generators:
            value = evaluate_weight_on_generator(tag, gen, lat.table)
            if not value.imag_in_pi_integers():
                trivial = ratio = False
                break
            trivial = trivial and value.in_2pi_i_integers()
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
    # Each tag is witnessed by its first basis element in (degree, index) order.
    first: dict[int, tuple[int, int]] = {}
    for p, per_degree in enumerate(ic.tag_ids):
        for idx, t in enumerate(per_degree):
            if t not in first:
                first[t] = (p, idx)
    witnesses: list[ConditionWitness] = []
    diamond1 = True
    star = True
    diamond2: Optional[bool] = True
    for t, (p, idx) in first.items():
        v = verdicts[t]
        label = ic.label(p, idx)
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
        if not ratio_char_trivial_on_lattice(lam, lat):
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
