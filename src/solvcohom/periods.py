"""Lattice period values: exact elements of a fixed Q-span.

A PeriodValue lives in the Q-vector space spanned by the built-in symbols
1, i, pi, i*pi together with user-declared symbols. Symbols come in
real/imaginary companion pairs (s, i*s) so that multiplication by a
Gaussian rational stays inside the span: i*1 = i, i*i = -1, i*pi = i*pi,
i*(i*pi) = -pi, and likewise for user pairs. General products of two
PeriodValues are rejected; nothing in the lattice tests needs them.

Conjugation negates every imaginary-parity coordinate.

Text grammar: a signed sum of terms `rat`, `sym`, or `rat*sym`, e.g.
"a + 2*i*pi", "1/2 - i".
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ScalarParseError, ValidationFailure
from .scalars import GaussianRational, parse_rational

REAL = "real"
IMAGINARY = "imaginary"

_BUILTIN_PAIRS = (("1", "i"), ("pi", "i*pi"))
_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class PeriodBasisSymbol:
    name: str
    parity: str  # REAL or IMAGINARY

    def __post_init__(self):
        if self.parity not in (REAL, IMAGINARY):
            raise ValidationFailure(f"unknown parity {self.parity!r}")


class SymbolTable:
    """Immutable registry of period symbols, organised in (s, i*s) pairs.

    `user_base_names` lists the real member of each user pair in
    declaration order; the imaginary companion is always named "i*"+s.
    """

    __slots__ = ("user_base_names", "_parity", "_pair")

    def __init__(self, user_base_names: Iterable[str] = ()):
        names = tuple(user_base_names)
        parity: dict[str, str] = {}
        pair: dict[str, str] = {}
        for real_name, imag_name in _BUILTIN_PAIRS:
            parity[real_name] = REAL
            parity[imag_name] = IMAGINARY
            pair[real_name] = imag_name
            pair[imag_name] = real_name
        for base in names:
            if not _NAME.match(base):
                raise ValidationFailure(f"bad symbol name {base!r}")
            if base in parity:
                raise ValidationFailure(f"duplicate symbol {base!r}")
            companion = "i*" + base
            parity[base] = REAL
            parity[companion] = IMAGINARY
            pair[base] = companion
            pair[companion] = base
        object.__setattr__(self, "user_base_names", names)
        object.__setattr__(self, "_parity", parity)
        object.__setattr__(self, "_pair", pair)

    @classmethod
    def from_declarations(cls, decls: Iterable[PeriodBasisSymbol]) -> "SymbolTable":
        """Build a table from declarations; either member of a pair may appear."""
        bases = []
        seen = set()
        for d in decls:
            if d.parity == IMAGINARY:
                if not d.name.startswith("i*"):
                    raise ValidationFailure(
                        f"imaginary symbol {d.name!r} must be named i*<base>"
                    )
                base = d.name[2:]
            else:
                base = d.name
            if base not in seen:
                seen.add(base)
                bases.append(base)
        return cls(bases)

    def __eq__(self, other):
        if not isinstance(other, SymbolTable):
            return NotImplemented
        return self.user_base_names == other.user_base_names

    def __hash__(self):
        return hash(self.user_base_names)

    def __repr__(self):
        return f"SymbolTable(user_base_names={self.user_base_names!r})"

    def names(self) -> tuple[str, ...]:
        """All symbol names in canonical display order."""
        out = ["1", "i", "pi", "i*pi"]
        for base in self.user_base_names:
            out.append(base)
            out.append("i*" + base)
        return tuple(out)

    def has(self, name: str) -> bool:
        return name in self._parity

    def parity(self, name: str) -> str:
        return self._parity[name]

    def companion(self, name: str) -> str:
        return self._pair[name]

    def symbols(self) -> tuple[PeriodBasisSymbol, ...]:
        return tuple(PeriodBasisSymbol(n, self._parity[n]) for n in self.names())


class PeriodValue:
    """Exact Q-linear combination of the symbols of one table."""

    __slots__ = ("table", "coords")

    def __init__(self, table: SymbolTable, coords: Mapping[str, Fraction] = ()):
        clean: dict[str, Fraction] = {}
        for name, coeff in dict(coords).items():
            if not table.has(name):
                raise ValidationFailure(f"symbol {name!r} not declared")
            frac = coeff if type(coeff) is Fraction else Fraction(coeff)
            if frac:
                clean[name] = frac
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coords", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PeriodValue is immutable")

    # -- linear structure -------------------------------------------

    def _check(self, other: "PeriodValue"):
        if self.table != other.table:
            raise ValidationFailure("period values from different symbol tables")

    def __add__(self, other: "PeriodValue") -> "PeriodValue":
        self._check(other)
        out = dict(self.coords)
        for name, coeff in other.coords.items():
            out[name] = out.get(name, Fraction(0)) + coeff
        return PeriodValue(self.table, out)

    def __sub__(self, other: "PeriodValue") -> "PeriodValue":
        return self + (-other)

    def __neg__(self) -> "PeriodValue":
        return PeriodValue(self.table, {n: -c for n, c in self.coords.items()})

    def __mul__(self, other):
        raise TypeError(
            "PeriodValue products are undefined; use scale() with a scalar"
        )

    __rmul__ = __mul__

    def scale(self, scalar: GaussianRational) -> "PeriodValue":
        """Multiply by an element of Q(i); the span is closed under this."""
        out: dict[str, Fraction] = {}
        self.add_scaled_into(out, scalar)
        return PeriodValue(self.table, out)

    def add_scaled_into(self, out: dict[str, Fraction], scalar: GaussianRational):
        """Add the coordinates of scalar * self into out, keyed by symbol."""
        tab = self.table
        re, im = scalar.re, scalar.im
        for name, coeff in self.coords.items():
            if re:
                out[name] = out.get(name, Fraction(0)) + re * coeff
            if im:
                # i * symbol: companion with a sign flip on imaginary inputs.
                comp = tab.companion(name)
                sign = 1 if tab.parity(name) == REAL else -1
                out[comp] = out.get(comp, Fraction(0)) + sign * im * coeff

    def conjugate(self) -> "PeriodValue":
        tab = self.table
        return PeriodValue(
            tab,
            {
                n: (-c if tab.parity(n) == IMAGINARY else c)
                for n, c in self.coords.items()
            },
        )

    def coefficient(self, name: str) -> Fraction:
        if not self.table.has(name):
            raise ValidationFailure(f"symbol {name!r} not declared")
        return self.coords.get(name, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coords

    # -- lattice membership tests ------------------------------------

    def in_2pi_i_integers(self) -> bool:
        """True iff the value lies in 2*pi*i*Z.

        Every coordinate must vanish except the i*pi one, which must be an
        even integer. Zero qualifies.
        """
        for name, coeff in self.coords.items():
            if name != "i*pi":
                return False
            if coeff.denominator != 1 or coeff.numerator % 2 != 0:
                return False
        return True

    def imag_in_pi_integers(self) -> bool:
        """True iff the imaginary part lies in pi*Z.

        Coordinate conditions: the i coordinate vanishes, the i*pi
        coordinate is an integer, and every imaginary-parity user symbol
        coordinate vanishes. Real-parity coordinates are unconstrained.
        """
        tab = self.table
        for name, coeff in self.coords.items():
            if name == "i":
                return False
            if name == "i*pi":
                if coeff.denominator != 1:
                    return False
            elif tab.parity(name) == IMAGINARY:
                return False
        return True

    # -- equality / output -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PeriodValue):
            return NotImplemented
        return self.table == other.table and self.coords == other.coords

    def __hash__(self):
        return hash((self.table, tuple(sorted(self.coords.items()))))

    def __repr__(self):
        return f"PeriodValue({format_period(self)!r})"

    def __str__(self):
        return format_period(self)


def zero_period(table: SymbolTable) -> PeriodValue:
    return PeriodValue(table, {})


_RAT = re.compile(r"^\d+(/\d+)?$")


def parse_period(text: str, table: SymbolTable) -> PeriodValue:
    """Parse the period grammar against a symbol table."""
    compact = text.replace(" ", "")
    if not compact:
        raise ScalarParseError("empty period literal")
    coords: dict[str, Fraction] = {}

    def put(name: str, coeff: Fraction):
        coords[name] = coords.get(name, Fraction(0)) + coeff

    for pos, term in enumerate(re.split(r"(?=[+-])", compact)):
        if not term and pos == 0:
            continue
        if not term or term in "+-":
            raise ScalarParseError(f"malformed period literal: {text!r}")
        sign = Fraction(1)
        body = term
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        if table.has(body):
            put(body, sign)
        elif _RAT.match(body):
            put("1", sign * parse_rational(body))
        elif "*" in body:
            head, _, tail = body.partition("*")
            if not _RAT.match(head) or not table.has(tail):
                raise ScalarParseError(f"bad period term {term!r} in {text!r}")
            put(tail, sign * parse_rational(head))
        else:
            raise ScalarParseError(f"bad period term {term!r} in {text!r}")
    return PeriodValue(table, coords)


def format_period(value: PeriodValue) -> str:
    """Canonical text form; parse_period(format_period(v), t) == v."""
    if value.is_zero():
        return "0"
    chunks: list[str] = []
    for name in value.table.names():
        coeff = value.coords.get(name)
        if not coeff:
            continue
        mag = abs(coeff)
        if name == "1":
            body = str(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{mag}*{name}"
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks)
