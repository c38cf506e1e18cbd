"""Lattice period values: Q(i)-combinations of real symbols.

A PeriodValue is a finite sum c_s * s over the real symbols s of one
table: 1, pi and the user-declared ones, each c_s a nonzero Gaussian
rational. Multiplication by a scalar of Q(i) and conjugation act on the
coefficients alone, since every symbol is real. General products of two
PeriodValues are rejected; nothing in the lattice tests needs them.

Text names each real and imaginary part on its own: "1", "i", "pi",
"i*pi", and s, "i*s" for a user symbol s. The grammar is a signed sum of
terms `rat`, `name`, or `rat*name`, e.g. "a + 2*i*pi", "1/2 - i".
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ScalarParseError, ValidationFailure
from .scalars import I, ONE, ZERO, GaussianRational, parse_rational

REAL = "real"
IMAGINARY = "imaginary"

_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class PeriodBasisSymbol:
    name: str
    parity: str  # REAL or IMAGINARY

    def __post_init__(self):
        if self.parity not in (REAL, IMAGINARY):
            raise ValidationFailure(f"unknown parity {self.parity!r}")


class SymbolTable:
    """Immutable registry of period symbols.

    `user_base_names` lists the user's real symbols in declaration order.
    Each real symbol s has two names, s and "i*s" ("1" and "i" for the
    unit); `split(name)` is the (symbol, ONE or I) pair a name stands for.
    """

    __slots__ = ("user_base_names", "_split")

    def __init__(self, user_base_names: Iterable[str] = ()):
        names = tuple(user_base_names)
        split = {"1": ("1", ONE), "i": ("1", I), "pi": ("pi", ONE), "i*pi": ("pi", I)}
        for base in names:
            if not _NAME.match(base):
                raise ValidationFailure(f"bad symbol name {base!r}")
            if base in split:
                raise ValidationFailure(f"duplicate symbol {base!r}")
            split[base] = (base, ONE)
            split["i*" + base] = (base, I)
        object.__setattr__(self, "user_base_names", names)
        object.__setattr__(self, "_split", split)

    @classmethod
    def from_declarations(cls, decls: Iterable[PeriodBasisSymbol]) -> "SymbolTable":
        """Build a table from declarations; either name of a symbol may appear."""
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
        return tuple(self._split)

    def has(self, name: str) -> bool:
        return name in self._split

    def split(self, name: str) -> tuple[str, GaussianRational]:
        """The real symbol a name stands for and its unit, ONE or I."""
        if name not in self._split:
            raise ValidationFailure(f"symbol {name!r} not declared")
        return self._split[name]


class PeriodValue:
    """Exact Q(i)-linear combination of the real symbols of one table.

    `coords` maps each real symbol to its nonzero Gaussian rational
    coefficient. The constructor takes rational coefficients by name.
    """

    __slots__ = ("table", "coords")

    def __init__(self, table: SymbolTable, coords: Mapping[str, Fraction] = ()):
        acc: dict[str, GaussianRational] = {}
        for name, coeff in dict(coords).items():
            symbol, unit = table.split(name)
            acc[symbol] = acc.get(symbol, ZERO) + unit * GaussianRational(coeff)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coords", {s: c for s, c in acc.items() if c})

    @classmethod
    def from_symbols(cls, table: SymbolTable, coords: dict) -> "PeriodValue":
        """Adopt a {real symbol: nonzero coefficient} dict as is."""
        out = cls.__new__(cls)
        object.__setattr__(out, "table", table)
        object.__setattr__(out, "coords", coords)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PeriodValue is immutable")

    # -- linear structure -------------------------------------------

    def __add__(self, other: "PeriodValue") -> "PeriodValue":
        if self.table != other.table:
            raise ValidationFailure("period values from different symbol tables")
        out = dict(self.coords)
        other.add_scaled_into(out, ONE)
        return PeriodValue.from_symbols(self.table, out)

    def __sub__(self, other: "PeriodValue") -> "PeriodValue":
        return self + (-other)

    def __neg__(self) -> "PeriodValue":
        return PeriodValue.from_symbols(self.table, {s: -c for s, c in self.coords.items()})

    def __mul__(self, other):
        raise TypeError(
            "PeriodValue products are undefined; use scale() with a scalar"
        )

    __rmul__ = __mul__

    def scale(self, scalar: GaussianRational) -> "PeriodValue":
        """Multiply by an element of Q(i)."""
        out: dict[str, GaussianRational] = {}
        self.add_scaled_into(out, scalar)
        return PeriodValue.from_symbols(self.table, out)

    def add_scaled_into(self, out: dict[str, GaussianRational], scalar: GaussianRational):
        """Add scalar * self into out, keyed by symbol; out keeps nonzeros only."""
        if scalar:
            for symbol, coeff in self.coords.items():
                term = scalar * coeff
                total = out[symbol] + term if symbol in out else term
                if total:
                    out[symbol] = total
                else:
                    del out[symbol]

    def conjugate(self) -> "PeriodValue":
        return PeriodValue.from_symbols(
            self.table, {s: c.conjugate() for s, c in self.coords.items()}
        )

    def coefficient(self, name: str) -> Fraction:
        """The rational coefficient of one name, e.g. of "i*pi"."""
        symbol, unit = self.table.split(name)
        coeff = self.coords.get(symbol, ZERO)
        return coeff.re if unit is ONE else coeff.im

    def is_zero(self) -> bool:
        return not self.coords

    # -- lattice membership tests ------------------------------------

    def in_2pi_i_integers(self) -> bool:
        """True iff the value lies in 2*pi*i*Z: pi times i times an even integer."""
        for symbol, coeff in self.coords.items():
            im = coeff.im
            if symbol != "pi" or coeff.re or im.denominator != 1 or im.numerator % 2:
                return False
        return True

    def imag_in_pi_integers(self) -> bool:
        """True iff Im lies in pi*Z: integer Im on pi, real coefficients elsewhere."""
        for symbol, coeff in self.coords.items():
            im = coeff.im
            if (im.denominator != 1) if symbol == "pi" else im:
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
            put("1", sign * parse_rational(body, text))
        elif "*" in body:
            head, _, tail = body.partition("*")
            if not _RAT.match(head) or not table.has(tail):
                raise ScalarParseError(f"bad period term {term!r} in {text!r}")
            put(tail, sign * parse_rational(head, text))
        else:
            raise ScalarParseError(f"bad period term {term!r} in {text!r}")
    return PeriodValue(table, coords)


def format_period(value: PeriodValue) -> str:
    """Canonical text form; parse_period(format_period(v), t) == v."""
    if value.is_zero():
        return "0"
    chunks: list[str] = []
    for name in value.table.names():
        coeff = value.coefficient(name)
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
