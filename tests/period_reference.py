"""Period values in the name-keyed rational encoding, as a test reference.

A value is a {name: nonzero Fraction} dict over reference_names(symbols):
one rational coordinate for each real symbol s and one for its imaginary
companion i*s ("1" pairs with "i"). Multiplication by i sends a name to
its companion, negating when the name is imaginary; conjugation negates
the imaginary names. The package keeps one Q(i) coefficient per real
symbol instead, and tests require the two encodings to agree.
reference_format is the canonical text of a value, which the package
only parses, so the writer of instance files uses it.
"""
from __future__ import annotations

from fractions import Fraction

from typing import Sequence

from solvcohom.lattice import parse_period, period_names
from solvcohom.scalars import GaussianRational

Coords = dict[str, Fraction]


def reference_names(symbols: Sequence[str]) -> tuple[str, ...]:
    """Every name of declared symbols in display order: builtins, then each pair."""
    pairs = tuple(name for base in symbols for name in (base, "i*" + base))
    return ("1", "i", "pi", "i*pi") + pairs


def named_coords(value: dict[str, GaussianRational]) -> Coords:
    """A package value in the name-keyed encoding."""
    out: Coords = {}
    for symbol, coeff in value.items():
        for name, part in ((symbol, coeff.re), (companion(symbol), coeff.im)):
            if part:
                out[name] = part
    return out


def is_imaginary(name: str) -> bool:
    return name == "i" or name.startswith("i*")


def companion(name: str) -> str:
    if name in ("1", "i"):
        return "i" if name == "1" else "1"
    return name[2:] if is_imaginary(name) else "i*" + name


def _clean(coords: Coords) -> Coords:
    return {name: c for name, c in coords.items() if c}


def reference_add(a: Coords, b: Coords) -> Coords:
    out = dict(a)
    for name, c in b.items():
        out[name] = out.get(name, Fraction(0)) + c
    return _clean(out)


def reference_scale(coords: Coords, scalar: GaussianRational) -> Coords:
    """scalar * value: the real part keeps each name, the imaginary part
    moves it to its companion with a sign flip on imaginary inputs."""
    out: Coords = {}
    for name, c in coords.items():
        out[name] = out.get(name, Fraction(0)) + scalar.re * c
        comp = companion(name)
        sign = -1 if is_imaginary(name) else 1
        out[comp] = out.get(comp, Fraction(0)) + sign * scalar.im * c
    return _clean(out)


def reference_conjugate(coords: Coords) -> Coords:
    return {name: -c if is_imaginary(name) else c for name, c in coords.items()}


def reference_in_2pi_i_integers(coords: Coords) -> bool:
    """Every coordinate vanishes except i*pi, which is an even integer."""
    return all(
        name == "i*pi" and c.denominator == 1 and c.numerator % 2 == 0
        for name, c in coords.items()
    )


def reference_imag_in_pi_integers(coords: Coords) -> bool:
    """The i*pi coordinate is an integer and no other imaginary name occurs."""
    return all(
        c.denominator == 1 if name == "i*pi" else not is_imaginary(name)
        for name, c in coords.items()
    )


def reference_format(coords: Coords, symbols: Sequence[str]) -> str:
    chunks: list[str] = []
    for name in reference_names(symbols):
        coeff = coords.get(name)
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
    return "".join(chunks) or "0"


def package_value(coords: Coords, symbols: Sequence[str]) -> dict[str, GaussianRational]:
    """The package's value of name-keyed coords, parsed from their text."""
    return parse_period(reference_format(coords, symbols), period_names(symbols))
