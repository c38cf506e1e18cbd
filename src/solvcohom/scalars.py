"""Gaussian rationals: the field Q(i) with exact arithmetic.

Every scalar in the package lives here. There are no floats anywhere;
real and imaginary parts are `fractions.Fraction`. Values whose
computation would leave Q(i) must be rejected upstream, never coerced.

Text grammar (used by instance files and reports): a signed sum of terms,
each term a rational `p` or `p/q`, the literal `i`, or `p*i` / `p/q*i`.
Examples: "1/2-3*i", "i", "-2", "0".
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import ScalarParseError

_RAT = re.compile(r"^[+-]?\d+(/\d+)?$")
_TERM_SPLIT = re.compile(r"(?=[+-])")


class GaussianRational:
    """An element of Q(i), immutable and hashable."""

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    # -- structure --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        """Total order used only for deterministic output, not algebra."""
        return (self.re, self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


def gauss(re=0, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions or strings."""
    if isinstance(re, str):
        if im:
            raise ValueError("string form carries both parts")
        return parse_gaussian(re)
    return GaussianRational(Fraction(re), Fraction(im))


def parse_rational(text: str) -> Fraction:
    """A signed literal `p` or `p/q`; a zero denominator is a parse error."""
    if not _RAT.match(text):
        raise ScalarParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in {text!r}") from None


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the exact text grammar for Q(i), e.g. "1/2-3*i"."""
    compact = text.replace(" ", "")
    if not compact:
        raise ScalarParseError("empty scalar literal")
    re_part = Fraction(0)
    im_part = Fraction(0)
    for pos, term in enumerate(_TERM_SPLIT.split(compact)):
        if not term and pos == 0:
            # A leading sign leaves an empty chunk before the first split.
            continue
        if not term or term in "+-":
            raise ScalarParseError(f"malformed scalar literal: {text!r}")
        sign = Fraction(1)
        body = term
        if body[0] in "+-":
            sign = Fraction(-1) if body[0] == "-" else Fraction(1)
            body = body[1:]
        if body == "i":
            im_part += sign
        elif body.endswith("*i"):
            im_part += sign * parse_rational(body[:-2])
        else:
            re_part += sign * parse_rational(body)
    return GaussianRational(re_part, im_part)


def _format_fraction(f: Fraction) -> str:
    return str(f)


def format_gaussian(value: GaussianRational) -> str:
    """Canonical text form; parse_gaussian(format_gaussian(v)) == v."""
    re_f, im_f = value.re, value.im
    if not re_f and not im_f:
        return "0"
    parts = []
    if re_f:
        parts.append(_format_fraction(re_f))
    if im_f:
        if im_f == 1:
            imag = "i"
        elif im_f == -1:
            imag = "-i"
        else:
            imag = f"{_format_fraction(im_f)}*i"
        if parts and not imag.startswith("-"):
            parts.append("+" + imag)
        else:
            parts.append(imag)
    return "".join(parts)
