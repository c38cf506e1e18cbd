"""Gaussian rationals: the field Q(i) with exact arithmetic.

Every scalar in the package lives here. There are no floats anywhere.
A value is stored as three integers (a, b, d) meaning (a + b*i)/d, with
d > 0 and gcd(a, b, d) = 1, so each value has exactly one stored form and
arithmetic runs on Python integers with at most one gcd per result. A
sum, difference or product of two Gaussian integers (d = 1) is canonical
as it stands, so it is wrapped with `_make` directly rather than passed
through `_reduced`. Text is parsed into and printed from the triple,
which other modules read as `triple`; `.re` and `.im` build the parts as
`fractions.Fraction` for the tests and the benchmark counters. Values
whose computation would leave Q(i) must be rejected upstream, never coerced:
the constructor takes int and Fraction parts only, not a bool, float or str.

Text grammar (used by instance files and reports): a signed sum of terms,
each term a rational `p` or `p/q`, the literal `i`, or `p*i` / `p/q*i`.
Examples: "1/2-3*i", "i", "-2", "0".
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import ScalarParseError

_RAT = re.compile(r"^[+-]?\d+(/\d+)?$")
_TERM_SPLIT = re.compile(r"(?=[+-])")


class GaussianRational:
    """An element of Q(i), immutable and hashable.

    `_abd`, read as `triple`, is the canonical (a, b, d) of the module
    docstring. No method calls another arithmetic method, except that
    `inverse()` is `ONE / self`, so benchmark traces that wrap these
    methods count one call per operation.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if any(isinstance(x, bool) or not isinstance(x, (int, Fraction)) for x in (re, im)):
            raise TypeError("GaussianRational parts must be int or Fraction")
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        # Both parts are reduced, so over d = lcm(p, q) the triple is too.
        d = p * q // gcd(p, q)
        _set_abd(self, (re.numerator * (d // p), im.numerator * (d // q), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def triple(self) -> tuple[int, int, int]:
        return self._abd

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            if d == 1:
                return _make(a + c, b + e, 1)
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            if d == 1:
                return _make(a - c, b - e, 1)
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __neg__(self) -> "GaussianRational":
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f == 1:
            return _make(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        # (a + bi)/d divided by (c + ei)/f is (a + bi)(c - ei) f / (d (c^2 + e^2)).
        a, b, d = self._abd
        c, e, f = other._abd
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * norm)

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._abd
        return _make(a, -b, d)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    # -- structure --------------------------------------------------

    def __bool__(self) -> bool:
        a, b, _ = self._abd
        return a != 0 or b != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._abd == other._abd

    def __ne__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._abd != other._abd

    def __hash__(self):
        # Equal to hash((self.re, self.im)); an integer hashes like its Fraction.
        a, b, d = self._abd
        return hash((a, b)) if d == 1 else hash((Fraction(a, d), Fraction(b, d)))

    def sort_key(self):
        """Total order used only for deterministic output, not algebra.

        (re, im), as ints for a Gaussian integer: ints and Fractions
        compare by value, so the order is that of the Fraction pair.
        """
        a, b, d = self._abd
        return (a, b) if d == 1 else (Fraction(a, d), Fraction(b, d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_set_abd = GaussianRational._abd.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    out = _new(GaussianRational)
    _set_abd(out, (a, b, d))
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Wrap (a + b*i)/d for any d > 0, dividing out gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


def parse_rational(text: str, literal: str = "") -> GaussianRational:
    """A signed literal `p` or `p/q`; a zero denominator is a parse error.

    Errors name `literal`, the whole literal that text is a term of, if given.
    """
    if not _RAT.match(text):
        raise ScalarParseError(f"not a rational literal: {literal or text!r}")
    num, _, den = text.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:
        # The literal matched _RAT, so only the integer digit limit is left.
        raise ScalarParseError(
            f"too many digits in a rational literal of length {len(text)}"
        ) from None
    if not q:
        raise ScalarParseError(f"zero denominator in {literal or text!r}")
    return _reduced(p, 0, q)


def signed_terms(text: str, noun: str) -> Iterator[tuple[bool, str, str]]:
    """Yield (negative, body, term) for each term of a signed sum, spaces dropped.

    negative is True after a minus sign and body is the term without its
    sign. An empty text, or a sign with no term after it, is a
    ScalarParseError that names the literal by `noun`, such as "scalar".
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ScalarParseError(f"empty {noun} literal")
    for pos, term in enumerate(_TERM_SPLIT.split(compact)):
        if not term and pos == 0:
            # A leading sign leaves an empty chunk before the first split.
            continue
        if not term or term in "+-":
            raise ScalarParseError(f"malformed {noun} literal: {text!r}")
        if term[0] in "+-":
            yield term[0] == "-", term[1:], term
        else:
            yield False, term, term


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the exact text grammar for Q(i), e.g. "1/2-3*i"."""
    value = ZERO
    for negative, body, _ in signed_terms(text, "scalar"):
        if body == "i":
            term = I
        elif body.endswith("*i"):
            term = I * parse_rational(body[:-2], text)
        else:
            term = parse_rational(body, text)
        value = value - term if negative else value + term
    return value


def _quotient_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_gaussian(value: GaussianRational) -> str:
    """Canonical text form; parse_gaussian(format_gaussian(v)) == v."""
    a, b, d = value._abd
    if not a and not b:
        return "0"
    parts = []
    if a:
        parts.append(_quotient_text(a, d))
    if b:
        imag = "i" if b == d else "-i" if b == -d else _quotient_text(b, d) + "*i"
        parts.append("+" + imag if parts and imag[0] != "-" else imag)
    return "".join(parts)
