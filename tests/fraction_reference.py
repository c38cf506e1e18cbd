"""The Fraction-based bodies of the scalar text writer and the lattice
membership tests, as a test reference.

The package prints and classifies Q(i) scalars from their stored integer
triple (a, b, d). These functions do the same work the way the package
did before, through the Fraction parts `.re` and `.im`, so tests can pin
the integer versions to them byte for byte and verdict for verdict.
"""
from __future__ import annotations

from solvcohom.scalars import GaussianRational


def fraction_format_gaussian(value: GaussianRational) -> str:
    """Canonical text form, from the Fraction parts."""
    re_f, im_f = value.re, value.im
    if not re_f and not im_f:
        return "0"
    parts = []
    if re_f:
        parts.append(str(re_f))
    if im_f:
        if im_f == 1:
            imag = "i"
        elif im_f == -1:
            imag = "-i"
        else:
            imag = f"{im_f}*i"
        if parts and not imag.startswith("-"):
            parts.append("+" + imag)
        else:
            parts.append(imag)
    return "".join(parts)


def fraction_in_2pi_i_integers(value: dict[str, GaussianRational]) -> bool:
    """Only pi occurs, with a zero real part and an even integer imaginary part."""
    for symbol, coeff in value.items():
        im = coeff.im
        if symbol != "pi" or coeff.re or im.denominator != 1 or im.numerator % 2:
            return False
    return True


def fraction_imag_in_pi_integers(value: dict[str, GaussianRational]) -> bool:
    """The imaginary part is an integer on pi and zero on every other symbol."""
    for symbol, coeff in value.items():
        im = coeff.im
        if (im.denominator != 1) if symbol == "pi" else im:
            return False
    return True
