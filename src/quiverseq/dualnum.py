"""Exact dual-number scalars: values of the form a + b·ε with ε² = 0.

Two scalar kinds are supported and tracked: integer (Python ``int``) and
rational (``fractions.Fraction``).  Mixed operands promote to rational.
Division of integer-kind operands is integer-exact: it stays integer kind
when the quotient is integral and only otherwise gives the exact rational
quotient, so a fractional term is a reportable value, never a runtime
fault.

``DualScalar`` is a slotted, frozen value type.  Its constructor skips
the promotion check when both parts are exactly ``int``, the common case
of an integer run; any other pair goes through the promotion rule, which
is unchanged: both parts become ``Fraction`` when either one is.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import QuiverSeqError

Scalar = int | Fraction


class ZeroBodyError(QuiverSeqError, ArithmeticError):
    """Division by a dual scalar with zero body.

    Elements b·ε are nilpotent (their square is 0), so a dual scalar is
    invertible exactly when its body is nonzero.
    """


class DigitLimitError(QuiverSeqError, ValueError):
    """An integer longer than Python's int/str conversion limit.

    CPython refuses to convert an integer of more than
    ``sys.get_int_max_str_digits()`` decimal digits (4300 by default) to
    or from a string.
    """


def _promote(body: Scalar, slope: Scalar) -> tuple[Scalar, Scalar]:
    if isinstance(body, Fraction) or isinstance(slope, Fraction):
        return Fraction(body), Fraction(slope)
    return body, slope


_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class DualScalar:
    """An exact dual number ``body + slope·ε``."""

    body: Scalar
    slope: Scalar = 0

    def __init__(self, body: Scalar, slope: Scalar = 0) -> None:
        if type(body) is not int or type(slope) is not int:
            body, slope = _promote(body, slope)
        _setattr(self, "body", body)
        _setattr(self, "slope", slope)

    @property
    def kind(self) -> str:
        return "rational" if type(self.body) is Fraction else "integer"

    @property
    def is_integral(self) -> bool:
        """True when both components are integers (denominator 1)."""
        if self.kind == "integer":
            return True
        return self.body.denominator == 1 and self.slope.denominator == 1

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "DualScalar") -> "DualScalar":
        if not isinstance(other, DualScalar):
            return NotImplemented
        return DualScalar(self.body + other.body, self.slope + other.slope)

    def __mul__(self, other: "DualScalar") -> "DualScalar":
        # (a + bε)(c + dε) = ac + (ad + bc)ε, the ε² term vanishes
        if not isinstance(other, DualScalar):
            return NotImplemented
        return DualScalar(
            self.body * other.body,
            self.body * other.slope + self.slope * other.body,
        )

    def __pow__(self, e: int) -> "DualScalar":
        """(a + bε)^e = a^e + e·a^(e-1)·b·ε for e ≥ 1."""
        if e < 1:
            raise ValueError(f"exponent must be at least 1, got {e}")
        return DualScalar(self.body**e, e * self.body ** (e - 1) * self.slope)

    def __truediv__(self, other: "DualScalar") -> "DualScalar":
        """(a + bε)/(c + dε) = a/c + ((b − (a/c)·d)/c)·ε.

        Integer-kind operands give an integer-kind quotient when c divides
        both a and b − (a/c)·d; otherwise the quotient is the exact
        rational one.
        """
        if not isinstance(other, DualScalar):
            return NotImplemented
        if other.body == 0:
            raise ZeroBodyError("division by dual scalar with zero body")
        if self.kind == other.kind == "integer":
            q, r = divmod(self.body, other.body)
            if not r:
                s, r = divmod(self.slope - q * other.slope, other.body)
                if not r:
                    return DualScalar(q, s)
        c = Fraction(other.body)
        return DualScalar(
            Fraction(self.body) / c,
            (Fraction(self.slope) * c - Fraction(self.body) * Fraction(other.slope)) / (c * c),
        )


def format_scalar(value: Scalar) -> str:
    """Decimal string; rationals render as "p/q" in lowest terms, q > 0.

    Raises DigitLimitError for a value past the int/str conversion limit.
    """
    try:
        return str(value)
    except ValueError:
        raise DigitLimitError(
            f"a value of more than {sys.get_int_max_str_digits()} digits cannot be printed"
        ) from None
