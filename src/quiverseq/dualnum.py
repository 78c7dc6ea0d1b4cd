"""Exact dual-number scalars: values of the form a + b·ε with ε² = 0.

``DualScalar`` is a slotted, frozen value type whose parts are whatever
exact arithmetic returns: ``int`` or ``fractions.Fraction``.  Every
``int`` is a rational with denominator 1, so a term is integral exactly
when both parts have denominator 1, whatever their types.  Division of
operands with four ``int`` parts is integer-exact and keeps ``int`` parts
when the quotient is integral; every other division gives the exact
rational quotient, so a fractional term is a reportable value, never a
runtime fault.
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
    or from a string.  With no message, the error says that a value
    could not be printed.
    """

    def __init__(self, message: str | None = None):
        limit = sys.get_int_max_str_digits()
        super().__init__(message or f"a value of more than {limit} digits cannot be printed")


@dataclass(frozen=True, slots=True)
class DualScalar:
    """An exact dual number ``body + slope·ε``."""

    body: Scalar
    slope: Scalar = 0

    @property
    def is_integral(self) -> bool:
        """True when both parts have denominator 1."""
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
        """(a + bε)/(c + dε) = q + ((b − q·d)/c)·ε with q = a/c.

        When all four parts are ``int`` the division is integer-exact: the
        quotient has ``int`` parts when c divides both a and b − q·d.
        Otherwise it is the exact rational quotient, with ``Fraction`` parts.
        """
        if not isinstance(other, DualScalar):
            return NotImplemented
        a, b, c, d = self.body, self.slope, other.body, other.slope
        if c == 0:
            raise ZeroBodyError("division by dual scalar with zero body")
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            q, r = divmod(a, c)
            if not r:
                s, r = divmod(b - q * d, c)
                if not r:
                    return DualScalar(q, s)
        q = Fraction(a) / c
        return DualScalar(q, (b - q * d) / c)


def format_scalar(value: Scalar) -> str:
    """Decimal string; rationals render as "p/q" in lowest terms, q > 0.

    Raises DigitLimitError for a value past the int/str conversion limit.
    """
    try:
        return str(value)
    except ValueError:
        raise DigitLimitError() from None
