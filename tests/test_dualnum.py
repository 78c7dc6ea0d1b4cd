import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverseq.dualnum import DualScalar, ZeroBodyError, format_scalar

ints = st.integers(min_value=-10**6, max_value=10**6)
rationals = st.builds(
    Fraction, ints, st.integers(min_value=1, max_value=10**4)
)
dual_ints = st.builds(DualScalar, ints, ints)
dual_rationals = st.builds(DualScalar, rationals, rationals)


class TestBasics:
    def test_add(self):
        assert DualScalar(1, 2) + DualScalar(3, 4) == DualScalar(4, 6)
        assert DualScalar(0, 0) + DualScalar(5, -7) == DualScalar(5, -7)
        assert DualScalar(2, 3) + DualScalar(-2, -3) == DualScalar(0, 0)

    def test_mul(self):
        assert DualScalar(1, 2) * DualScalar(3, 4) == DualScalar(3, 10)
        # eps * eps = 0
        assert DualScalar(0, 1) * DualScalar(0, 1) == DualScalar(0, 0)
        assert DualScalar(7, -3) * DualScalar(1, 0) == DualScalar(7, -3)

    def test_inv(self):
        one = DualScalar(1)
        assert one / DualScalar(2, 3) == DualScalar(Fraction(1, 2), Fraction(-3, 4))
        assert one / DualScalar(1, 0) == DualScalar(1, 0)
        with pytest.raises(ZeroBodyError):
            one / DualScalar(0, 5)

    def test_parts_keep_their_types(self):
        x = DualScalar(1, 2)
        assert type(x.body) is int and type(x.slope) is int
        assert DualScalar(Fraction(1, 2), 0) == DualScalar(Fraction(1, 2), Fraction(0))
        mixed = DualScalar(1, Fraction(1, 3))
        assert (type(mixed.body), type(mixed.slope)) == (int, Fraction)

    def test_pow(self):
        x = DualScalar(2, 3)
        assert x**1 == x
        assert x**3 == x * x * x

    @pytest.mark.parametrize("e", [0, -1])
    def test_pow_below_one_is_refused(self, e):
        # x**0 would otherwise build the float slope 0·a**-1
        with pytest.raises(ValueError, match=f"exponent must be at least 1, got {e}"):
            DualScalar(2, 3) ** e

    def test_truediv(self):
        q = DualScalar(2, 3) / DualScalar(1, 5)
        assert q == DualScalar(Fraction(2), Fraction(-7))
        with pytest.raises(ZeroBodyError):
            DualScalar(1, 0) / DualScalar(0, 2)


class TestValueType:
    """``DualScalar`` is an immutable, hashable value without an instance dict."""

    def test_immutable(self):
        x = DualScalar(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.body = 3
        assert x == DualScalar(1, 2)

    def test_slotted(self):
        assert not hasattr(DualScalar(1, 2), "__dict__")

    def test_repr(self):
        assert repr(DualScalar(1, 2)) == "DualScalar(body=1, slope=2)"
        assert repr(DualScalar(1)) == "DualScalar(body=1, slope=0)"

    @given(ints, ints)
    def test_equal_values_hash_equal(self, a, b):
        x, y = DualScalar(a, b), DualScalar(Fraction(a), Fraction(b))
        assert x == y and hash(x) == hash(y)
        assert {x: 1}[DualScalar(a, b)] == 1

    @given(st.one_of(ints, rationals), st.one_of(ints, rationals))
    def test_integral_exactly_when_both_denominators_are_1(self, body, slope):
        x = DualScalar(body, slope)
        assert (type(x.body), type(x.slope)) == (type(body), type(slope))
        assert (x.body, x.slope) == (body, slope)
        assert x.is_integral == (Fraction(body).denominator == Fraction(slope).denominator == 1)


class TestExactDiv:
    """``/`` is integer-exact when all four parts are ``int``."""

    def test_scalar_denominator(self):
        q = DualScalar(6, 4) / DualScalar(2, 0)
        assert q == DualScalar(3, 2)
        assert type(q.body) is int and type(q.slope) is int

    def test_dual_denominator(self):
        q = DualScalar(2, 3) / DualScalar(1, 5)
        assert q == DualScalar(2, -7)
        assert type(q.body) is int and type(q.slope) is int
        assert q * DualScalar(1, 5) == DualScalar(2, 3)

    def test_not_divisible_carries_quotient(self):
        q = DualScalar(3, 0) / DualScalar(2, 0)
        assert q == DualScalar(Fraction(3, 2), Fraction(0))
        assert not q.is_integral

    def test_body_divisible_slope_not(self):
        q = DualScalar(6, 1) / DualScalar(2, 0)
        assert (q.body, q.slope) == (3, Fraction(1, 2))
        # adjusted slope (1 - 2·1)/2 is not an integer either
        q = DualScalar(4, 1) / DualScalar(2, 1)
        assert (q.body, q.slope) == (2, Fraction(-1, 2))

    def test_rational_operands_stay_rational(self):
        for num, den in (
            (DualScalar(Fraction(6), Fraction(4)), DualScalar(2, 0)),
            (DualScalar(6, 4), DualScalar(Fraction(2), Fraction(0))),
        ):
            q = num / den
            assert q == DualScalar(3, 2)
            assert q.is_integral

    def test_zero_body(self):
        with pytest.raises(ZeroBodyError):
            DualScalar(4, 0) / DualScalar(0, 1)


class TestProperties:
    @given(dual_ints, dual_ints, dual_ints)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(dual_rationals)
    def test_inverse(self, x):
        one = DualScalar(1)
        if x.body == 0:
            with pytest.raises(ZeroBodyError):
                one / x
        else:
            assert x * (one / x) == DualScalar(Fraction(1), Fraction(0))

    @given(dual_ints, dual_ints)
    def test_exact_div_round_trip(self, q, d):
        if d.body == 0:
            return
        recovered = (q * d) / d
        assert recovered == q
        assert type(recovered.body) is int and type(recovered.slope) is int

    @given(dual_ints, dual_ints)
    def test_integer_quotient_is_the_rational_one(self, x, d):
        if d.body == 0:
            return
        q = x / d
        assert q == DualScalar(Fraction(x.body), Fraction(x.slope)) / d
        if q.is_integral:
            assert type(q.body) is int and type(q.slope) is int

    @given(st.data())
    def test_mixed_parts_match_the_all_fraction_computation(self, data):
        """``int`` and ``Fraction`` parts in any mix give the values of
        the same operation on ``Fraction`` parts."""
        part = st.one_of(ints, rationals)
        x, y = (DualScalar(data.draw(part), data.draw(part)) for _ in range(2))
        fx, fy = (DualScalar(Fraction(v.body), Fraction(v.slope)) for v in (x, y))
        e = data.draw(st.integers(min_value=1, max_value=4))
        assert x + y == fx + fy
        assert x * y == fx * fy
        assert x**e == fx**e
        if y.body != 0:
            assert x / y == fx / fy
            assert (x / y) * y == x

    @given(ints)
    def test_nilpotency(self, s):
        pure = DualScalar(0, s)
        assert (pure * pure).body == 0
        assert pure * pure == DualScalar(0, 0)


class TestSerialization:
    def test_format(self):
        assert format_scalar(12345678901234567890) == "12345678901234567890"
        assert format_scalar(Fraction(-3, 6)) == "-1/2"
        assert format_scalar(Fraction(4, 2)) == "2"

    @given(rationals)
    def test_round_trip(self, x):
        assert Fraction(format_scalar(x)) == x
