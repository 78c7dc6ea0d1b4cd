import hashlib
import io
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quiverseq.poly as poly_module
from quiverseq import kronecker, laurent
from quiverseq.cli import main
from quiverseq.dualnum import DualScalar
from quiverseq.laurent import (
    DEFAULT_TERM_BUDGET,
    BudgetExceededError,
    NotLaurent,
    NotLaurentError,
    RationalDualExpr,
    ZeroAtPoleError,
    ZeroBodyDivisionError,
    _exchange_fraction,
    _full_fraction,
    _primitive_parts,
    _reduce,
    evaluate,
    initial_variables,
    normalize,
    var_names,
    verify_laurent_run,
)
from quiverseq.periodicity import primitive, solve_weight
from quiverseq.poly import Poly
from quiverseq.quiver import Quiver, VertexIndexError, WeightedQuiver
from quiverseq.seqgen import builtin, quiver_to_spec, run

from golden import (
    dual_div_squared,
    full_add,
    full_deform,
    full_fraction,
    full_mul,
    held_run_oracle,
    neg_p31,
    normalize_per_part,
    palindromic_rows,
    period_one_quiver,
    reduce_by_gcd,
    reduce_full,
    somos4_quiver_a,
)

ONES = [DualScalar(1, 0)] * 4
SOMOS4_ROWS = [[0, 1, -2, 1], [-1, 0, 3, -2], [2, -3, 0, 1], [-1, 2, -1, 0]]
P31_ROWS = [[0, -1, -1], [1, 0, -1], [1, 1, 0]]


def _split(p: Poly) -> tuple[Poly, ...]:
    """Parts (s_0, s_1, …, s_n) of a y-linear polynomial over x_1..x_n, y_1..y_n.

    The inverse of the join that prints a slope, so that test data can
    stay written over x and y.
    """
    n = p.nvars // 2
    parts: list[dict] = [{} for _ in range(n + 1)]
    for exps, c in p.terms.items():
        ys = exps[n:]
        assert min(ys) >= 0 and sum(ys) <= 1
        parts[ys.index(1) + 1 if any(ys) else 0][exps[:n]] = c
    return tuple(Poly(n, terms) for terms in parts)


def _x(p: Poly) -> Poly:
    """A y-free polynomial over x_1..x_n, y_1..y_n as one over x_1..x_n."""
    body, *rest = _split(p)
    assert all(part.is_zero() for part in rest)
    return body


def _laurent(body: Poly, s0: Poly) -> RationalDualExpr:
    """The Laurent value body + s0·ε: a fraction with denominator 1."""
    return RationalDualExpr(body, s0, Poly.one(body.nvars))


def _mul(u: RationalDualExpr, v: RationalDualExpr) -> RationalDualExpr:
    return normalize(u.mul(v))


def _add(u: RationalDualExpr, v: RationalDualExpr) -> RationalDualExpr:
    return normalize(u.add(v))


def _exchange(wq: WeightedQuiver, state: list[RationalDualExpr]) -> RationalDualExpr:
    """The exchange fraction at vertex 1 of any state, with no budget, unreduced."""
    return _exchange_fraction(wq, state, math.inf, 1)


def somos4_weighted() -> WeightedQuiver:
    q = somos4_quiver_a()
    return WeightedQuiver(q, solve_weight(q))


def neg_p31_weighted() -> WeightedQuiver:
    q = neg_p31()
    return WeightedQuiver(q, solve_weight(q))


class TestSymExchange:
    """One symbolic exchange: a run's first step, or a hand-built state."""

    def test_somos4_first_exchange(self):
        x5 = verify_laurent_run(somos4_weighted(), 1)[0].variable
        # X'_1 = (X2 X4 + (1+eps) X3^2) / X1
        nv = 8
        expected_body = Poly(
            nv,
            {
                (-1, 1, 0, 1, 0, 0, 0, 0): 1,
                (-1, 0, 2, 0, 0, 0, 0, 0): 1,
            },
        )
        assert x5.body == _x(expected_body)
        # slope is the last component of the induced map on (x, y) space
        expected_slope = Poly(
            nv,
            {
                (-1, 1, 0, 0, 0, 0, 0, 1): 1,  # x2 y4 / x1
                (-1, 0, 1, 0, 0, 0, 1, 0): 2,  # 2 x3 y3 / x1
                (-1, 0, 0, 1, 0, 1, 0, 0): 1,  # x4 y2 / x1
                (-1, 0, 2, 0, 0, 0, 0, 0): 1,  # x3^2 / x1 (deformation)
                (-2, 1, 0, 1, 1, 0, 0, 0): -1,  # x2 x4 y1 / x1^2
                (-2, 0, 2, 0, 1, 0, 0, 0): -1,  # x3^2 y1 / x1^2
            },
        )
        assert x5.den.is_one()
        assert _full_fraction(x5)[1] == _split(expected_slope)

    def test_empty_out_product_is_one(self):
        # double arrow 1 -> 2: the incoming product at vertex 1 is empty
        q = Quiver([[0, 2], [-2, 0]])
        wq = WeightedQuiver(q, (1, 0))
        new = verify_laurent_run(wq, 1)[0].variable
        # X'_1 = (X2^2 + (1 + eps)) / X1
        assert evaluate(new, [DualScalar(1, 0), DualScalar(1, 0)]) == DualScalar(2, 1)
        at = [DualScalar(1, 0), DualScalar(3, 0)]
        assert evaluate(new, at) == DualScalar(10, 1)

    def test_all_ones_on_neg_p31(self):
        new = verify_laurent_run(neg_p31_weighted(), 1)[0].variable
        assert evaluate(new, [DualScalar(1, 0)] * 3) == DualScalar(2, 1)

    def test_zero_body_divisor(self):
        wq = neg_p31_weighted()
        X = initial_variables(3)
        zero_body = _laurent(Poly.zero(3), Poly.one(3))
        with pytest.raises(ZeroBodyDivisionError):
            _exchange(wq, [zero_body, X[1], X[2]])

    def test_non_monomial_divisor_is_a_body_offender(self):
        wq = neg_p31_weighted()
        X = initial_variables(3)
        x1, x2 = Poly.variable(3, 0), Poly.variable(3, 1)
        with pytest.raises(NotLaurentError) as err:
            _exchange(wq, [_laurent(x1 + x2, X[0].num_s0), X[1], X[2]])
        assert err.value.failure.part == "body"
        assert err.value.failure.denominator == x1 + x2


def _poly_drawer(draw, n: int):
    """A function drawing small Laurent polynomials in n variables."""
    exps = st.tuples(*[st.integers(min_value=-1, max_value=2)] * n)
    coeffs = st.integers(min_value=-3, max_value=3)

    def poly(nonzero=False):
        p = Poly(n, draw(st.dictionaries(exps, coeffs, max_size=3)))
        return Poly.one(n) if nonzero and p.is_zero() else p

    return poly


@st.composite
def classified_exprs(draw):
    """(expr, kind) with kind "laurent" or "slope".

    For "laurent" the s_0 numerator is a multiple of the denominator, for
    "slope" it is not built to be; the denominator may be an integer, so
    integer content is exercised too, and has either sign.
    """
    n = draw(st.integers(min_value=1, max_value=2))
    poly = _poly_drawer(draw, n)
    den, body, s0 = poly(nonzero=True) * draw(st.sampled_from([1, -1])), poly(), poly()
    kind = draw(st.sampled_from(["laurent", "slope"]))
    if kind == "laurent":
        s0 = s0 * den
    return RationalDualExpr(body, s0, den), kind


class TestNormalize:
    def test_polynomial_cancellation(self):
        x1 = Poly.variable(2, 0)
        result = normalize(RationalDualExpr(x1, x1 * x1 - 1, x1 - 1))
        assert result == _laurent(x1, x1 + 1)

    def test_monomial_denominator(self):
        # body (x2·x4 + x3²)/x1: its y1-part ∂_1 body = −(x2·x4 + x3²)/x1²
        # sets the exponent of x1, and the first Somos-4 step reports x1².
        x1, x2, x3, x4 = (Poly.variable(4, i) for i in range(4))
        body = (x2 * x4 + x3 * x3).shift((-1, 0, 0, 0))
        result = normalize(_laurent(body, Poly.zero(4)))
        assert result == _laurent(body, Poly.zero(4))
        (report,) = verify_laurent_run(WeightedQuiver(Quiver(SOMOS4_ROWS), (0, 0, 0, 0)), 1)
        assert report.variable == result
        assert report.denominator == Poly.monomial(4, (2, 0, 0, 0))

    def test_not_laurent_reports_denominator(self):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        result = normalize(RationalDualExpr(x1, Poly.one(2), x1 + x2))
        assert isinstance(result, NotLaurent)
        assert result.part == "slope"
        assert result.denominator == x1 + x2

    def test_integer_content_must_divide(self):
        x1 = Poly.variable(2, 0)
        ok = normalize(RationalDualExpr(x1, 2 * x1, Poly.const(2, 2)))
        assert ok == _laurent(x1, x1)
        bad = normalize(RationalDualExpr(x1, x1 + 1, Poly.const(2, 2)))
        assert isinstance(bad, NotLaurent)
        assert bad.denominator == Poly.const(2, 2)

    def test_body_reduces_but_slope_does_not(self):
        # The body is a Laurent polynomial; only s_0 = 1/(x1 + 1) fails.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        result = normalize(RationalDualExpr(x2, Poly.one(2), x1 + 1))
        assert isinstance(result, NotLaurent)
        assert result.part == "slope"
        assert result.denominator == x1 + 1

    @given(classified_exprs())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_part_oracle(self, case):
        expr, kind = case
        result = normalize(expr)
        expected = normalize_per_part(full_fraction(expr))
        if isinstance(expected, NotLaurent):
            assert result == expected
        else:
            assert isinstance(result, RationalDualExpr) and result.den.is_one()
            nb, slope, _ = _full_fraction(result)
            assert (nb, slope) == expected
        if kind == "laurent":
            assert not isinstance(result, NotLaurent)
        if kind == "slope":
            assert not isinstance(result, NotLaurent) or result.part == "slope"


class TestReduced:
    def test_gcd_leaves_a_non_monomial_denominator(self):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        expr = RationalDualExpr(x1, (x1 + 1) * x2, (x1 + 1) * (x2 + 1))
        assert expr.reduced() == RationalDualExpr(x1, x2, x2 + 1)
        assert expr.reduced().reduction == "factor"

    def test_gcd_cancels_a_dividing_denominator(self):
        # The monomial x1² folds first; the primitive part of what is left,
        # the whole of x2 + 1, cancels it, and the body is left as it is.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        expr = RationalDualExpr(x2, (x2 + 1) * x1, x1 * x1 * (x2 + 1))
        reduced = expr.reduced()
        assert reduced == RationalDualExpr(x2, x1.shift((-2, 0)), Poly.one(2))
        assert reduced.reduction == "factor"

    def test_negative_leading_denominator_is_flipped(self):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        expr = RationalDualExpr(x1 - 3, x2, -x1 - x2)
        assert expr.reduced() == RationalDualExpr(x1 - 3, -x2, x1 + x2)
        assert normalize(expr) == NotLaurent("slope", x1 + x2)

    def test_monomial_left_by_the_gcd_is_folded(self, monkeypatch):
        # In the Laurent ring a gcd is fixed only up to a unit; a certificate
        # that carries a monomial still refines the factors, and one that
        # is a monomial alone certifies what is left.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        gcd = laurent.poly_gcd
        monkeypatch.setattr(laurent, "poly_gcd", lambda p, q: x1 * gcd(p, q))
        expr = RationalDualExpr(Poly.one(2), (x2 + 1) * x1, (x2 + 1) * (x2 + 2))
        assert expr.reduced() == RationalDualExpr(Poly.one(2), x1, x2 + 2)
        result = normalize(expr)
        assert isinstance(result, NotLaurent)
        assert result.denominator == x2 + 2


@st.composite
def fraction_pairs(draw):
    """Two small fractions (body, num_s0, den) in one or two variables."""
    n = draw(st.integers(min_value=1, max_value=2))
    poly = _poly_drawer(draw, n)
    return [RationalDualExpr(poly(), poly(), poly(nonzero=True)) for _ in range(2)]


class TestMul:
    @given(fraction_pairs())
    @settings(max_examples=60, deadline=None)
    def test_square_equals_product_with_an_equal_copy(self, pair):
        # A square keeps the denominator d and a product with a copy puts
        # s_0 over d², so the two agree once reduced.
        a, other = pair
        copy = RationalDualExpr(*(Poly(p.nvars, dict(p.terms)) for p in (a.body, a.num_s0, a.den)))
        assert copy == a and copy is not a
        assert a.mul(a).reduced() == a.mul(copy).reduced()
        assert a.mul(other) == other.mul(a)

    def test_square_builds_its_cross_product_once(self, monkeypatch):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        a = RationalDualExpr(x1 + x2, x1 - 2 * x2, x1)
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append((p, q)) or mul(p, q))
        square = a.mul(a)
        assert sum(a.num_s0 in (p, q) for p, q in products) == 1
        assert square == RationalDualExpr((x1 + x2) * (x1 + x2), 2 * (x1 + x2) * (x1 - 2 * x2), x1)


@st.composite
def arithmetic_cases(draw):
    """(op, a, b, w, exact): two fractions in one or two variables, an
    operation and a weight for "deform".

    Denominators are 1 or a polynomial of either sign.  For "div" b has a
    nonzero body β and a's body is β·B; when exact, a's s_0 is built as
    β·S + B·t·d, so if b's denominator is 1 the s_0 division is exact.
    """
    n = draw(st.integers(min_value=1, max_value=2))
    poly = _poly_drawer(draw, n)

    def den():
        if draw(st.booleans()):
            return Poly.one(n)
        return poly(nonzero=True) * draw(st.sampled_from([1, -1]))

    op = draw(st.sampled_from(["mul", "square", "add", "deform", "div", "reduced"]))
    a, b = (RationalDualExpr(poly(), poly(), den()) for _ in range(2))
    if op == "div":
        b = RationalDualExpr(poly(nonzero=True), b.num_s0, b.den)
        B, d, s0 = poly(), den(), poly()
        exact = draw(st.booleans())
        if exact:
            s0 = b.body * s0 + B * b.num_s0 * d
        a = RationalDualExpr(b.body * B, s0, d)
    else:
        exact = False
    return op, a, b, draw(st.integers(min_value=-2, max_value=2)), exact


class TestArithmetic:
    """Body-and-s_0 arithmetic against the full-tuple oracle of tests/golden.py."""

    @given(arithmetic_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_tuple_oracle(self, case):
        op, a, b, w, exact = case
        fa, fb = full_fraction(a), full_fraction(b)
        got, expected = {
            "mul": lambda: (a.mul(b), full_mul(fa, fb)),
            "square": lambda: (a.mul(a), full_mul(fa, fa)),
            "add": lambda: (a.add(b), full_add(fa, fb)),
            "deform": lambda: (a.deform(w), full_deform(fa, w)),
            "div": lambda: (a.div(b), dual_div_squared(fa, fb)),
            "reduced": lambda: (a, fa),
        }[op]()
        assert _full_fraction(got.reduced()) == reduce_full(expected)
        if exact and b.den.is_one():
            assert got.den == a.den


class TestDiv:
    def test_direct_route_keeps_the_denominator(self):
        # ((x1² − 1) + (2·x1·x2/x2)·ε)  divided by  (x1 + 1) + ε
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        one = Poly.one(2)
        a = RationalDualExpr(x1 * x1 - 1, 2 * x1 * x2, x2)
        b = RationalDualExpr(x1 + 1, one, one)
        assert a.div(b) == RationalDualExpr(x1 - 1, x2, x2)

    def test_failed_slope_division_keeps_its_numerators(self):
        # ((x1² − 1) + x2·ε) divided by (x1 + 1) + ε: the body divides, the
        # slope x2 − (x1 − 1) does not and is kept over x1 + 1.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        one = Poly.one(2)
        a = RationalDualExpr(x1 * x1 - 1, x2, one)
        b = RationalDualExpr(x1 + 1, one, one)
        assert a.div(b) == RationalDualExpr(x1 - 1, x2 - x1 + 1, x1 + 1)

    def test_divisor_with_a_denominator_divides_by_its_body(self):
        # The divisor (x1 + 1) + ε/(x2 + 1) has body β = x1 + 1.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        one = Poly.one(2)
        od = x2 + 1
        a = RationalDualExpr(x1 * x1 - 1, x2, one)
        b = RationalDualExpr(x1 + 1, one, od)
        slope = x2 * od - (x1 - 1)
        assert a.div(b) == RationalDualExpr(x1 - 1, slope, od * (x1 + 1))

    def test_zero_body_divisor(self):
        x1 = Poly.variable(2, 0)
        one = Poly.one(2)
        with pytest.raises(ZeroBodyDivisionError):
            RationalDualExpr(x1, one, one).div(RationalDualExpr(Poly.zero(2), one, one))

    def test_body_that_does_not_divide_is_a_body_offender(self):
        # (x2 + 1)/(−x1·(x1 + x2)) reduces to a denominator x1 + x2: the
        # monomial x1 folds and the sign goes to the numerator.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        one = Poly.one(2)
        a = RationalDualExpr(x2 + 1, one, one)
        b = RationalDualExpr(-x1 * (x1 + x2), one, one)
        with pytest.raises(NotLaurentError) as err:
            a.div(b)
        assert err.value.failure == NotLaurent("body", x1 + x2)


class TestVerifyRun:
    def test_somos4_six_steps_all_laurent(self):
        reports = verify_laurent_run(somos4_weighted(), 6)
        assert all(r.is_laurent for r in reports)
        for r in reports:
            v = r.variable
            # structural shape: a y-free body and one x-only slope part per y
            assert v.body.nvars == 4 and v.den.is_one()
            slope = _full_fraction(v)[1]
            assert len(slope) == 5
            assert all(part.nvars == 4 for part in slope)

    def test_neg_p31_six_steps_all_laurent(self):
        reports = verify_laurent_run(neg_p31_weighted(), 6)
        assert all(r.is_laurent for r in reports)

    def test_forced_weights_break_laurentness(self):
        wq = WeightedQuiver(primitive(3, 1), (1, 0, -1))
        reports = verify_laurent_run(wq, 6, evolve_weights=False)
        assert any(not r.is_laurent for r in reports)
        first_bad = next(r for r in reports if not r.is_laurent)
        assert first_bad.step == 4
        names = var_names(3)
        assert first_bad.denominator.format(names) == "x2*x3 + 1"

    def test_held_offenders_are_slopes(self):
        # The bodies are ordinary cluster variables and stay Laurent.
        wq = WeightedQuiver(primitive(3, 1), (1, 0, -1))
        bad = [r for r in verify_laurent_run(wq, 6, evolve_weights=False) if not r.is_laurent]
        assert [r.step for r in bad] == [4, 5, 6]
        for r in bad:
            assert normalize(r.variable) == NotLaurent("slope", r.denominator)

    @pytest.mark.parametrize("build", [verify_laurent_run])
    def test_quiver_without_vertices(self, build):
        wq = WeightedQuiver(Quiver([]), ())
        with pytest.raises(VertexIndexError, match=r"^vertex 1 outside 1\.\.0$"):
            build(wq, 2)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            verify_laurent_run(somos4_weighted(), 8, budget=50)

    def test_budget_stops_the_exchange_fraction_before_reduction(self, monkeypatch):
        # Held P(3,1): step 6's full reported variable has 265 terms and
        # step 5's has 124; the exchange fractions, whose bodies are Laurent,
        # stay below that.
        wq = WeightedQuiver(primitive(3, 1), (1, 0, -1))
        assert len(verify_laurent_run(wq, 6, budget=265, evolve_weights=False)) == 6
        for budget in (264, 124):
            with pytest.raises(BudgetExceededError, match=r"^step 6: 265 terms of the reduced fraction"):
                verify_laurent_run(wq, 6, budget=budget, evolve_weights=False)
        # A division that pads s_0 and its denominator by the same 50-term
        # factor keeps the value but not the size; the budget stops it
        # before the reducer runs.
        pad = Poly(4, {(i, 0, 0, 0): 1 for i in range(50)})
        div = RationalDualExpr.div

        def padded(a, b):
            q = div(a, b)
            return RationalDualExpr(q.body, q.num_s0 * pad, q.den * pad)

        monkeypatch.setattr(RationalDualExpr, "div", padded)
        sizes = []
        monkeypatch.setattr(laurent, "_reduce", lambda num, *rest: sizes.append(num) or _reduce(num, *rest))
        message = r"^step 1: 52 terms of the exchange fraction exceed budget 20$"
        with pytest.raises(BudgetExceededError, match=message):
            verify_laurent_run(somos4_weighted(), 1, budget=20)
        assert sizes == []

    def test_budget_bounds_every_exchange_product(self, monkeypatch):
        # Checked only on the finished fraction, this run built a 51815-term
        # exchange fraction in about 9 s before the budget stopped it.
        rows = [[0, -2, 2, -1], [2, 0, 1, -2], [-2, -1, 0, 1], [1, 2, -1, 0]]
        wq = WeightedQuiver(Quiver(rows), (2, 1, 2, 2))
        sizes = []
        mul = Poly.__mul__

        def recording(p, q):
            product = mul(p, q)
            sizes.append(product.term_count)
            return product

        monkeypatch.setattr(Poly, "__mul__", recording)
        message = r"^step 4: 337 terms of the exchange product exceed budget 300$"
        with pytest.raises(BudgetExceededError, match=message):
            verify_laurent_run(wq, 6, budget=300)
        assert sizes and max(sizes) <= 1000

    def test_a_non_laurent_body_is_divided_once(self, monkeypatch):
        # A held step's body is the quotient of div, found by one exact
        # division; the reducer, _full_fraction, the printer and the
        # primitive parts the reducer splits over take it as it is.
        quotients = []
        exact_div = Poly.exact_div
        monkeypatch.setattr(Poly, "exact_div", lambda p, q: quotients.append(r := exact_div(p, q)) or r)
        fracs = [r.variable for r in _held(3, (1, 0, -1), 7) if not r.is_laurent]
        assert len(fracs) == 4
        assert [sum(q == frac.body for q in quotients) for frac in fracs] == [1] * 4
        quotients.clear()
        for frac in fracs:
            full = _full_fraction(frac)
            assert full[0] == frac.body * frac.den
            assert frac.sexpr().startswith("(fraction ")
        assert len(_primitive_parts([frac.body for frac in fracs])) == 4
        assert quotients == []

    def test_y_parts_are_built_once_per_step(self, monkeypatch):
        # ∂_i body for i = 1..4 on each of 11 Laurent steps, shared by the
        # term counts and the monomial denominator.
        calls = []
        derivative = Poly.derivative
        monkeypatch.setattr(Poly, "derivative", lambda p, slot: calls.append(slot) or derivative(p, slot))
        wq = WeightedQuiver(Quiver(SOMOS4_ROWS), (1, 0, 0, -1))
        reports = verify_laurent_run(wq, 11)
        assert all(r.is_laurent for r in reports)
        assert len(calls) == 44
        for r in reports:
            nb, slope, _ = _full_fraction(r.variable)
            mins = zip(*(part.min_exponents() for part in (nb, *slope)))
            assert r.denominator == Poly.monomial(4, [-min(0, *col) for col in mins])

    def test_budget_checks_the_reduced_fraction(self, monkeypatch):
        # A reducer that pads numerators and denominator by the same
        # 50-term factor keeps the value but not the size.
        pad = Poly(4, {(i, 0, 0, 0): 1 for i in range(50)})

        def padded(num, den, bodies=()):
            num, den, path = _reduce(num, den, bodies)
            return num * pad, den * pad, path

        monkeypatch.setattr(laurent, "_reduce", padded)
        with pytest.raises(BudgetExceededError, match=r"^step 1: \d+ terms of the reduced fraction"):
            verify_laurent_run(somos4_weighted(), 1, budget=20)

    def test_matches_numeric_run(self):
        spec = builtin("somos4").with_deform("m2", (1,))
        numeric = run(spec, count=10)
        reports = verify_laurent_run(somos4_weighted(), 6)
        assert all(r.is_laurent for r in reports)
        for k, rep in enumerate(reports, start=1):
            assert evaluate(rep.variable, ONES) == numeric.terms[3 + k]


def _body_numerator(rep) -> Poly:
    """The numerator of a step's body: primitive, free of monomial factors
    and with a positive lex-leading coefficient."""
    body = rep.variable.body
    body = body.shift(tuple(-m for m in body.min_exponents()))
    content = body.content() if body.lex_lead()[1] > 0 else -body.content()
    return Poly(body.nvars, {e: c // content for e, c in body.terms.items()})


def _held(n: int, weights: tuple[int, ...], steps: int) -> list:
    return verify_laurent_run(WeightedQuiver(primitive(n, 1), weights), steps, evolve_weights=False)


@cache
def _held_p31_factors() -> tuple[Poly, Poly]:
    """B1 = x2·x3 + 1 and B2 = x1 + x2·x3² + x3, the body numerators of
    the first two steps of held P(3,1)."""
    b1, b2 = (_body_numerator(rep) for rep in _held(3, (1, 0, -1), 2))
    return b1, b2


def _factor_case(name: str):
    """(bodies the run has made, numerator, denominator, expected path)."""
    b1, b2 = _held_p31_factors()
    x1, x2, x3 = (Poly.variable(3, i) for i in range(3))
    if name == "reducible factor cancels":
        return [b1 * b2], b1 * b2 * (x2 + 3), (b1 * b2) ** 2, "factor"
    if name == "reducible factor shares a part":
        return [b1 * b2], b1 * (x2 + 3), b1 * b2, "factor"
    if name == "repeated shared factor":
        return [b1 * b2], b1**2 * (x2 + 3), (b1 * b2) ** 2, "factor"
    if name == "denominator does not split":
        return [b1, b2], b1 * x2, b1 * (x1 + 2), "factor"
    if name == "leftover refined twice":
        # A certificate splits x1 + 1 off the reducible leftover, and what
        # is left of it, x2 + 1, is appended once more.
        return [b1], (x1 + 1) * x2, b1 * (x1 + 1) ** 2 * (x2 + 1), "factor"
    if name == "integer left over":
        return [b1], 2 * b1 * x2 + 4 * b1 * x3, 6 * b1, "factor"
    if name == "negative lex lead":
        return [b1, b2], b1 * (x2 + 1), -x1 * b1 * b2, "factor"
    raise ValueError(name)


FACTOR_CASES = [
    "reducible factor cancels",
    "reducible factor shares a part",
    "repeated shared factor",
    "denominator does not split",
    "leftover refined twice",
    "integer left over",
    "negative lex lead",
]


@st.composite
def small_x_polys(draw):
    """Nonzero polynomials in x1..x3 with at most 4 terms, exponents 0..2."""
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
            st.sampled_from([c for c in range(-5, 6) if c]),
            min_size=1,
            max_size=4,
        )
    )
    return Poly(3, terms)


@st.composite
def factor_reductions(draw):
    """(bodies, numerator, denominator, route) for the factor route of the reducer.

    den is a constant of either sign times a monomial times powers of the
    bodies.  On the "split" route the numerator carries powers of the
    bodies, so the factor route cancels them; "unsplit" multiplies den by
    x1 + 2, which is no body; "shared" uses the reducible body B1·B2 and
    a numerator sharing B1 with it, so a certificate finds that common
    factor.  The last two refine the factors.
    """
    b1, b2 = _held_p31_factors()
    route = draw(st.sampled_from(["split", "unsplit", "shared"]))
    factors = [b1 * b2] if route == "shared" else [b1, b2]
    exps = [draw(st.integers(min_value=0, max_value=2)) for _ in factors]
    exps[draw(st.integers(min_value=0, max_value=len(factors) - 1))] += 1
    c = draw(st.sampled_from([1, 2, 3, 6])) * draw(st.sampled_from([1, -1]))
    mono = draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3))
    den = Poly.monomial(3, mono, c)
    for b, e in zip(factors, exps):
        den = den * b**e
    num = draw(small_x_polys())
    if route == "shared":
        assume(num.exact_div(b2) is None)
        num = num * b1
    else:
        for b in factors:
            num = num * b ** draw(st.integers(min_value=0, max_value=2))
    if route == "unsplit":
        den = den * (Poly.variable(3, 0) + 2)
    return factors, num, den, route


class TestFactorBase:
    """The reducer's one factor route and the one division route against the
    GCD of the expanded denominator and the P² division of tests/golden.py."""

    @pytest.mark.parametrize("name", FACTOR_CASES)
    def test_matches_the_gcd_oracle(self, name):
        factors, num, den, path = _factor_case(name)
        assert _primitive_parts(factors) == factors
        got_num, got_den, got_path = _reduce(num, den, factors)
        assert ([got_num], got_den) == reduce_by_gcd([num], den)
        assert got_path == path
        plain_num, plain_den, plain_path = _reduce(num, den)
        assert ([plain_num], plain_den, plain_path) == (*reduce_by_gcd([num], den), "factor")

    @pytest.mark.parametrize(
        "n, weights, steps",
        [(3, (w1, 0, -1), 8) for w1 in range(-2, 3)]
        + [(4, w, 7) for w in [(1, 0, 0, -1), (2, 0, 0, -1), (-1, 0, 0, 1)]],
    )
    def test_held_run_matches_the_oracle(self, n, weights, steps):
        # Only w_1 enters the exchange at vertex 1, so a grid over w_1 covers
        # every weight vector of held P(3,1).
        names = var_names(n)
        got = [
            (r.step, r.is_laurent, r.denominator.format(names), r.body_terms, r.slope_terms,
             r.variable.sexpr())
            for r in _held(n, weights, steps)
        ]
        expected = [
            (step, laurent_, den.format(names), body_terms, slope_terms, sexpr)
            for step, laurent_, den, body_terms, slope_terms, sexpr in held_run_oracle(
                WeightedQuiver(primitive(n, 1), weights), steps
            )
        ]
        assert got == expected

    @given(factor_reductions())
    @settings(max_examples=60, deadline=None)
    def test_random_reduction_matches_the_gcd_oracle(self, case):
        factors, num, den, _ = case
        got_num, got_den, path = _reduce(num, den, factors)
        assert ([got_num], got_den) == reduce_by_gcd([num], den)
        assert path == "factor"

    @pytest.mark.parametrize("steps, divisions, gcds", [(7, 47, 10), (8, 72, 15)])
    def test_held_steps_divide_the_body_once(self, monkeypatch, steps, divisions, gcds):
        # div finds each held body as its quotient, and s_0 alone is reduced
        # over the run's bodies.
        calls = []
        exact_div, gcd = Poly.exact_div, laurent.poly_gcd
        monkeypatch.setattr(Poly, "exact_div", lambda p, q: calls.append("div") or exact_div(p, q))
        monkeypatch.setattr(laurent, "poly_gcd", lambda p, q: calls.append("gcd") or gcd(p, q))
        _held(3, (1, 0, -1), steps)
        assert (calls.count("div"), calls.count("gcd")) == (divisions, gcds)

    def test_gcd_calls_take_a_base_factor(self, monkeypatch):
        calls = []
        gcd = laurent.poly_gcd
        monkeypatch.setattr(laurent, "poly_gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
        reports = _held(3, (1, 0, -1), 8)
        factors = [_body_numerator(rep) for rep in reports]
        assert 0 < len(calls) <= 15
        assert all(p in factors or q in factors for p, q in calls)

    def test_laurent_runs_never_enter_the_factor_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factor route entered")

        monkeypatch.setattr(laurent, "_primitive_parts", refuse)
        monkeypatch.setattr(laurent, "poly_gcd", refuse)
        assert all(r.is_laurent for r in verify_laurent_run(somos4_weighted(), 8))

    def test_reduction_paths(self):
        assert {r.reduction for r in verify_laurent_run(somos4_weighted(), 8)} == {"monomial"}
        assert [r.reduction for r in _held(3, (1, 0, -1), 8)] == ["monomial"] * 3 + ["factor"] * 5


@st.composite
def small_runs(draw):
    """(wq, evolve): skew-symmetric B with n = 3 or 4 and entries in −2..2,
    weights in −2..2, evolved along the run or held."""
    n = draw(st.sampled_from([3, 4]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(min_value=-2, max_value=2))
            rows[j][i] = -rows[i][j]
    weights = draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * n))
    return WeightedQuiver(Quiver(rows), weights), draw(st.booleans())


class TestCarriedSlopes:
    """Values carry body and s_0 and rebuild s_i = ∂_i body; the oracle carries all parts."""

    STEPS = 4

    @given(small_runs())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_the_full_tuple_oracle(self, case):
        wq, evolve = case
        # An exchange of degree over 6 makes the oracle's expanded GCDs slow.
        q = wq.quiver
        for _ in range(self.STEPS):
            assume(sum(map(abs, q.b[0])) <= 6)
            q = q.mutate(1).rotate()
        names = var_names(wq.n)
        got = [
            (r.step, r.is_laurent, r.denominator.format(names), r.body_terms, r.slope_terms,
             r.variable.sexpr())
            for r in verify_laurent_run(wq, self.STEPS, evolve_weights=evolve)
        ]
        expected = [
            (step, laurent_, den.format(names), body_terms, slope_terms, sexpr)
            for step, laurent_, den, body_terms, slope_terms, sexpr in held_run_oracle(
                wq, self.STEPS, evolve
            )
        ]
        assert got == expected


class TestEvaluate:
    def test_identity_fraction(self):
        X = initial_variables(2)
        product = _mul(X[0], _laurent(Poly.monomial(2, (-1, 0)), Poly.zero(2)))  # x1 * (1/x1)
        assert product.body == Poly.one(2)
        assert evaluate(product, [DualScalar(5, 2), DualScalar(1, 0)]).body == 1

    def test_pole(self):
        v = _laurent(Poly.monomial(2, (-1, 0)), Poly.zero(2))
        with pytest.raises(ZeroAtPoleError):
            evaluate(v, [DualScalar(0, 1), DualScalar(1, 0)])

    def test_fraction_off_the_pole(self):
        # x2/x1 + (x2/(x1 + 1) + y1·(−x2/x1²) + y2·(1/x1))·ε at x = (1/2, 3),
        # y = (5, −4): body 6, slope 2 − 60 − 8.
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        v = RationalDualExpr(x2.shift((-1, 0)), x2, x1 + 1)
        at = [DualScalar(Fraction(1, 2), 5), DualScalar(3, -4)]
        assert evaluate(v, at) == DualScalar(6, -66)

    def test_fraction_at_a_zero_of_its_denominator(self):
        x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
        v = RationalDualExpr(x2, x2, x1 + 1)
        with pytest.raises(ZeroAtPoleError, match="denominator vanishes"):
            evaluate(v, [DualScalar(-1, 0), DualScalar(3, 1)])

    def test_slope_of_the_wrong_shape_is_refused(self):
        x1 = Poly.variable(2, 0)
        at = [DualScalar(1, 1), DualScalar(1, 1)]
        for part in ("num_s0", "den"):
            v = replace(RationalDualExpr(x1, x1, x1 + 1), **{part: Poly.one(3)})
            with pytest.raises(ValueError, match="in 2 variables"):
                evaluate(v, at)

    def test_assignment_of_the_wrong_length_is_refused(self):
        v = RationalDualExpr(Poly.variable(2, 0), Poly.one(2), Poly.variable(2, 1) + 1)
        with pytest.raises(ValueError, match="expected 2 assignments, got 3"):
            evaluate(v, [DualScalar(1, 0)] * 3)

    def test_somos_values(self):
        reports = verify_laurent_run(somos4_weighted(), 2)
        assert all(r.is_laurent for r in reports)
        assert evaluate(reports[0].variable, ONES) == DualScalar(2, 1)
        assert evaluate(reports[1].variable, ONES) == DualScalar(3, 2)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_substitution_homomorphism(self, data):
        n = 2
        coeff = st.integers(min_value=-3, max_value=3)
        exp = st.integers(min_value=0, max_value=2)

        def draw_value():
            body = Poly(
                n, {(data.draw(exp), data.draw(exp)): data.draw(coeff), (data.draw(exp), 0): data.draw(coeff)}
            )
            s0 = Poly(n, {(data.draw(exp), 0): data.draw(coeff), (0, data.draw(exp)): data.draw(coeff)})
            return _laurent(body, s0)

        u, v = draw_value(), draw_value()
        point = [
            DualScalar(Fraction(data.draw(coeff) or 1), Fraction(data.draw(coeff))),
            DualScalar(Fraction(data.draw(coeff) or 1), Fraction(data.draw(coeff))),
        ]
        assert evaluate(_mul(u, v), point) == evaluate(u, point) * evaluate(v, point)
        assert evaluate(_add(u, v), point) == evaluate(u, point) + evaluate(v, point)


@cache
def _six_step_run(name: str) -> tuple[WeightedQuiver, list]:
    if name == "somos4":
        wq = WeightedQuiver(Quiver(SOMOS4_ROWS), (1, 0, 0, -1))
    else:
        wq = neg_p31_weighted()
    return wq, verify_laurent_run(wq, 6)


@cache
def _iterated_exchanges(wq: WeightedQuiver, steps: int) -> list[RationalDualExpr]:
    """Exchanges along mutate-at-1-then-rotate, fed their own outputs, each
    reduced alone: no run bodies, budget or report, unlike ``verify_laurent_run``."""
    state, new = initial_variables(wq.n), []
    for _ in range(steps):
        state = state[1:] + [_exchange(wq, state).reduced()]
        new.append(state[-1])
        wq = wq.mutate(1).rotate()
    return new


class TestRandomPoints:
    """Symbolic results against numeric runs at random dual points.

    All-ones points cannot tell one slope part from another; random
    bodies and slopes can.
    """

    @staticmethod
    def _point_and_run(wq: WeightedQuiver, data, steps: int):
        n = wq.n
        body = st.integers(min_value=-5, max_value=5).filter(bool)
        slope = st.integers(min_value=-5, max_value=5)
        a = data.draw(st.tuples(*[body] * n))
        b = data.draw(st.tuples(*[slope] * n))
        point = [DualScalar(Fraction(x), Fraction(y)) for x, y in zip(a, b)]
        return point, run(quiver_to_spec(wq), init_a=a, init_b=b, count=n + steps).terms[n:]

    @pytest.mark.parametrize("name", ["somos4", "neg_p31"])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_evaluation_matches_numeric_run(self, name, data):
        wq, reports = _six_step_run(name)
        point, terms = self._point_and_run(wq, data, 6)
        for rep, term in zip(reports, terms):
            assert evaluate(rep.variable, point) == term

    def test_iterated_sym_exchange_matches_the_sequence(self):
        wq, reports = _six_step_run("somos4")
        assert all(r.is_laurent for r in reports)
        assert _iterated_exchanges(wq, 6) == [r.variable for r in reports]

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_iterated_sym_exchange_matches_numeric_run(self, data):
        wq, _ = _six_step_run("somos4")
        point, terms = self._point_and_run(wq, data, 6)
        for v, term in zip(_iterated_exchanges(wq, 6), terms):
            assert evaluate(v, point) == term


LONG_RUNS = {
    # name: (quiver, weights, steps, evolve_weights, gradings in ker B)
    "somos4": (Quiver(SOMOS4_ROWS), (1, 0, 0, -1), 14, True, [(1, 1, 1, 1), (1, 2, 3, 4)]),
    "p31-held": (primitive(3, 1), (1, 0, -1), 10, False, [(1, -1, 1)]),
}


@cache
def _long_run(name: str) -> tuple:
    """(wq, numeric twin, reports) of one long run, computed once per session.

    A held run's twin forces the constant schedule w_1 on the deformed
    monomial, as the symbolic run forces the weights."""
    q, weights, steps, evolve, _ = LONG_RUNS[name]
    wq = WeightedQuiver(q, weights)
    spec = quiver_to_spec(wq) if evolve else quiver_to_spec(wq).with_deform("m2", (weights[0],))
    return wq, spec, verify_laurent_run(wq, steps, evolve_weights=evolve)


class TestLongRuns:
    """Invariants cheap enough to check every step of a 10-14 step run,
    past the sizes the straight-line oracles reach.  The held run has 7
    non-Laurent steps, so evaluation covers fractions with den ≠ 1."""

    @pytest.mark.parametrize("name", LONG_RUNS)
    def test_evaluation_matches_the_numeric_twin(self, name):
        wq, spec, reports = _long_run(name)
        assert sum(not r.is_laurent for r in reports) == (7 if name == "p31-held" else 0)
        rng = random.Random(2101)
        for _ in range(3):
            # Positive bodies keep every divisor and denominator nonzero.
            a = [rng.randint(1, 6) for _ in range(wq.n)]
            b = [rng.randint(-5, 5) for _ in range(wq.n)]
            point = [DualScalar(x, y) for x, y in zip(a, b)]
            terms = run(spec, init_a=a, init_b=b, count=wq.n + len(reports)).terms[wq.n :]
            assert [evaluate(r.variable, point) for r in reports] == terms

    @pytest.mark.parametrize("name", LONG_RUNS)
    def test_reports_do_not_depend_on_the_kronecker_kernel(self, name, monkeypatch):
        # The packed route runs on the Somos-4 run's exchanges from step 6
        # and the product kernel on both runs' other large products; with
        # both thresholds out of reach every exchange builds its products
        # and every product is sparse.
        q, weights, steps, evolve, _ = LONG_RUNS[name]
        reports = _long_run(name)[2]
        monkeypatch.setattr(poly_module, "KRONECKER_MIN_PAIRS", math.inf)
        monkeypatch.setattr(kronecker, "kron_mul", None)
        monkeypatch.setattr(laurent, "PACKED_MIN_TERMS", math.inf)
        monkeypatch.setattr(kronecker, "kron_exchange", None)
        assert verify_laurent_run(WeightedQuiver(q, weights), steps, evolve_weights=evolve) == reports

    @pytest.mark.parametrize("name", LONG_RUNS)
    def test_parts_are_homogeneous(self, name):
        # Every exchange binomial is homogeneous for a grading in ker B, so
        # the body, the s_0 numerator and the denominator each have one
        # degree, and s_0 has the body's (Grabowski, "Graded cluster
        # algebras", J. Algebraic Combin. 42, 2015).
        wq, _, reports = _long_run(name)
        for grading in LONG_RUNS[name][4]:
            assert all(sum(map(mul, row, grading)) == 0 for row in wq.quiver.b)
            for r in reports:
                v = r.variable
                degrees = [
                    {sum(map(mul, e, grading)) for e in part.terms} for part in (v.body, v.num_s0, v.den)
                ]
                assert all(len(d) == 1 for d in degrees[::2]) and len(degrees[1]) <= 1, (r.step, degrees)
                if degrees[1]:
                    (body,), (s0,), (den,) = degrees
                    assert s0 - den == body, (r.step, grading)


def _routes(monkeypatch, wq: WeightedQuiver, steps: int, **kwargs) -> tuple[list, list]:
    """(reports, routes) of a run: routes[i] is True when step i + 1 took the
    packed route, False when it declined and None when it was not tried."""
    routes = []
    exchange, kron_exchange = laurent._exchange_fraction, kronecker.kron_exchange

    def step(*args):
        routes.append(None)
        return exchange(*args)

    def recording(*args):
        routes[-1] = (terms := kron_exchange(*args)) is not None
        return terms

    monkeypatch.setattr(laurent, "_exchange_fraction", step)
    monkeypatch.setattr(kronecker, "kron_exchange", recording)
    return verify_laurent_run(wq, steps, **kwargs), routes


class TestPackedExchange:
    """Which exchanges take the packed route of kronecker.kron_exchange, and
    that its declines leave the reports, the budget and the held run's
    divisions as the route that builds every product gives them."""

    def test_steps_that_take_the_route(self, monkeypatch):
        # Steps 1-4 divide by the seeds and step 5 by a two-term body.
        _, routes = _routes(monkeypatch, somos4_weighted(), 11)
        assert routes == [None] * 5 + [True] * 6

    def test_the_long_run_declines_on_the_slot_cap_before_any_hull(self, monkeypatch):
        # From step 15 the bounds on N_b and N_s, with their headroom, pass
        # a slot of 8 bytes; that is known from the norms alone.
        wq, _, reports = _long_run("somos4")
        state = [r.variable for r in reports[-4:]]

        def refuse(*args):
            raise AssertionError("hull built")

        monkeypatch.setattr(kronecker, "_hull", refuse)
        factors = [((v.body.terms, v.num_s0.terms), c) for v, c in zip(state, wq.quiver.b[0]) if c]
        divisor = (state[0].body.terms, state[0].num_s0.terms)
        assert kronecker.kron_exchange(4, factors, divisor, wq.weights[0], DEFAULT_TERM_BUDGET) is None
        monkeypatch.undo()
        assert _routes(monkeypatch, wq, 14)[1] == [None] * 5 + [True] * 9

    @pytest.mark.parametrize(
        "case, refused",
        [
            ("exact", None),
            ("two translates", None),
            ("slope on its own translate", None),
            ("remainder of q", "_read"),
            ("remainder of s", "_read"),
            ("full rank", "_pack"),
            ("pivot entry 2", "_pack"),
            ("slot past 8 bytes", "_hull"),
            ("2·box past the budget", "_pack"),
            ("bound of the read q", None),
        ],
    )
    def test_answers_and_declines(self, monkeypatch, case, refused):
        # Hand-built exchanges over β = 1 + x with w = 0, so N_b = out + into;
        # the refused helper must not run before a decline.
        x, y, z = (Poly.variable(3, i) for i in range(3))
        zero, beta, w, budget, expected = Poly.zero(3), 1 + x, 0, DEFAULT_TERM_BUDGET, None
        factors = [((x + x * x - 1, zero), 1)]
        if case == "exact":
            expected = (x, zero)
        elif case == "two translates":
            # out and into lie on the translates through y and z
            factors = [((y * beta, zero), 1), ((z * beta, zero), -1)]
            expected = (y + z, zero)
        elif case == "slope on its own translate":
            factors = [((y * beta, z * beta), 1), ((y * beta, zero), -1)]
            expected = (2 * y, z)
        elif case == "remainder of q":
            factors = [((x + x * x, zero), 1)]
        elif case == "remainder of s":
            # held P(3,1) step 4: the body divides and s_0 does not
            wq = WeightedQuiver(primitive(3, 1), (1, 0, -1))
            state = [r.variable for r in verify_laurent_run(wq, 3, evolve_weights=False)]
            factors = [((v.body, v.num_s0), c) for v, c in zip(state, wq.quiver.b[0]) if c]
            beta, t, w = state[0].body, state[0].num_s0, 1
        elif case == "full rank":
            factors = [((x + y + z - 1, zero), 1)]
        elif case == "pivot entry 2":
            beta = 1 + x * x * y
            factors = [((beta * beta - 1, zero), 1)]
        elif case == "slot past 8 bytes":
            factors = [((2**70 * (x + x * x) - 1, zero), 1)]
        elif case == "2·box past the budget":
            budget = 2
        elif case == "bound of the read q":
            # max|q| = 100 against max|N_b| = 99: with no headroom the
            # slot holds N_b but not min(|q|, |β|)·max|q|·max|β|.
            beta = (1 + x) ** 2
            q = Poly(3, {(i, 0, 0): (-1) ** i * (i + 1) + 1 for i in range(100)})
            factors = [((q * beta - 1, zero), 1)]
            monkeypatch.setattr(kronecker, "HEADROOM", 0)
        if refused:

            def refuse(*args):
                raise AssertionError(f"{refused} ran")

            monkeypatch.setattr(kronecker, refused, refuse)
        if case != "remainder of s":
            t = zero
        got = kronecker.kron_exchange(
            3, [((b.terms, s.terms), c) for (b, s), c in factors], (beta.terms, t.terms), w, budget
        )
        assert got == (expected and (expected[0].terms, expected[1].terms))

    def test_held_steps_never_take_the_route(self, monkeypatch):
        # After step 3 the state holds fractions; test_held_steps_divide_the_body_once
        # counts the divisions this leaves.
        _, routes = _routes(monkeypatch, WeightedQuiver(primitive(3, 1), (1, 0, -1)), 7, evolve_weights=False)
        assert True not in routes

    def test_a_budget_below_twice_the_box_keeps_the_reports(self, monkeypatch):
        # 11 Somos-4 steps: the built products reach 852 terms and the
        # reduced fractions 1203, while 2·box is 1408 at step 10 and 2160 at
        # step 11.  A budget between them sends those two steps back to the
        # built products, and the reports stay those of the default budget.
        products = {}
        check = laurent._check_budget

        def recording(terms, budget, step, what):
            if what == "exchange product":
                products[step] = max(products.get(step, 0), terms)
            return check(terms, budget, step, what)

        monkeypatch.setattr(laurent, "PACKED_MIN_TERMS", math.inf)
        monkeypatch.setattr(laurent, "_check_budget", recording)
        reports = verify_laurent_run(somos4_weighted(), 11)
        monkeypatch.undo()
        boxes = []
        hull = kronecker._hull

        def measuring(*args):
            found = hull(*args)
            boxes.append(math.prod(found[0][1]))
            return found

        monkeypatch.setattr(kronecker, "_hull", measuring)
        assert verify_laurent_run(somos4_weighted(), 11) == reports
        assert len(boxes) == 6 and [2 * box for box in boxes][-2:] == [1408, 2160]
        # 2·box bounds every product the route does not build.
        assert all(products[step] <= 2 * box for step, box in zip(range(6, 12), boxes))
        monkeypatch.undo()
        got, routes = _routes(monkeypatch, somos4_weighted(), 11, budget=1300)
        assert got == reports
        assert routes == [None] * 5 + [True] * 4 + [False] * 2


@cache
def _weighted_period_one(n: int) -> list[WeightedQuiver]:
    """The period-1 quivers of palindromic first rows with entries in −2..2
    that carry a weight function, with it."""
    quivers = [period_one_quiver(row) for row in palindromic_rows(n, range(-2, 3))]
    return [WeightedQuiver(q, w) for q in quivers if (w := solve_weight(q)) is not None]


# A weighted period-1 quiver on 4 to 7 vertices.
weighted_period_one = st.integers(min_value=4, max_value=7).flatmap(
    lambda n: st.sampled_from(_weighted_period_one(n))
)


class TestPeriodOneQuivers:
    """The paper's weighted class: the period-1 quivers of palindromic first
    rows, whose hulls reach rank n, as the packed route's gate."""

    def test_palindromic_rows_give_the_period_one_quivers(self):
        for n in range(4, 8):
            assert all(period_one_quiver(row).is_period_one() for row in palindromic_rows(n, range(-2, 3)))
        assert [len(_weighted_period_one(n)) for n in range(4, 8)] == [6, 6, 27, 27]
        assert period_one_quiver((1, -2, 1)) == Quiver(SOMOS4_ROWS)

    @given(weighted_period_one)
    @settings(max_examples=40, deadline=None)
    def test_weighted_runs_do_not_depend_on_the_route(self, wq):
        # Five steps are Laurent.  Five steps past the seeds reach the route
        # on every n; the budget stops the runs whose terms grow fastest, on
        # both routes alike.
        runs = []
        for threshold in (laurent.PACKED_MIN_TERMS, math.inf):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(laurent, "PACKED_MIN_TERMS", threshold)
                runs.append(verify_laurent_run(wq, 5))
                try:
                    runs.append(verify_laurent_run(wq, wq.n + 5, budget=1000))
                except BudgetExceededError as exc:
                    runs.append(str(exc))
        assert runs[:2] == runs[2:]
        assert all(r.is_laurent for r in runs[0])
        if not isinstance(runs[1], str):
            assert all(r.is_laurent for r in runs[1])


# name: (steps, a second weight vector w′) for the linearity checks
LINEARITY = {"somos4": (12, (0, 1, 0, 0)), "p31-held": (10, (2, 0, -3))}


@cache
def _variables(name: str, weights: tuple[int, ...]) -> list[RationalDualExpr]:
    """The first LINEARITY[name] steps of the long run with other weights."""
    q, base, _, evolve, _ = LONG_RUNS[name]
    steps = LINEARITY[name][0]
    if weights == base:
        reports = _long_run(name)[2][:steps]
    else:
        reports = verify_laurent_run(WeightedQuiver(q, weights), steps, evolve_weights=evolve)
    return [r.variable for r in reports]


class TestLinearityInWeights:
    """The weight rule is linear and ε² = 0, so the bodies do not depend
    on the weights and s_0 is linear in them."""

    @pytest.mark.parametrize("name", LONG_RUNS)
    def test_tripled_weights_triple_s0(self, name):
        weights = LONG_RUNS[name][1]
        tripled = _variables(name, tuple(3 * w for w in weights))
        for v, t in zip(_variables(name, weights), tripled, strict=True):
            assert (t.body, t.den) == (v.body, v.den)
            assert t.num_s0 == 3 * v.num_s0

    @pytest.mark.parametrize("name", LONG_RUNS)
    def test_slope_is_additive_in_the_weights(self, name):
        # Denominators may differ between weight vectors, so compare values.
        weights, other = LONG_RUNS[name][1], LINEARITY[name][1]
        runs = [_variables(name, w) for w in (weights, other, tuple(map(add, weights, other)))]
        rng = random.Random(2201)
        point = [DualScalar(rng.randint(1, 6), 0) for _ in weights]
        for v, v_other, v_sum in zip(*runs, strict=True):
            slopes = [evaluate(u, point).slope for u in (v, v_other, v_sum)]
            assert slopes[2] == slopes[0] + slopes[1]


class TestSexprPins:
    """SHA-256 prefixes of ``laurent --emit sexpr`` output."""

    @pytest.mark.parametrize(
        "rows, flags, fmt, digest",
        [
            (SOMOS4_ROWS, ["--weights", "1,0,0,-1"], "json", "782156873e9d1172"),
            (P31_ROWS, ["--hold-weights", "--weights", "1,0,-1"], "json", "1f390745ed7b0ac1"),
            (P31_ROWS, ["--hold-weights", "--weights", "1,0,-1"], "text", "0f6ba36cf7e0a330"),
        ],
    )
    def test_output_digest(self, tmp_path, rows, flags, fmt, digest):
        path = tmp_path / "quiver.json"
        path.write_text(json.dumps({"b": rows}))
        out = io.StringIO()
        argv = ["laurent", "--quiver", str(path), *flags, "--steps", "6", "--emit", "sexpr"]
        assert main([*argv, "--format", fmt], out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "emit, digest",
        [([], "fb00b4a5817afd0c"), (["--emit", "sexpr"], "163b62c0409890bc")],
    )
    def test_somos4_ten_steps(self, tmp_path, emit, digest):
        """Ten steps reach exponent spans that six steps do not."""
        path = tmp_path / "quiver.json"
        path.write_text(json.dumps({"b": SOMOS4_ROWS}))
        out = io.StringIO()
        argv = ["laurent", "--quiver", str(path), "--weights", "1,0,0,-1", "--steps", "10"]
        assert main([*argv, *emit, "--format", "json"], out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == digest
