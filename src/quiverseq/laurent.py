"""Symbolic dual Laurent values and the exchange-relation engine.

A symbolic vertex variable is a dual value  body + slope·ε  in the seed
variables X_i = x_i + y_i·ε.  Because ε² = 0, slopes only ever multiply
bodies, so every slope is linear in the y's, s_0 + y_1·s_1 + … + y_n·s_n
with s_i integer Laurent polynomials in x_1..x_n.  Dual numbers
differentiate: a rational expression F in the X's evaluates to
F(x) + ε·Σ y_i·∂_i F(x) (Griewank & Walther, "Evaluating Derivatives",
SIAM 2008), and the weights' factors (1 + w·ε) only add y-free terms, so
s_i = ∂_i body for i ≥ 1.  A value is therefore stored as body and s_0
alone: the seed X_j is (x_j, 0); ``mul``, ``add`` and ``div`` follow
the Leibniz, sum and quotient rules, and ``deform`` touches only s_0.
One function, ``_full_fraction``, rebuilds s_1..s_n with
``Poly.derivative`` for printing and the reported term counts; printing
joins the parts into one polynomial over x_1..x_n, y_1..y_n.
``evaluate`` evaluates each ∂_i body as it is taken.

An exchange step at vertex k computes

    X'_k = ( ∏_{k→j} X_j^{b_kj}  +  (1 + w_k·ε) · ∏_{i→k} X_i^{b_ik} ) / X_k

in the rational-expression field and then normalizes.  A value is
*Laurent* when the reduced denominators are monomials in the x's with
unit content; normalization folds such denominators into negative
exponents.  ``verify_laurent_run`` iterates the cycle "mutate at vertex
1, shift labels" and reports Laurent-or-not per step, continuing with
reduced fractions either way.

The bodies are the classical sequences: the exchange matrix is
skew-symmetric (``Quiver`` accepts nothing else), so every body of a run
is a cluster variable, a Laurent polynomial by the Laurent phenomenon
(Fomin & Zelevinsky, "Cluster algebras I", JAMS 15, 2002), whatever the
weights.  Only s_0 can fail.  So a value is stored as
``RationalDualExpr(body, num_s0, den)``: the body is a Laurent
polynomial and only s_0 sits over den.  ``RationalDualExpr.div`` divides
by the divisor's body β once, and the quotient q = body/β is the new
body; a body that β does not divide raises ``NotLaurentError`` naming
the reduced body denominator.  No run reaches that: along a run every
body is a cluster variable, so the guard is for a value built by hand.
When X_k has denominator 1 (whenever the previous steps were Laurent)
s_0 is divided by β as well, so a Laurent result leaves nothing to
reduce; otherwise s_0 stays over den times β.

All cancellation goes through one reducer, ``_reduce``, on the s_0
numerator alone, and it has one route: fold the monomial part of the
denominator ("monomial"), then split what is left over the primitive
parts of the run's bodies and cancel it factor by factor ("factor").
``verify_laurent_run`` keeps the list of its bodies; the reducer takes
their primitive parts only on a step whose denominator is not a
monomial, so a genuine run never computes them.  In every run tried
with the weights held off their mutation rule, each denominator is a
product of such primitive parts, which are cluster variables and so
irreducible (Geiss, Leclerc & Schröer, "Factorial cluster algebras",
Doc. Math. 18, 2013), times a monomial and a constant.  Exactness does
not rest on that: a factor that stops dividing the numerator is kept
only with a unit certificate gcd(factor, numerator), computed on the
small factor; a certificate that is no unit refines the factors, and a
denominator that does not split over them (a value built by hand, or no
bodies at all) adds its own primitive part as a factor.  No GCD of an
expanded denominator is ever taken.  ``RationalDualExpr.reduced`` runs
the reducer and records its path.  A reduced value is Laurent exactly
when its denominator is 1: the body is a Laurent polynomial and monomial
factors are folded, so a denominator left over is s_0's own.
``RationalDualExpr`` is the only value type, Laurent or not; its
``sexpr`` prints the ``(dual …)`` form when den is 1 and the
``(fraction …)`` form otherwise, and ``evaluate`` takes either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd as int_gcd
from typing import Callable, Sequence

from .dualnum import DualScalar
from .errors import QuiverSeqError
from .poly import Poly, _strip, poly_gcd
from .quiver import VertexIndexError, WeightedQuiver

DEFAULT_TERM_BUDGET = 10**6


class ZeroBodyDivisionError(QuiverSeqError, ArithmeticError):
    """Exchange division by a variable whose body is the zero expression."""


class ZeroAtPoleError(QuiverSeqError, ArithmeticError):
    """Evaluation hit a negative exponent at a zero coordinate."""


class BudgetExceededError(QuiverSeqError, RuntimeError):
    """Term-count cap reached; a desk-scale limit, not a refutation."""


class NotLaurentError(QuiverSeqError, ValueError):
    """Raised by ``RationalDualExpr.div`` on a body that does not divide."""

    def __init__(self, failure: "NotLaurent"):
        super().__init__(f"non-Laurent {failure.part}: denominator {failure.denominator!r}")
        self.failure = failure


def var_names(n: int) -> list[str]:
    """Printed names: x1..xn for the x's, then y1..yn for the seed slopes."""
    return [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]


def _sexpr(p: Poly) -> str:
    return p.sexpr(var_names(p.nvars))


def _slope_sexpr(slope: tuple[Poly, ...]) -> str:
    """Print s_0 + Σ y_i·s_i as one polynomial over x_1..x_n, y_1..y_n."""
    n = len(slope) - 1
    units = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    joined = {exps + y: c for part, y in zip(slope, units) for exps, c in part.terms.items()}
    return Poly(2 * n, joined).sexpr(var_names(n))


@dataclass(frozen=True)
class NotLaurent:
    """Normalization failure; carries the offending reduced denominator."""

    part: str  # "body" or "slope"
    denominator: Poly


@dataclass(frozen=True)
class RationalDualExpr:
    """body + (num_s0/den)·ε over x_1..x_n, with s_i = ∂_i body.

    The one symbolic value type: a Laurent value is the case den = 1.
    ``body`` is a Laurent polynomial; only s_0 has a denominator.
    ``mul``, ``add``, ``div`` and ``deform`` keep the y-parts s_i of a
    value built from the seeds without carrying them; ``_full_fraction``
    rebuilds them.  A fraction made by ``reduced`` names the reducer's
    path in ``reduction``, which takes no part in equality.
    """

    body: Poly
    num_s0: Poly
    den: Poly
    reduction: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def one(cls, n: int) -> "RationalDualExpr":
        return cls(Poly.one(n), Poly.zero(n), Poly.one(n))

    @property
    def term_count(self) -> int:
        return self.body.term_count + self.num_s0.term_count

    def mul(self, other: "RationalDualExpr") -> "RationalDualExpr":
        """The product; a square (``other is self``) builds its cross term b·s_0 once
        and keeps the denominator d rather than d²."""
        b, s, d = self.body, self.num_s0, self.den
        if other is self:
            return RationalDualExpr(b * b, 2 * (b * s), d)
        ob, t, od = other.body, other.num_s0, other.den
        return RationalDualExpr(b * ob, b * (t * d) + ob * (s * od), d * od)

    def add(self, other: "RationalDualExpr") -> "RationalDualExpr":
        d, od = self.den, other.den
        return RationalDualExpr(self.body + other.body, self.num_s0 * od + other.num_s0 * d, d * od)

    def deform(self, w: int) -> "RationalDualExpr":
        """Multiply by (1 + w·ε), which adds w·body to s_0."""
        return RationalDualExpr(self.body, self.num_s0 + w * self.body * self.den, self.den)

    def div(self, other: "RationalDualExpr") -> "RationalDualExpr":
        """Dual division by β + (t/δ)·ε, keeping denominators x-only.

        The quotient's body is q = b/β, one exact division, and its s_0
        is (s·δ − q·t·d)/(d·δ·β).  When δ is 1 the s_0 numerator is first
        divided by β; if that division is exact the denominator stays d.
        Every exchange of a genuine mutation run ends there, since X'_k is
        Laurent.  A body that β does not divide raises NotLaurentError
        with the reduced denominator of b/β; along a run the bodies are
        cluster variables and always divide.
        """
        b, s, d = self.body, self.num_s0, self.den
        beta, t, od = other.body, other.num_s0, other.den
        if beta.is_zero():
            raise ZeroBodyDivisionError("division by a value with zero body")
        q = b.exact_div(beta)
        if q is None:
            raise NotLaurentError(NotLaurent("body", _reduce(b, beta)[1]))
        s0 = s * od - q * (t * d)
        if od.is_one():
            quotient = s0.exact_div(beta)
            if quotient is not None:
                return RationalDualExpr(q, quotient, d)
        return RationalDualExpr(q, s0, d * od * beta)

    def reduced(self, bodies: Sequence[Poly] = ()) -> "RationalDualExpr":
        """Cancel the denominator of s_0 as far as possible.

        One pass of the reducer, over the bodies of a run when they are
        given; the result records the path the reducer took in
        ``reduction``.
        """
        s0, den, path = _reduce(self.num_s0, self.den, bodies)
        return RationalDualExpr(self.body, s0, den, path)

    def sexpr(self) -> str:
        """``(dual (body …) (slope …))`` when den is 1, else the fraction
        (body·den + slope·ε)/den; either way with the y-parts rebuilt
        (see ``_full_fraction``)."""
        nb, slope, den = _full_fraction(self)
        if den.is_one():
            return f"(dual (body {_sexpr(nb)}) (slope {_slope_sexpr(slope)}))"
        return (
            f"(fraction (body-num {_sexpr(nb)}) "
            f"(slope-num {_slope_sexpr(slope)}) (den {_sexpr(den)}))"
        )


def initial_variables(n: int) -> list[RationalDualExpr]:
    """The seed variables X_i = x_i + y_i·ε for an n-vertex quiver."""
    one = Poly.one(n)
    return [RationalDualExpr(Poly.variable(n, i), Poly.zero(n), one) for i in range(n)]


def _full_fraction(frac: RationalDualExpr) -> tuple[Poly, tuple[Poly, ...], Poly]:
    """(N_b, (N_0, N_1, …, N_n), D) over the fraction's denominator D:
    N_b = body·D, N_0 the s_0 numerator and N_i = ∂_i body·D.

    Being multiples of D, the rebuilt parts leave a reduced fraction
    reduced.
    """
    body, d = frac.body, frac.den
    parts = [body, *(body.derivative(i) for i in range(body.nvars))]
    if not d.is_one():
        parts = [part * d for part in parts]
    nb, *slope = parts
    return nb, (frac.num_s0, *slope), d


def _reduce(num: Poly, den: Poly, bodies: Sequence[Poly] = ()) -> tuple[Poly, Poly, str]:
    """Cancel a denominator against one numerator.

    The monomial part of den, a unit, folds into (possibly negative)
    numerator exponents; if nothing else is left the path is "monomial".
    Otherwise the path is "factor": den = c·∏ B^e is split over a list of
    primitive factors B, free of monomial factors and with positive
    leads, that starts as the primitive parts of the run's bodies.  Each
    B in turn is split out of den as often as it divides it and then
    cancelled from the numerator as often as it divides that, at most as
    often as den had it.  Where it stops, a certificate g = gcd(B, num)
    that is a unit (one term) shows that no factor of B is left in
    common, and then neither is any factor of the B^e that stays in the
    denominator.  A g that is no unit refines the list (Bach, Driscoll &
    Shallit, "Factor refinement", J. Algorithms 15, 1993): B^e goes back
    to the undivided rest of den, and the primitive parts of g and B/g
    are appended.  Once the list runs out, the primitive part of a rest
    that is still not constant is appended too.  With every remaining
    factor so certified and the integer c made prime to the numerator's
    content, the gcd is 1; no factor needs to be irreducible.

    The loop ends: each refinement splits B into two factors of lower
    degree, since g ≠ B because B does not divide num, and a rest is
    appended only once the list runs out, each time a proper divisor of
    the rest appended before it.  The reduced
    denominator comes back expanded, free of monomial factors and with a
    positive lex-leading coefficient, together with the path.
    """
    back = tuple(-m for m in den.min_exponents())
    num, den = num.shift(back), den.shift(back)
    if den.is_one():
        return num, den, "monomial"
    factors, rest, left = _primitive_parts(bodies), den, Poly.one(den.nvars)
    while not rest.is_constant():
        b = factors.pop(0) if factors else _primitive_parts([rest])[0]
        e = 0
        while not rest.is_constant() and (q := rest.exact_div(b)) is not None:
            rest, e = q, e + 1
        while e and (q := num.exact_div(b)) is not None:
            num, e = q, e - 1
        if e:
            g = poly_gcd(b, num)
            if g.term_count == 1:
                left = left * b**e
            else:
                rest = rest * b**e
                factors += _primitive_parts([g, b.exact_div(g)])
    (c,) = rest.terms.values()
    if c < 0:
        num, c = -num, -c
    g = int_gcd(c, num.content()) if c > 1 else 1
    if g > 1:
        num, c = num.exact_div(Poly.const(den.nvars, g)), c // g
    return num, left if c == 1 else left * c, "factor"


def _primitive_parts(bodies: Sequence[Poly]) -> list[Poly]:
    """The bodies' distinct non-constant primitive parts: each body without
    its monomial factor and content, signed to a positive lex-leading
    coefficient."""
    parts: list[Poly] = []
    for body in bodies:
        content = body.content() if body.lex_lead()[1] > 0 else -body.content()
        b = _strip(body, body.min_exponents(), content)
        if not b.is_constant() and b not in parts:
            parts.append(b)
    return parts


def normalize(expr: RationalDualExpr) -> RationalDualExpr | NotLaurent:
    """Reduce expr: the reduced fraction when its denominator is 1 (a
    Laurent value), else the slope's offending denominator."""
    reduced = expr.reduced()
    return reduced if reduced.den.is_one() else NotLaurent("slope", reduced.den)


def _exchange_fraction(
    wq: WeightedQuiver,
    state: Sequence[RationalDualExpr],
    check: Callable[[int], object],
) -> RationalDualExpr:
    """The unreduced exchange fraction at vertex 1.

    ``check`` sees the term count of every product as soon as it is built
    and may raise, so a run can stop before it builds a larger one.  A
    power of a two-term body to e has exactly e + 1 body terms, since no
    binomial coefficient is 0, so ``check`` sees that count before the
    power is built.  Powers are taken by left-to-right binary powering,
    one loop pass per bit of the exponent, and products start from their
    first factor.
    """

    def mul(a: RationalDualExpr, b: RationalDualExpr) -> RationalDualExpr:
        product = a.mul(b)
        check(product.term_count)
        return product

    def power(x: RationalDualExpr, e: int) -> RationalDualExpr:
        if x.body.term_count == 2:
            check(e + 1)
        result = x
        for bit in bin(e)[3:]:
            result = mul(result, result)
            if bit == "1":
                result = mul(result, x)
        return result

    def product(powers) -> RationalDualExpr:
        factors = [power(state[j], e) for j, e in powers]
        return reduce(mul, factors) if factors else RationalDualExpr.one(wq.n)

    row = wq.quiver.b[0]
    out = product((j, c) for j, c in enumerate(row) if c > 0)
    into = product((j, -c) for j, c in enumerate(row) if c < 0)
    numerator = out.add(into.deform(wq.weights[0]))
    check(numerator.term_count)
    return numerator.div(state[0])


@dataclass(frozen=True)
class StepReport:
    """Outcome of one mutate-and-shift cycle of the symbolic run."""

    step: int
    is_laurent: bool
    body_terms: int
    slope_terms: int
    denominator: Poly  # monomial denominator when Laurent, offender otherwise
    variable: RationalDualExpr  # the reduced fraction; den is 1 exactly when Laurent
    reduction: str  # the path of _reduce: "monomial" or "factor"


def _check_budget(terms: int, budget: int, step: int, what: str) -> None:
    if terms > budget:
        raise BudgetExceededError(f"step {step}: {terms} terms of the {what} exceed budget {budget}")


def verify_laurent_run(
    wq: WeightedQuiver,
    steps: int,
    budget: int = DEFAULT_TERM_BUDGET,
    evolve_weights: bool = True,
) -> list[StepReport]:
    """Iterate the cycle (mutate at vertex 1, shift labels) symbolically.

    Each cycle produces the next sequence variable; the report records
    whether it is Laurent, the term counts of its reduced
    fraction with every slope part, its denominator (the monomial one
    when Laurent, the offending part's otherwise) and the reducer's
    path.  The run continues through non-Laurent steps with reduced
    fractions (reported as such), and reduces over the bodies of its
    variables.  The term budget is checked on every
    product the exchange builds, so none much larger is built (on a
    power of a two-term body, before it is built), on the
    exchange fraction before it is reduced, and on the reported variable;
    BudgetExceededError names the step and "exchange product", "exchange
    fraction" or "reduced fraction".

    With ``evolve_weights=False`` the given weight vector is forced
    unchanged on every cycle instead of following the weight mutation
    rule; forcing a vector that is not a genuine period-1 weight function
    generally breaks Laurentness, which is the point of the option.
    """
    n = wq.n
    if n < 1:
        raise VertexIndexError(f"vertex 1 outside 1..{n}")
    state = initial_variables(n)
    current = wq
    bodies: list[Poly] = []
    reports: list[StepReport] = []
    for step in range(1, steps + 1):
        frac = _exchange_fraction(
            current, state, lambda terms: _check_budget(terms, budget, step, "exchange product")
        )
        _check_budget(frac.term_count, budget, step, "exchange fraction")
        frac = frac.reduced(bodies)
        nb, slope, den = _full_fraction(frac)
        body_terms, slope_terms = nb.term_count, sum(part.term_count for part in slope)
        _check_budget(body_terms + slope_terms, budget, step, "reduced fraction")
        laurent = den.is_one()
        if laurent:  # report the least monomial clearing every part's negative exponents
            mins = zip(*(part.min_exponents() for part in (nb, *slope)))
            den = Poly.monomial(n, tuple(max(0, -min(col)) for col in mins))
        reports.append(StepReport(step, laurent, body_terms, slope_terms, den, frac, frac.reduction))
        bodies.append(frac.body)
        state = state[1:] + [frac]
        if evolve_weights:
            current = current.mutate(1).rotate()
        else:
            current = WeightedQuiver(current.quiver.mutate(1).rotate(), current.weights)
    return reports


def evaluate(v: RationalDualExpr, assignment: Sequence[DualScalar]) -> DualScalar:
    """Substitute x_i ← body, y_i ← slope of each assigned dual scalar.

    Exact rational evaluation of the body b, of s_0 = N_0/D and of the
    y-parts ∂_i b: the slope is N_0(x)/D(x) + Σ y_i·∂_i b(x).  ε² = 0 is
    what keeps slopes linear in the y's, so this is the full dual value of
    the symbolic expression.  A zero coordinate under a negative exponent,
    or a point where D vanishes, raises ZeroAtPoleError.
    """
    n = v.body.nvars
    if len(assignment) != n:
        raise ValueError(f"expected {n} assignments, got {len(assignment)}")
    if not v.num_s0.nvars == v.den.nvars == n:
        raise ValueError(f"expected polynomials in {n} variables")
    x = [s.body for s in assignment]
    try:
        d = v.den.evaluate(x)
        value = v.body.evaluate(x)
        s0_value = v.num_s0.evaluate(x)
        y_slope = sum(s.slope * v.body.derivative(i).evaluate(x) for i, s in enumerate(assignment))
    except ZeroDivisionError as exc:
        raise ZeroAtPoleError("zero assigned where a negative exponent occurs") from exc
    if not d:
        raise ZeroAtPoleError("the denominator vanishes at the assigned point")
    return DualScalar(value, s0_value / d + y_slope)
