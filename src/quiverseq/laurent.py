"""Symbolic dual Laurent values and the exchange-relation engine.

A symbolic vertex variable is a dual value  body + slope·ε  over 2n
commuting indeterminates: bodies are integer Laurent polynomials in
x_1..x_n, slopes are Laurent in the x's and *linear* in companion
variables y_1..y_n.  Because ε² = 0, slopes only ever multiply bodies,
so linearity in y is preserved by all ring operations; the constructors
assert it anyway.

An exchange step at vertex k computes

    X'_k = ( ∏_{k→j} X_j^{b_kj}  +  (1 + w_k·ε) · ∏_{i→k} X_i^{b_ik} ) / X_k

in the rational-expression field and then normalizes.  A value is
*Laurent* when the reduced denominators are monomials in the x's with
unit content; normalization folds such denominators into negative
exponents.  ``verify_laurent_run`` iterates the cycle "mutate at vertex
1, shift labels" and reports Laurent-or-not per step, continuing with
reduced fractions either way.

All cancellation goes through one reducer, ``_reduce``: fold the
monomial part of the denominator, try one trial division, take the GCD
with the numerators, fold again and make the leading coefficient
positive.  ``RationalDualExpr.reduced`` runs it once on the body and
slope numerators together; ``normalize`` runs it on each part alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dualnum import DualScalar
from .errors import QuiverSeqError
from .poly import Poly, poly_gcd
from .quiver import VertexIndexError, WeightedQuiver

DEFAULT_TERM_BUDGET = 10**6


class ZeroBodyDivisionError(QuiverSeqError, ArithmeticError):
    """Exchange division by a variable whose body is the zero expression."""


class ZeroAtPoleError(QuiverSeqError, ArithmeticError):
    """Evaluation hit a negative exponent at a zero coordinate."""


class BudgetExceededError(QuiverSeqError, RuntimeError):
    """Term-count cap reached; a desk-scale limit, not a refutation."""


class NotLaurentError(QuiverSeqError, ValueError):
    """Raised by sym_exchange when the result fails to normalize."""

    def __init__(self, failure: "NotLaurent"):
        super().__init__(f"non-Laurent {failure.part}: denominator {failure.denominator!r}")
        self.failure = failure


def var_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]


def _check_y_shape(p: Poly, n: int, max_degree: int) -> None:
    for exps in p.terms:
        ydeg = 0
        for e in exps[n:]:
            if e < 0:
                raise ValueError("negative exponent on a y-variable")
            ydeg += e
        if ydeg > max_degree:
            raise ValueError(f"y-degree {ydeg} exceeds {max_degree}")


@dataclass(frozen=True, eq=True)
class DualLaurent:
    """A normalized dual Laurent value: body + slope·ε."""

    body: Poly
    slope: Poly

    def __post_init__(self) -> None:
        if self.body.nvars != self.slope.nvars or self.body.nvars % 2:
            raise ValueError("body and slope must share an even variable count")
        n = self.body.nvars // 2
        _check_y_shape(self.body, n, 0)
        _check_y_shape(self.slope, n, 1)

    @property
    def n(self) -> int:
        return self.body.nvars // 2

    def __add__(self, other: "DualLaurent") -> "DualLaurent":
        return DualLaurent(self.body + other.body, self.slope + other.slope)

    def __mul__(self, other: "DualLaurent") -> "DualLaurent":
        return DualLaurent(
            self.body * other.body,
            self.body * other.slope + self.slope * other.body,
        )

    def deform(self, w: int) -> "DualLaurent":
        """Multiply by (1 + w·ε)."""
        return DualLaurent(self.body, self.slope + w * self.body)

    def denominator_monomial(self) -> tuple[int, ...]:
        """x-exponents of the common monomial denominator (all ≥ 0)."""
        n = self.n
        mins = tuple(
            min(b, s) for b, s in zip(self.body.min_exponents(), self.slope.min_exponents())
        )
        return tuple(max(0, -m) for m in mins[:n])

    @property
    def term_count(self) -> int:
        return self.body.term_count + self.slope.term_count

    def format(self) -> str:
        names = var_names(self.n)
        return f"({self.body.format(names)}) + ({self.slope.format(names)})*eps"

    def sexpr(self) -> str:
        names = var_names(self.n)
        return f"(dual (body {self.body.sexpr(names)}) (slope {self.slope.sexpr(names)}))"


def initial_variables(n: int) -> list[DualLaurent]:
    """The seed variables X_i = x_i + y_i·ε for an n-vertex quiver."""
    return [
        DualLaurent(
            Poly.variable(2 * n, i),
            Poly.variable(2 * n, n + i),
        )
        for i in range(n)
    ]


@dataclass(frozen=True)
class NotLaurent:
    """Normalization failure; carries the offending reduced denominator."""

    part: str  # "body" or "slope"
    denominator: Poly


@dataclass(frozen=True)
class RationalDualExpr:
    """(num_body + num_slope·ε) / den with a shared x-only denominator."""

    num_body: Poly
    num_slope: Poly
    den: Poly

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        n = self.num_body.nvars // 2
        _check_y_shape(self.den, n, 0)

    @classmethod
    def from_dual(cls, v: DualLaurent) -> "RationalDualExpr":
        return cls(v.body, v.slope, Poly.one(v.body.nvars))

    @classmethod
    def one(cls, nvars: int) -> "RationalDualExpr":
        return cls(Poly.one(nvars), Poly.zero(nvars), Poly.one(nvars))

    @property
    def term_count(self) -> int:
        return self.num_body.term_count + self.num_slope.term_count

    def mul(self, other: "RationalDualExpr") -> "RationalDualExpr":
        return RationalDualExpr(
            self.num_body * other.num_body,
            self.num_body * other.num_slope + self.num_slope * other.num_body,
            self.den * other.den,
        )

    def pow(self, e: int) -> "RationalDualExpr":
        if e < 0:
            raise ValueError("negative power in exchange products")
        result = RationalDualExpr.one(self.num_body.nvars)
        for _ in range(e):
            result = result.mul(self)
        return result

    def add(self, other: "RationalDualExpr") -> "RationalDualExpr":
        return RationalDualExpr(
            self.num_body * other.den + other.num_body * self.den,
            self.num_slope * other.den + other.num_slope * self.den,
            self.den * other.den,
        )

    def deform(self, w: int) -> "RationalDualExpr":
        return RationalDualExpr(self.num_body, self.num_slope + w * self.num_body, self.den)

    def div(self, other: "RationalDualExpr") -> "RationalDualExpr":
        """Dual division: 1/(P + Q·ε) = (P − Q·ε)/P², so denominators stay x-only."""
        if other.num_body.is_zero():
            raise ZeroBodyDivisionError("division by a value with zero body")
        scale = other.den
        return RationalDualExpr(
            self.num_body * other.num_body * scale,
            (self.num_slope * other.num_body - self.num_body * other.num_slope) * scale,
            self.den * other.num_body * other.num_body,
        )

    def reduced(self) -> "RationalDualExpr":
        """Cancel the denominator as far as possible, jointly for both parts.

        One pass of ``_reduce`` over the body and slope numerators.
        """
        (nb, ns), den = _reduce((self.num_body, self.num_slope), self.den)
        return RationalDualExpr(nb, ns, den)


def _y_coefficients(p: Poly) -> list[Poly]:
    """Coefficients of p grouped by y-monomial, each an x-only polynomial.

    Denominators are x-only, so a common factor with p must divide every
    one of these groups; working group-by-group keeps every GCD call in
    the x-variables alone.
    """
    n = p.nvars // 2
    groups: dict[tuple[int, ...], dict] = {}
    for exps, c in p.terms.items():
        ypart = exps[n:]
        base = exps[:n] + (0,) * n
        groups.setdefault(ypart, {})[base] = c
    return [Poly(p.nvars, g) for g in groups.values()]


def _common_with_xonly(den: Poly, numerators) -> Poly:
    """GCD of an x-only denominator with the given numerator polynomials."""
    g = den
    for num in numerators:
        for part in _y_coefficients(num):
            g = poly_gcd(g, part)
            if g.is_one():
                return g
    return g


def _fold_monomial(nums, den: Poly) -> tuple[list[Poly], Poly]:
    """Divide den and the numerators by den's monomial factor, a unit."""
    mins = den.min_exponents()
    if not any(mins):
        return list(nums), den
    back = tuple(-m for m in mins)
    return [num.shift(back) for num in nums], den.shift(back)


def _reduce(nums, den: Poly) -> tuple[list[Poly], Poly]:
    """Cancel a shared x-only denominator against every numerator.

    The monomial part of den folds into (possibly negative) numerator
    exponents.  What is left is cancelled by one trial division of every
    numerator, and failing that by the GCD of den with all of them, whose
    quotient is folded again.  The reduced denominator comes back with a
    positive lex-leading coefficient.
    """
    nums, den = _fold_monomial(nums, den)
    if den.is_one():
        return nums, den
    quotients = []
    for num in nums:
        q = num.exact_div(den)
        if q is None:
            break
        quotients.append(q)
    else:
        return quotients, Poly.one(den.nvars)
    g = _common_with_xonly(den, nums)
    if not g.is_one():
        nums, den = _fold_monomial([num.exact_div(g) for num in nums], den.exact_div(g))
    if den.lex_lead()[1] < 0:
        nums, den = [-num for num in nums], -den
    return nums, den


def normalize(expr: RationalDualExpr) -> DualLaurent | NotLaurent:
    """Reduce the body and then the slope fraction, each on its own.

    Each part is one pass of ``_reduce`` over that numerator alone.  The
    value is Laurent when both reduced denominators are the unit
    monomial: monomial factors have already been folded into negative
    exponents, so anything left over (a non-monomial polynomial, or an
    integer > 1 that does not divide the numerator content) makes it
    non-Laurent, and the first offending denominator is reported.
    """
    parts = []
    for part, num in (("body", expr.num_body), ("slope", expr.num_slope)):
        (num,), den = _reduce((num,), expr.den)
        if not den.is_one():
            return NotLaurent(part, den)
        parts.append(num)
    return DualLaurent(*parts)


def _exchange_fraction(
    wq: WeightedQuiver, state: Sequence[RationalDualExpr], k: int
) -> RationalDualExpr:
    row = wq.quiver.b[k - 1]
    nvars = state[0].num_body.nvars
    out = RationalDualExpr.one(nvars)
    into = RationalDualExpr.one(nvars)
    for j, c in enumerate(row):
        if c > 0:
            out = out.mul(state[j].pow(c))
        elif c < 0:
            into = into.mul(state[j].pow(-c))
    numerator = out.add(into.deform(wq.weights[k - 1]))
    return numerator.div(state[k - 1])


def sym_exchange(wq: WeightedQuiver, vars: Sequence[DualLaurent], k: int) -> DualLaurent:
    """One symbolic exchange at vertex k (1-indexed), normalized.

    Raises NotLaurentError when the result does not reduce to a Laurent
    value (which cannot happen along genuine mutation runs).
    """
    if not 1 <= k <= wq.n:
        raise VertexIndexError(f"vertex {k} outside 1..{wq.n}")
    if len(vars) != wq.n:
        raise ValueError(f"expected {wq.n} variables, got {len(vars)}")
    state = [RationalDualExpr.from_dual(v) for v in vars]
    result = normalize(_exchange_fraction(wq, state, k).reduced())
    if isinstance(result, NotLaurent):
        raise NotLaurentError(result)
    return result


@dataclass(frozen=True)
class StepReport:
    """Outcome of one mutate-and-shift cycle of the symbolic run."""

    step: int
    is_laurent: bool
    body_terms: int
    slope_terms: int
    denominator: Poly  # monomial denominator when Laurent, offender otherwise
    variable: DualLaurent | RationalDualExpr


def verify_laurent_run(
    wq: WeightedQuiver,
    steps: int,
    budget: int = DEFAULT_TERM_BUDGET,
    evolve_weights: bool = True,
) -> list[StepReport]:
    """Iterate the cycle (mutate at vertex 1, shift labels) symbolically.

    Each cycle produces the next sequence variable; the report records
    whether it normalized to a Laurent value, the term counts of its
    jointly reduced fraction, and the reduced denominator.  The run continues through non-Laurent steps
    with reduced fractions.  Exceeding the term budget aborts with
    BudgetExceededError.

    With ``evolve_weights=False`` the given weight vector is forced
    unchanged on every cycle instead of following the weight mutation
    rule; forcing a vector that is not a genuine period-1 weight function
    generally breaks Laurentness, which is the point of the option.
    """
    n = wq.n
    state = [RationalDualExpr.from_dual(v) for v in initial_variables(n)]
    current = wq
    reports: list[StepReport] = []
    for step in range(1, steps + 1):
        frac = _exchange_fraction(current, state, 1).reduced()
        if frac.term_count > budget:
            raise BudgetExceededError(
                f"step {step}: {frac.term_count} terms exceed budget {budget}"
            )
        result = normalize(frac)
        if isinstance(result, NotLaurent):
            denominator, variable = result.denominator, frac
        else:
            denominator = Poly.monomial(2 * n, result.denominator_monomial() + (0,) * n)
            variable = result
        counts = frac.num_body.term_count, frac.num_slope.term_count
        reports.append(StepReport(step, variable is result, *counts, denominator, variable))
        # A Laurent result holds the numerators of frac, whose jointly
        # reduced denominator is already 1, so frac carries on either way.
        state = state[1:] + [frac]
        if evolve_weights:
            current = current.mutate(1).rotate()
        else:
            current = WeightedQuiver(current.quiver.mutate(1).rotate(), current.weights)
    return reports


def symbolic_sequence(
    wq: WeightedQuiver, steps: int, budget: int = DEFAULT_TERM_BUDGET
) -> list[DualLaurent]:
    """The new variables X_{n+1} .. X_{n+steps}; raises if any is non-Laurent."""
    reports = verify_laurent_run(wq, steps, budget)
    out = []
    for rep in reports:
        if not rep.is_laurent:
            raise NotLaurentError(NotLaurent("body", rep.denominator))
        out.append(rep.variable)
    return out


def evaluate(v: DualLaurent, assignment: Sequence[DualScalar]) -> DualScalar:
    """Substitute x_i ← body, y_i ← slope of each assigned dual scalar.

    Exact rational evaluation; ε² = 0 is what keeps slopes linear in the
    y's, so this is the full dual value of the symbolic expression.
    """
    if len(assignment) != v.n:
        raise ValueError(f"expected {v.n} assignments, got {len(assignment)}")
    values = [s.body for s in assignment] + [s.slope for s in assignment]
    try:
        return DualScalar(v.body.evaluate(values), v.slope.evaluate(values))
    except ZeroDivisionError as exc:
        raise ZeroAtPoleError("zero assigned where a negative exponent occurs") from exc
