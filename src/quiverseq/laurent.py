"""Symbolic dual Laurent values and the exchange-relation engine.

A symbolic vertex variable is a dual value  body + slope·ε  in the seed
variables X_i = x_i + y_i·ε.  Because ε² = 0, slopes only ever multiply
bodies, so every slope is linear in the y's, s_0 + y_1·s_1 + … + y_n·s_n
with s_i integer Laurent polynomials in x_1..x_n.  Dual numbers
differentiate: a rational expression F in the X's evaluates to
F(x) + ε·Σ y_i·∂_i F(x) (Griewank & Walther, "Evaluating Derivatives",
SIAM 2008), and the weights' factors (1 + w·ε) only add y-free terms, so
s_i = ∂_i body for i ≥ 1.  A value is therefore stored as body and s_0
alone, over one denominator in the x's: the seed X_j is (x_j, 0);
``mul``, ``add`` and ``div`` follow the Leibniz, sum and quotient rules,
and ``deform`` touches only s_0.  One function, ``_full_fraction``,
rebuilds s_1..s_n with ``Poly.derivative`` for printing, evaluation and
the reported term counts; printing joins the parts into one polynomial
over x_1..x_n, y_1..y_n.

An exchange step at vertex k computes

    X'_k = ( ∏_{k→j} X_j^{b_kj}  +  (1 + w_k·ε) · ∏_{i→k} X_i^{b_ik} ) / X_k

in the rational-expression field and then normalizes.  A value is
*Laurent* when the reduced denominators are monomials in the x's with
unit content; normalization folds such denominators into negative
exponents.  ``verify_laurent_run`` iterates the cycle "mutate at vertex
1, shift labels" and reports Laurent-or-not per step, continuing with
reduced fractions either way.

Along a genuine run X'_k is Laurent, so the division by X_k is exact.
``RationalDualExpr.div`` divides by the divisor's body β: the quotient's
body q = N_b/β is one exact division, and when X_k has denominator 1
(whenever the previous steps were Laurent) s_0 is divided by β as well,
so a Laurent result leaves nothing to reduce.  When it does not divide,
the numerators already computed stay over the denominator times β; only
when β or q is not exact does the division multiply through by
(P − Q·ε)/P².

All cancellation goes through one reducer, ``_reduce``: fold the
monomial part of the denominator, try one trial division, then split
the denominator over a factor base and cancel it factor by factor, and
only when that fails take the GCD of the expanded denominator with the
numerators.  ``verify_laurent_run`` keeps the factor base: the bodies of
the run's variables.  In every run tried with the weights held off
their mutation rule, each denominator is a product of such bodies'
numerators, which are cluster variables and so irreducible (Geiss,
Leclerc & Schröer, "Factorial cluster algebras", Doc. Math. 18, 2013),
times a monomial and a constant.  Exactness does not rest on that: a
factor that stops dividing some numerator is kept only with the
certificate gcd(factor, numerator) = 1, computed on the small factor.

On such held runs the bodies are still cluster variables, Laurent
whatever the weights (Fomin & Zelevinsky, "Cluster algebras I", JAMS 15,
2002); only s_0 fails.  So the trial division usually finds the body
N_b/D and stops at s_0.  The reducer then takes the body first: it
reduces s_0 alone over the factor base and rebuilds the body numerator
as body·D' over the reduced denominator D', which is the joint result
(see ``_reduce_with_body``).  Whether the body divided is read from the
division, never assumed.  ``RationalDualExpr.reduced`` runs the reducer
once on body and s_0 together and records its path and the body it
found; ``_full_fraction`` and the next ``div`` reuse that body instead
of dividing again.  One classifier, ``_classify``, names the outcome:
Laurent when the reduced denominator is 1, otherwise the part that
fails and its denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import gcd as int_gcd
from typing import Sequence

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
    """Raised by sym_exchange and symbolic_sequence on a non-Laurent result."""

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


@dataclass(frozen=True, eq=True)
class DualLaurent:
    """A normalized dual Laurent value  body + slope·ε.

    ``body`` and ``s0`` are Laurent polynomials in x_1..x_n.  The slope
    is s_0 + Σ y_i·s_i with s_i = ∂_i body, and ``slope`` derives the
    tuple (s_0, s_1, …, s_n).
    """

    body: Poly
    s0: Poly

    @property
    def n(self) -> int:
        return self.body.nvars

    @property
    def slope(self) -> tuple[Poly, ...]:
        return _full_fraction(RationalDualExpr.from_dual(self))[1]

    def denominator_monomial(self) -> tuple[int, ...]:
        """x-exponents of the common monomial denominator (all ≥ 0)."""
        return _denominator_monomial((self.body, *self.slope))

    def sexpr(self) -> str:
        return f"(dual (body {_sexpr(self.body)}) (slope {_slope_sexpr(self.slope)}))"


def _denominator_monomial(parts: Sequence[Poly]) -> tuple[int, ...]:
    """x-exponents of the least monomial clearing every part's negative exponents."""
    return tuple(max(0, -min(col)) for col in zip(*(part.min_exponents() for part in parts)))


def initial_variables(n: int) -> list[DualLaurent]:
    """The seed variables X_i = x_i + y_i·ε for an n-vertex quiver."""
    return [DualLaurent(Poly.variable(n, i), Poly.zero(n)) for i in range(n)]


@dataclass(frozen=True)
class NotLaurent:
    """Normalization failure; carries the offending reduced denominator."""

    part: str  # "body" or "slope"
    denominator: Poly


@dataclass(frozen=True)
class RationalDualExpr:
    """(num_body + num_s0·ε) / den over x_1..x_n, with s_i = ∂_i body.

    ``mul``, ``add``, ``div`` and ``deform`` keep the y-parts
    s_i/den = ∂_i(num_body/den) of a value built from the seeds without
    carrying them; ``_full_fraction`` rebuilds them.  A fraction made by
    ``reduced`` names the reducer's path in ``reduction`` and keeps in
    ``body`` the exact quotient num_body/den when the reducer found it
    (None otherwise); neither takes part in equality.
    """

    num_body: Poly
    num_s0: Poly
    den: Poly
    reduction: str | None = field(default=None, compare=False, repr=False)
    body: Poly | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def from_dual(cls, v: DualLaurent) -> "RationalDualExpr":
        return cls(v.body, v.s0, Poly.one(v.n))

    @classmethod
    def one(cls, n: int) -> "RationalDualExpr":
        return cls(Poly.one(n), Poly.zero(n), Poly.one(n))

    @property
    def term_count(self) -> int:
        return self.num_body.term_count + self.num_s0.term_count

    def mul(self, other: "RationalDualExpr") -> "RationalDualExpr":
        """The product; a square (``other is self``) builds its cross term b·s_0 once."""
        b, s, d = self.num_body, self.num_s0, self.den
        if other is self:
            return RationalDualExpr(b * b, 2 * (b * s), d * d)
        ob = other.num_body
        return RationalDualExpr(b * ob, b * other.num_s0 + s * ob, d * other.den)

    def add(self, other: "RationalDualExpr") -> "RationalDualExpr":
        d, od = self.den, other.den
        return RationalDualExpr(
            self.num_body * od + other.num_body * d, self.num_s0 * od + other.num_s0 * d, d * od
        )

    def deform(self, w: int) -> "RationalDualExpr":
        """Multiply by (1 + w·ε), which adds w·body to s_0."""
        return RationalDualExpr(self.num_body, self.num_s0 + w * self.num_body, self.den)

    def div(self, other: "RationalDualExpr") -> "RationalDualExpr":
        """Dual division by (P + Q·ε)/D, keeping denominators x-only.

        With β = P/D the divisor's body (its recorded ``body`` when it has
        one, so nothing is divided for it) and q = N_b/β the quotient's body,
        self/other has body numerator N_b·D, s_0 numerator N_0·D − q·Q and
        denominator self.den·D·β.  When D is 1 the s_0 numerator is first
        divided by β; if that division is exact the denominator stays
        self.den.  Every exchange of a genuine mutation run ends there,
        since X'_k is Laurent.  Only when β or q is not exact is
        1/(P + Q·ε) = (P − Q·ε)/P² used instead, and the extra factor it
        brings is left to the reducer.
        """
        b, s, ob, t, od = self.num_body, self.num_s0, other.num_body, other.num_s0, other.den
        if ob.is_zero():
            raise ZeroBodyDivisionError("division by a value with zero body")
        unit = od.is_one()
        beta = other.body or (ob if unit else ob.exact_div(od))
        q = None if beta is None else b.exact_div(beta)
        if q is None:
            return RationalDualExpr(b * ob * od, (s * ob - b * t) * od, self.den * ob * ob)
        s0 = (s if unit else s * od) - q * t
        if unit:
            quotient = s0.exact_div(beta)
            if quotient is not None:
                return RationalDualExpr(q, quotient, self.den)
        return RationalDualExpr(b * od, s0, self.den * od * beta)

    def reduced(self, base: "_FactorBase | None" = None) -> "RationalDualExpr":
        """Cancel the denominator as far as possible, jointly for body and s_0.

        One pass of the reducer, with the factor base of a run when one
        is given; the result records the path the reducer took in
        ``reduction`` and the body it found in ``body``.
        """
        (nb, s0), den, path, body = _reduce_with_body((self.num_body, self.num_s0), self.den, base)
        return RationalDualExpr(nb, s0, den, path, body)

    def sexpr(self) -> str:
        """The fraction with its y-parts rebuilt (see ``_full_fraction``)."""
        nb, slope, den, _ = _full_fraction(self)
        return (
            f"(fraction (body-num {_sexpr(nb)}) "
            f"(slope-num {_slope_sexpr(slope)}) (den {_sexpr(den)}))"
        )


def _full_fraction(
    frac: RationalDualExpr, base: "_FactorBase | None" = None
) -> tuple[Poly, tuple[Poly, ...], Poly, Poly | None]:
    """(N_b, (N_0, N_1, …, N_n), D', body) for (N_b + N_0·ε)/D, where
    N_i/D' = ∂_i(N_b/D) and body = N_b/D if that division is exact.

    A fraction made by ``reduced`` brings the body its reducer found, so
    N_b is divided by D only when it brings none.  When the body b = N_b/D
    is Laurent the parts are ∂_i b·D over the same D; being multiples of
    D, they leave a reduced fraction reduced.
    Otherwise the quotient rule puts ∂_i N_b·D − N_b·∂_i D over D², and
    the whole is reduced (over base when given).  With a skew-symmetric
    exchange matrix the bodies are cluster variables, Laurent by the
    Laurent phenomenon, so that route does not run there.
    """
    nb, n0, d = frac.num_body, frac.num_s0, frac.den
    slots = range(nb.nvars)
    body = frac.body or (nb if d.is_one() else nb.exact_div(d))
    if body is None:
        parts = [nb.derivative(i) * d - nb * d.derivative(i) for i in slots]
        (nb, *slope), den, _ = _reduce((nb * d, n0 * d, *parts), d * d, base)
        return nb, tuple(slope), den, None
    parts = [body.derivative(i) for i in slots]
    if not d.is_one():
        parts = [part * d for part in parts]
    return nb, (n0, *parts), d, body


def _fold_monomial(nums, den: Poly) -> tuple[list[Poly], Poly]:
    """Divide den and the numerators by den's monomial factor, a unit."""
    mins = den.min_exponents()
    if not any(mins):
        return list(nums), den
    back = tuple(-m for m in mins)
    return [num.shift(back) for num in nums], den.shift(back)


def _divide_all(nums, divisor: Poly) -> tuple[list[Poly], Poly | None]:
    """Quotients of the numerators by divisor, up to the first it does not
    divide; that numerator comes second, or None when all divide."""
    quotients = []
    for num in nums:
        q = num.exact_div(divisor)
        if q is None:
            return quotients, num
        quotients.append(q)
    return quotients, None


def _reduce(nums, den: Poly, base: "_FactorBase | None" = None) -> tuple[list[Poly], Poly, str]:
    """``_reduce_with_body`` without the body."""
    return _reduce_with_body(nums, den, base)[:3]


def _reduce_with_body(
    nums, den: Poly, base: "_FactorBase | None" = None
) -> tuple[list[Poly], Poly, str, Poly | None]:
    """Cancel a shared denominator against every numerator.

    The monomial part of den folds into (possibly negative) numerator
    exponents; if nothing else is left the path is "monomial".  Otherwise
    one trial division of every numerator by den is tried ("trial").
    Failing that, den is split over the run's factor base when one is
    given ("factor", see ``_reduce_over``), and as a last resort it is
    cancelled by its GCD with all nonzero numerators ("gcd").  The
    reduced denominator comes back expanded, free of monomial factors and
    with a positive lex-leading coefficient, together with the path and
    the exact quotient nums[0]/den when trial division found one (None
    otherwise).

    Body first: when the trial division gets past some leading
    numerators, such as a body that is Laurent, before it stops, only the
    rest are reduced over the base, and each quotient q is rebuilt as
    q·D' over the reduced denominator D'.  That is the joint result: a
    multiple of den has every factor of den as often as den does, so it
    never stops a factor's cancellation or holds a certificate, and its
    content is a multiple of den's constant, so it leaves the integer step
    alone.  For the same reason, when the rest do not reduce over the
    base, all numerators together would not either, and the GCD route
    follows.
    """
    nums, den = _fold_monomial(nums, den)
    if den.is_one():
        return nums, den, "monomial", nums[0]
    quotients, stuck = _divide_all(nums, den)
    body = quotients[0] if quotients else None
    if stuck is None:
        return quotients, Poly.one(den.nvars), "trial", body
    if base is not None:
        reduced = _reduce_over(base.factors(), nums[len(quotients) :], den)
        if reduced is not None:
            rest, left = reduced
            return [q * left for q in quotients] + rest, left, "factor", body
    g = den
    for num in nums:
        if not (num.is_zero() or g.is_one()):
            g = poly_gcd(g, num)
    if not g.is_one():
        nums, den = _fold_monomial([num.exact_div(g) for num in nums], den.exact_div(g))
    if den.lex_lead()[1] < 0:
        nums, den = [-num for num in nums], -den
    return nums, den, "gcd", body


def _reduce_over(factors: list[Poly], nums: list[Poly], den: Poly) -> tuple[list[Poly], Poly] | None:
    """Reduce nums/den through den = c·∏ B^e over the given factors, or None.

    den must be free of monomial factors and the factors primitive, free
    of monomial factors and with positive leads.  Each B is cancelled from
    every numerator as often as it divides them all.  Where it stops at a
    numerator N, gcd(B, N) = 1 certifies that no factor of B is left in
    common, and then neither is any factor of the B^k that stays in the
    denominator, since later quotients divide N.  With every remaining B
    so certified and the integer c made prime to the numerators'
    contents, the joint gcd is 1; no factor needs to be irreducible.
    None when den does not split into the factors or a certificate finds
    a proper common factor; the caller then takes the GCD route.  On the
    body-first route nums is s_0 alone (see ``_reduce_with_body``), so
    the loop and the certificates never touch the larger body numerator.
    """
    rest, split = den, []
    for b in factors:
        e = 0
        while not rest.is_constant():
            q = rest.exact_div(b)
            if q is None:
                break
            rest, e = q, e + 1
        if e:
            split.append((b, e))
    if not rest.is_constant():
        return None
    (c,) = rest.terms.values()
    left = Poly.const(den.nvars, 1)
    for b, e in split:
        while e:
            quotients, stuck = _divide_all(nums, b)
            if stuck is not None:
                break
            nums, e = quotients, e - 1
        if e:
            if not poly_gcd(b, stuck).is_one():
                return None
            left = left * b**e
    if c < 0:
        nums, c = [-num for num in nums], -c
    g = c
    for num in nums:
        if g == 1:
            break
        g = int_gcd(g, num.content())
    if g > 1:
        divisor = Poly.const(den.nvars, g)
        nums, c = [num.exact_div(divisor) for num in nums], c // g
    return nums, left if c == 1 else left * c


class _FactorBase:
    """Denominator factors of a run: the body numerators of its variables.

    Each factor is primitive, free of monomial factors, non-constant and
    has a positive lex-leading coefficient.  Bodies are only recorded by
    ``add``; they are normalized the first time ``factors`` is asked for,
    so a run whose denominators all cancel by trial division never pays
    for the base.
    """

    def __init__(self) -> None:
        self._pending: list[Poly | None] = []
        self._factors: list[Poly] = []

    def add(self, body: Poly | None) -> None:
        self._pending.append(body)

    def factors(self) -> list[Poly]:
        for body in self._pending:
            if body is None or body.is_zero():
                continue
            content = body.content() if body.lex_lead()[1] > 0 else -body.content()
            b = _strip(body, body.min_exponents(), content)
            if not b.is_constant() and b not in self._factors:
                self._factors.append(b)
        self._pending.clear()
        return self._factors


def _classify(full: tuple) -> DualLaurent | NotLaurent:
    """Laurent, or which part fails, for ``_full_fraction`` of a reduced fraction.

    Monomial factors are already folded, so the value is Laurent exactly
    when the denominator is 1.  If the body divided exactly, the joint
    denominator is prime to the slope parts and is the slope's own;
    otherwise the body alone is reduced and its denominator named.
    """
    nb, slope, den, body = full
    if den.is_one():
        return DualLaurent(nb, slope[0])
    if body is not None:
        return NotLaurent("slope", den)
    return NotLaurent("body", _reduce((nb,), den)[1])


def normalize(expr: RationalDualExpr) -> DualLaurent | NotLaurent:
    """Reduce expr jointly, then name it Laurent or its offending part."""
    return _classify(_full_fraction(expr.reduced()))


def _exchange_fraction(
    wq: WeightedQuiver, state: Sequence[RationalDualExpr], k: int, check=lambda product: None
) -> RationalDualExpr:
    """The unreduced exchange fraction at vertex k (1-indexed).

    ``check`` sees every product as soon as it is built and may raise, so
    a run can stop before it builds a larger one.  Powers are taken by
    repeated squaring and products start from their first factor.
    """

    def mul(a: RationalDualExpr, b: RationalDualExpr) -> RationalDualExpr:
        product = a.mul(b)
        check(product)
        return product

    def power(x: RationalDualExpr, e: int) -> RationalDualExpr:
        if e == 1:
            return x
        half = power(x, e // 2)
        square = mul(half, half)
        return mul(square, x) if e & 1 else square

    def product(powers) -> RationalDualExpr:
        factors = [power(state[j], e) for j, e in powers]
        return reduce(mul, factors) if factors else RationalDualExpr.one(wq.n)

    row = wq.quiver.b[k - 1]
    out = product((j, c) for j, c in enumerate(row) if c > 0)
    into = product((j, -c) for j, c in enumerate(row) if c < 0)
    numerator = out.add(into.deform(wq.weights[k - 1]))
    check(numerator)
    return numerator.div(state[k - 1])


def _check_shape(v: DualLaurent, n: int) -> None:
    """ValueError unless v's body and s_0 are polynomials in n variables."""
    if v.body.nvars != n or v.s0.nvars != n:
        raise ValueError(f"expected polynomials in {n} variables")


def sym_exchange(wq: WeightedQuiver, vars: Sequence[DualLaurent], k: int) -> DualLaurent:
    """One symbolic exchange at vertex k (1-indexed), normalized.

    Raises NotLaurentError when the result does not reduce to a Laurent
    value (which cannot happen along genuine mutation runs).
    """
    if not 1 <= k <= wq.n:
        raise VertexIndexError(f"vertex {k} outside 1..{wq.n}")
    if len(vars) != wq.n:
        raise ValueError(f"expected {wq.n} variables, got {len(vars)}")
    for v in vars:
        _check_shape(v, wq.n)
    state = [RationalDualExpr.from_dual(v) for v in vars]
    result = normalize(_exchange_fraction(wq, state, k))
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
    reduction: str  # the path of _reduce: "monomial", "trial", "factor" or "gcd"


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
    whether it is Laurent, the term counts of its jointly reduced
    fraction with every slope part, its denominator (the monomial one
    when Laurent, the offending part's otherwise) and the reducer's
    path.  The run continues through non-Laurent steps with reduced
    fractions (reported as such), and reduces over a factor base made of
    the bodies of its variables.  The term budget is checked on every
    product the exchange builds, so none much larger is built, on the
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
    state = [RationalDualExpr.from_dual(v) for v in initial_variables(n)]
    current = wq
    base = _FactorBase()
    reports: list[StepReport] = []
    for step in range(1, steps + 1):
        frac = _exchange_fraction(
            current, state, 1, lambda p: _check_budget(p.term_count, budget, step, "exchange product")
        )
        _check_budget(frac.term_count, budget, step, "exchange fraction")
        frac = frac.reduced(base)
        full = _full_fraction(frac, base)
        nb, slope, _, body = full
        body_terms, slope_terms = nb.term_count, sum(part.term_count for part in slope)
        _check_budget(body_terms + slope_terms, budget, step, "reduced fraction")
        result = _classify(full)
        laurent = isinstance(result, DualLaurent)
        if laurent:
            variable, denominator = result, Poly.monomial(n, _denominator_monomial((nb, *slope)))
        else:
            variable, denominator = frac, result.denominator
        reports.append(
            StepReport(step, laurent, body_terms, slope_terms, denominator, variable, frac.reduction)
        )
        base.add(body)
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
    for rep in reports:
        if not rep.is_laurent:
            raise NotLaurentError(_classify(_full_fraction(rep.variable)))
    return [rep.variable for rep in reports]


def evaluate(v: DualLaurent, assignment: Sequence[DualScalar]) -> DualScalar:
    """Substitute x_i ← body, y_i ← slope of each assigned dual scalar.

    Exact rational evaluation: the body is body(x), the slope is
    s_0(x) + Σ y_i·s_i(x).  ε² = 0 is what keeps slopes linear in the
    y's, so this is the full dual value of the symbolic expression.
    """
    if len(assignment) != v.n:
        raise ValueError(f"expected {v.n} assignments, got {len(assignment)}")
    _check_shape(v, v.n)
    x = [s.body for s in assignment]
    try:
        s0, *parts = (part.evaluate(x) for part in v.slope)
        slope = s0 + sum(s.slope * p for s, p in zip(assignment, parts))
        return DualScalar(v.body.evaluate(x), slope)
    except ZeroDivisionError as exc:
        raise ZeroAtPoleError("zero assigned where a negative exponent occurs") from exc
