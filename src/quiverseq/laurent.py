"""Symbolic dual Laurent values and the exchange-relation engine.

A symbolic vertex variable is a dual value  body + slope·ε  in the seed
variables X_i = x_i + y_i·ε.  Because ε² = 0, slopes only ever multiply
bodies, so every slope is linear in the y's:

    slope = s_0(x) + y_1·s_1(x) + … + y_n·s_n(x).

A slope is therefore stored as the tuple (s_0, s_1, …, s_n) of integer
Laurent polynomials in x_1..x_n, and bodies and denominators are
polynomials in the x's alone.  Only printing joins the parts back into
one polynomial over x_1..x_n, y_1..y_n.

An exchange step at vertex k computes

    X'_k = ( ∏_{k→j} X_j^{b_kj}  +  (1 + w_k·ε) · ∏_{i→k} X_i^{b_ik} ) / X_k

in the rational-expression field and then normalizes.  A value is
*Laurent* when the reduced denominators are monomials in the x's with
unit content; normalization folds such denominators into negative
exponents.  ``verify_laurent_run`` iterates the cycle "mutate at vertex
1, shift labels" and reports Laurent-or-not per step, continuing with
reduced fractions either way.

The y-parts are derivatives of the body.  A rational expression F in
the X's evaluates to F(x) + ε·Σ y_i·∂_i F(x), since ε² = 0 (forward-mode
differentiation by dual numbers; Griewank & Walther, "Evaluating
Derivatives", SIAM 2008), and the weights' factors (1 + w·ε) only add
y-free terms.  So every variable of a run has s_i = ∂_i body for
i ≥ 1, and each operation keeps that: the seed X_j has body x_j and
s_i = δ_ij = ∂_i x_j; ``mul``, ``add`` and ``div`` combine the parts by
the Leibniz, sum and quotient rules; ``deform`` touches only s_0.
``verify_laurent_run`` therefore carries each variable with the slope
tuple (s_0,) alone, so its products and divisions see two parts instead
of n + 2, and recovers s_1..s_n for its report with ``Poly.derivative``.
``sym_exchange`` takes variables with arbitrary slopes and works on full
tuples; every operation of ``RationalDualExpr`` goes part by part and
serves both.

Along a genuine run X'_k is Laurent, so the division by X_k is exact.
``RationalDualExpr.div`` divides by the divisor's body β: the quotient's
body q = N_b/β is one exact division, and when X_k has denominator 1
(whenever the previous steps were Laurent) the slope parts are divided
by β as well, so a Laurent result leaves nothing to reduce.  When they
do not divide, the numerators already computed stay over the
denominator times β; only when β or q is not exact does the division
multiply through by (P − Q·ε)/P².

All cancellation goes through one reducer, ``_reduce``: fold the
monomial part of the denominator, try one trial division, then split
the denominator over a factor base and cancel it factor by factor, and
only when that fails take the GCD of the expanded denominator with the
numerators.  ``verify_laurent_run`` keeps the factor base: the body
numerators of the run's variables.  In every run tried with the weights
held off their mutation rule, each denominator is a product of such
numerators, which are cluster variables and so irreducible (Geiss,
Leclerc & Schröer, "Factorial cluster algebras", Doc. Math. 18, 2013),
times a monomial and a constant.  Exactness does not rest on that: a
factor that stops dividing some numerator is kept only with the
certificate gcd(factor, numerator) = 1, computed on the small factor.
``RationalDualExpr.reduced`` runs the reducer once on the body and all
slope parts together and records its path.  One classifier,
``_classify``, then names the outcome of a jointly reduced fraction:
Laurent when its denominator is 1, otherwise the part that fails and
its denominator.  ``normalize``, ``sym_exchange``, ``verify_laurent_run``
and ``symbolic_sequence`` all go through it.
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

    ``body`` is a Laurent polynomial in x_1..x_n, and ``slope`` is the
    tuple (s_0, s_1, …, s_n) of Laurent polynomials in the same x's that
    stands for s_0 + Σ y_i·s_i.
    """

    body: Poly
    slope: tuple[Poly, ...]

    @property
    def n(self) -> int:
        return self.body.nvars

    def denominator_monomial(self) -> tuple[int, ...]:
        """x-exponents of the common monomial denominator (all ≥ 0)."""
        mins = self.body.min_exponents()
        for part in self.slope:
            mins = tuple(map(min, mins, part.min_exponents()))
        return tuple(max(0, -m) for m in mins)

    def sexpr(self) -> str:
        return f"(dual (body {_sexpr(self.body)}) (slope {_slope_sexpr(self.slope)}))"


def initial_variables(n: int) -> list[DualLaurent]:
    """The seed variables X_i = x_i + y_i·ε for an n-vertex quiver."""
    return [
        DualLaurent(Poly.variable(n, i), tuple(Poly.const(n, int(j == i + 1)) for j in range(n + 1)))
        for i in range(n)
    ]


@dataclass(frozen=True)
class NotLaurent:
    """Normalization failure; carries the offending reduced denominator."""

    part: str  # "body" or "slope"
    denominator: Poly


@dataclass(frozen=True)
class RationalDualExpr:
    """(num_body + num_slope·ε) / den over x_1..x_n.

    ``num_slope`` holds the slope parts over the shared denominator:
    all of (s_0, s_1, …, s_n) as in ``DualLaurent``, or (s_0,) alone for
    a value known to keep s_i = ∂_i body, as the variables of
    ``verify_laurent_run`` are.  Both operands of an operation have the
    same number of parts, and every operation works part by part:
    ``mul`` by the Leibniz rule, ``add`` by the sum rule, ``div`` by the
    quotient rule and ``deform`` on s_0 only, so a value built from the
    seeds keeps s_i/den = ∂_i(num_body/den) whether its parts are
    carried or not.  A fraction made by ``reduced`` names the reducer's
    path in ``reduction``, which takes no part in equality.
    """

    num_body: Poly
    num_slope: tuple[Poly, ...]
    den: Poly
    reduction: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def from_dual(cls, v: DualLaurent) -> "RationalDualExpr":
        return cls(v.body, v.slope, Poly.one(v.n))

    @classmethod
    def one(cls, n: int, parts: int | None = None) -> "RationalDualExpr":
        """The unit, with the given number of slope parts (n + 1 by default)."""
        return cls(Poly.one(n), (Poly.zero(n),) * (n + 1 if parts is None else parts), Poly.one(n))

    @property
    def term_count(self) -> int:
        return self.num_body.term_count + sum(part.term_count for part in self.num_slope)

    def mul(self, other: "RationalDualExpr") -> "RationalDualExpr":
        b, ob = self.num_body, other.num_body
        return RationalDualExpr(
            b * ob,
            tuple(b * t + s * ob for s, t in zip(self.num_slope, other.num_slope)),
            self.den * other.den,
        )

    def pow(self, e: int) -> "RationalDualExpr":
        """self**e by repeated squaring, starting from self."""
        if e < 0:
            raise ValueError("negative power in exchange products")
        if e <= 1:
            return self if e else RationalDualExpr.one(self.num_body.nvars, len(self.num_slope))
        half = self.pow(e // 2)
        square = half.mul(half)
        return square.mul(self) if e & 1 else square

    def add(self, other: "RationalDualExpr") -> "RationalDualExpr":
        d, od = self.den, other.den
        return RationalDualExpr(
            self.num_body * od + other.num_body * d,
            tuple(s * od + t * d for s, t in zip(self.num_slope, other.num_slope)),
            d * od,
        )

    def deform(self, w: int) -> "RationalDualExpr":
        """Multiply by (1 + w·ε), which adds w·body to the y-free part s_0."""
        s0, *rest = self.num_slope
        return RationalDualExpr(self.num_body, (s0 + w * self.num_body, *rest), self.den)

    def div(self, other: "RationalDualExpr") -> "RationalDualExpr":
        """Dual division by (P + Q·ε)/D, keeping denominators x-only.

        With β = P/D the divisor's body and q = N_b/β the quotient's body,
        self/other has body numerator N_b·D, slope numerators
        N_s_i·D − q·Q_i and denominator self.den·D·β.  When D is 1 the
        slope numerators are first divided by β; if every division is
        exact the denominator stays self.den.  Every exchange of a genuine
        mutation run ends there, since X'_k is Laurent.  Only when β or q
        is not exact is 1/(P + Q·ε) = (P − Q·ε)/P² used instead, and the
        extra factor it brings is left to the reducer.
        """
        b, ob, od = self.num_body, other.num_body, other.den
        if ob.is_zero():
            raise ZeroBodyDivisionError("division by a value with zero body")
        unit = od.is_one()
        beta = ob if unit else ob.exact_div(od)
        q = None if beta is None else b.exact_div(beta)
        if q is None:
            return RationalDualExpr(
                b * ob * od,
                tuple((s * ob - b * t) * od for s, t in zip(self.num_slope, other.num_slope)),
                self.den * ob * ob,
            )
        parts = [(s if unit else s * od) - q * t for s, t in zip(self.num_slope, other.num_slope)]
        if unit:
            slope, stuck = _divide_all(parts, beta)
            if stuck is None:
                return RationalDualExpr(q, tuple(slope), self.den)
        return RationalDualExpr(b * od, tuple(parts), self.den * od * beta)

    def reduced(self, base: "_FactorBase | None" = None) -> "RationalDualExpr":
        """Cancel the denominator as far as possible, jointly for all parts.

        One pass of ``_reduce`` over the body and every slope part, with
        the factor base of a run when one is given; the result records
        the path the reducer took in ``reduction``.
        """
        (nb, *ns), den, path = _reduce((self.num_body, *self.num_slope), self.den, base)
        return RationalDualExpr(nb, tuple(ns), den, path)

    def sexpr(self) -> str:
        return (
            f"(fraction (body-num {_sexpr(self.num_body)}) "
            f"(slope-num {_slope_sexpr(self.num_slope)}) (den {_sexpr(self.den)}))"
        )


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
    """Cancel a shared denominator against every numerator.

    The monomial part of den folds into (possibly negative) numerator
    exponents; if nothing else is left the path is "monomial".  Otherwise
    one trial division of every numerator by den is tried ("trial").
    Failing that, den is split over the run's factor base when one is
    given ("factor", see ``_reduce_over``), and as a last resort it is
    cancelled by its GCD with all nonzero numerators ("gcd").  The
    reduced denominator comes back expanded, free of monomial factors and
    with a positive lex-leading coefficient, together with the path.
    """
    nums, den = _fold_monomial(nums, den)
    if den.is_one():
        return nums, den, "monomial"
    quotients, stuck = _divide_all(nums, den)
    if stuck is None:
        return quotients, Poly.one(den.nvars), "trial"
    if base is not None:
        reduced = _reduce_over(base.factors(), nums, den)
        if reduced is not None:
            return (*reduced, "factor")
    g = den
    for num in nums:
        if not (num.is_zero() or g.is_one()):
            g = poly_gcd(g, num)
    if not g.is_one():
        nums, den = _fold_monomial([num.exact_div(g) for num in nums], den.exact_div(g))
    if den.lex_lead()[1] < 0:
        nums, den = [-num for num in nums], -den
    return nums, den, "gcd"


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
    a proper common factor; the caller then takes the GCD route.
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
    has a positive lex-leading coefficient.  Fractions are only recorded
    by ``add``; their bodies are divided out and normalized the first
    time ``factors`` is asked for, so a run whose denominators all cancel
    by trial division never pays for the base.
    """

    def __init__(self) -> None:
        self._pending: list[RationalDualExpr] = []
        self._factors: list[Poly] = []

    def add(self, frac: RationalDualExpr) -> None:
        self._pending.append(frac)

    def factors(self) -> list[Poly]:
        for frac in self._pending:
            body = frac.num_body if frac.den.is_one() else frac.num_body.exact_div(frac.den)
            if body is None or body.is_zero():
                continue
            content = body.content() if body.lex_lead()[1] > 0 else -body.content()
            b = _strip(body, body.min_exponents(), content)
            if not b.is_constant() and b not in self._factors:
                self._factors.append(b)
        self._pending.clear()
        return self._factors


def _classify(frac: RationalDualExpr) -> DualLaurent | NotLaurent:
    """Laurent, or which part fails, for a jointly reduced fraction.

    Monomial factors are already folded into negative exponents, so the
    value is Laurent exactly when the denominator is 1; anything left (a
    non-monomial polynomial, or an integer > 1 that does not divide the
    numerator content) is not.  Then the body alone is reduced, and a
    denominator left there names the body.  If the body is Laurent, the
    joint denominator divides it, so it is prime to the slope parts and
    is the slope's own reduced denominator.
    """
    if frac.den.is_one():
        return DualLaurent(frac.num_body, frac.num_slope)
    _, den, _ = _reduce((frac.num_body,), frac.den)
    if den.is_one():
        return NotLaurent("slope", frac.den)
    return NotLaurent("body", den)


def normalize(expr: RationalDualExpr) -> DualLaurent | NotLaurent:
    """Reduce expr jointly, then name it Laurent or its offending part."""
    return _classify(expr.reduced())


def _exchange_fraction(
    wq: WeightedQuiver, state: Sequence[RationalDualExpr], k: int
) -> RationalDualExpr:
    row = wq.quiver.b[k - 1]
    one = RationalDualExpr.one(wq.n, len(state[k - 1].num_slope))
    out = _product([state[j].pow(c) for j, c in enumerate(row) if c > 0], one)
    into = _product([state[j].pow(-c) for j, c in enumerate(row) if c < 0], one)
    numerator = out.add(into.deform(wq.weights[k - 1]))
    return numerator.div(state[k - 1])


def _product(factors: list[RationalDualExpr], one: RationalDualExpr) -> RationalDualExpr:
    """The product of factors, starting from the first; one when empty."""
    return reduce(RationalDualExpr.mul, factors) if factors else one


def _check_shape(v: DualLaurent, n: int) -> None:
    """ValueError unless v's body and slope parts are in n variables and
    its slope has all n + 1 parts; ``zip`` would silently drop the rest."""
    if len(v.slope) != n + 1:
        raise ValueError(f"expected a slope of {n + 1} parts, got {len(v.slope)}")
    if any(part.nvars != n for part in (v.body, *v.slope)):
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


def _check_budget(frac: RationalDualExpr, budget: int, step: int, stage: str) -> None:
    if frac.term_count > budget:
        raise BudgetExceededError(
            f"step {step}: {frac.term_count} terms of the {stage} fraction exceed budget {budget}"
        )


def _with_y_slopes(frac: RationalDualExpr, base: _FactorBase) -> RationalDualExpr:
    """The full fraction of a reduced (N_b, (N_0,))/D, with s_i = ∂_i body.

    When the body b = N_b/D is Laurent (D is 1 or divides N_b), the parts
    are ∂_i b·D over the same D.  They are multiples of D, so the joint
    gcd stays 1 and nothing is reduced again.  Otherwise the quotient
    rule puts ∂_i N_b·D − N_b·∂_i D over D², and the fraction is reduced;
    with a skew-symmetric exchange matrix the bodies are ordinary cluster
    variables, Laurent by the Laurent phenomenon, so that route is the
    general one and does not run there.
    """
    nb, (n0,), d = frac.num_body, frac.num_slope, frac.den
    slots = range(nb.nvars)
    body = nb if d.is_one() else nb.exact_div(d)
    if body is None:
        parts = [nb.derivative(i) * d - nb * d.derivative(i) for i in slots]
        return RationalDualExpr(nb * d, (n0 * d, *parts), d * d).reduced(base)
    parts = [body.derivative(i) for i in slots]
    if not d.is_one():
        parts = [part * d for part in parts]
    return RationalDualExpr(nb, (n0, *parts), d)


def verify_laurent_run(
    wq: WeightedQuiver,
    steps: int,
    budget: int = DEFAULT_TERM_BUDGET,
    evolve_weights: bool = True,
) -> list[StepReport]:
    """Iterate the cycle (mutate at vertex 1, shift labels) symbolically.

    Each cycle produces the next sequence variable; the report records
    whether it is Laurent, the term counts of its jointly reduced
    fraction, its denominator (the monomial one when Laurent, the
    offending part's otherwise) and the reducer's path.  The run
    continues through non-Laurent steps with reduced fractions, and
    reduces over a factor base made of the bodies of its variables.

    A variable is carried as (N_b, (N_0,))/D: its slope tuple is (s_0,),
    since s_i = ∂_i body for i ≥ 1 (see the module docstring).  The seeds
    are (x_i, (0,))/1.  Only the report fills in s_1..s_n, through
    ``Poly.derivative`` (``_with_y_slopes``), so each reported variable
    is the full fraction a run over all n + 2 parts would reach.  The
    term budget is checked on the carried exchange fraction before it is
    reduced ("exchange" in the message of BudgetExceededError), so
    reduction never starts on a fraction over it, and on the full
    reported variable ("reduced").

    With ``evolve_weights=False`` the given weight vector is forced
    unchanged on every cycle instead of following the weight mutation
    rule; forcing a vector that is not a genuine period-1 weight function
    generally breaks Laurentness, which is the point of the option.
    """
    n = wq.n
    if n < 1:
        raise VertexIndexError(f"vertex 1 outside 1..{n}")
    zero, one = Poly.zero(n), Poly.one(n)
    state = [RationalDualExpr(Poly.variable(n, i), (zero,), one) for i in range(n)]
    current = wq
    base = _FactorBase()
    reports: list[StepReport] = []
    for step in range(1, steps + 1):
        frac = _exchange_fraction(current, state, 1)
        _check_budget(frac, budget, step, "exchange")
        frac = frac.reduced(base)
        full = _with_y_slopes(frac, base)
        _check_budget(full, budget, step, "reduced")
        result = _classify(full)
        laurent = isinstance(result, DualLaurent)
        if laurent:
            variable, denominator = result, Poly.monomial(n, result.denominator_monomial())
        else:
            variable, denominator = full, result.denominator
        body_terms = full.num_body.term_count
        reports.append(
            StepReport(
                step,
                laurent,
                body_terms,
                full.term_count - body_terms,
                denominator,
                variable,
                frac.reduction,
            )
        )
        base.add(frac)
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
            raise NotLaurentError(_classify(rep.variable))
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
