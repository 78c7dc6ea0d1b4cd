"""Exact numeric engine for dual-number bilinear recurrences.

A recurrence of order N computes

    A_{n+N} · A_n = M1 + M2,

where M1, M2 are monomials in A_{n+1} .. A_{n+N-1} with integer
coefficients, one of which may carry the deformation factor (1 + w·ε)
with w drawn cycle-by-cycle from a repeating integer schedule.  Runs are
carried out in exact dual scalars, whose parts are ``int`` while the
arithmetic stays integral and ``Fraction`` where it does not; a
fractional term is recorded and the run keeps going (only an exact zero
divisor body truncates it).
A caller that wants each term as soon as it is made, such as the CLI,
which prints it then, passes a callback; whatever the callback raises
ends the run before the next division.

The module also decomposes the slope space into unit-initial basis rows
(one run per row, the callback passed through with the row index),
compiles a recurrence out of a period-1 weighted quiver, scans parameter
grids for the first non-integral term, and ships a catalog of built-in
families.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from .dualnum import DualScalar, Scalar
from .errors import QuiverSeqError
from .periodicity import weight_trace
from .quiver import WeightedQuiver, neg_part, pos_part


class UnknownFamilyError(QuiverSeqError, KeyError):
    """No built-in recurrence family with that name."""

    def __str__(self) -> str:
        # KeyError's own __str__ quotes its message like a dict key
        return str(self.args[0])


class BadParamsError(QuiverSeqError, ValueError):
    """Family parameters outside their documented range."""


@dataclass(frozen=True)
class Monomial:
    """coeff · ∏ A_{n+1+i}^exponents[i]; an empty product is the constant coeff."""

    coeff: int
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if self.coeff == 0:
            raise BadParamsError("monomial coefficient must be nonzero")
        if any(e < 0 for e in self.exponents):
            raise BadParamsError("monomial exponents must be nonnegative")

    def render(self) -> str:
        factors = []
        for i, e in enumerate(self.exponents, start=1):
            if e == 1:
                factors.append(f"A[n+{i}]")
            elif e:
                factors.append(f"A[n+{i}]^{e}")
        if not factors:
            return str(self.coeff)
        body = "*".join(factors)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-N two-monomial recurrence with an optional deformation schedule."""

    order: int
    monomial1: Monomial
    monomial2: Monomial
    deform: str = "none"  # "none" | "m1" | "m2"
    schedule: tuple[int, ...] = (0,)
    schedule_label: str = ""
    init_a: tuple[int, ...] = ()
    index_origin: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", tuple(self.schedule))
        init = tuple(self.init_a) if self.init_a else (1,) * self.order
        object.__setattr__(self, "init_a", init)
        if self.order < 2:
            raise BadParamsError("order must be at least 2")
        for m in (self.monomial1, self.monomial2):
            if len(m.exponents) != self.order - 1:
                raise BadParamsError(
                    f"exponent vector length {len(m.exponents)} != order-1 = {self.order - 1}"
                )
        if self.deform not in ("none", "m1", "m2"):
            raise BadParamsError(f"deform must be none/m1/m2, got {self.deform!r}")
        if len(init) != self.order:
            raise BadParamsError("initial bodies must have length = order")
        if not self.schedule:
            raise BadParamsError("schedule must be non-empty")
        if self.index_origin not in (0, 1):
            raise BadParamsError("index origin must be 0 or 1")

    def weight_at(self, step: int) -> int:
        """Deformation weight used when computing the (step+1)-th new term."""
        return self.schedule[step % len(self.schedule)]

    def with_deform(self, placement: str, schedule: Sequence[int]) -> "RecurrenceSpec":
        return replace(self, deform=placement, schedule=tuple(schedule), schedule_label="")

    def without_deform(self) -> "RecurrenceSpec":
        return replace(self, deform="none", schedule=(0,), schedule_label="")

    def formula(self) -> str:
        m1 = self.monomial1.render()
        m2 = self.monomial2.render()
        if self.deform == "m1":
            m1 = f"({m1})*(1+w*eps)"
        elif self.deform == "m2":
            m2 = f"({m2})*(1+w*eps)"
        joined = f"{m1} - {m2[1:]}" if m2.startswith("-") else f"{m1} + {m2}"
        line = f"A[n+{self.order}]*A[n] = {joined}"
        if self.deform != "none":
            if len(self.schedule) == 1:
                line += f"   with w = {self.schedule[0]}"
            else:
                line += f"   with w cycling {','.join(map(str, self.schedule))}"
            if self.schedule_label:
                line += f" ({self.schedule_label})"
        return line


@dataclass
class SequenceRun:
    """Computed terms of a dual recurrence, with the first non-integral
    term as (index, offending part) or None."""

    spec: RecurrenceSpec
    terms: list[DualScalar]
    first_fraction: tuple[int, Scalar] | None = field(default=None, init=False)
    degenerate_steps: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        for i, term in enumerate(self.terms):
            if not term.is_integral:
                offender = term.slope if term.slope.denominator != 1 else term.body
                self.first_fraction = (i, offender)
                break

    def paper_index(self, i: int) -> int:
        """Index in the family's own numbering (origin 0 or 1)."""
        return self.spec.index_origin + i

    def slopes(self) -> list[Scalar]:
        return [t.slope for t in self.terms]


def _monomial_value(m: Monomial, window: Sequence[DualScalar]) -> DualScalar:
    value = None
    for e, term in zip(m.exponents, window):
        if e:
            factor = term if e == 1 else term**e
            value = factor if value is None else value * factor
    if value is None:
        return DualScalar(m.coeff, 0)
    return value if m.coeff == 1 else value * DualScalar(m.coeff, 0)


def run(
    spec: RecurrenceSpec,
    init_a: Sequence[int] | None = None,
    init_b: Sequence[int] | None = None,
    count: int = 20,
    each: Callable[[int, DualScalar], object] | None = None,
) -> SequenceRun:
    """Run the recurrence to ``count`` total terms (initial block included).

    Each new term is RHS / A_n computed in exact dual arithmetic: a
    division of ``int`` parts stays in ``int`` when it is exact, and any
    other gives ``Fraction`` parts, so a term after a fraction whose
    window skips it can be integral again.
    A divisor with zero body is recorded in ``degenerate_steps`` and
    truncates the run; fractional terms are recorded but do not stop it.

    ``each(i, term)``, when given, is called with every term in order,
    the initial block included, as soon as the term is made.  An
    exception it raises propagates and ends the run: no further term is
    computed and no ``SequenceRun`` is returned.
    """
    N = spec.order
    if count < N:
        raise BadParamsError(f"count {count} smaller than order {N}")
    a = tuple(init_a) if init_a is not None else spec.init_a
    b = tuple(init_b) if init_b is not None else (0,) * N
    if len(a) != N or len(b) != N:
        raise BadParamsError("initial vectors must have length = order")
    terms = [DualScalar(x, y) for x, y in zip(a, b)]
    if each is not None:
        for i, term in enumerate(terms):
            each(i, term)
    degenerate: list[int] = []
    for step in range(count - N):
        divisor = terms[step]
        if divisor.body == 0:
            degenerate.append(step)
            break
        window = terms[step + 1 : step + N]
        m1 = _monomial_value(spec.monomial1, window)
        m2 = _monomial_value(spec.monomial2, window)
        w = spec.weight_at(step)
        if spec.deform == "m1":
            m1 = m1 * DualScalar(1, w)
        elif spec.deform == "m2":
            m2 = m2 * DualScalar(1, w)
        term = (m1 + m2) / divisor
        terms.append(term)
        if each is not None:
            each(N + step, term)
    return SequenceRun(spec, terms, degenerate_steps=degenerate)


def decompose_basis(
    spec: RecurrenceSpec,
    count: int,
    each: Callable[[int, int, Scalar], object] | None = None,
) -> list[list[Scalar]]:
    """Slope basis rows from unit initial vectors (undeformed specs only).

    Row i is the slope sequence of ``run`` with initial slopes e_i.  The
    slope solution space of an undeformed recurrence is linear, so every
    slope sequence is the unique combination of these N rows.  Dual
    numbers differentiate, so row i is ∂A_n/∂a_i at the initial bodies
    a = ``spec.init_a``.  When both monomials have total degree 2, scaling
    a by λ scales every term by λ, and by Euler's relation the rows
    combined with coefficients a give the bodies themselves.  Otherwise
    they need not: for fordy_marsh_s4(p=2, q=3) the all-ones combination
    is 5 at term 4, where the body is 2.

    ``each(row, i, slope)``, when given, is passed to each row's ``run``
    with the row's index, so rows arrive one after another, each value
    as soon as its term is made; an exception it raises ends the
    decomposition.
    """
    if spec.deform != "none":
        raise BadParamsError("basis decomposition applies to undeformed recurrences")
    N = spec.order
    rows = []
    for r in range(N):
        unit = [int(r == j) for j in range(N)]
        on_term = None if each is None else (lambda i, term, r=r: each(r, i, term.slope))
        rows.append(run(spec, init_b=unit, count=count, each=on_term).slopes())
    return rows


def quiver_to_spec(wq: WeightedQuiver) -> RecurrenceSpec:
    """Compile a period-1 weighted quiver into its sequence recurrence.

    Row 1 of the exchange matrix supplies the monomials: out-arrow
    multiplicities are the exponents of the undeformed monomial, in-arrow
    multiplicities those of the deformed one.  The deformation schedule is
    the trace of w_1 over one full weight period; ``weight_trace`` raises
    NotPeriodOneError when the quiver is not period-1.
    """
    q = wq.quiver
    schedule = weight_trace(wq)
    row = q.b[0]
    out_exps = tuple(pos_part(c) for c in row[1:])
    in_exps = tuple(-neg_part(c) for c in row[1:])
    deform = "m2" if any(schedule) else "none"
    return RecurrenceSpec(
        order=q.n,
        monomial1=Monomial(1, out_exps),
        monomial2=Monomial(1, in_exps),
        deform=deform,
        schedule=schedule if deform != "none" else (0,),
        init_a=(1,) * q.n,
        index_origin=1,
    )


@dataclass(frozen=True)
class ScanCell:
    """One grid cell of an integrality scan.

    A cell whose parameters the family rejects has no run; ``invalid``
    then holds the rejection message.
    """

    params: dict
    run: SequenceRun | None
    invalid: str | None = None

    @property
    def clean(self) -> bool:
        return self.run is not None and self.run.first_fraction is None and not self.run.degenerate_steps


def integrality_scan(
    family: str,
    grid: Mapping[str, Iterable[int]],
    horizon: int,
    deform: tuple[str, Sequence[int]] | None = None,
) -> list[ScanCell]:
    """Run a family over a parameter grid with zero initial slopes.

    Cells are visited row-major in the order the grid mapping lists its
    keys, so output order is deterministic.  Each cell reports the first
    non-integral term (index and exact value) or that it stayed clean to
    the horizon; degenerate cells are reported as such, never raised.
    A BadParamsError marks its cell invalid and the scan goes on; only
    when every cell is invalid is the first error raised.
    """
    keys = list(grid.keys())
    cells, errors = [], []
    for combo in itertools.product(*(list(grid[k]) for k in keys)):
        params = dict(zip(keys, combo))
        try:
            spec = builtin(family, **params)
            if deform is not None:
                placement, schedule = deform
                spec = spec.with_deform(placement, tuple(schedule))
            cells.append(ScanCell(params, run(spec, count=horizon)))
        except BadParamsError as exc:
            errors.append(exc)
            cells.append(ScanCell(params, None, str(exc)))
    if errors and len(errors) == len(cells):
        raise errors[0]
    return cells


# -- built-in families -------------------------------------------------------

# Largest Gale-Robinson order: the family builds lists of N entries before
# any run compares N with its length, so a larger N is refused up front.
MAX_GALE_ROBINSON_ORDER = 10_000


def _somos4() -> RecurrenceSpec:
    return RecurrenceSpec(4, Monomial(1, (1, 0, 1)), Monomial(1, (0, 2, 0)), index_origin=1)


def _somos5() -> RecurrenceSpec:
    return RecurrenceSpec(5, Monomial(1, (1, 0, 0, 1)), Monomial(1, (0, 1, 1, 0)), index_origin=1)


def _gale_robinson(N: int, r: int, s: int) -> RecurrenceSpec:
    if not (isinstance(N, int) and isinstance(r, int) and isinstance(s, int)):
        raise BadParamsError("N, r, s must be integers")
    if N > MAX_GALE_ROBINSON_ORDER:
        raise BadParamsError(f"need N <= {MAX_GALE_ROBINSON_ORDER}, got N={N}")
    if not (1 <= r < s <= N / 2):
        raise BadParamsError(f"need 1 <= r < s <= N/2, got N={N} r={r} s={s}")
    e1 = [0] * (N - 1)
    e1[r - 1] += 1
    e1[N - r - 1] += 1
    e2 = [0] * (N - 1)
    e2[s - 1] += 1
    e2[N - s - 1] += 1
    return RecurrenceSpec(N, Monomial(1, e1), Monomial(1, e2), index_origin=1)


def _fordy_marsh_s4(p: int, q: int) -> RecurrenceSpec:
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 0:
        raise BadParamsError(f"need p >= 1 and q >= 0, got p={p} q={q}")
    return RecurrenceSpec(4, Monomial(1, (p, 0, p)), Monomial(1, (0, q, 0)), index_origin=0)


def _cassini_plus() -> RecurrenceSpec:
    return RecurrenceSpec(2, Monomial(1, (2,)), Monomial(1, (0,)), index_origin=0)


def _cassini_minus() -> RecurrenceSpec:
    # Starts at n=1 with bodies (1, 3): the even-index bisection's n=0 term
    # is 0 and cannot serve as a divisor.
    return RecurrenceSpec(2, Monomial(1, (2,)), Monomial(-1, (0,)), init_a=(1, 3), index_origin=1)


def _limping_fibonacci() -> RecurrenceSpec:
    return RecurrenceSpec(
        2,
        Monomial(1, (2,)),
        Monomial(1, (0,)),
        deform="m1",
        schedule=(1, 1, -1, -1),
        schedule_label="sign pattern ++-- from the first computed term",
        index_origin=0,
    )


def _order3() -> RecurrenceSpec:
    return RecurrenceSpec(3, Monomial(1, (1, 1)), Monomial(1, (0, 0)), index_origin=0)


def _order3_alt() -> RecurrenceSpec:
    return RecurrenceSpec(
        3,
        Monomial(1, (1, 1)),
        Monomial(1, (0, 0)),
        deform="m1",
        schedule=(1, 1, 1, -1, -1, -1),
        schedule_label="sign pattern +++--- from the first computed term",
        index_origin=0,
    )


_FAMILIES = {
    "somos4": _somos4,
    "somos5": _somos5,
    "gale_robinson": _gale_robinson,
    "fordy_marsh_s4": _fordy_marsh_s4,
    "cassini_plus": _cassini_plus,
    "cassini_minus": _cassini_minus,
    "limping_fibonacci": _limping_fibonacci,
    "order3": _order3,
    "order3_alt": _order3_alt,
}


def family_names() -> list[str]:
    return sorted(_FAMILIES)


def builtin(name: str, **params) -> RecurrenceSpec:
    """Look up a built-in family; hyphens in names normalize to underscores.

    Parameters are checked by name against the family's own before the
    family is built, so a missing or unexpected one is named in the error.
    """
    key = name.replace("-", "_").lower()
    factory = _FAMILIES.get(key)
    if factory is None:
        raise UnknownFamilyError(f"unknown family {name!r}; known: {', '.join(family_names())}")
    code = factory.__code__  # every factory takes plain positional parameters
    wanted = code.co_varnames[: code.co_argcount]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing or extra:
        message = f"{key} takes {', '.join(wanted) or 'no parameters'}"
        if missing:
            message += f"; missing {', '.join(missing)}"
        if extra:
            message += f"; got {', '.join(extra)}"
        raise BadParamsError(message)
    return factory(**params)
