"""Frozen expected values and independent oracles shared by the test suite.

The oracles here are deliberately written as straight-line computations
that do not touch the library's engines: direct rational recursions for
the bilinear families, a linearized slope solver, an iterative
Fibonacci/Lucas generator, a dense Gaussian solver over Fractions for the
weight-function linear system, and a naive re-statement of the weight
mutation rule.  The polynomial product and exact division keyed by
exponent tuples, dual division through P², normalization by one
reduction per part and the primitive PRS gcd are the library's former
kernels, kept as oracles for the packed kernels, the direct route, the
single classifier and GCDHEU; PRS and SymPy are the two GCD oracles.
The library's former printers, each with its own walk over the terms,
are the reference of ``Poly.format`` and ``Poly.sexpr``.  The
reducer that cancels the expanded denominator by its GCD with the
numerators, and a held run built from it and the P² division, are the
oracles of the reducer's factor route and the one division route.  That
run, with the weights held or evolved, works on full fractions that
carry every slope part (s_0, s_1, …, s_n) through their own product,
sum, deformation and division, with nothing derived, so it is also the
oracle of the library's values, which carry body and s_0 alone.  The
period-1 quivers filled from palindromic first rows are the paper's
weighted class as a test domain.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Sequence

from quiverseq.dualnum import format_scalar
from quiverseq.laurent import NotLaurent, RationalDualExpr, ZeroBodyDivisionError, var_names
from quiverseq.poly import Poly, poly_gcd
from quiverseq.quiver import Quiver, WeightedQuiver
from quiverseq.seqgen import BadParamsError, Monomial, RecurrenceSpec, SequenceRun

# -- frozen sequence tables ---------------------------------------------------

SOMOS4_BODIES = [1, 1, 1, 1, 2, 3, 7, 23, 59, 314, 1529, 8209, 83313, 620297, 7869898]

# deformation (1+eps) on the squared middle term, zero initial slopes
SOMOS4_SLOPES_M2 = [0, 0, 0, 0, 1, 2, 10, 48, 160, 1273, 7346, 51394, 645078, 5477318, 87284761]
# deformation (1+eps) on the outer product instead
SOMOS4_SLOPES_M1 = [0, 0, 0, 0, 1, 3, 10, 59, 198, 1387, 9389, 57983, 752301, 6851887, 97297759]

SOMOS4_BASIS = [
    [1, 0, 0, 0, -2, -2, -10, -46, -103, -933, -4681, -27912, -375536],
    [0, 1, 0, 0, 1, -2, 2, -1, -40, 140, -696, -265, 38478],
    [0, 0, 1, 0, 2, 4, 5, 48, 94, 635, 4732, 18594, 299835],
    [0, 0, 0, 1, 1, 3, 10, 22, 108, 472, 2174, 17792, 120536],
]

SOMOS5_BODIES = [1, 1, 1, 1, 1, 2, 3, 5, 11, 37, 83, 274, 1217]

FIB_ODD_BODIES = [1, 1, 2, 5, 13, 34, 89, 233]  # n = 0..7
LUCAS_ODD_SLOPES = [-1, 1, 4, 11, 29, 76, 199, 521]
FIB_EVEN_BODIES = [1, 3, 8, 21, 55, 144, 377]  # n = 1..7 (n=0 term is 0)
LUCAS_EVEN_SLOPES = [3, 7, 18, 47, 123, 322, 843]

# two-parameter family with initial slopes (-p, q): coefficient rows
TWO_PARAM_P_ROW = [-1, 0, 2, 8, 27, 86, 265, 798]
TWO_PARAM_Q_ROW = [0, 1, 2, 3, 2, -10, -66, -277]
# even bisection with initial slopes (3p, q) at n = 1, 2
TILDE_P_ROW = [3, 0, -24, -128, -507, -1778, -5835]
TILDE_Q_ROW = [0, 1, 6, 25, 90, 300, 954]

LIMPING_SLOPES = [0, 0, 1, 8, 21, 21, 55, 377]  # n = 0..7

ORDER3_BODIES = [1, 1, 1, 2, 3, 7, 11, 26, 41, 97, 153, 362, 571, 1351]
ORDER3_ALT_SLOPES = [0, 0, 0, 1, 3, 15, 17, 43, 2, 112, 84]

FM_Q0_BODY_PREFIX = [1, 1, 1, 1, 2, 3, 4, 9, 14, 19]
FM_Q0_SLOPE_PREFIX = [0, 0, 0, 0, 1, 3, 6, 24, 56]
FM_FIRST_FRACTIONS = {  # q -> (index with origin 0, value)
    0: (9, Fraction(307, 3)),
    1: (8, Fraction(159, 2)),
    3: (8, Fraction(6539, 2)),
}

# -- quiver builders ----------------------------------------------------------


def neg_p31() -> Quiver:
    """Three vertices, arrows 1->2, 1->3, 2->3 (opposite of the primitive)."""
    return Quiver([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])


def neg_p41() -> Quiver:
    """Four vertices, arrows 1->2, 2->3, 3->4, 1->4."""
    return Quiver(
        [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -1, 0, 1], [-1, 0, -1, 0]]
    )


def somos4_correction(p: int, q: int) -> Quiver:
    """Correction term of the non-homogeneous Somos-4 quiver family."""
    return Quiver(
        [[0, 0, 0, 0], [0, 0, p * q, 0], [0, -p * q, 0, 0], [0, 0, 0, 0]]
    )


def somos4_family(p: int, q: int) -> Quiver:
    """First quiver of the family: rows give A^p A^p outgoing, A^q incoming."""
    from quiverseq.periodicity import combine

    return combine(4, (-p, q), somos4_correction(p, q))


def somos4_family_opposite(p: int, q: int) -> Quiver:
    from quiverseq.periodicity import combine

    return combine(4, (p, -q), somos4_correction(-p, q))


def somos4_quiver_a() -> Quiver:
    """The weighted Somos-4 quiver (weights (1,0,0,-1) solve it)."""
    return somos4_family(1, 2)


def somos4_quiver_b() -> Quiver:
    """Its opposite orientation (weights (1,1,-1,-1) solve it)."""
    return somos4_family_opposite(1, 2)


def kronecker2() -> Quiver:
    """Two vertices joined by a double arrow into vertex 1."""
    return Quiver([[0, -2], [2, 0]])


def period_one_quiver(first: Sequence[int]) -> Quiver:
    """The quiver filled from the first row (0, *first) by the period-1 rule.

    rotate(mutate(q, 1)) = q reads B[i+1][j+1] = B[i][j] −
    ([B[i+1][0]]₊[B[0][j+1]]₊ − [B[i+1][0]]₋[B[0][j+1]]₋), so B fills row
    by row from its first row and first column (Fordy & Marsh, "Cluster
    mutation-periodic quivers and associated Laurent sequences",
    J. Algebraic Combin. 34, 2011).  Row (1, -2, 1) gives the Somos-4
    quiver.  Over rows with entries in −2..2 and n = 4..7 the result is
    period-1 exactly when the row is a palindrome.
    """
    n = len(first) + 1
    b = [[0, *first]] + [[-a] + [0] * (n - 1) for a in first]
    for i in range(n - 1):
        for j in range(n - 1):
            x, y = b[i + 1][0], b[0][j + 1]
            b[i + 1][j + 1] = b[i][j] - (max(x, 0) * max(y, 0) - max(-x, 0) * max(-y, 0))
    return Quiver(b)


def palindromic_rows(n: int, entries: Sequence[int]) -> list[tuple[int, ...]]:
    """Every palindromic first row (B[0][1], …, B[0][n−1]) with entries drawn from entries."""
    rows = [()]
    for _ in range(n // 2):
        rows = [row + (a,) for row in rows for a in entries]
    return [row + row[: (n - 1) // 2][::-1] for row in rows]


# -- independent oracles ------------------------------------------------------


def fib_lucas(limit: int) -> tuple[list[int], list[int]]:
    """F_0..F_limit and L_0..L_limit by plain integer iteration."""
    F = [0, 1]
    L = [2, 1]
    for _ in range(limit - 1):
        F.append(F[-1] + F[-2])
        L.append(L[-1] + L[-2])
    return F, L


def bilinear_oracle(N, term1, term2, count, init=None):
    """Direct rational recursion a[n+N]·a[n] = term1(window) + term2(window).

    term1/term2 map the window (a[n+1..n+N-1]) to Fractions.  Independent
    of the package's engines.
    """
    a = [Fraction(x) for x in (init or [1] * N)]
    for n in range(count - N):
        window = a[n + 1 : n + N]
        a.append((term1(window) + term2(window)) / a[n])
    return a


def _linearized_monomial(
    m: Monomial, bodies: Sequence[Fraction], slopes: Sequence[Fraction]
) -> Fraction:
    """Slope of coeff·∏ A^e given bodies and slopes of the window (product rule)."""
    total = Fraction(0)
    for i, e in enumerate(m.exponents):
        if e == 0:
            continue
        term = e * slopes[i] * bodies[i] ** (e - 1)
        for j, ej in enumerate(m.exponents):
            if j != i and ej:
                term *= bodies[j] ** ej
        total += term
    return m.coeff * total


def _monomial_body(m: Monomial, bodies: Sequence[Fraction]) -> Fraction:
    value = Fraction(m.coeff)
    for e, a in zip(m.exponents, bodies):
        if e:
            value *= a**e
    return value


def run_linearized(
    spec: RecurrenceSpec, base_run: SequenceRun, init_b: Sequence[int]
) -> list[Fraction]:
    """Solve the linearized recurrence for the slopes, given the bodies.

    This is an independent route to the slope sequence: differentiate the
    defining relation in ε and solve for b_{n+N}.  For a deformed spec
    the schedule contributes the affine term w·(deformed monomial body).
    Agrees exactly with the slopes of ``run`` on identical inputs.
    """
    N = spec.order
    bodies = [t.body for t in base_run.terms]
    if len(init_b) != N:
        raise BadParamsError("initial slopes must have length = order")
    slopes: list[Fraction] = [Fraction(x) for x in init_b]
    for step in range(len(bodies) - N):
        a_n = bodies[step]
        if a_n == 0:
            break
        awin = bodies[step + 1 : step + N]
        bwin = slopes[step + 1 : step + N]
        total = _linearized_monomial(spec.monomial1, awin, bwin)
        total += _linearized_monomial(spec.monomial2, awin, bwin)
        w = spec.weight_at(step)
        if spec.deform == "m1":
            total += w * _monomial_body(spec.monomial1, awin)
        elif spec.deform == "m2":
            total += w * _monomial_body(spec.monomial2, awin)
        slopes.append((total - slopes[step] * bodies[step + N]) / a_n)
    return slopes


def somos5_oracle(count: int) -> list[Fraction]:
    return bilinear_oracle(
        5,
        lambda w: w[3] * w[0],
        lambda w: w[2] * w[1],
        count,
    )


def gale_robinson_oracle(N: int, r: int, s: int, count: int) -> list[Fraction]:
    return bilinear_oracle(
        N,
        lambda w: w[N - r - 1] * w[r - 1],
        lambda w: w[N - s - 1] * w[s - 1],
        count,
    )


def solve_linear_system(rows, rhs):
    """Gaussian elimination over Fractions.

    Returns (solution, consistent): solution is None when the system is
    inconsistent or underdetermined.
    """
    m = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1
    pivot_cols = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivot_cols.append(col)
        row += 1
        if row == nrows:
            break
    for r in range(row, nrows):
        if m[r][ncols] != 0:
            return None, False
    if len(pivot_cols) < ncols:
        return None, True  # underdetermined
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivot_cols):
        solution[col] = m[r][ncols]
    return solution, True


def weight_system_oracle(q: Quiver):
    """Solve the cycle-invariance system for weights directly, w_1 = 1 fixed.

    Unknowns w_2..w_N; equations: w_i = w_{i+1} + [b_{1,i+1}]_+ · 1 for
    i = 1..N-1 and w_N = -1.  Returns the full weight tuple or None.
    """
    n = q.n
    if n == 1:
        return None
    rows = []
    rhs = []
    # w_1 - w_2 = [b_12]_+  ->  -w_2 = [b_12]_+ - 1
    for i in range(1, n):
        row = [0] * (n - 1)
        pos = max(0, q.b[0][i])
        if i >= 2:
            row[i - 2] = 1  # w_i
        row[i - 1] -= 1  # -w_{i+1}
        rows.append(row)
        rhs.append(Fraction(pos) - (Fraction(1) if i == 1 else Fraction(0)))
    closing = [0] * (n - 1)
    closing[n - 2] = 1
    rows.append(closing)
    rhs.append(Fraction(-1))
    solution, consistent = solve_linear_system(rows, rhs)
    if solution is None:
        return None
    weights = [Fraction(1)] + solution
    if any(w.denominator != 1 for w in weights):
        return None
    return tuple(int(w) for w in weights)


def weight_mutation_oracle(b_rows, weights, k):
    """Straight-line restatement of the vertex-weight mutation rule (1-indexed k)."""
    n = len(weights)
    out = list(weights)
    for i in range(n):
        if i == k - 1:
            out[i] = -weights[k - 1]
        else:
            arrows_k_to_i = b_rows[k - 1][i]
            if arrows_k_to_i > 0:
                out[i] = weights[i] + arrows_k_to_i * weights[k - 1]
    return tuple(out)


def poly_format(p: Poly, names) -> str:
    """Infix form, terms in decreasing lex order: the library's former
    ``Poly.format``, which walked the terms on its own."""
    if not p.terms:
        return "0"
    pieces = []
    for exps in sorted(p.terms, reverse=True):
        c = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e:
                factors.append(f"{names[i]}^{e}")
        if not factors:
            body = format_scalar(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_scalar(abs(c))] + factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def poly_sexpr(p: Poly, names) -> str:
    """Parenthesized form (+ (* c (^ v e) ...) ...): the library's former
    ``Poly.sexpr``, which walked the terms on its own."""
    if not p.terms:
        return "0"
    parts = []
    for exps in sorted(p.terms, reverse=True):
        c = p.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e:
                factors.append(f"(^ {names[i]} {e})")
        if factors:
            parts.append(f"(* {format_scalar(c)} " + " ".join(factors) + ")")
        else:
            parts.append(format_scalar(c))
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def tuple_mul(self: Poly, other: Poly) -> Poly:
    """Sparse product with one exponent tuple built per pair of terms."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in self.terms.items():
        for e2, c2 in other.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Poly(self.nvars, out)


def tuple_exact_div(self: Poly, divisor: Poly) -> Poly | None:
    """Exact quotient self/divisor in the Laurent ring, or None.

    Both operands are first shifted so all exponents are nonnegative
    (monomials are units), then ordinary single-divisor division runs
    under lex order with an integer-divisibility check per step; any
    failure means the division is not exact.  Each step rescans the
    remainder for its lex-largest tuple.
    """
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if self.is_zero():
        return Poly.zero(self.nvars)
    smin = self.min_exponents()
    dmin = divisor.min_exponents()
    num = self.shift(tuple(-m for m in smin)).terms
    den = divisor.shift(tuple(-m for m in dmin)).terms
    lead = max(den)
    lc = den[lead]
    rem = dict(num)
    quot: dict[tuple[int, ...], int] = {}
    while rem:
        re = max(rem)
        qe = tuple(a - b for a, b in zip(re, lead))
        if any(e < 0 for e in qe):
            return None
        qc, r = divmod(rem[re], lc)
        if r:
            return None
        quot[qe] = qc
        for de, dc in den.items():
            ke = tuple(a + b for a, b in zip(qe, de))
            s = rem.get(ke, 0) - qc * dc
            if s:
                rem[ke] = s
            else:
                rem.pop(ke, None)
    back = tuple(a - b for a, b in zip(smin, dmin))
    return Poly(self.nvars, quot).shift(back)


def _positive_lead(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, c = p.lex_lead()
    return -p if c < 0 else p


def _coeff_in(p: Poly, slot: int, power: int) -> Poly:
    """Coefficient of variable^power, as a polynomial with that slot zeroed."""
    out = {}
    for exps, c in p.terms.items():
        if exps[slot] == power:
            out[exps[:slot] + (0,) + exps[slot + 1 :]] = c
    return Poly(p.nvars, out)


def _shift_var(p: Poly, slot: int, k: int) -> Poly:
    if k == 0:
        return p
    return Poly(
        p.nvars,
        {e[:slot] + (e[slot] + k,) + e[slot + 1 :]: c for e, c in p.terms.items()},
    )


def _content_wrt(p: Poly, slot: int) -> Poly:
    """GCD of the coefficients of p viewed as a polynomial in one variable."""
    groups: dict[int, Poly] = {}
    for exps, c in p.terms.items():
        k = exps[slot]
        base = exps[:slot] + (0,) + exps[slot + 1 :]
        g = groups.setdefault(k, Poly(p.nvars))
        g.terms[base] = g.terms.get(base, 0) + c
    result = Poly.zero(p.nvars)
    for g in groups.values():
        result = prs_gcd(result, g)
    return result


def _prem(a: Poly, b: Poly, slot: int) -> Poly:
    """Pseudo-remainder of a by b in the given variable (up to lc powers)."""
    db = b.degree(slot)
    lcb = _coeff_in(b, slot, db)
    r = a
    while not r.is_zero() and r.degree(slot) >= db:
        dr = r.degree(slot)
        lr = _coeff_in(r, slot, dr)
        r = lcb * r - _shift_var(lr * b, slot, dr - db)
    return r


def prs_gcd(a: Poly, b: Poly) -> Poly:
    """GCD of two polynomials with nonnegative exponents by primitive PRS.

    The content in the first variable present is split off recursively,
    then pseudo-remainders of the primitive parts are made primitive until
    one vanishes.  The result has a positive lex-leading coefficient, as
    ``poly_gcd``'s does.  Some small inputs in three variables take it
    tens of seconds, so the library does not use it.
    """
    if a.is_zero():
        return _positive_lead(b)
    if b.is_zero():
        return _positive_lead(a)
    if a.is_constant() or b.is_constant():
        return Poly.const(a.nvars, int_gcd(a.content(), b.content()))
    slot = next(
        i for i in range(a.nvars) if a.degree(i) > 0 or b.degree(i) > 0
    )
    ca = _content_wrt(a, slot)
    cb = _content_wrt(b, slot)
    d = prs_gcd(ca, cb)
    pa = a.exact_div(ca)
    pb = b.exact_div(cb)
    if pa.degree(slot) < pb.degree(slot):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb, slot)
        if r.is_zero():
            g = pb
            break
        if r.degree(slot) == 0:
            g = Poly.one(a.nvars)
            break
        pa, pb = pb, r.exact_div(_content_wrt(r, slot))
    return _positive_lead(d * g)


# -- full dual fractions ------------------------------------------------------
# A full fraction is a plain tuple (num_body, (s_0, s_1, …, s_n), den): every
# slope part is carried and combined by its own rule, none is derived.


def full_seeds(n: int) -> list[tuple]:
    """The seeds X_i = x_i + y_i·ε as full fractions."""
    one = Poly.one(n)
    return [
        (Poly.variable(n, i), tuple(Poly.const(n, int(j == i + 1)) for j in range(n + 1)), one)
        for i in range(n)
    ]


def full_one(n: int) -> tuple:
    return Poly.one(n), (Poly.zero(n),) * (n + 1), Poly.one(n)


def full_mul(a: tuple, b: tuple) -> tuple:
    (nb, ns, d), (ob, os, od) = a, b
    return nb * ob, tuple(nb * t + s * ob for s, t in zip(ns, os, strict=True)), d * od


def full_add(a: tuple, b: tuple) -> tuple:
    (nb, ns, d), (ob, os, od) = a, b
    return nb * od + ob * d, tuple(s * od + t * d for s, t in zip(ns, os, strict=True)), d * od


def full_deform(a: tuple, w: int) -> tuple:
    """Multiply by (1 + w·ε): s_0 gains w·body."""
    nb, (s0, *rest), d = a
    return nb, (s0 + w * nb, *rest), d


def full_fraction(expr: RationalDualExpr) -> tuple:
    """The full fraction of body + (N_0/D)·ε with s_i = ∂_i body: the body
    is written as N_b/D with N_b = body·D, and the slope parts come from
    the quotient rule over D², unreduced."""
    d = expr.den
    nb = expr.body * d
    parts = (nb.derivative(i) * d - nb * d.derivative(i) for i in range(nb.nvars))
    return nb * d, (expr.num_s0 * d, *parts), d * d


def dual_div_squared(a: tuple, b: tuple) -> tuple:
    """Dual division by 1/(P + Q·ε) = (P − Q·ε)/P², whatever the operands."""
    (nb, ns, d), (ob, os, od) = a, b
    if ob.is_zero():
        raise ZeroBodyDivisionError("division by a value with zero body")
    slope = tuple((s * ob - nb * t) * od for s, t in zip(ns, os, strict=True))
    return nb * ob * od, slope, d * ob * ob


def reduce_full(frac: tuple) -> tuple:
    """``reduce_by_gcd`` over the body and every slope part together."""
    (nb, *ns), den = reduce_by_gcd((frac[0], *frac[1]), frac[2])
    return nb, tuple(ns), den


def normalize_per_part(frac: tuple) -> tuple | NotLaurent:
    """Reduce the body and then the slope fraction of a full fraction,
    each on its own; (body, slope parts) when Laurent.

    Each is one pass of ``reduce_by_gcd``: over the body numerator alone, then
    over all slope parts together.  The value is Laurent when both
    reduced denominators are the unit
    monomial: monomial factors have already been folded into negative
    exponents, so anything left over (a non-monomial polynomial, or an
    integer > 1 that does not divide the numerator content) makes it
    non-Laurent, and the first offending denominator is reported.
    """
    nb, ns, den = frac
    parts = []
    for part, nums in (("body", (nb,)), ("slope", ns)):
        nums, reduced = reduce_by_gcd(nums, den)
        if not reduced.is_one():
            return NotLaurent(part, reduced)
        parts.append(nums)
    (body,), slope = parts
    return body, tuple(slope)


def _joined(slope: tuple) -> Poly:
    """s_0 + Σ y_i·s_i as one polynomial over x_1..x_n, y_1..y_n."""
    n = len(slope) - 1
    terms = {}
    for i, part in enumerate(slope):
        y = tuple(int(j == i - 1) for j in range(n))
        terms.update((exps + y, c) for exps, c in part.terms.items())
    return Poly(2 * n, terms)


def dual_sexpr(body: Poly, slope: tuple) -> str:
    names = var_names(body.nvars)
    return f"(dual (body {poly_sexpr(body, names)}) (slope {poly_sexpr(_joined(slope), names)}))"


def fraction_sexpr(frac: tuple) -> str:
    nb, ns, den = frac
    names = var_names(nb.nvars)
    return (
        f"(fraction (body-num {poly_sexpr(nb, names)}) (slope-num {poly_sexpr(_joined(ns), names)}) "
        f"(den {poly_sexpr(den, names)}))"
    )


def _fold_monomial(nums, den: Poly) -> tuple[list[Poly], Poly]:
    """Divide den and the numerators by den's monomial factor, a unit."""
    mins = den.min_exponents()
    if not any(mins):
        return list(nums), den
    back = tuple(-m for m in mins)
    return [num.shift(back) for num in nums], den.shift(back)


def reduce_by_gcd(nums, den: Poly) -> tuple[list[Poly], Poly]:
    """Cancel a shared denominator against every numerator.

    The monomial part of den folds into (possibly negative) numerator
    exponents.  What is left is cancelled by one trial division of every
    numerator, and failing that by the GCD of the expanded den with all
    nonzero ones, whose quotient is folded again.  The reduced denominator
    comes back with a positive lex-leading coefficient.
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
    g = den
    for num in nums:
        if not (num.is_zero() or g.is_one()):
            g = poly_gcd(g, num)
    if not g.is_one():
        nums, den = _fold_monomial([num.exact_div(g) for num in nums], den.exact_div(g))
    if den.lex_lead()[1] < 0:
        nums, den = [-num for num in nums], -den
    return nums, den


def held_run_oracle(wq: WeightedQuiver, steps: int, evolve_weights: bool = False) -> list[tuple]:
    """Rows (step, laurent, denominator, body terms, slope terms, sexpr)
    of the cycle "mutate at vertex 1, shift labels" with the weights held,
    or mutated along by ``WeightedQuiver.mutate`` when evolve_weights.

    Every variable is a full fraction that carries all n + 1 slope parts.
    Every exchange divides through P² (``dual_div_squared``) and reduces
    with ``reduce_full``; products are taken one factor at a time, and
    each value is classified by ``normalize_per_part``.
    """
    n = wq.n
    state = full_seeds(n)
    current = wq
    rows = []
    for step in range(1, steps + 1):
        out, into = full_one(n), full_one(n)
        for j, c in enumerate(current.quiver.b[0]):
            for _ in range(abs(c)):
                if c > 0:
                    out = full_mul(out, state[j])
                else:
                    into = full_mul(into, state[j])
        exchange = dual_div_squared(full_add(out, full_deform(into, current.weights[0])), state[0])
        frac = reduce_full(exchange)
        result = normalize_per_part(frac)
        laurent = not isinstance(result, NotLaurent)
        if laurent:
            body, slope = result
            mins = body.min_exponents()
            for part in slope:
                mins = tuple(map(min, mins, part.min_exponents()))
            denominator = Poly.monomial(n, tuple(max(0, -m) for m in mins))
            sexpr = dual_sexpr(body, slope)
        else:
            denominator, sexpr = result.denominator, fraction_sexpr(frac)
        nb, ns, _ = frac
        rows.append((step, laurent, denominator, nb.term_count, sum(p.term_count for p in ns), sexpr))
        state = state[1:] + [frac]
        if evolve_weights:
            current = current.mutate(1).rotate()
        else:
            current = WeightedQuiver(current.quiver.mutate(1).rotate(), current.weights)
    return rows
