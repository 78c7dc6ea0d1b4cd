"""Sparse multivariate Laurent polynomials over the integers.

Terms are a dict from exponent tuples to nonzero integer coefficients;
exponents may be negative.  Besides ring arithmetic the module provides
exact division and a multivariate GCD, which back the fraction reduction
in the symbolic exchange engine.  On a genuine run every denominator
there is a monomial, which reduction folds away.  On a held run the
reduction splits the denominator over the primitive parts of the run's
earlier bodies and cancels it factor by factor, using a GCD of one small
factor with the numerator only to certify that what is left is coprime,
or to refine the factors when it is not.

The GCD is the heuristic GCDHEU of Char, Geddes & Gonnet (JSC 1989):
evaluate one variable at a large integer, recurse down to integer gcds,
rebuild the gcd from symmetric base-xi digits and accept its primitive
part only if it divides both inputs exactly.  The evaluation point
grows until that happens, which it always does, so GCDHEU is the only
GCD algorithm; primitive PRS (pseudo-remainder sequences) lives in the
tests as their reference.

Monomial order is lexicographic on the exponent tuple; for division by a
single divisor that is all we need (leading monomials multiply).

Products and exact quotients run on packed exponents (Monagan & Pearce,
"Sparse polynomial multiplication and division in Maple 14", 2010, and
"Sparse polynomial division using a heap", JSC 2011).  An exponent
vector e whose entries lie in lo_i..hi_i is read as the mixed-radix
number with digits e_i - lo_i and radices hi_i - lo_i + 1, the first
variable most significant.  Subtracting lo makes negative (Laurent)
exponents fit, and the digits never reach their radix, so comparing the
ints compares the tuples lexicographically and adding the ints adds the
vectors.  The inner loops of ``__mul__`` add ints; each result key is
unpacked once.  ``exact_div`` packs in the radix of the shifted numerator
and takes remainder leads from a heap.  An exact quotient q of num by den
has deg_i(q) = deg_i(num) - deg_i(den) in every variable, since degrees
add in Z[x]; so a quotient term outside 0..deg_i(num) - deg_i(den) proves
the division inexact, and while every quotient term stays inside, every
remainder key stays inside the numerator's radix.

A product of at least ``KRONECKER_MIN_PAIRS`` term pairs first tries
``kronecker.kron_mul``: Kronecker substitution on the operands' exponent
hull, with one int product for the whole product.  Its result is exact:
every term is checked to lie on the hull, no two product exponents share
a slot, and each slot's width exceeds twice a bound on its balanced
digit.  It declines, and the sparse kernel runs, when the hull has full
rank, when the lift from the hull's coordinates is not integral, when
the coefficients would pass a 64-bit slot, or when the hull's box is
large against the operands (see that module).

An operand with one term c·x^f has nothing to pack: the unit, a
constant, an ``int`` coerced to one, or a monomial.  ``__mul__`` then
returns {e + f: c·d} directly, or the other operand itself when this one
is the unit (no Poly's terms change after it is built, so sharing them
is safe), and ``exact_div`` by it returns
{e − f: c // d}, or None at the first coefficient that d does not
divide; monomials are units in the Laurent ring, so that is the whole
test of exactness.

Every Poly holds the invariant that its keys are exponent tuples of
length nvars and none of its coefficients is zero.  ``Poly(...)`` copies
and filters its argument to establish it; the kernels, whose results
hold it by construction, hand their term dicts to ``Poly._wrap``, which
takes them without copying.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd
from math import isqrt
from operator import add, mul, sub

from . import kronecker
from .dualnum import format_scalar
from .kronecker import _bounds

# Products of fewer term pairs take the sparse kernel.
KRONECKER_MIN_PAIRS = 500


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    self.terms[tuple(exps)] = coeff

    # -- constructors ----------------------------------------------------

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "Poly":
        """Take ownership of terms, whose keys are exponent tuples of length
        nvars and whose coefficients are all nonzero; nothing is copied."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, slot: int) -> "Poly":
        exps = [0] * nvars
        exps[slot] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff: int = 1) -> "Poly":
        return cls(nvars, {tuple(exps): coeff})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; never used as a key

    def __repr__(self) -> str:
        return f"Poly({self.format([f'v{i}' for i in range(self.nvars)])})"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Poly._wrap(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly(self.nvars)
        if len(a) == 1 or len(b) == 1:
            if other.is_one():
                return self
            if self.is_one():
                return other
            if len(a) != 1:
                a, b = b, a
            ((f, d),) = a.items()
            if any(f):
                return Poly._wrap(self.nvars, {tuple(map(add, e, f)): c * d for e, c in b.items()})
            return Poly._wrap(self.nvars, {e: c * d for e, c in b.items()})
        lo, hi = _bounds(a)
        blo, bhi = (lo, hi) if b is a else _bounds(b)
        if len(a) * len(b) >= KRONECKER_MIN_PAIRS:
            terms = kronecker.kron_mul(self.nvars, a, b, (lo, hi), (blo, bhi))
            if terms is not None:
                return Poly._wrap(self.nvars, terms)
        lo = [x + y for x, y in zip(lo, blo)]
        hi = [x + y for x, y in zip(hi, bhi)]
        weights = _radix(lo, hi)
        pa = [(sum(map(mul, e, weights)), c) for e, c in a.items()]
        pb = [(sum(map(mul, e, weights)), c) for e, c in b.items()]
        if len(pa) < len(pb):
            pa, pb = pb, pa
        out: dict[int, int] = {}
        get = out.get
        for kb, cb in pb:
            for ka, ca in pa:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return _unpack(self.nvars, out, lo, weights)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- structure -------------------------------------------------------

    def min_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent (zeros for the zero polynomial)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(c) for c in zip(*self.terms))

    def shift(self, delta: tuple[int, ...]) -> "Poly":
        """Multiply by the (unit) monomial with exponent vector delta."""
        if all(d == 0 for d in delta):
            return self
        return Poly._wrap(self.nvars, {tuple(map(add, e, delta)): c for e, c in self.terms.items()})

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = int_gcd(g, c)
        return g

    def lex_lead(self) -> tuple[tuple[int, ...], int]:
        e = max(self.terms)
        return e, self.terms[e]

    def degree(self, slot: int) -> int:
        """Max exponent of one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[slot] for e in self.terms)

    def derivative(self, slot: int) -> "Poly":
        """Partial derivative in one variable, negative exponents included:
        c·x^e becomes e_slot·c·x^(e − unit), and terms free of it drop."""
        out = {}
        for e, c in self.terms.items():
            k = e[slot]
            if k:
                out[e[:slot] + (k - 1,) + e[slot + 1 :]] = k * c
        return Poly._wrap(self.nvars, out)

    # -- division and gcd --------------------------------------------------

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor in the Laurent ring, or None.

        Both operands are first shifted so all exponents are nonnegative
        (monomials are units), then ordinary single-divisor division runs
        under lex order with an integer-divisibility check per step; any
        failure means the division is not exact.  Keys are packed in the
        radix of the shifted numerator, remainder leads come off a heap,
        and only quotient terms are unpacked; a quotient exponent outside
        0..deg_i(num) - deg_i(den) proves the division inexact.  A one-term
        divisor is divided out term by term, with no packing.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        num, den = self.terms, divisor.terms
        if not num:
            return Poly(self.nvars)
        if len(den) == 1:
            ((f, d),) = den.items()
            quot = {}
            for e, c in num.items():
                qc, r = divmod(c, d)
                if r:
                    return None
                quot[tuple(map(sub, e, f))] = qc
            return Poly._wrap(self.nvars, quot)
        nlo, nhi = _bounds(num)
        dlo, dhi = _bounds(den)
        bound = [nh - nl - dh + dl for nl, nh, dl, dh in zip(nlo, nhi, dlo, dhi)]
        weights = _radix(nlo, nhi)
        noff = sum(map(mul, nlo, weights))
        doff = sum(map(mul, dlo, weights))
        rem = {sum(map(mul, e, weights)) - noff: c for e, c in num.items()}
        dterms = {sum(map(mul, e, weights)) - doff: c for e, c in den.items()}
        lead = max(dterms)
        lc = dterms.pop(lead)
        ldigits = [e - m for e, m in zip(max(den), dlo)]
        back = [s - d for s, d in zip(nlo, dlo)]
        heap = [-k for k in rem]
        heapify(heap)
        quot: dict[tuple[int, ...], int] = {}
        while heap:
            re = -heappop(heap)
            c = rem.pop(re)
            if not c:
                continue
            qc, r = divmod(c, lc)
            if r:
                return None
            qe = []
            k = re
            for w, ld, b, s in zip(weights, ldigits, bound, back):
                d, k = divmod(k, w)
                d -= ld
                if not 0 <= d <= b:
                    return None
                qe.append(d + s)
            quot[tuple(qe)] = qc
            qk = re - lead
            for dk, dc in dterms.items():
                k = qk + dk
                if k in rem:
                    rem[k] -= qc * dc
                else:
                    rem[k] = -qc * dc
                    heappush(heap, -k)
        return Poly._wrap(self.nvars, quot)

    # -- evaluation and printing -------------------------------------------

    def evaluate(self, values) -> Fraction:
        """Exact evaluation at rational points.

        Negative exponents at a zero coordinate raise ZeroDivisionError,
        which callers surface as a pole error.
        """
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, exps):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total

    def _factored(self, names, power):
        """(coefficient, factors) of each term in decreasing lex order; a
        factor is the name of a variable with a nonzero exponent e, bare
        when e is 1 and power(name, e) otherwise."""
        for exps in sorted(self.terms, reverse=True):
            yield self.terms[exps], [n if e == 1 else power(n, e) for n, e in zip(names, exps) if e]

    def format(self, names) -> str:
        """Infix form, terms in decreasing lex order; DigitLimitError for a
        coefficient past the int/str conversion limit."""
        if not self.terms:
            return "0"
        pieces = []
        for c, factors in self._factored(names, "{}^{}".format):
            if abs(c) != 1 or not factors:
                factors.insert(0, format_scalar(abs(c)))
            pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
        out = " ".join(pieces)
        return out[2:] if out[0] == "+" else "-" + out[2:]

    def sexpr(self, names) -> str:
        """Deterministic parenthesized form: (+ (* c (^ v e) ...) ...);
        DigitLimitError for a coefficient past the int/str conversion limit."""
        if not self.terms:
            return "0"
        parts = [
            f"(* {format_scalar(c)} {' '.join(factors)})" if factors else format_scalar(c)
            for c, factors in self._factored(names, "(^ {} {})".format)
        ]
        return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


# -- packed exponents ----------------------------------------------------------


def _radix(lo, hi) -> list[int]:
    """Place values of the mixed radix for exponents in lo..hi, first variable most significant."""
    weights = []
    w = 1
    for low, high in zip(reversed(lo), reversed(hi)):
        weights.append(w)
        w *= high - low + 1
    weights.reverse()
    return weights


def _unpack(nvars: int, packed: dict[int, int], lo, weights) -> Poly:
    """The Poly whose terms are packed as e·weights, zero coefficients dropped."""
    off = sum(map(mul, lo, weights))
    terms = {}
    for k, c in packed.items():
        if c:
            k -= off
            e = []
            for w, low in zip(weights, lo):
                d, k = divmod(k, w)
                e.append(d + low)
            terms[tuple(e)] = c
    return Poly._wrap(nvars, terms)


# -- multivariate gcd (heuristic, GCDHEU) ------------------------------------


def _strip(p: Poly, mins: tuple[int, ...], content: int) -> Poly:
    """p divided by its monomial factor x^mins and its integer content;
    p itself when both are 1."""
    if content == 1 and not any(mins):
        return p
    return Poly._wrap(p.nvars, {tuple(map(sub, e, mins)): c // content for e, c in p.terms.items()})


def _evaluate_at(p: Poly, slot: int, xi: int) -> Poly:
    """p with one variable set to the integer xi (that slot becomes zero)."""
    powers = [1]
    for _ in range(p.degree(slot)):
        powers.append(powers[-1] * xi)
    out: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        key = e[:slot] + (0,) + e[slot + 1 :]
        out[key] = out.get(key, 0) + c * powers[e[slot]]
    return Poly(p.nvars, out)


def _interpolate(gamma: Poly, slot: int, xi: int) -> Poly:
    """Inverse of _evaluate_at: each coefficient of gamma is read as
    symmetric base-xi digits (in (-xi/2, xi/2]), the coefficients of
    successive powers of the variable in the given slot."""
    half = xi // 2
    out: dict[tuple[int, ...], int] = {}
    for e, c in gamma.terms.items():
        power = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[e[:slot] + (power,) + e[slot + 1 :]] = digit
            power += 1
    return Poly(gamma.nvars, out)


def _heu_candidate(f: Poly, g: Poly, gamma: Poly, slot: int, xi: int) -> Poly | None:
    """The gcd of f and g read off gamma = gcd(f(xi), g(xi)), or None.

    f and g are primitive and free of monomial factors, and the caller
    made sure xi divides no coefficient of f or none of g.  The candidate
    h is the primitive part of gamma's symmetric base-xi digits, signed to
    a positive lex-leading coefficient; it is returned when it divides
    both inputs exactly.  A constant candidate is 1, which divides
    everything, so it is returned at once.

    Any such h is the gcd G.  Its image divides gamma up to an integer of
    size at most xi/2, so the factor G/h takes a value that small at xi.
    A factor in the evaluated variable cannot, because xi exceeds twice
    the Cauchy root bound of f or g.  A factor involving other variables
    would make xi a root of a nonzero polynomial whose coefficients are
    coefficients of f, and likewise of g, so xi would divide one of each.
    The same divisibility rules out a monomial factor in gamma's digits.
    """
    h = _interpolate(gamma, slot, xi)
    if h.is_constant():
        return Poly.one(h.nvars)
    scale = h.content() if h.lex_lead()[1] > 0 else -h.content()
    h = Poly(h.nvars, {e: c // scale for e, c in h.terms.items()})
    if f.exact_div(h) is not None and g.exact_div(h) is not None:
        return h
    return None


def _heu_gcd(f: Poly, g: Poly) -> Poly:
    """GCD of two nonzero polynomials with nonnegative exponents.

    The gcd of the monomial factors and of the integer contents is split
    off first.  For the rest, the first variable present (the most
    significant one in lex order) is evaluated at xi, the gcd of the
    images is found recursively and _heu_candidate lifts it back; xi
    grows until the lifted candidate divides both inputs.

    The loop ends.  Let G = gcd(f, g) with cofactors F' and G'.  They are
    coprime, so A·F' + B·G' = R for some polynomials A, B and a fixed
    nonzero R free of the evaluated variable.  Hence for all but finitely
    many xi (the roots of F' or G' modulo an irreducible factor of R, and
    the roots that make an image zero) the gcd of the images is G(xi)
    times an integer c dividing the content of R.  Each step multiplies
    xi by at least 2.7, from at least 31, so xi soon also divides no
    coefficient and exceeds 2·|c|·‖G‖∞; then gamma's digits are c·G, and
    the candidate, their primitive part, is G and divides both inputs.
    The recursion answers too, by induction on the number of variables.
    """
    nvars = f.nvars
    fmin, gmin = f.min_exponents(), g.min_exponents()
    mono = tuple(map(min, fmin, gmin))
    fc, gc = f.content(), g.content()
    content = int_gcd(fc, gc)
    f, g = _strip(f, fmin, fc), _strip(g, gmin, gc)
    if f.is_constant() or g.is_constant():
        return Poly.monomial(nvars, mono, content)
    slot = next(i for i in range(nvars) if f.degree(i) > 0 or g.degree(i) > 0)
    fnorm = max(map(abs, f.terms.values()))
    gnorm = max(map(abs, g.terms.values()))
    bound = 2 * min(fnorm, gnorm) + 29
    xi = max(
        min(bound, 99 * isqrt(bound)),
        2 * min(fnorm // abs(f.lex_lead()[1]), gnorm // abs(g.lex_lead()[1])) + 4,
    )
    while True:
        if not (
            any(c % xi == 0 for c in f.terms.values())
            and any(c % xi == 0 for c in g.terms.values())
        ):
            ff, gg = _evaluate_at(f, slot, xi), _evaluate_at(g, slot, xi)
            if not (ff.is_zero() or gg.is_zero()):
                h = _heu_candidate(f, g, _heu_gcd(ff, gg), slot, xi)
                if h is not None:
                    return Poly(nvars, {e: c * content for e, c in h.terms.items()}).shift(mono)
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """GCD in the Laurent ring, returned with nonnegative exponents.

    Monomial factors are units, so they are stripped from the inputs and
    never appear in the result; the result has a positive lex-leading
    coefficient and carries the gcd of the integer contents.  The gcd of
    zero and q is q so normalized; otherwise GCDHEU (``_heu_gcd``), which
    always answers, is the only algorithm.
    """
    a = p if p.is_zero() else p.shift(tuple(-m for m in p.min_exponents()))
    b = q if q.is_zero() else q.shift(tuple(-m for m in q.min_exponents()))
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        return -g if g.terms and g.lex_lead()[1] < 0 else g
    return _heu_gcd(a, b)
