import io
import json
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quiverseq.poly as poly_module
from quiverseq import kronecker
from quiverseq.cli import main
from quiverseq.dualnum import DigitLimitError
from quiverseq.laurent import _slope_sexpr, var_names
from quiverseq.poly import Poly, poly_gcd

from golden import _joined, poly_format, poly_sexpr, prs_gcd, tuple_exact_div, tuple_mul


def P(nvars=2, **terms):
    """Shorthand: P(x=..., terms_by_exponent_tuple)."""
    return Poly(nvars, terms)


def make(nvars, pairs):
    return Poly(nvars, {tuple(e): c for e, c in pairs})


x = Poly.variable(2, 0)
y = Poly.variable(2, 1)
one = Poly.one(2)


@st.composite
def small_polys(draw, nvars=2):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=-2, max_value=3)) for _ in range(nvars)
        )
        terms[exps] = draw(st.integers(min_value=-6, max_value=6))
    return Poly(nvars, terms)


@st.composite
def gcd_triples(draw):
    """Two cofactors and a common factor in 1 to 3 variables, small or huge coefficients."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.one_of(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-(10**12), max_value=10**12),
    )

    def poly(min_terms):
        terms = {}
        for _ in range(draw(st.integers(min_value=min_terms, max_value=4))):
            exps = tuple(draw(st.integers(min_value=-1, max_value=3)) for _ in range(nvars))
            terms[exps] = draw(coeffs)
        return Poly(nvars, terms)

    return poly(0), poly(0), poly(1)


@st.composite
def packed_pairs(draw):
    """Three polynomials in 1 to 8 variables, exponents from one window that
    may lie below zero and spans up to 40 wide; any may be zero.  Few
    variables, narrow windows and small coefficients make unit leads and
    cancelling products common."""
    nvars = draw(st.one_of(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=8)))
    low = draw(st.integers(min_value=-20, max_value=5))
    span = draw(st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=40)))
    exps = st.tuples(*[st.integers(min_value=low, max_value=low + span)] * nvars)
    coeffs = st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-(10**6), max_value=10**6),
    )

    def poly():
        return Poly(nvars, draw(st.dictionaries(exps, coeffs, max_size=6)))

    return poly(), poly(), poly()


def unit_free(p):
    """p with its monomial factor (a unit in the Laurent ring) removed."""
    return p if p.is_zero() else p.shift(tuple(-m for m in p.min_exponents()))


class TestArithmetic:
    def test_add_cancels(self):
        assert (x + y) - (x + y) == Poly.zero(2)

    def test_mul(self):
        assert (x + y) * (x - y) == x * x - y * y

    def test_int_coercion(self):
        assert x + 1 == x + one
        assert 2 * x == x + x

    def test_pow(self):
        assert (x + 1) ** 3 == x * x * x + 3 * x * x + 3 * x + 1
        assert (x + y) ** 0 == one

    def test_laurent_exponents(self):
        inv = Poly.monomial(2, (-1, 0))
        assert inv * x == one

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestExactDiv:
    def test_simple(self):
        assert (x * x - 1).exact_div(x - 1) == x + 1

    def test_not_divisible(self):
        assert (x * x + 1).exact_div(x - 1) is None

    def test_coefficient_divisibility(self):
        assert (2 * x + 2).exact_div(Poly.const(2, 2)) == x + 1
        assert (2 * x + 1).exact_div(Poly.const(2, 2)) is None

    def test_laurent_divisor(self):
        p = x * y + one
        d = Poly.monomial(2, (-1, 0))  # 1/x
        q = p.exact_div(d)
        assert q == p * x

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            one.exact_div(Poly.zero(2))

    @given(small_polys(), small_polys())
    @settings(max_examples=60)
    def test_product_division_round_trip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a


class TestPackedKernels:
    """The packed-exponent product and division against the tuple-keyed oracles."""

    @given(packed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_oracle(self, polys):
        a, b, _ = polys
        assert a * b == tuple_mul(a, b)

    @given(packed_pairs(), st.sampled_from(["exact", "perturbed", "leftover", "unrelated"]))
    @settings(max_examples=200, deadline=None)
    def test_quotient_matches_oracle(self, polys, mode):
        q, d, r = polys
        if d.is_zero():
            return
        num = q * d
        if mode == "perturbed":
            num = num + r
        elif mode == "leftover" and num.term_count > 1:
            # Division runs to the last term and leaves a remainder of 1 there.
            num = num + Poly.monomial(num.nvars, min(num.terms))
        elif mode == "unrelated":
            num = r
        expected = tuple_exact_div(num, d)
        assert num.exact_div(d) == expected
        if mode == "exact":
            assert expected == q

    @pytest.mark.parametrize(
        "num, den",
        [
            (x + y * y, x + y),  # a remainder term below the divisor's lead: negative exponent
            (x * y * y + 1, x + y),  # quotient y^2 exceeds deg_y(num) - deg_y(den) = 1
            (2 * x + 1, Poly.const(2, 2)),  # coefficient 1 not divisible by 2
            (x * x + 1, x - 1),  # quotient x + 1 leaves the remainder 2
            (x, x * x + 1),  # deg_x(num) < deg_x(den): no quotient exponent fits
        ],
    )
    def test_inexact_cases_match_oracle(self, num, den):
        assert tuple_exact_div(num, den) is None
        assert num.exact_div(den) is None


@st.composite
def hull_pairs(draw):
    """Two polynomials in 2 to 5 variables whose supports lie in translates
    of one rank-r lattice, 1 <= r < n.  The lattice rows are in reduced
    echelon form with unit pivots, so the kernel's lift is integral unless
    the points span a sublattice.  Exponents may be negative.  Each
    operand draws its coefficients from ±1 (products cancel), up to 3, up
    to 2^20 or up to 2^70 (past every slot)."""
    nvars = draw(st.integers(min_value=2, max_value=5))
    rank = draw(st.integers(min_value=1, max_value=nvars - 1))
    pivots = sorted(draw(st.lists(st.integers(0, nvars - 1), min_size=rank, max_size=rank, unique=True)))
    rows = []
    for p in pivots:
        free = [j for j in range(p + 1, nvars) if j not in pivots]
        entries = draw(st.lists(st.integers(-2, 2), min_size=len(free), max_size=len(free)))
        row = [0] * nvars
        row[p] = 1
        for j, v in zip(free, entries):
            row[j] = v
        rows.append(row)
    span = draw(st.integers(min_value=1, max_value=3))
    coeffs = st.sampled_from([
        st.sampled_from([-1, 1]),
        st.integers(-3, 3),
        st.integers(-(2**20), 2**20),
        st.integers(-(2**70), 2**70),
    ])

    def poly():
        origin = draw(st.tuples(*[st.integers(-6, 3)] * nvars))
        scale = draw(coeffs)
        points = draw(st.lists(st.tuples(*[st.integers(0, span)] * rank), min_size=2, max_size=14))
        terms = {}
        for lam in points:
            e = list(origin)
            for k, row in zip(lam, rows):
                e = [s + k * t for s, t in zip(e, row)]
            terms[tuple(e)] = draw(scale)
        return Poly(nvars, terms)

    return poly(), poly()


def sparse_product(a, b):
    """a·b by the sparse packed kernel alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "KRONECKER_MIN_PAIRS", math.inf)
        return a * b


def kron(a, b):
    """The Kronecker kernel's terms of a·b, or None where it declines."""
    return kronecker.kron_mul(a.nvars, a.terms, b.terms, poly_module._bounds(a.terms), poly_module._bounds(b.terms))


def product_with_the_kernel_on(a, b):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_module, "KRONECKER_MIN_PAIRS", 0)
        return a * b


def s4_poly(pairs):
    """A polynomial in 4 variables whose support lies in the plane through
    (-2, 1, 3, -1) spanned by the Somos-4 quiver's rows (1,0,-3,2) and
    (0,1,-2,1): one term per (i, j, c)."""
    return make(4, [((-2 + i, 1 + j, 3 - 3 * i - 2 * j, -1 + 2 * i + j), c) for i, j, c in pairs])


class TestKroneckerKernel:
    """Kronecker products on the operands' exponent hull, checked against
    the tuple-keyed oracle with the term-pair threshold lowered to 0."""

    @given(hull_pairs())
    @settings(max_examples=150, deadline=None)
    def test_product_matches_oracle(self, pair):
        a, b = pair
        for p, q in ((a, b), (b, a), (a, a), (a, -a)):
            expected = tuple_mul(p, q)
            if p.term_count > 1 and q.term_count > 1:
                terms = kron(p, q)
                assert terms is None or Poly(p.nvars, terms) == expected
            assert product_with_the_kernel_on(p, q) == expected

    @pytest.mark.parametrize(
        "a, b",
        [
            # rank 1 in two variables, negative exponents, 16-bit slots
            (make(2, [((0, 0), 1), ((1, -1), -2), ((2, -2), 3)]), make(2, [((-3, 0), 1), ((-2, -1), 1)])),
            # rank 2 in four variables, mixed signs that cancel: (p + q)(p − q)
            (s4_poly([(0, 0, 1), (1, 0, 1), (0, 1, -1)]), s4_poly([(0, 0, 1), (1, 0, 1), (0, 1, 1)])),
            # a square, packed once, with 32-bit slots
            (s4_poly([(i, j, 3**i - 2**j * 997) for i in range(4) for j in range(3)]),) * 2,
            # 64-bit slots
            (s4_poly([(0, 0, 2**40), (2, 1, -(2**39))]), s4_poly([(1, 1, 2**20), (0, 3, 5)])),
            # rank 3 in four variables: the lattice of (1,0,0,1), (0,1,0,-1), (0,0,1,2)
            (make(4, [((i, j, k, i - j + 2 * k), i + 2 * j - k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]),
             make(4, [((i, j - 1, k, i - j + 1 + 2 * k), 1 - 2 * k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])),
        ],
    )
    def test_the_kernel_answers_on_low_rank_hulls(self, a, b):
        terms = kron(a, b)
        assert terms is not None
        assert Poly(a.nvars, terms) == tuple_mul(a, b) == a * b

    @pytest.mark.parametrize(
        "a, b",
        [
            # the hull has full rank
            (x + y + 1, x * y + x + 1),
            # along (2, 1) the pivot entry is 2: the lift is not integral
            (make(2, [((0, 0), 1), ((2, 1), 1), ((4, 2), 1)]), make(2, [((0, 0), 1), ((2, 1), -1)])),
            # the coefficient bound 2·2^40·2^40 is past the widest slot
            (make(2, [((0, 0), 2**40), ((1, 1), 1)]), make(2, [((0, 0), 2**40), ((1, 1), 3)])),
            # a box of 2001 slots for 4 operand terms
            (make(2, [((0, 0), 1), ((1000, 1000), 1)]), make(2, [((0, 0), 1), ((1000, 1000), -2)])),
        ],
    )
    def test_fallbacks_give_the_sparse_kernels_poly(self, a, b):
        assert kron(a, b) is None
        got, sparse = product_with_the_kernel_on(a, b), sparse_product(a, b)
        assert list(got.terms.items()) == list(sparse.terms.items())
        assert got == tuple_mul(a, b)

    def test_the_laurent_somos4_request_takes_the_kernel(self, tmp_path, monkeypatch):
        # The laurent-somos4 benchmark request.  Its exchanges from step 6 on
        # run whole on the hull, and none of its products reaches the sparse
        # kernel's 500 term pairs.  A threshold or hull change that sent its
        # work back to the sparse kernel fails here.
        answered = []
        for name in ("kron_mul", "kron_exchange"):

            def counting(*args, kernel=getattr(kronecker, name), name=name):
                terms = kernel(*args)
                answered.append((name, terms is not None))
                return terms

            monkeypatch.setattr(kronecker, name, counting)
        path = tmp_path / "somos4.json"
        path.write_text(json.dumps({"b": [[0, 1, -2, 1], [-1, 0, 3, -2], [2, -3, 0, 1], [-1, 2, -1, 0]]}))
        argv = ["laurent", "--quiver", str(path), "--weights=1,0,0,-1", "--steps", "11", "--format", "json"]
        assert main(argv, out=io.StringIO()) == 0
        assert answered == [("kron_exchange", True)] * 6


@st.composite
def one_term_cases(draw):
    """(p, m, k): p from packed_pairs, m a monomial with coefficient ±1 or
    ±k and exponents that may be negative, or the zero polynomial, and k
    a nonzero int to multiply by directly."""
    p, _, _ = draw(packed_pairs())
    nvars = p.nvars
    k = draw(st.one_of(st.sampled_from([1, -1]), st.integers(min_value=2, max_value=10**6)))
    k *= draw(st.sampled_from([1, -1]))
    exps = draw(st.tuples(*[st.integers(min_value=-25, max_value=25)] * nvars))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        m = Poly.zero(nvars)
    elif draw(st.booleans()):
        m = Poly.const(nvars, k)
    else:
        m = Poly.monomial(nvars, exps, k)
    return p, m, k


def assert_invariant(p):
    """The terms every kernel hands to Poly._wrap: nvars-tuples, no zero coefficient."""
    assert all(type(e) is tuple and len(e) == p.nvars for e in p.terms)
    assert all(type(c) is int and c for c in p.terms.values())


class TestOneTermKernels:
    """Products with a one-term operand and quotients by a one-term divisor
    skip packing; the tuple-keyed oracles check them."""

    @given(one_term_cases())
    @settings(max_examples=100, deadline=None)
    def test_product_matches_oracle(self, case):
        p, m, k = case
        assert p * m == tuple_mul(p, m)
        assert m * p == tuple_mul(m, p)
        assert m * m == tuple_mul(m, m)
        c = Poly.const(p.nvars, k)
        assert k * p == p * k == tuple_mul(p, c)

    @given(one_term_cases())
    @settings(max_examples=100, deadline=None)
    def test_quotient_matches_oracle(self, case):
        p, m, k = case
        if m.is_zero():
            with pytest.raises(ZeroDivisionError):
                p.exact_div(m)
            return
        assert p.exact_div(m) == tuple_exact_div(p, m)
        assert (p * m).exact_div(m) == p
        assert m.exact_div(m) == Poly.one(p.nvars)
        c = Poly.const(p.nvars, k)
        assert (p * k).exact_div(c) == p

    @given(small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_a_unit_factor_returns_the_other_operand(self, p, m):
        # No Poly's terms change after it is built, so the operand is shared.
        assume(not p.is_zero())
        unit = Poly.one(2)
        assert p * unit is p
        if not p.is_one():
            # when p is a second unit, either operand is "the other one"
            assert unit * p is p
        assert 1 * p is p and p * 1 is p
        assert unit * unit is unit
        if not (p.is_one() or m.is_one()):
            product = p * m
            assert product is not p and product is not m

    def test_inexact_coefficient_stops_the_quotient(self):
        m = Poly.monomial(2, (-1, 2), -3)
        assert (3 * x + 2 * y).exact_div(m) is None
        assert (3 * x - 6 * y).exact_div(m) == Poly(2, {(2, -2): -1, (1, -1): 2})


class TestKernelInvariant:
    @given(packed_pairs(), one_term_cases())
    @settings(max_examples=60, deadline=None)
    def test_results_have_tuple_keys_and_no_zero_coefficients(self, polys, case):
        a, b, c = polys
        p, m, k = case
        results = [a * b, a + b, a - b, -a, b * k, p * m, m * p, a * c * b]
        if not b.is_zero():
            results += [(a * b).exact_div(b), (a * b + c).exact_div(b) or Poly.zero(a.nvars)]
        if not m.is_zero():
            results += [(p * m).exact_div(m), p.exact_div(m) or Poly.zero(p.nvars)]
        results += [a.shift(tuple(range(a.nvars))), a.shift(tuple(-e for e in a.min_exponents()))]
        results += [a.derivative(i) for i in range(a.nvars)]
        for r in results:
            assert_invariant(r)


class TestGcd:
    def test_shared_factor(self):
        g = poly_gcd((x + 1) * (x + 2), (x + 1) * (x - 5))
        assert g == x + 1

    def test_coprime(self):
        assert poly_gcd(x + 1, x + 2).is_one()

    def test_integer_content(self):
        assert poly_gcd(2 * x + 2, Poly.const(2, 4)) == Poly.const(2, 2)

    def test_monomials_are_units(self):
        g = poly_gcd(Poly.monomial(2, (3, 0)), Poly.monomial(2, (5, 0)))
        assert g.is_one()

    def test_multivariate(self):
        common = x * y + 1
        g = poly_gcd(common * (x + y), common * (x - y + 3))
        assert g == common

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_products(self, a, b, g):
        if g.is_zero() or (a.is_zero() and b.is_zero()):
            return
        result = poly_gcd(a * g, b * g)
        # the common factor g (up to units) must divide the gcd
        assert result.exact_div(unit_free(g)) is not None

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=80, deadline=None)
    def test_equals_prs_reference(self, a, b, g):
        a, b = a * g, b * g
        assert poly_gcd(a, b) == prs_gcd(unit_free(a), unit_free(b))

    @given(triple=gcd_triples())
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, triple):
        a, b, g = triple
        a, b = unit_free(a * g), unit_free(b * g)
        gens = sympy.symbols(f"v0:{a.nvars}")
        expected = sympy.Poly.from_dict(a.terms, *gens, domain="ZZ").gcd(
            sympy.Poly.from_dict(b.terms, *gens, domain="ZZ")
        )
        want = {tuple(e): int(c) for e, c in expected.terms() if c}
        if want and want[max(want)] < 0:  # shared normalisation: positive lex lead
            want = {e: -c for e, c in want.items()}
        assert poly_gcd(a, b).terms == want

    def test_large_gcd_small_cofactors(self):
        # The gcd's coefficient 10^7 does not fit a digit at the first
        # point, so the digits there are refused and xi grows until it
        # exceeds twice 10^7; the primitive part of gamma's digits then has
        # a negative lex-leading coefficient and is signed positive.
        common = 10**7 * x - y
        assert poly_gcd(common * (x + 1), common * (x + 2)) == common

    @given(triple=gcd_triples(), k=st.integers(min_value=-2, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_unit_invariant(self, triple, k):
        # Neither the order of the inputs nor a unit factor changes the gcd.
        a, b, g = triple
        a, b = a * g, b * g
        unit = Poly.monomial(a.nvars, (k,) + (0,) * (a.nvars - 1), -1)
        assert poly_gcd(a, b) == poly_gcd(b, a) == poly_gcd(unit * a, b)

    @pytest.mark.parametrize("swap", [False, True])
    def test_cofactor_candidate_must_divide_the_other_input(self, swap):
        # At x = 35 the images are -3675·y - 1 and 2·y + 3, whose values at
        # y = 35 share the factor 73.  The digits of gamma = 73 at y = 35 are
        # 2·y + 3, a candidate that divides one image but not the other; it
        # must be refused and the next point tried.
        f, g = -y * y - 3 * x * x * y**3, 2 * y * y + 3 * y
        assert poly_gcd(*((g, f) if swap else (f, g))) == one

    @pytest.mark.parametrize(
        "p, q, want",
        [
            (Poly.zero(2), make(2, [((-1, 0), 4), ((0, 0), -2)]), 2 * x - 4),
            (make(2, [((-1, 0), 4), ((0, 0), -2)]), Poly.zero(2), 2 * x - 4),
            (Poly.zero(2), Poly.zero(2), Poly.zero(2)),
            (Poly.zero(2), Poly.monomial(2, (2, -3), -5), Poly.const(2, 5)),
        ],
    )
    def test_zero_input(self, p, q, want):
        assert poly_gcd(p, q) == want

    def test_answers_past_the_old_cap(self, monkeypatch):
        # Refuse every candidate at the first six top-level points, the
        # number tried before GCDHEU gave up; it must go on to a seventh.
        top_points = []
        candidate = poly_module._heu_candidate

        def refuse_first_six(f, g, gamma, slot, xi):
            if slot == 0:
                top_points.append(xi)
                if len(top_points) <= 6:
                    return None
            return candidate(f, g, gamma, slot, xi)

        monkeypatch.setattr(poly_module, "_heu_candidate", refuse_first_six)
        common = x * y + 1
        f, g = 4 * x * common * (x + y), 6 * common * (x - y + 3)
        assert poly_gcd(f, g) == prs_gcd(unit_free(f), unit_free(g)) == 2 * common
        assert len(top_points) == 7
        assert top_points == sorted(set(top_points))

    def test_skips_a_point_that_divides_coefficients(self, monkeypatch):
        # Both norms and leading coefficients are m, so the first point is
        # 99 * isqrt(2m + 29) = 139986, which divides 7*139986 and 5*139986.
        # Evaluating there could not rule out a spurious factor in y.
        m, first = 1000003, 139986
        f = m * x * y + 7 * first
        g = m * x + 5 * first * y
        points = []
        evaluate = poly_module._evaluate_at

        def spy(p, slot, xi):
            points.append(xi)
            return evaluate(p, slot, xi)

        monkeypatch.setattr(poly_module, "_evaluate_at", spy)
        assert poly_gcd(f, g) == prs_gcd(f, g) == one
        assert points[0] > first


class TestGcdFastPaths:
    def test_constant_candidate_is_one_at_once(self, monkeypatch):
        # x + 1 and x + 2 at x = 10 give 11 and 12, whose gcd 1 lifts to a
        # constant; 1 divides both inputs, so no division is tried.
        f, g = x + 1, x + 2
        ff, gg = poly_module._evaluate_at(f, 0, 10), poly_module._evaluate_at(g, 0, 10)
        gamma = poly_gcd(ff, gg)
        assert gamma == one

        def refuse(p, q):
            raise AssertionError("exact_div called")

        monkeypatch.setattr(Poly, "exact_div", refuse)
        assert poly_module._heu_candidate(f, g, gamma, 0, 10) == one
        assert poly_module._heu_candidate(f, g, Poly.const(2, -3), 0, 10) == one

    def test_strip_returns_its_input_when_nothing_to_strip(self):
        p = 2 * x * x + 3 * y
        assert poly_module._strip(p, (0, 0), 1) is p

    @given(small_polys())
    def test_strip_divides_out_monomial_and_content(self, p):
        if p.is_zero():
            return
        mins, content = p.min_exponents(), -p.content()
        stripped = poly_module._strip(p, mins, content)
        assert stripped == p.shift(tuple(-m for m in mins)).exact_div(Poly.const(2, content))
        assert all(isinstance(e, tuple) and c for e, c in stripped.terms.items())


class TestDerivative:
    def test_negative_exponents(self):
        # 3·x^-2·y + 5·y + x^3
        p = make(2, [((-2, 1), 3), ((0, 1), 5), ((3, 0), 1)])
        assert p.derivative(0) == make(2, [((-3, 1), -6), ((2, 0), 3)])
        assert p.derivative(1) == make(2, [((-2, 0), 3), ((0, 0), 5)])

    def test_constant_and_zero(self):
        assert Poly.const(2, 7).derivative(0) == Poly.zero(2)
        assert Poly.zero(2).derivative(1) == Poly.zero(2)

    @given(small_polys(), small_polys(), st.sampled_from([0, 1]))
    @settings(max_examples=50, deadline=None)
    def test_leibniz_rule(self, p, q, slot):
        assert (p * q).derivative(slot) == p.derivative(slot) * q + p * q.derivative(slot)


class TestEvaluate:
    def test_point(self):
        p = 3 * x * x * y - 2
        assert p.evaluate([Fraction(2), Fraction(1, 3)]) == Fraction(2)

    def test_negative_exponents(self):
        p = Poly.monomial(2, (-2, 1), 5)
        assert p.evaluate([Fraction(1, 2), Fraction(3)]) == 60

    def test_pole(self):
        p = Poly.monomial(2, (-1, 0))
        with pytest.raises(ZeroDivisionError):
            p.evaluate([Fraction(0), Fraction(1)])


@st.composite
def printable_polys(draw, nvars=None):
    """Zero, a constant, one term or up to 8 terms in 1 to 6 variables, with
    exponents in -3..3 and coefficients that are ±1, small or past 10^30."""
    nvars = nvars or draw(st.integers(min_value=1, max_value=6))
    exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * nvars)
    huge = st.integers(min_value=10**30 + 1, max_value=10**45)
    coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(min_value=-9, max_value=9), huge, huge.map(lambda c: -c))
    shape = draw(st.sampled_from(["zero", "constant", "single", "many"]))
    if shape == "zero":
        return Poly.zero(nvars)
    if shape == "constant":
        return Poly.const(nvars, draw(coeffs))
    count = 1 if shape == "single" else draw(st.integers(min_value=2, max_value=8))
    return Poly(nvars, {draw(exps): draw(coeffs) for _ in range(count)})


class TestFormat:
    @given(printable_polys())
    @settings(max_examples=300, deadline=None)
    def test_printers_match_the_reference(self, p):
        names = [f"x{i + 1}" for i in range(p.nvars)]
        assert p.format(names) == poly_format(p, names)
        assert p.sexpr(names) == poly_sexpr(p, names)

    @given(st.integers(min_value=1, max_value=3).flatmap(lambda n: st.tuples(*[printable_polys(n)] * (n + 1))))
    @settings(max_examples=100, deadline=None)
    def test_slope_join_matches_the_reference(self, slope):
        # s_0 + Σ y_i·s_i over x_1..x_n, y_1..y_n, as _slope_sexpr prints it
        names = var_names(slope[0].nvars)
        assert _slope_sexpr(slope) == poly_sexpr(_joined(slope), names)
        assert _joined(slope).format(names) == poly_format(_joined(slope), names)

    def test_plain(self):
        names = ["x1", "x2"]
        assert (x * x - y + 3).format(names) == "x1^2 - x2 + 3"
        assert Poly.zero(2).format(names) == "0"

    def test_laurent_format(self):
        names = ["x1", "x2"]
        assert Poly.monomial(2, (-1, 2), -4).format(names) == "-4*x1^-1*x2^2"

    def test_sexpr_deterministic(self):
        names = ["x1", "x2"]
        p = x * y - 2
        assert p.sexpr(names) == "(+ (* 1 x1 x2) -2)"

    @pytest.mark.parametrize("method", ["format", "sexpr"])
    def test_a_coefficient_past_the_digit_limit_is_a_digit_limit_error(self, method):
        p = Poly(2, {(1, 0): 10**4400, (0, 0): 1})
        with pytest.raises(DigitLimitError, match="more than 4300 digits"):
            getattr(p, method)(["x1", "x2"])
