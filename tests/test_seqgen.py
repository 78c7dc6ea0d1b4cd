import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverseq.dualnum import DualScalar
from quiverseq.periodicity import NotPeriodOneError, primitive, solve_weight
from quiverseq.quiver import Quiver, WeightedQuiver
from quiverseq.seqgen import (
    MAX_GALE_ROBINSON_ORDER,
    BadParamsError,
    Monomial,
    RecurrenceSpec,
    UnknownFamilyError,
    builtin,
    decompose_basis,
    integrality_scan,
    quiver_to_spec,
    run,
)

import golden
from golden import (
    bilinear_oracle,
    neg_p31,
    fib_lucas,
    gale_robinson_oracle,
    kronecker2,
    somos4_quiver_a,
    run_linearized,
    somos5_oracle,
)


def deformed_somos4(placement):
    return builtin("somos4").with_deform(placement, (1,))


def _assert_recurrence_residual(spec, result):
    """Every computed term must satisfy the defining relation exactly."""
    N = spec.order
    terms = result.terms
    for n in range(len(terms) - N):
        window = terms[n + 1 : n + N]

        def mono(m):
            value = DualScalar(Fraction(m.coeff), Fraction(0))
            for e, t in zip(m.exponents, window):
                for _ in range(e):
                    value = value * t
            return value

        m1 = mono(spec.monomial1)
        m2 = mono(spec.monomial2)
        w = spec.weight_at(n)
        if spec.deform == "m1":
            m1 = m1 * DualScalar(Fraction(1), Fraction(w))
        elif spec.deform == "m2":
            m2 = m2 * DualScalar(Fraction(1), Fraction(w))
        assert terms[n + N] * terms[n] == m1 + m2


class TestRun:
    def test_somos4_bodies(self):
        result = run(builtin("somos4"), count=15)
        assert [t.body for t in result.terms] == golden.SOMOS4_BODIES
        assert result.first_fraction is None

    def test_somos4_deformed_slopes(self):
        m2 = run(deformed_somos4("m2"), count=15)
        assert m2.slopes() == golden.SOMOS4_SLOPES_M2
        m1 = run(deformed_somos4("m1"), count=15)
        assert m1.slopes() == golden.SOMOS4_SLOPES_M1

    def test_cassini_lucas_run(self):
        result = run(builtin("cassini_plus"), init_b=(-1, 1), count=8)
        assert [t.body for t in result.terms] == golden.FIB_ODD_BODIES
        assert result.slopes() == golden.LUCAS_ODD_SLOPES

    def test_residual_somos4(self):
        spec = deformed_somos4("m2")
        _assert_recurrence_residual(spec, run(spec, count=20))

    def test_residual_alternating(self):
        spec = builtin("order3_alt")
        _assert_recurrence_residual(spec, run(spec, count=20))

    def test_degenerate_step_truncates(self):
        # bodies (0, 1): the first division needs a nonzero body at n=0
        spec = builtin("cassini_minus")
        result = run(spec, init_a=(0, 1), count=8)
        assert result.degenerate_steps == [0]
        assert len(result.terms) == 2

    def test_count_too_small(self):
        with pytest.raises(BadParamsError):
            run(builtin("somos4"), count=3)


class TestRunLinearized:
    def test_matches_dual_run_somos4(self):
        spec = builtin("somos4")
        base = run(spec, count=30)
        for init in ((1, 0, 0, 0), (2, -1, 5, 3)):
            direct = run(spec, init_b=init, count=30)
            linear = run_linearized(spec, base, init)
            assert linear == direct.slopes()

    def test_matches_dual_run_deformed(self):
        spec = deformed_somos4("m2")
        base = run(spec, count=25)
        direct = run(spec, init_b=(3, -2, 0, 1), count=25)
        linear = run_linearized(spec, base, (3, -2, 0, 1))
        assert linear == direct.slopes()

    def test_basis_rows_somos4(self):
        spec = builtin("somos4")
        base = run(spec, count=13)
        assert run_linearized(spec, base, (1, 0, 0, 0)) == golden.SOMOS4_BASIS[0]
        assert run_linearized(spec, base, (0, 0, 1, 0)) == golden.SOMOS4_BASIS[2]

    def test_fibonacci_coefficient_rows(self):
        spec = builtin("cassini_plus")
        base = run(spec, count=8)
        assert run_linearized(spec, base, (-1, 0)) == golden.TWO_PARAM_P_ROW
        assert run_linearized(spec, base, (0, 1)) == golden.TWO_PARAM_Q_ROW

    def test_superposition(self):
        spec = builtin("somos4")
        base = run(spec, count=60)
        rows = decompose_basis(spec, 60)
        rng = random.Random(7)
        for _ in range(5):
            beta = [rng.randint(-9, 9) for _ in range(4)]
            combined = run_linearized(spec, base, beta)
            expected = [
                sum(beta[i] * rows[i][n] for i in range(4))
                for n in range(len(combined))
            ]
            assert combined == expected


# family -> (builder, the two right-hand-side terms over the window w)
_ORACLE_FAMILIES = {
    "somos4": (lambda: builtin("somos4"), lambda w: w[0] * w[2], lambda w: w[1] ** 2),
    "somos5": (lambda: builtin("somos5"), lambda w: w[0] * w[3], lambda w: w[1] * w[2]),
    **{
        f"fordy_marsh_s4({p},{q})": (
            lambda p=p, q=q: builtin("fordy_marsh_s4", p=p, q=q),
            lambda w, p=p: w[0] ** p * w[2] ** p,
            lambda w, q=q: w[1] ** q,
        )
        for p in (1, 2)
        for q in range(4)
    },
    **{
        f"gale_robinson({N},{r},{s})": (
            lambda N=N, r=r, s=s: builtin("gale_robinson", N=N, r=r, s=s),
            lambda w, N=N, r=r: w[r - 1] * w[N - r - 1],
            lambda w, N=N, s=s: w[s - 1] * w[N - s - 1],
        )
        for N, r, s in ((4, 1, 2), (6, 1, 2), (6, 2, 3), (7, 1, 3), (8, 2, 3))
    },
}


class TestIntegerFirstRun:
    """``run`` against the linearized solver and the straight-line body recursion."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracles(self, data):
        name = data.draw(st.sampled_from(sorted(_ORACLE_FAMILIES)), label="family")
        build, term1, term2 = _ORACLE_FAMILIES[name]
        spec = build()
        N = spec.order
        if data.draw(st.booleans(), label="deformed"):
            placement = data.draw(st.sampled_from(["m1", "m2"]), label="placement")
            schedule = data.draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4), label="schedule")
            spec = spec.with_deform(placement, schedule)
        body = st.integers(-3, 3).filter(bool)
        init_a = data.draw(st.lists(body, min_size=N, max_size=N), label="init_a")
        init_b = data.draw(st.lists(st.integers(-5, 5), min_size=N, max_size=N), label="init_b")
        result = run(spec, init_a=init_a, init_b=init_b, count=N + 10)
        terms = result.terms
        assert result.slopes() == run_linearized(spec, result, init_b)
        assert [t.body for t in result.terms] == bilinear_oracle(N, term1, term2, len(terms), init_a)
        k = len(terms) if result.first_fraction is None else result.first_fraction[0]
        assert all(type(t.body) is int and type(t.slope) is int for t in terms[:k])


class _Stop(Exception):
    pass


_EACH_CASES = [
    (builtin("somos4"), None),
    (builtin("somos4"), (1, 1, 1, 0)),  # zero divisor body at step 3
    (builtin("fordy-marsh-s4", p=1, q=0).with_deform("m1", (1,)), None),  # fractional from n = 9
    (builtin("fordy-marsh-s4", p=1, q=1).with_deform("m1", (1,)), None),
    (builtin("cassini-minus"), None),
    (builtin("limping-fibonacci"), None),
    # skips the newest term, so the term after the fraction at n = 6
    # divides to an integer
    (RecurrenceSpec(3, Monomial(1, (1, 0)), Monomial(1, (0, 0))), None),
]


class TestEachCallback:
    """``each`` gets every term of the run as it is made, and what it raises ends the run."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_terms_in_order_and_stop_at_the_raise(self, data):
        spec, init_a = data.draw(st.sampled_from(_EACH_CASES), label="case")
        N = spec.order
        init_b = data.draw(st.lists(st.integers(-3, 3), min_size=N, max_size=N), label="init_b")
        count = data.draw(st.integers(N, N + 12), label="count")
        seen = []
        result = run(spec, init_a, init_b, count, each=lambda i, term: seen.append((i, term)))
        def typed(pairs):
            return [(i, t, type(t.body), type(t.slope)) for i, t in pairs]

        assert typed(seen) == typed(enumerate(result.terms))

        k = data.draw(st.integers(0, len(result.terms) - 1), label="k")
        divisions, at_call = [], []
        truediv = DualScalar.__truediv__

        def counting(self, other):
            divisions.append(1)
            return truediv(self, other)

        def each(i, term):
            at_call.append(len(divisions))
            if i == k:
                raise _Stop

        DualScalar.__truediv__ = counting
        try:
            with pytest.raises(_Stop):
                run(spec, init_a, init_b, count, each=each)
        finally:
            DualScalar.__truediv__ = truediv
        # called k + 1 times, term i >= N right after the division that
        # made it, and no division follows the raise
        assert at_call == [max(0, i - N + 1) for i in range(k + 1)]
        assert len(divisions) == at_call[-1]

        plain = spec.without_deform()
        passed = []
        rows = decompose_basis(plain, count, each=lambda r, i, v: passed.append((r, i, v)))
        assert passed == [(r, i, v) for r, row in enumerate(rows) for i, v in enumerate(row)]


class TestDecompose:
    def test_somos4_basis(self):
        spec = builtin("somos4")
        rows = decompose_basis(spec, 13)
        assert rows == [list(map(Fraction, row)) for row in golden.SOMOS4_BASIS]

    def test_columnwise_sum_is_body(self):
        spec = builtin("somos4")
        base = run(spec, count=100)
        rows = decompose_basis(spec, 100)
        for n in range(100):
            assert sum(row[n] for row in rows) == base.terms[n].body

    @pytest.mark.parametrize(
        "spec",
        [
            replace(builtin("somos4"), init_a=(1, 2, 3, 4)),
            builtin("gale_robinson", N=7, r=1, s=3),
            replace(builtin("gale_robinson", N=7, r=1, s=3), init_a=(2, 1, 3, 1, 1, 2, 1)),
        ],
        ids=["somos4-1234", "gale_robinson(7,1,3)", "gale_robinson(7,1,3)-2131121"],
    )
    def test_degree_2_rows_weighted_by_init_a_give_the_bodies(self, spec):
        # Both monomials have total degree 2, so every term is homogeneous of
        # degree 1 in the initial bodies a, and row i is its a_i-derivative.
        count = 20
        bodies = [t.body for t in run(spec, count=count).terms]
        rows = decompose_basis(spec, count)
        assert [sum(a * row[n] for a, row in zip(spec.init_a, rows)) for n in range(count)] == bodies
        if spec.init_a != (1,) * spec.order:
            assert [sum(row[n] for row in rows) for n in range(count)] != bodies

    @pytest.mark.parametrize(
        "spec, n, combined, body",
        [
            (builtin("fordy_marsh_s4", p=2, q=3), 4, 5, 2),
            (builtin("cassini_minus"), 1, 1, 3),
            (builtin("order3"), 3, 0, 2),
        ],
        ids=["fordy_marsh_s4(p=2,q=3)", "cassini_minus", "order3"],
    )
    def test_other_degrees_need_not_give_the_bodies(self, spec, n, combined, body):
        rows = decompose_basis(spec, 8)
        bodies = [t.body for t in run(spec, count=8).terms]
        assert (sum(row[n] for row in rows), bodies[n]) == (combined, body)
        assert [sum(a * row[k] for a, row in zip(spec.init_a, rows)) for k in range(8)] != bodies

    def test_initial_block_is_identity(self):
        spec = builtin("somos5")
        rows = decompose_basis(spec, 12)
        for i in range(5):
            assert rows[i][:5] == [1 if j == i else 0 for j in range(5)]

    def test_rejects_deformed(self):
        spec = deformed_somos4("m2")
        with pytest.raises(BadParamsError):
            decompose_basis(spec, 10)


class TestAffineStructure:
    def test_deformed_solutions_differ_by_linear_solution(self):
        spec = deformed_somos4("m1")
        base = run(spec, count=60)
        rng = random.Random(11)
        init = tuple(rng.randint(-5, 5) for _ in range(4))
        with_init = run(spec, init_b=init, count=60)
        zero_init = run(spec, count=60)
        delta = [a - b for a, b in zip(with_init.slopes(), zero_init.slopes())]
        undeformed = spec.without_deform()
        linear = run_linearized(undeformed, base, delta[:4])
        assert delta == linear


class TestDeformSwap:
    def test_with_deform_default_label(self):
        # A new schedule drops the label that described the family's own.
        spec = builtin("somos4").with_deform("m1", [1, -1])
        assert (spec.deform, spec.schedule, spec.schedule_label) == ("m1", (1, -1), "")
        limping = builtin("limping_fibonacci").with_deform("m1", (1,))
        assert limping.formula() == "A[n+2]*A[n] = (A[n+1]^2)*(1+w*eps) + 1   with w = 1"

    def test_without_deform_restores_the_plain_family(self):
        plain = builtin("somos4")
        assert plain.with_deform("m2", (1,)).without_deform() == plain


class TestQuiverToSpec:
    def test_somos4_quiver(self):
        q = somos4_quiver_a()
        wq = WeightedQuiver(q, solve_weight(q))
        spec = quiver_to_spec(wq)
        assert spec.order == 4
        assert spec.monomial1.exponents == (1, 0, 1)
        assert spec.monomial2.exponents == (0, 2, 0)
        assert spec.deform == "m2"
        assert spec.schedule == (1,)
        assert run(spec, count=15).slopes() == golden.SOMOS4_SLOPES_M2

    def test_family_quiver_general_q(self):
        q = golden.somos4_family(1, 3)
        wq = WeightedQuiver(q, solve_weight(q))
        spec = quiver_to_spec(wq)
        assert spec.monomial1.exponents == (1, 0, 1)
        assert spec.monomial2.exponents == (0, 3, 0)
        assert spec.deform == "m2"

    def test_neg_p31_constant_deformation(self):
        wq = WeightedQuiver(neg_p31(), (1, 0, -1))
        spec = quiver_to_spec(wq)
        # A[n+3] A[n] = A[n+1] A[n+2] + (1 + w eps)
        assert spec.monomial1.exponents == (1, 1)
        assert spec.monomial2.exponents == (0, 0)
        assert spec.deform == "m2"
        assert spec.schedule == (1,)

    def test_kronecker_alternating_schedule(self):
        wq = WeightedQuiver(kronecker2(), (1, 1))
        spec = quiver_to_spec(wq)
        assert spec.schedule == (1, 1, -1, -1)
        assert run(spec, count=8).slopes() == golden.LIMPING_SLOPES

    def test_p31_all_ones_schedule(self):
        wq = WeightedQuiver(primitive(3, 1), (1, 1, 1))
        spec = quiver_to_spec(wq)
        assert spec.schedule == (1, 1, 1, -1, -1, -1)
        assert run(spec, count=11).slopes() == golden.ORDER3_ALT_SLOPES

    def test_zero_weights_mean_no_deformation(self):
        wq = WeightedQuiver(somos4_quiver_a(), (0, 0, 0, 0))
        spec = quiver_to_spec(wq)
        assert spec.deform == "none"

    def test_requires_period_one(self):
        not_p1 = Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(NotPeriodOneError):
            quiver_to_spec(WeightedQuiver(not_p1, (1, 0, 0)))


class TestBuiltins:
    def test_somos5_against_oracle(self):
        oracle = somos5_oracle(13)
        assert [t.body for t in run(builtin("somos5"), count=13).terms] == oracle
        assert [int(v) for v in oracle] == golden.SOMOS5_BODIES

    def test_gale_robinson_against_oracle(self):
        for N, r, s in ((6, 1, 2), (7, 1, 3), (8, 2, 3)):
            spec = builtin("gale_robinson", N=N, r=r, s=s)
            mine = [t.body for t in run(spec, count=25).terms]
            assert mine == gale_robinson_oracle(N, r, s, 25)

    def test_gale_robinson_params_validated(self):
        with pytest.raises(BadParamsError):
            builtin("gale_robinson", N=6, r=2, s=2)
        with pytest.raises(BadParamsError):
            builtin("gale_robinson", N=6, r=1, s=4)

    def test_gale_robinson_order_is_refused_before_anything_is_built(self):
        assert builtin("gale_robinson", N=MAX_GALE_ROBINSON_ORDER, r=1, s=2).order == 10_000
        tracemalloc.start()
        try:
            with pytest.raises(BadParamsError, match="need N <= 10000, got N=4000000"):
                builtin("gale_robinson", N=4_000_000, r=1, s=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limping_fibonacci(self):
        result = run(builtin("limping_fibonacci"), count=8)
        assert result.slopes() == golden.LIMPING_SLOPES
        assert [t.body for t in result.terms] == golden.FIB_ODD_BODIES

    def test_limping_closed_form(self):
        F, _ = fib_lucas(90)
        result = run(builtin("limping_fibonacci"), count=41)
        for n, b in enumerate(result.slopes()):
            expected = F[2 * n] if n % 4 in (0, 3) else F[2 * n - 2]
            assert b == expected, n

    def test_order3(self):
        assert [t.body for t in run(builtin("order3"), count=14).terms] == golden.ORDER3_BODIES
        assert run(builtin("order3_alt"), count=11).slopes() == golden.ORDER3_ALT_SLOPES

    def test_order3_satisfies_short_linear_recurrence(self):
        bodies = [t.body for t in run(builtin("order3"), count=104).terms]
        for n in range(100):
            assert bodies[n + 4] == 4 * bodies[n + 2] - bodies[n]

    def test_cassini_minus_lucas(self):
        result = run(builtin("cassini_minus"), init_b=(3, 7), count=7)
        assert [t.body for t in result.terms] == golden.FIB_EVEN_BODIES
        assert result.slopes() == golden.LUCAS_EVEN_SLOPES

    def test_cassini_minus_row_zero_consistent(self):
        # the n=0 term (0, 2) satisfies the relation without determining it
        result = run(builtin("cassini_minus"), init_b=(3, 7), count=4)
        A0 = DualScalar(Fraction(0), Fraction(2))
        A1, A2 = result.terms[0], result.terms[1]
        assert A2 * A0 + DualScalar(Fraction(1), Fraction(0)) == A1 * A1

    def test_cassini_tilde_coefficient_rows(self):
        spec = builtin("cassini_minus")
        base = run(spec, count=7)
        assert run_linearized(spec, base, (3, 0)) == golden.TILDE_P_ROW
        assert run_linearized(spec, base, (0, 1)) == golden.TILDE_Q_ROW

    def test_lucas_oracle_to_50(self):
        F, L = fib_lucas(110)
        plus = run(builtin("cassini_plus"), init_b=(-1, 1), count=51)
        for n in range(1, 51):
            assert plus.terms[n].body == F[2 * n - 1]
            assert plus.slopes()[n] == L[2 * n - 1]
        minus = run(builtin("cassini_minus"), init_b=(3, 7), count=50)
        for i, n in enumerate(range(1, 51)):
            assert minus.terms[i].body == F[2 * n]
            assert minus.slopes()[i] == L[2 * n]

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            builtin("somos17")

    def test_hyphen_normalization(self):
        assert builtin("fordy-marsh-s4", p=1, q=2).order == 4

    def test_fordy_marsh_params_validated(self):
        with pytest.raises(BadParamsError):
            builtin("fordy_marsh_s4", p=0, q=1)
        with pytest.raises(BadParamsError):
            builtin("fordy_marsh_s4", p=1, q=-1)

    def test_formula_rendering(self):
        assert (
            builtin("somos4").formula()
            == "A[n+4]*A[n] = A[n+1]*A[n+3] + A[n+2]^2"
        )
        assert "1+w*eps" in builtin("limping_fibonacci").formula()
        assert " - 1" in builtin("cassini_minus").formula()


class TestScan:
    def test_first_fraction_fingerprints(self):
        cells = integrality_scan(
            "fordy_marsh_s4", {"p": [1], "q": [0, 1, 3]}, 12, deform=("m1", (1,))
        )
        for cell in cells:
            q = cell.params["q"]
            index, value = golden.FM_FIRST_FRACTIONS[q]
            assert cell.run.first_fraction == (index, value)
            assert cell.run.paper_index(index) == index  # origin 0

    def test_q0_prefixes(self):
        cells = integrality_scan(
            "fordy_marsh_s4", {"p": [1], "q": [0]}, 10, deform=("m1", (1,))
        )
        run0 = cells[0].run
        assert [t.body for t in run0.terms] == golden.FM_Q0_BODY_PREFIX
        assert run0.slopes()[:9] == golden.FM_Q0_SLOPE_PREFIX

    def test_clean_cell(self):
        cells = integrality_scan(
            "fordy_marsh_s4", {"p": [1], "q": [2]}, 25, deform=("m1", (1,))
        )
        assert cells[0].clean

    def test_row_major_order(self):
        cells = integrality_scan(
            "gale_robinson", {"N": [6, 7], "r": [1], "s": [2, 3]}, 8
        )
        assert [c.params for c in cells] == [
            {"N": 6, "r": 1, "s": 2},
            {"N": 6, "r": 1, "s": 3},
            {"N": 7, "r": 1, "s": 2},
            {"N": 7, "r": 1, "s": 3},
        ]

    def test_invalid_cell_does_not_stop_the_scan(self):
        cells = integrality_scan("gale_robinson", {"N": [6], "r": [1, 2], "s": [2]}, 8)
        assert [c.invalid for c in cells] == [None, "need 1 <= r < s <= N/2, got N=6 r=2 s=2"]
        assert cells[0].clean and cells[1].run is None and not cells[1].clean

    def test_all_cells_invalid_raises_the_first_error(self):
        with pytest.raises(BadParamsError, match="N=6 r=2 s=2"):
            integrality_scan("gale_robinson", {"N": [6], "r": [2, 3], "s": [2]}, 8)

    def test_fraction_does_not_poison_rest_of_run(self):
        cells = integrality_scan(
            "fordy_marsh_s4", {"p": [1], "q": [0]}, 14, deform=("m1", (1,))
        )
        terms = cells[0].run.terms
        assert len(terms) == 14  # kept computing after 307/3
        assert cells[0].run.first_fraction[0] == 9


class TestSpecValidation:
    def test_monomial_length_checked(self):
        with pytest.raises(BadParamsError):
            RecurrenceSpec(4, Monomial(1, (1, 0)), Monomial(1, (0, 2, 0)))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(BadParamsError):
            Monomial(0, (1, 0, 1))

    def test_negative_exponent_rejected(self):
        with pytest.raises(BadParamsError):
            Monomial(1, (-1, 0, 1))
