import random

import pytest

from quiverseq.periodicity import (
    BadStrideError,
    CorrectionTouchesVertexOne,
    NoWeightPeriodError,
    NotPeriodOneError,
    combine,
    primitive,
    solve_weight,
    weight_exists,
    weight_period,
    weight_trace,
)
from quiverseq.quiver import Quiver, WeightedQuiver

from golden import (
    neg_p31,
    neg_p41,
    kronecker2,
    somos4_family,
    somos4_family_opposite,
    somos4_quiver_a,
    somos4_quiver_b,
    weight_system_oracle,
)


class TestPrimitive:
    def test_p31(self):
        # arrows 2->1, 3->2, 3->1
        assert primitive(3, 1) == Quiver(
            [[0, -1, -1], [1, 0, -1], [1, 1, 0]]
        )

    def test_p41(self):
        # arrows 2->1, 3->2, 4->3, 4->1
        assert primitive(4, 1) == Quiver(
            [[0, -1, 0, -1], [1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0]]
        )

    def test_p42_half_stride_single_arrows(self):
        # arrows 3->1, 4->2 only
        assert primitive(4, 2) == Quiver(
            [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )

    def test_bad_stride(self):
        with pytest.raises(BadStrideError):
            primitive(4, 3)
        with pytest.raises(BadStrideError):
            primitive(5, 0)

    def test_all_primitives_are_period_one(self):
        for n in range(2, 8):
            for t in range(1, n // 2 + 1):
                assert primitive(n, t).is_period_one(), (n, t)


class TestCombine:
    def test_neg_p31_is_opposite_primitive(self):
        assert combine(3, (-1,)) == neg_p31()
        assert combine(3, (-1,)) == Quiver([[-e for e in row] for row in primitive(3, 1).b])

    def test_neg_p41(self):
        assert combine(4, (-1, 0)) == neg_p41()

    def test_scaled_two_vertex_gives_kronecker(self):
        assert Quiver([[2 * e for e in row] for row in combine(2, (1,)).b]) == kronecker2()

    def test_correction_must_avoid_vertex_one(self):
        bad = Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(CorrectionTouchesVertexOne):
            combine(3, (-1,), bad)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError):
            combine(4, (1,))

    def test_somos4_family_instance(self):
        q = somos4_family(1, 2)
        assert q == Quiver(
            [[0, 1, -2, 1], [-1, 0, 3, -2], [2, -3, 0, 1], [-1, 2, -1, 0]]
        )
        assert q.is_period_one()


class TestWeightExists:
    def test_triangle_orientations(self):
        assert weight_exists(neg_p31()) is True
        assert weight_exists(primitive(3, 1)) is False

    def test_somos4_both_orientations(self):
        assert weight_exists(somos4_quiver_a()) is True
        assert weight_exists(somos4_quiver_b()) is True

    def test_family_condition(self):
        assert weight_exists(somos4_family(2, 2)) is False
        assert weight_exists(somos4_family(1, 3)) is True

    def test_requires_period_one(self):
        not_p1 = Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(NotPeriodOneError):
            weight_exists(not_p1)


class TestSolveWeight:
    def test_examples(self):
        assert solve_weight(neg_p31()) == (1, 0, -1)
        assert solve_weight(neg_p41()) == (1, 0, 0, -1)
        assert solve_weight(somos4_quiver_a()) == (1, 0, 0, -1)
        assert solve_weight(somos4_quiver_b()) == (1, 1, -1, -1)

    def test_no_solution(self):
        assert solve_weight(primitive(3, 1)) is None
        assert solve_weight(primitive(4, 1)) is None
        assert solve_weight(kronecker2()) is None

    def test_round_trip_fixes_weights(self):
        for q in (neg_p31(), neg_p41(), somos4_quiver_a(), somos4_quiver_b()):
            w = solve_weight(q)
            wq = WeightedQuiver(q, w)
            assert wq.mutate(1).rotate().weights == w

    def test_scaling_preserves_round_trip(self):
        q = somos4_quiver_a()
        solution = solve_weight(q)
        for m in (-3, 2, 7):
            scaled = tuple(m * w for w in solution)
            wq = WeightedQuiver(q, scaled)
            assert wq.mutate(1).rotate().weights == scaled


class TestWeightPeriod:
    def test_kronecker_all_ones_is_four(self):
        # for two vertices one cycle is exactly one mutation step
        assert weight_period(WeightedQuiver(kronecker2(), (1, 1))) == 4

    def test_p31_all_ones_is_six(self):
        wq = WeightedQuiver(primitive(3, 1), (1, 1, 1))
        assert weight_period(wq) == 6
        # sign flips halfway through
        halfway = wq
        for _ in range(3):
            halfway = halfway.mutate(1).rotate()
        assert halfway.weights == (-1, -1, -1)

    def test_solved_weights_have_period_one(self):
        wq = WeightedQuiver(neg_p31(), solve_weight(neg_p31()))
        assert weight_period(wq) == 1

    def test_non_periodic_returns_none(self):
        growing = Quiver([[0, 2], [-2, 0]])  # arrows out of vertex 1
        assert weight_period(WeightedQuiver(growing, (1, 1)), max_cycles=16) is None

    def test_requires_period_one_quiver(self):
        not_p1 = Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(NotPeriodOneError):
            weight_period(WeightedQuiver(not_p1, (1, 1, 1)))

    def test_weight_trace(self):
        assert weight_trace(WeightedQuiver(kronecker2(), (1, 1))) == (1, 1, -1, -1)
        assert weight_trace(WeightedQuiver(primitive(3, 1), (1, 1, 1))) == (
            1, 1, 1, -1, -1, -1,
        )

    def test_weight_trace_without_period(self):
        growing = WeightedQuiver(Quiver([[0, 2], [-2, 0]]), (1, 1))
        with pytest.raises(NoWeightPeriodError, match="within 16 cycles") as err:
            weight_trace(growing, max_cycles=16)
        assert isinstance(err.value, ValueError)
        with pytest.raises(NotPeriodOneError):
            weight_trace(WeightedQuiver(Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), (1, 1, 1)))


def _random_period_one_quivers(count, rng):
    """Period-1 stock: scaled primitives, same-sign combinations, and the
    four-vertex family with its correction; everything is filtered through
    the period-1 test before use."""
    quivers = []
    while len(quivers) < count:
        n = rng.randint(2, 6)
        style = rng.random()
        if style < 0.4:
            coeffs = [0] * (n // 2)
            coeffs[rng.randrange(len(coeffs))] = rng.choice([-3, -2, -1, 1, 2, 3])
            q = combine(n, coeffs)
        elif style < 0.8:
            sign = rng.choice([-1, 1])
            coeffs = [sign * rng.randint(0, 3) for _ in range(n // 2)]
            q = combine(n, coeffs)
        else:
            p, qq = rng.randint(1, 3), rng.randint(0, 3)
            q = somos4_family(p, qq) if rng.random() < 0.5 else somos4_family_opposite(p, qq)
        if q.is_period_one():
            quivers.append(q)
    return quivers


class TestOracleAgreement:
    def test_dense_solver_agrees_on_200_random_period_one_quivers(self):
        rng = random.Random(20260810)
        for q in _random_period_one_quivers(200, rng):
            oracle = weight_system_oracle(q)
            exists = weight_exists(q)
            solution = solve_weight(q)
            assert exists == (oracle is not None), q.b
            if oracle is not None:
                assert solution == oracle, q.b
                wq = WeightedQuiver(q, solution)
                assert wq.mutate(1).rotate().weights == solution
            else:
                assert solution is None
