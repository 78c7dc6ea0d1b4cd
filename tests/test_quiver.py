import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverseq.quiver import (
    Quiver,
    QuiverFormatError,
    VertexIndexError,
    WeightedQuiver,
    load_quiver,
)

from golden import neg_p31, somos4_family, somos4_quiver_a, weight_mutation_oracle


@st.composite
def small_quivers(draw, max_n=6, max_mult=3):
    n = draw(st.integers(min_value=2, max_value=max_n))
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = draw(st.integers(min_value=-max_mult, max_value=max_mult))
            b[i][j] = c
            b[j][i] = -c
    return Quiver(b)


class TestConstruction:
    def test_rejects_non_skew(self):
        with pytest.raises(QuiverFormatError) as err:
            Quiver([[0, 1], [1, 0]])
        assert "(1,2)" in str(err.value)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(QuiverFormatError):
            Quiver([[1, 0], [0, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(QuiverFormatError):
            Quiver([[0, 1], [-1]])

    def test_rejects_non_integer(self):
        with pytest.raises(QuiverFormatError):
            Quiver([[0, 1.5], [-1.5, 0]])

    def test_entry_is_one_indexed(self):
        # the arrows of vertex i are row b[i - 1]; there is no vertex 0
        q = neg_p31()
        assert q.b[0][1] == 1
        assert q.b[1][0] == -1
        with pytest.raises(VertexIndexError):
            q.mutate(0)


class TestMutate:
    def test_neg_p31_mutation_at_1(self):
        # arrows 1->2, 1->3, 2->3 become 2->1, 3->1, 2->3
        q = neg_p31().mutate(1)
        assert q == Quiver([[0, -1, -1], [1, 0, 1], [1, -1, 0]])

    def test_somos4_involution(self):
        q = somos4_quiver_a()
        assert q.mutate(1).mutate(1) == q

    def test_family_quiver_mutation_rotates(self):
        # one mutation of the (p, q) family quiver, worked out by hand
        p, q_count = 1, 2
        q = somos4_family(p, q_count)
        expected = Quiver(
            [
                [0, -p, q_count, -p],
                [p, 0, p, -q_count],
                [-q_count, -p, 0, p * (q_count + 1)],
                [p, q_count, -p * (q_count + 1), 0],
            ]
        )
        assert q.mutate(1) == expected
        assert q.mutate(1).rotate() == q

    def test_out_of_range(self):
        with pytest.raises(VertexIndexError):
            neg_p31().mutate(4)

    @given(small_quivers(), st.data())
    def test_involution_property(self, q, data):
        k = data.draw(st.integers(min_value=1, max_value=q.n))
        assert q.mutate(k).mutate(k) == q

    @given(small_quivers(), st.data())
    def test_skew_preserved(self, q, data):
        k = data.draw(st.integers(min_value=1, max_value=q.n))
        m = q.mutate(k)
        for i in range(m.n):
            for j in range(m.n):
                assert m.b[i][j] == -m.b[j][i]


class TestRotate:
    def test_full_cycle_is_identity(self):
        q = somos4_quiver_a()
        rotated = q
        for _ in range(q.n):
            rotated = rotated.rotate()
        assert rotated == q

    def test_rotate_undoes_mutation_on_period_one(self):
        q = neg_p31()
        assert q.mutate(1).rotate() == q

    def test_two_vertex_rotation_swaps(self):
        q = Quiver([[0, 2], [-2, 0]])
        assert q.rotate() == Quiver([[0, -2], [2, 0]])

    @given(small_quivers())
    def test_rotation_order(self, q):
        rotated = q
        for _ in range(q.n):
            rotated = rotated.rotate()
        assert rotated == q


class TestPeriodOne:
    def test_examples(self):
        assert neg_p31().is_period_one()
        assert somos4_quiver_a().is_period_one()

    def test_single_arrow_padded_is_not(self):
        q = Quiver([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert not q.is_period_one()


class TestWeights:
    def test_neg_p31_weight_mutation(self):
        wq = WeightedQuiver(neg_p31(), (1, 0, -1))
        assert wq.mutate(1).weights == (-1, 1, 0)

    def test_zero_weight_is_inert(self):
        wq = WeightedQuiver(somos4_quiver_a(), (5, -3, 0, 2))
        mutated = wq.mutate(3)  # w_3 = 0
        assert mutated.weights[0] == 5
        assert mutated.weights[1] == -3
        assert mutated.weights[2] == 0
        assert mutated.weights[3] == 2

    def test_somos4_weights_cycle(self):
        wq = WeightedQuiver(somos4_quiver_a(), (1, 0, 0, -1))
        assert wq.mutate(1).rotate().weights == (1, 0, 0, -1)

    def test_not_an_involution(self):
        wq = WeightedQuiver(neg_p31(), (1, 0, -1))
        assert wq.mutate(1).mutate(1).weights != wq.weights

    def test_weight_count_checked(self):
        with pytest.raises(QuiverFormatError):
            WeightedQuiver(neg_p31(), (1, 0))

    @given(small_quivers(), st.data())
    def test_against_straight_line_oracle(self, q, data):
        weights = tuple(
            data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(q.n)
        )
        k = data.draw(st.integers(min_value=1, max_value=q.n))
        wq = WeightedQuiver(q, weights)
        assert wq.mutate(k).weights == weight_mutation_oracle(q.b, weights, k)


class TestJson:
    def test_round_trip(self):
        q = somos4_quiver_a()
        assert load_quiver(json.dumps(q.to_dict())) == q

    def test_weighted_round_trip(self):
        wq = WeightedQuiver(neg_p31(), (1, 0, -1))
        assert load_quiver(json.dumps(wq.to_dict())) == wq

    def test_load_dispatches_on_w(self):
        q = neg_p31()
        assert isinstance(load_quiver(json.dumps(q.to_dict())), Quiver)
        wq = WeightedQuiver(q, (1, 0, -1))
        assert isinstance(load_quiver(json.dumps(wq.to_dict())), WeightedQuiver)

    def test_skew_violation_names_entry(self):
        data = {"n": 2, "b": [[0, 3], [4, 0]]}
        with pytest.raises(QuiverFormatError) as err:
            Quiver.from_dict(data)
        message = str(err.value)
        assert "(1,2)" in message and "3" in message and "4" in message

    def test_n_mismatch(self):
        with pytest.raises(QuiverFormatError):
            Quiver.from_dict({"n": 3, "b": [[0, 1], [-1, 0]]})

    def test_bad_json(self):
        with pytest.raises(QuiverFormatError):
            load_quiver("{not json")

    def test_json_nested_too_deep(self):
        with pytest.raises(QuiverFormatError, match="invalid JSON"):
            load_quiver("[" * 100_000)

    def test_row_that_is_not_a_list_names_the_row(self):
        with pytest.raises(QuiverFormatError, match="row 1 = 1 "):
            load_quiver('{"b": [1, 2]}')
        with pytest.raises(QuiverFormatError, match="row 2 = None "):
            Quiver.from_dict({"b": [[0], None]})

    def test_extra_keys_ignored(self):
        q = neg_p31()
        data = q.to_dict()
        data["unchanged_by_rotation"] = False
        assert Quiver.from_dict(json.loads(json.dumps(data))) == q
