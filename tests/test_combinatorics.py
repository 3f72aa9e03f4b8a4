from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinvdw.combinatorics import (
    b_coefficient,
    b_table,
    binomial,
    mode_frequencies,
    schmidt_multiplicities,
)
from spinvdw.model import ModelSpec


def pascal_triangle(rows: int) -> list[list[int]]:
    """Independent oracle: the addition recurrence, no factorials involved."""
    triangle = [[1]]
    for _ in range(rows):
        prev = triangle[-1]
        triangle.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return triangle


class TestBinomial:
    def test_small_value(self):
        assert binomial(5, 2) == 10

    def test_zero_extension(self):
        assert binomial(4, -1) == 0
        assert binomial(3, 5) == 0
        assert binomial(0, 0) == 1

    def test_against_pascal_oracle(self):
        triangle = pascal_triangle(30)
        assert triangle[30][15] == 155117520
        assert binomial(30, 15) == 155117520
        for x in range(31):
            for y in range(x + 1):
                assert binomial(x, y) == triangle[x][y]

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=-3, max_value=63))
    def test_pascal_recurrence_with_zero_extension(self, x, y):
        assert binomial(x, y) == binomial(x - 1, y - 1) + binomial(x - 1, y)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestBCoefficient:
    def test_hand_evaluated_n4_m1(self):
        # m=0, n=0: single k=0 term C(4,1)^-1 * (C(5,0) - 0) = 1/4
        spec = ModelSpec(4, 1)
        assert b_coefficient(spec, 0, 0) == Fraction(1, 4)
        # m=1, n=1: k=0 gives 3/4, k=1 gives -1
        assert b_coefficient(spec, 1, 1) == Fraction(-1, 4)

    def test_vacuum_is_pure_phase(self):
        assert b_coefficient(ModelSpec(2, 0), 0, 0) == 1

    def test_index_out_of_range(self):
        spec = ModelSpec(4, 1)
        with pytest.raises(ValueError):
            b_coefficient(spec, 2, 0)
        with pytest.raises(ValueError):
            b_coefficient(spec, 0, -1)


class TestBTable:
    def test_two_site_single_excitation(self):
        table = b_table(ModelSpec(2, 1))
        half = Fraction(1, 2)
        assert table.entries == ((half, half), (half, -half))

    def test_row_one_n7(self):
        table = b_table(ModelSpec(7, 1))
        assert table.entries[1] == (Fraction(1, 7), Fraction(-1, 7))

    def test_vacuum_table(self):
        assert b_table(ModelSpec(3, 0)).entries == ((Fraction(1),),)

    def test_float_array_rounded_once_and_read_only(self):
        table = b_table(ModelSpec(7, 3))
        array = table.array
        assert table.array is array
        assert array.tolist() == [[float(v) for v in row] for row in table.entries]
        with pytest.raises(ValueError):
            array[0, 0] = 0.0

    @pytest.mark.parametrize("n", range(2, 51))
    def test_single_excitation_closed_subform(self, n):
        table = b_table(ModelSpec(n, 1)).entries
        assert table[0][0] == Fraction(1, n)
        assert table[0][1] == Fraction(n - 1, n)
        assert table[1][0] == Fraction(1, n)
        assert table[1][1] == Fraction(-1, n)

    def test_matches_elementwise_evaluation(self):
        # the table runs the three-term recurrence in m, b_coefficient the
        # alternating binomial sum: agreement cross-checks both derivations
        for n in range(2, 25):
            for m_exc in range(0, n + 1):
                spec = ModelSpec(n, m_exc)
                table = b_table(spec)
                for m in range(spec.m_prime + 1):
                    for k in range(spec.m_prime + 1):
                        assert table.entries[m][k] == b_coefficient(spec, m, k)

    @pytest.mark.parametrize(
        "n,m_exc", [(40, 0), (40, 1), (40, 33), (40, 40), (41, 20), (41, 21), (60, 59)]
    )
    def test_matches_elementwise_evaluation_at_truncation_edges(self, n, m_exc):
        # edges of the recurrence: M' = 0 or 1 (no step or a single step),
        # M next to N/2 from either side, and M' reached from M > N - M
        spec = ModelSpec(n, m_exc)
        table = b_table(spec)
        for m in range(spec.m_prime + 1):
            for k in range(spec.m_prime + 1):
                assert table.entries[m][k] == b_coefficient(spec, m, k)

    def test_rows_of_the_200_site_table_match_elementwise_evaluation(self):
        spec = ModelSpec(200, 100)
        table = b_table(spec).entries
        for m in (0, 1, 50, 100):
            assert table[m] == tuple(b_coefficient(spec, m, k) for k in range(101))

    @pytest.mark.parametrize("n,m_exc", [(12, 5), (30, 11), (9, 7), (40, 20)])
    def test_gram_identity(self, n, m_exc):
        # sum_m D_m b[m][k] b[m][k'] = b[0][k] delta_{kk'}: the columns are
        # orthogonal under the Schmidt multiplicities, which neither the
        # recurrence nor the alternating sum is built from
        spec = ModelSpec(n, m_exc)
        table = b_table(spec).entries
        weights = schmidt_multiplicities(spec)
        size = spec.m_prime + 1
        for k in range(size):
            for k2 in range(size):
                gram = sum(w * row[k] * row[k2] for w, row in zip(weights, table))
                assert gram == (table[0][k] if k == k2 else 0)

    def test_rows_sum_to_initial_condition(self):
        # sum_n b[m][n] must collapse to delta_{m,0}: the tau=0 state is the
        # bare product state
        for n in range(2, 12):
            for m_exc in range(0, n + 1):
                table = b_table(ModelSpec(n, m_exc)).entries
                for m, row in enumerate(table):
                    assert sum(row) == (1 if m == 0 else 0)


def test_schmidt_multiplicities():
    assert schmidt_multiplicities(ModelSpec(7, 3)) == (1, 12, 18, 4)
    assert schmidt_multiplicities(ModelSpec(5, 0)) == (1,)
    assert schmidt_multiplicities(ModelSpec(2, 1)) == (1, 1)


class TestModeFrequencies:
    @pytest.mark.parametrize(
        "n,m,expected",
        [(7, 1, [-6, 1]), (4, 2, [-4, 0, 2]), (2, 0, [0])],
    )
    def test_values(self, n, m, expected):
        assert list(mode_frequencies(ModelSpec(n, m))) == expected

    def test_frequency_formula_symmetric_under_reflection(self):
        # n(N+1-n) is unchanged by n -> N+1-n
        for n_tot in range(2, 15):
            for n in range(0, n_tot + 2):
                assert n * (n_tot + 1 - n) == (n_tot + 1 - n) * (n_tot + 1 - (n_tot + 1 - n))
