import pytest
from hypothesis import given
from hypothesis import strategies as st

from isosquare.membership import digit_sum

from conftest import oracle_digit_sum


class TestDigitSum:
    def test_zero(self):
        assert digit_sum(0, 2) == 0
        assert digit_sum(0, 10) == 0

    def test_seven(self):
        assert digit_sum(7, 2) == 3

    def test_all_ones(self):
        for k in range(1, 65):
            assert digit_sum(2**k - 1, 2) == k

    def test_base_ten(self):
        assert digit_sum(2025, 10) == 9

    def test_bad_base(self):
        with pytest.raises(ValueError):
            digit_sum(5, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            digit_sum(-1, 2)

    @given(st.integers(min_value=0, max_value=10**30),
           st.integers(min_value=2, max_value=16))
    def test_matches_division_oracle(self, n, base):
        assert digit_sum(n, base) == oracle_digit_sum(n, base)

    def test_316(self):
        # 316 = (100111100), five ones by the division oracle
        assert oracle_digit_sum(316) == 5
        assert digit_sum(316, 2) == 5

    @given(st.integers(min_value=1, max_value=10**20),
           st.integers(min_value=0, max_value=64))
    def test_trailing_zeros_carry_no_weight(self, n, h):
        assert digit_sum(n << h, 2) == digit_sum(n, 2)

    @given(st.integers(min_value=0, max_value=10**40))
    def test_binary_matches_division_oracle(self, n):
        # base 2 takes the int.bit_count path, not repeated division
        assert digit_sum(n, 2) == oracle_digit_sum(n, 2)


class TestSubtractionIdentity:
    def test_all_small_windows(self):
        # (1_(k)) - (1_(h)0_(h')) = (1_(k-h-h')0_(h)1_(h')) whenever k > h+h'
        for k in range(2, 25):
            for h in range(1, k):
                for hp in range(1, k - h):
                    lhs = (1 << k) - 1
                    mid = ((1 << h) - 1) << hp
                    rhs = ((((1 << (k - h - hp)) - 1) << (h + hp))
                           | ((1 << hp) - 1))
                    assert lhs - mid == rhs
