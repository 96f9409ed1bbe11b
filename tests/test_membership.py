from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isosquare.membership import (ISOSQUARE, PropertyTriple, WeightProfile,
                                  is_isosquare, satisfies, weight_profile)

from conftest import check_record, oracle_is_member


class TestPropertyTriple:
    def test_defaults(self):
        assert ISOSQUARE == PropertyTriple(2, 1, 2) == PropertyTriple()
        assert PropertyTriple(3) == PropertyTriple(3, 1, 2)
        assert PropertyTriple(power=3) == PropertyTriple(2, 1, 3)

    def test_record(self):
        check_record(PropertyTriple, {"base": 3, "multiplier": 2, "power": 5})

    def test_replace_and_make_are_checked(self):
        assert ISOSQUARE._replace(power=3) == PropertyTriple(2, 1, 3)
        assert type(ISOSQUARE._replace(power=3)) is PropertyTriple
        with pytest.raises(ValueError, match="base must be >= 2"):
            ISOSQUARE._replace(base=1)
        with pytest.raises(ValueError, match="power must be >= 2"):
            PropertyTriple._make((2, 1, 1))

    @pytest.mark.parametrize("kwargs", [
        {"base": 1}, {"multiplier": 0}, {"power": 1},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PropertyTriple(**kwargs)


class TestSatisfies:
    def test_one_is_member_for_unit_multiplier(self):
        for t in [ISOSQUARE, PropertyTriple(2, 1, 3), PropertyTriple(7, 1, 2)]:
            assert satisfies(1, t)

    def test_316(self):
        assert satisfies(316, ISOSQUARE)

    def test_powers_of_two(self):
        # B(2^(jm)) = B(2^j) = 1 for every power m
        for j in range(0, 10):
            for m in (2, 3, 5):
                assert satisfies(2**j, PropertyTriple(2, 1, m))

    def test_five(self):
        assert not satisfies(5, ISOSQUARE)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            satisfies(0, ISOSQUARE)

    def test_general_base(self):
        # base 3: 2 = (2), 4 = (11), both digit sums 2
        assert satisfies(2, PropertyTriple(3, 1, 2))
        # base 3: 4 = (11), 16 = (121), digit sums 2 and 4
        assert not satisfies(4, PropertyTriple(3, 1, 2))


class TestIsIsosquare:
    def test_first_four(self):
        assert all(is_isosquare(n) for n in (1, 2, 3, 4))

    def test_mersenne(self):
        for k in range(2, 31):
            assert is_isosquare(2**k - 1)

    def test_nine(self):
        assert not is_isosquare(9)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_isosquare(0)

    def test_agrees_with_oracle_small(self):
        for n in range(1, 10_001):
            assert is_isosquare(n) == oracle_is_member(n)

    @given(st.integers(min_value=1, max_value=10**18))
    def test_doubling_preserves_membership(self, n):
        assert is_isosquare(n) == is_isosquare(2 * n)

    @given(st.integers(min_value=1, max_value=10**18))
    def test_matches_generic_predicate(self, n):
        assert is_isosquare(n) == satisfies(n, ISOSQUARE)


class TestWeightProfile:
    def test_record(self):
        check_record(WeightProfile,
                     {"weight": 2, "square_weight": 3, "defect": -1})

    def test_five(self):
        p = weight_profile(5)
        assert (p.weight, p.square_weight, p.defect) == (2, 3, -1)

    def test_same_record_as_the_class_call(self):
        # weight_profile builds its record without WeightProfile.__new__
        for n in range(1, 2001):
            p = weight_profile(n)
            w, sw = n.bit_count(), (n * n).bit_count()
            assert type(p) is WeightProfile
            assert p == WeightProfile(w, sw, sw - 2 * w)
        assert p._replace(defect=0) == WeightProfile(w, sw, 0)
        assert type(p._replace(defect=0)) is WeightProfile
        assert p._asdict() == {"weight": w, "square_weight": sw,
                               "defect": sw - 2 * w}

    def test_powers_of_two(self):
        for k in range(0, 40):
            p = weight_profile(2**k)
            assert (p.weight, p.square_weight, p.defect) == (1, 1, -1)

    def test_member_iff_weights_equal(self):
        for n in range(1, 500):
            p = weight_profile(n)
            assert (p.weight == p.square_weight) == is_isosquare(n)

    @given(st.integers(min_value=1, max_value=10**20))
    def test_square_weight_bound(self, n):
        p = weight_profile(n)
        assert p.square_weight <= p.weight**2



def _ratio(n):
    # the Stolarsky ratio B(n^2) / B(n), read off the weight profile
    p = weight_profile(n)
    return Fraction(p.square_weight, p.weight)


class TestStolarskyRatio:
    def test_three(self):
        assert _ratio(3) == 1

    def test_five(self):
        assert _ratio(5) == Fraction(3, 2)

    @given(st.integers(min_value=1, max_value=10**12))
    def test_unit_ratio_iff_member(self, n):
        assert (_ratio(n) == 1) == is_isosquare(n)
