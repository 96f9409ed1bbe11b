import random
import re

import pytest

from isosquare import constructions as cons
from isosquare.constructions import (ConstructionStage, ConstructionTrace,
                                     PostconditionError)
from isosquare.membership import is_isosquare, weight_profile

from conftest import check_record, oracle_is_member

B = lambda n: n.bit_count()


class TestMersenneMember:
    def test_small(self):
        assert cons.mersenne_member(2) == 3
        assert cons.mersenne_member(5) == 31

    def test_k20(self):
        n = cons.mersenne_member(20)
        assert n == 1048575 and oracle_is_member(n)

    def test_square_weight(self):
        for k in range(2, 40):
            n = cons.mersenne_member(k)
            assert B(n * n) == k

    def test_k1_warns(self):
        with pytest.warns(UserWarning):
            assert cons.mersenne_member(1) == 1

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            cons.mersenne_member(0)


class TestFourTuple:
    def test_first(self):
        n = cons.four_tuple(9)
        assert n == 316
        assert all(oracle_is_member(n + j) for j in range(4))

    def test_k10(self):
        assert cons.four_tuple(10) == 636

    def test_k12(self):
        # formula value 2^12 - 2^10 - 2^9 - 4, all four verified members
        assert cons.four_tuple(12) == 2556

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            cons.four_tuple(8)


class TestGapInterval:
    def test_endpoints(self):
        assert cons.gap_interval(1) == (4, 6)
        assert cons.gap_interval(2) == (16, 20)

    def test_interior_non_members(self):
        for k in (1, 2, 5):
            lo, hi = cons.gap_interval(k)
            for m in range(lo + 1, hi):
                assert not is_isosquare(m)

    def test_weight_identity(self):
        for k in range(1, 9):
            for r in range(1, 2**k):
                assert cons.gap_weight_identity(k, r)

    def test_identity_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            cons.gap_weight_identity(3, 8)


class TestNearPowerWitness:
    @pytest.mark.parametrize("m,expected", [(3, 159), (4, 575), (10, 2101247)])
    def test_values(self, m, expected):
        w = cons.near_power_witness(m)
        assert w == expected and oracle_is_member(w)

    def test_window(self):
        for m in range(3, 30):
            w = cons.near_power_witness(m)
            n = 2 * m + 1
            assert 2**n <= w <= 2**n + 4 * 2 ** (n / 2)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            cons.near_power_witness(2)


class TestMultMersenne:
    def test_examples(self):
        assert cons.mult_mersenne(5, 3) == 35
        assert cons.mult_mersenne(1, 7) == 127
        assert cons.mult_mersenne(6, 4) == 90
        assert B(90) == 4

    def test_exhaustive_small(self):
        for nu in range(1, 13):
            for n in range(1, 2**nu):
                assert B(cons.mult_mersenne(n, nu)) == nu

    def test_precondition(self):
        with pytest.raises(ValueError):
            cons.mult_mersenne(8, 3)


class TestAffixOne:
    def test_smallest(self):
        r = cons.affix_one(1, 2)
        assert r == 5 and B(r) == 2 and B(r * r) == 3

    def test_examples(self):
        assert cons.affix_one(5, 4) == 81
        assert (B(81), B(81 * 81)) == (3, 6)
        assert cons.affix_one(7, 5) == 225
        assert (B(225), B(225 * 225)) == (4, 7)

    def test_random_identities(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randint(1, 1 << 50)
            nu = n.bit_length() + 1 + rng.randint(0, 30)
            r = cons.affix_one(n, nu)
            assert B(r) == B(n) + 1
            assert B(r * r) == B(n * n) + B(n) + 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            cons.affix_one(4, 3)


class TestSubtractCompose:
    def test_317(self):
        r = cons.subtract_compose(5, 3, 6)
        assert r == 317 and B(r) == 6 and B(r * r) == 6
        assert oracle_is_member(317)

    def test_mersenne_degenerate(self):
        assert cons.subtract_compose(1, 1, 3) == 7

    def test_1787(self):
        # weights recomputed by oracle: B = 9, square B = 10
        r = cons.subtract_compose(7, 5, 8)
        assert r == 1787 and B(r) == 9
        assert B(r * r) == B(49) + B(25) - B(35) + 8 - 1 == 10

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            cons.subtract_compose(6, 3, 12)
        with pytest.raises(ValueError):
            cons.subtract_compose(5, 4, 12)

    def test_shift_bound(self):
        with pytest.raises(ValueError):
            cons.subtract_compose(5, 3, 5)  # needs nu >= 6

    def test_random_identities(self):
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(0, 1 << 30) * 2 + 1
            m = rng.randint(0, 1 << 30) * 2 + 1
            nu = max(2 * m.bit_length() - 1,
                     m.bit_length() + n.bit_length() + 1) + rng.randint(0, 8)
            r = cons.subtract_compose(n, m, nu)
            assert B(r) == B(n) - B(m) + nu
            assert B(r * r) == B(n * n) + B(m * m) - B(m * n) + nu - 1


class TestFinalizeMember:
    def test_examples(self):
        assert cons.finalize_member(5, 5) == 159
        assert cons.finalize_member(1, 3) == 7
        assert cons.finalize_member(25, 7) == 3199
        assert oracle_is_member(3199)

    def test_scan_defect_minus_one(self):
        for n in range(1, 2001, 2):
            if weight_profile(n).defect == -1:
                r = cons.finalize_member(n, n.bit_length() + 2)
                assert is_isosquare(r)

    def test_wrong_defect_rejected(self):
        with pytest.raises(ValueError):
            cons.finalize_member(7, 10)  # B(49) = 3 != 2*3 - 1

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            cons.finalize_member(10, 10)

    def test_small_shift_rejected(self):
        with pytest.raises(ValueError, match="need nu >= 5, got 4"):
            cons.finalize_member(5, 4)


class TestSubtractMersenne:
    def test_examples(self):
        r = cons.subtract_mersenne(5, 4, 9)
        assert r == 2545 and B(r) == 7 and B(r * r) == 11
        r = cons.subtract_mersenne(1, 2, 5)
        assert r == 29 and B(r) == 4 and B(r * r) == 5
        r = cons.subtract_mersenne(3, 3, 7)
        assert r == 377 and B(r) == 6 and B(r * r) == 8

    def test_random_identities(self):
        rng = random.Random(13)
        for _ in range(2000):
            n = rng.randint(0, 1 << 30) * 2 + 1
            h = n.bit_length() + rng.randint(1, 8)
            nu = 2 * h + 1 + rng.randint(0, 8)
            r = cons.subtract_mersenne(n, h, nu)
            assert B(r) == B(n) + nu - h
            assert B(r * r) == B(n * n) + nu - 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cons.subtract_mersenne(7, 3, 20)  # n must be < 2^h - 1
        with pytest.raises(ValueError):
            cons.subtract_mersenne(3, 3, 6)  # nu too small


class TestNormalizeDefect:
    def test_smallest_admissible(self):
        # 75 is the least odd number with defect +1
        assert weight_profile(75).defect == 1
        r = cons.normalize_defect(75)
        assert B(r * r) == 2 * B(r) - 1

    def test_181(self):
        assert weight_profile(181).defect == 3
        r = cons.normalize_defect(181)
        assert B(r * r) == 2 * B(r) - 1

    def test_size_bound(self):
        for n in (75, 89, 101, 181, 8191 * 2 + 1):
            if weight_profile(n).defect >= 1:
                r = cons.normalize_defect(n)
                assert r < n * 2 ** (4 * n.bit_length() + 2)

    def test_scan_small_odd(self):
        for n in range(3, 2001, 2):
            if weight_profile(n).defect >= 1:
                r = cons.normalize_defect(n)
                assert weight_profile(r).defect == -1

    def test_negative_defect_rejected(self):
        with pytest.raises(ValueError):
            cons.normalize_defect(5)

    def test_zero_defect_rejected(self):
        # 45 has B(45) = 4 and B(2025) = 8, so defect 0: inadmissible
        assert weight_profile(45).defect == 0
        with pytest.raises(ValueError):
            cons.normalize_defect(45)


class TestInflate:
    def test_examples(self):
        assert cons.inflate(5) == 20737
        assert (B(20737), B(20737 * 20737)) == (4, 10)
        assert cons.inflate(2) == 1089
        assert (B(1089), B(1089 * 1089)) == (3, 6)

    def test_equality_edge(self):
        # B(9) = 2, so the inflated defect identity gives exact equality
        n0 = cons.inflate(3)
        assert n0 == 1601
        assert B(n0 * n0) == 2 * B(n0) + 1

    def test_weight_identities_scan(self):
        for n in range(2, 2001):
            n0 = cons.inflate(n)
            assert B(n0) == B(n) + 2
            assert B(n0 * n0) == B(n * n) + 2 * B(n) + 3
            if B(n * n) >= 3:
                assert B(n0 * n0) > 2 * B(n0) + 1

    def test_size_bound(self):
        for n in range(2, 200):
            assert cons.inflate(n) < 128 * n**4

    def test_one_rejected(self):
        with pytest.raises(ValueError):
            cons.inflate(1)


class TestConstructOne:
    def test_seed5(self):
        trace = cons.construct_one(5)
        labels = [s.label for s in trace.stages]
        assert labels == ["seed", "inflate", "normalize", "finalize"]
        assert trace.stages[0].value == 5
        assert trace.stages[1].value == 20737
        assert is_isosquare(trace.final)
        assert oracle_is_member(trace.final)

    def test_even_seed(self):
        trace = cons.construct_one(6)
        assert is_isosquare(trace.final)

    def test_defect_one_edge_seed(self):
        trace = cons.construct_one(3)
        assert is_isosquare(trace.final)

    def test_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            cons.construct_one(4)

    def test_leading_bits_preserved(self):
        for seed in (3, 5, 6, 7, 100, 12345):
            trace = cons.construct_one(seed)
            for stage in trace.stages:
                v = stage.value
                assert v >> (v.bit_length() - seed.bit_length()) == seed

    def test_seed_beyond_decimal_cap(self):
        # The final has about 48,000 bits, some 14,500 decimal digits: far
        # over Python's default cap of 4,300, which a passing check must
        # never meet by formatting a value.
        seed = (1 << 2000) + 12345
        final = cons.construct_one(seed).final
        assert final.bit_length() > 4300 * 4
        assert final >> (final.bit_length() - seed.bit_length()) == seed
        assert B(final) == B(final * final)

    def test_stage_values_increase(self):
        trace = cons.construct_one(99)
        values = [s.value for s in trace.stages]
        assert values == sorted(values) and len(set(values)) == 4


class TestConstructFamily:
    def test_family3(self):
        members = cons.construct_family(3)
        assert len(members) == len(set(members)) == 3
        assert all(oracle_is_member(m) for m in members)

    def test_family15_size_bound(self):
        members = cons.construct_family(15)
        assert len(set(members)) == 15
        assert all(m <= 2**37 * 15**40 for m in members)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            cons.construct_family(10)

    def test_traces_ordered_by_seed(self):
        traces = cons.family_traces(5)
        seeds = [t.stages[0].value for t in traces]
        assert seeds == [9, 10, 11, 12, 13]

    def test_one_membership_test_per_chain(self, monkeypatch):
        # finalize_member tests each final; the trace does not test it again
        tested = []

        def counted(n):
            tested.append(n)
            return is_isosquare(n)
        monkeypatch.setattr(cons, "is_isosquare", counted)
        traces = cons.family_traces(41)
        assert tested == [t.final for t in traces]


class TestRecords:
    def test_stage(self):
        check_record(ConstructionStage,
                     {"label": "seed", "value": 5, "rule": "seed"})

    def test_trace(self):
        check_record(ConstructionTrace,
                     {"stages": cons.construct_one(5).stages})

    @pytest.mark.parametrize("seed", [3, 5, 6, 1000, 4097, 10**300],
                             ids=["3", "5", "6", "1000", "4097", "10^300"])
    def test_stages_same_as_the_class_call(self, seed):
        # construct_one builds its stages without ConstructionStage.__new__
        stages = cons.construct_one(seed).stages
        rules = [("seed", "seed"), ("inflate", "double-affix-one"),
                 ("normalize", "mersenne-subtract"),
                 ("finalize", "shift-minus-one")]
        assert all(type(s) is ConstructionStage for s in stages)
        assert stages == tuple(ConstructionStage(label, s.value, rule)
                               for (label, rule), s in zip(rules, stages))
        assert stages[0].value == seed

    def test_replace_and_make_are_checked(self):
        trace = cons.construct_one(5)
        assert trace._replace(stages=trace.stages[1:]).final == trace.final
        with pytest.raises(PostconditionError, match="at least one stage"):
            trace._replace(stages=())
        with pytest.raises(PostconditionError, match="not a member"):
            ConstructionTrace._make([trace.stages[:1]])


class TestTraceValidation:
    def test_rejects_non_member_final(self):
        with pytest.raises(PostconditionError, match="not a member"):
            ConstructionTrace((ConstructionStage("seed", 5, "seed"),))

    def test_rejects_empty_trace(self):
        with pytest.raises(PostconditionError, match="at least one stage"):
            ConstructionTrace(())

    @pytest.mark.parametrize("values", [(3, 3), (7, 3)],
                             ids=["equal", "decreasing"])
    def test_rejects_non_increasing_stages(self, values):
        stages = tuple(ConstructionStage(f"s{i}", v, "test")
                       for i, v in enumerate(values))
        with pytest.raises(PostconditionError, match="strictly increasing"):
            ConstructionTrace(stages)


ARGUMENT_ERRORS = [
    ("mersenne_member", (0,), "k must be >= 1, got 0"),
    ("four_tuple", (8,), "k must be >= 9, got 8"),
    ("gap_interval", (0,), "k must be >= 1, got 0"),
    ("gap_weight_identity", (3, 8), "need 0 < r < 2^3, got 8"),
    ("near_power_witness", (2,), "m must be >= 3, got 2"),
    ("mult_mersenne", (8, 3), "need n < 2^3, got 8"),
    ("affix_one", (4, 3), "need n < 2^(3-1), got n=4"),
    ("subtract_compose", (5, 3, 5), "need nu >= 6, got 5"),
    ("finalize_member", (7, 10),
     "need B(n^2) = 2B(n)-1, got B=3, square B=3"),
    ("subtract_mersenne", (7, 3, 20), "need n < 2^3-1, got 7"),
    ("normalize_defect", (45,), "need defect >= +1, got 0 for n=45"),
    ("inflate", (1,), "n must be > 1, got 1"),
    ("construct_one", (4,), "seed must not be a power of two, got 4"),
    ("family_traces", (10,), "n must be odd and > 1, got 10"),
    ("construct_family", (10,), "n must be odd and > 1, got 10"),
]


class TestArgumentErrors:
    @pytest.mark.parametrize("name, args, message", ARGUMENT_ERRORS,
                             ids=[name for name, _, _ in ARGUMENT_ERRORS])
    def test_message(self, name, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(cons, name)(*args)


class TestPostconditionsFire:
    """Each check still raises once a module-level name it relies on is
    replaced by a faulty one."""

    @pytest.mark.parametrize("call, message", [
        (lambda: cons.mersenne_member(5), "2^5-1 not a member"),
        (lambda: cons.four_tuple(9), "start + 0 is not a member"),
        (lambda: cons.near_power_witness(3),
         "witness 2^(2m+1) + 2^(m+2) - 1 is not a member"),
        (lambda: cons.finalize_member(5, 5), "2^nu * n - 1 is not a member"),
        (lambda: ConstructionTrace((ConstructionStage("seed", 3, "seed"),)),
         "final stage is not a member"),
    ], ids=["mersenne_member", "four_tuple", "near_power_witness",
            "finalize_member", "trace"])
    def test_is_isosquare_false(self, monkeypatch, call, message):
        monkeypatch.setattr(cons, "is_isosquare", lambda n: False)
        with pytest.raises(PostconditionError,
                           match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("name, fake, call, message", [
        # 75 has defect +1
        ("subtract_mersenne", lambda n, h, nu: 75,
         lambda: cons.normalize_defect(75), "normalized defect is not -1"),
        # 2^40 - 1 is a member whose top bits are 111, not those of 5
        ("finalize_member", lambda n, nu: (1 << 40) - 1,
         lambda: cons.construct_one(5), "leading seed bits not preserved"),
        # one trace for every seed, built before construct_one is replaced
        ("construct_one", lambda seed, trace=cons.construct_one(5): trace,
         lambda: cons.family_traces(5),
         "family members are not pairwise distinct"),
        ("affix_one", lambda n, nu: 3,
         lambda: cons.inflate(5), "weight identity failed"),
    ], ids=["normalize_defect", "construct_one", "family_traces", "inflate"])
    def test_faulty_link(self, monkeypatch, name, fake, call, message):
        monkeypatch.setattr(cons, name, fake)
        with pytest.raises(PostconditionError,
                           match=f"^{re.escape(message)}$"):
            call()
