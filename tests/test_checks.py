import random

import pytest

from isosquare import checks, constructions


def _injected(*args):
    raise constructions.PostconditionError("injected")


class TestFailurePath:
    def test_failure_names_label_and_input(self, monkeypatch):
        monkeypatch.setattr(constructions, "mersenne_member", _injected)
        failures = checks.run_suite("mersenne")
        assert failures == [f"mersenne_member({k}): injected"
                            for k in range(2, 31)]

    def test_false_predicate_names_both_arguments(self, monkeypatch):
        monkeypatch.setattr(constructions, "gap_weight_identity",
                            lambda k, r: False)
        failures = checks.run_suite("gaps")
        assert failures[:3] == [
            "gap_weight_identity(1, 1): identity failed",
            "gap_weight_identity(2, 1): identity failed",
            "gap_weight_identity(2, 3): identity failed",
        ]
        assert len(failures) == 19

    def test_near_power_witness_is_in_gaps(self, monkeypatch):
        monkeypatch.setattr(constructions, "near_power_witness", _injected)
        assert checks.run_suite("gaps") == [
            f"near_power_witness({m}): injected" for m in range(3, 31)]

    @pytest.mark.parametrize("inflated, fails", [(75, True), (277, False)])
    def test_inflate_strictness_still_checked(self, monkeypatch, inflated,
                                              fails):
        # 75 has defect +1 and 277 has defect +2: only a defect above +1
        # passes.  The first n with B(n^2) >= 3 is 5.
        monkeypatch.setattr(constructions, "inflate", lambda n: inflated)
        failures = checks.run_suite("lemmas", cases=10)
        assert failures[:1] == (
            ["inflate(5): strict defect inequality failed"] if fails else [])

    def test_tuples_suite_covers_its_range(self, monkeypatch):
        monkeypatch.setattr(constructions, "four_tuple", _injected)
        assert checks.run_suite("tuples") == [
            f"four_tuple({k}): injected" for k in range(9, 41)]

    def test_suites_pass(self):
        assert checks.run_suite("all", cases=50) == []


class TestRunSuite:
    def test_runners_looked_up_at_call(self, monkeypatch):
        # the benchmark's tracer wraps SUITES entries by name, so a wrapped
        # runner must be the one run_suite calls
        assert sorted(checks.SUITES) == ["gaps", "lemmas", "mersenne", "tuples"]
        calls = []
        monkeypatch.setitem(checks.SUITES, "mersenne",
                            lambda cases: calls.append(cases) or ["patched"])
        assert checks.run_suite("mersenne", cases=7) == ["patched"]
        assert checks.run_suite("all", cases=7) == ["patched"]
        assert checks.run_suite("mersenne") == ["patched"]
        assert calls == [7, 7, checks.DEFAULT_CASES]


class TestDraws:
    # The generators' ranges, a width-1 range (nu = 1 in mult_mersenne)
    # and ranges just past a power of two, where half the draws are
    # rejected.
    RANGES = [(1, 40), (1, 1), (1, (1 << 17) - 1), (1, 1 << 40), (0, 20),
              (0, 1 << 30), (0, 10), (1, 10), (5, 5), (0, 1 << 12)]

    @pytest.mark.parametrize("seed", range(4))
    def test_same_sequence_as_random_randint(self, seed):
        randint, rng = checks._randint(seed), random.Random(seed)
        for _ in range(50):
            for a, b in self.RANGES:
                assert randint(a, b) == rng.randint(a, b)
