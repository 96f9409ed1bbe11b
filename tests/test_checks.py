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

    def test_scan_gap_looked_up_in_checks(self, monkeypatch):
        # the tracer wraps checks.scan_gap by name, so the gaps suite must
        # call the checks global, which is constructions.scan_gap
        assert checks.scan_gap is constructions.scan_gap
        calls = []
        monkeypatch.setattr(checks, "scan_gap",
                            lambda k: calls.append(k) or True)
        assert checks.run_suite("gaps") == []
        assert calls == list(range(1, 11))


# Each random generator's cases as random.Random(seed).randint draws them.
# The generators call getrandbits themselves and must draw the same cases:
# name -> (generator, seed, one case drawn with randint).
def _mult_mersenne(randint):
    nu = randint(1, 40)
    return randint(1, (1 << nu) - 1), nu


def _affix_one(randint):
    n = randint(1, 1 << 40)
    return n, n.bit_length() + 1 + randint(0, 20)


def _subtract_compose(randint):
    n = randint(0, 1 << 30) * 2 + 1
    m = randint(0, 1 << 30) * 2 + 1
    k, h = n.bit_length(), m.bit_length()
    return n, m, max(2 * h - 1, h + k + 1) + randint(0, 10)


def _subtract_mersenne(randint):
    n = randint(0, 1 << 30) * 2 + 1
    h = n.bit_length() + randint(1, 10)
    return n, h, 2 * h + 1 + randint(0, 10)


REFERENCES = {
    "mult_mersenne": (checks._mult_mersenne_inputs, 0, _mult_mersenne),
    "affix_one": (checks._affix_one_inputs, 1, _affix_one),
    "subtract_compose": (checks._subtract_compose_inputs, 2,
                         _subtract_compose),
    "subtract_mersenne": (checks._subtract_mersenne_inputs, 3,
                          _subtract_mersenne),
}


class TestDraws:
    @pytest.mark.parametrize("cases", [0, 1, 50, checks.DEFAULT_CASES])
    @pytest.mark.parametrize("name", REFERENCES)
    def test_same_cases_as_random_randint(self, name, cases):
        generator, seed, case = REFERENCES[name]
        randint = random.Random(seed).randint
        expected = [case(randint) for _ in range(cases)]
        if name == "mult_mersenne":
            # the exhaustive nu <= 12 come first and draw nothing
            expected[:0] = [(n, nu) for nu in range(1, 13)
                            for n in range(1, 1 << nu)]
        assert list(generator(cases)) == expected
