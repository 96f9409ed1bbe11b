"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import json
import math
import random
import time
from pathlib import Path

from isosquare import analysis, checks, constructions, enumeration
from isosquare.enumeration import CountSample
from isosquare.membership import is_isosquare

from conftest import oracle_members

DATA = Path(__file__).parent / "data"


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_sieve_oracle_equivalence():
    t0 = time.perf_counter()
    sieved = list(enumeration.sieve(10**5, workers=1))
    elapsed = time.perf_counter() - t0
    expected = oracle_members(10**5)
    verdict("sieve(10^5) oracle equivalence",
            sieved == expected and elapsed < 5.0,
            f"{len(sieved)} members in {elapsed:.2f}s")


def test_criterion_fixture_memberships():
    ok = all(is_isosquare(n) for n in (1, 2, 3, 4, 316, 317, 318, 319))
    runs = enumeration.find_runs(400, min_length=4)
    ok = ok and [r.start for r in runs] == [1, 316]
    ok = ok and all(is_isosquare(2**k - 1) for k in range(2, 31))
    verdict("fixture memberships (tuples, second 4-run, Mersenne family)", ok)


def test_criterion_counting_consistency():
    p17 = enumeration.counting(20, [17])[0]
    ok = p17 == CountSample(17, 11)
    ok = ok and oracle_members(16) == [1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16]
    members = list(enumeration.sieve(10**6, workers=1))
    rng = random.Random(2024)
    grid = sorted(rng.sample(range(1, 10**6 + 1), 100))
    samples = enumeration.counting(10**6, grid)
    ok = ok and all(s.count == sum(1 for m in members if m < s.n)
                    for s in samples)
    verdict("p(17) = 11 and counting/sieve consistency on 100 random points",
            ok)


def test_criterion_lemma_suites():
    t0 = time.perf_counter()
    failures = checks.run_suite("lemmas", cases=10_000)
    elapsed = time.perf_counter() - t0
    verdict("lemma suites, exact equalities, 10^4 cases each",
            not failures and elapsed < 60.0,
            f"{len(failures)} failures in {elapsed:.1f}s")


def test_criterion_theorem_chain():
    bound = json.loads((DATA / "family_bound.json").read_text())
    scale = 1 << bound["log2_scale"]
    t0 = time.perf_counter()
    traces = constructions.family_traces(101)
    elapsed = time.perf_counter() - t0
    finals = [t.final for t in traces]
    ok = len(set(finals)) == 101
    ok = ok and all(is_isosquare(f) for f in finals)
    ok = ok and all(f <= scale * 101**40 for f in finals)
    ok = ok and elapsed < 30.0
    verdict("construct_family(101): 101 distinct members within A*n^40",
            ok, f"A=2^{bound['log2_scale']}, {elapsed:.2f}s")


def test_criterion_gap_and_tuple_scans():
    ok = all(constructions.scan_gap(k) for k in range(1, 11))
    ok = ok and not checks.run_suite("tuples")
    verdict("gap scan k=1..10 and 4-tuple scan k=9..40", ok)


def test_criterion_alpha_values():
    at = analysis.alpha_theoretical()
    ok = abs(at - 0.75488750) < 1e-8
    ks = [10, 100, 1000, 10**4, 10**5]
    vals = [analysis.alpha_limit(k) for k in ks]
    ok = ok and all(a < b for a, b in zip(vals, vals[1:]))
    ok = ok and abs(at - vals[-1]) < 5e-4
    ok = ok and all(analysis.cross_binomial_sum(k) == math.comb(3 * k, k)
                    for k in range(1, 61))
    verdict("alpha_theoretical, alpha_limit convergence, Vandermonde",
            ok, f"alpha_limit(10^5)={vals[-1]:.7f}")


def _fitted_alpha(limit):
    grid = analysis.geometric_grid(1 << 10, limit)
    samples = enumeration.counting(limit, grid)
    fit_samples = [s for s in samples if s.n >= limit // 10]
    return analysis.fit_exponent(fit_samples).alpha_hat


def test_criterion_exponent_fit():
    alpha = _fitted_alpha(10**7)
    verdict("fitted exponent at 10^7 in [0.70, 0.80]",
            0.70 <= alpha <= 0.80, f"alpha_hat={alpha:.4f}")


def test_criterion_exponent_fit_full_scale():
    # optional full reproduction of the reported fit at 10^8
    t0 = time.perf_counter()
    alpha = _fitted_alpha(10**8)
    elapsed = time.perf_counter() - t0
    verdict("fitted exponent at 10^8 in [0.71, 0.76]",
            0.71 <= alpha <= 0.76 and elapsed < 600.0,
            f"alpha_hat={alpha:.4f}, {elapsed:.1f}s")


def test_criterion_fit_self_test():
    samples = [CountSample(10**j, 10 ** (0.75 * j)) for j in range(2, 7)]
    fit = analysis.fit_exponent(samples)
    verdict("planted power-law exponent recovered",
            abs(fit.alpha_hat - 0.75) < 1e-9,
            f"alpha_hat={fit.alpha_hat:.12f}")


def test_criterion_fluctuation_profile():
    grid = analysis.geometric_grid(1 << 10, 10**7)
    samples = enumeration.counting(10**7, grid)
    points = analysis.fluctuation_profile(samples,
                                          analysis.alpha_theoretical())
    values = [p.value for p in points]
    ok = all(0.05 <= v <= 20 for v in values)
    diffs = [b - a for a, b in zip(values, values[1:])]
    extrema = sum(1 for a, b in zip(diffs, diffs[1:]) if a * b < 0)
    ok = ok and extrema >= 5
    verdict("fluctuation profile bounded and oscillating",
            ok, f"{len(points)} points, {extrema} extrema, "
                f"range [{min(values):.2f}, {max(values):.2f}]")
