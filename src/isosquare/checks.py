"""On-demand verification suites for the weight identities.

Every constructor re-checks its own weight identity and raises
PostconditionError on violation, so a suite is a table of rows
(label, check, inputs): the runner calls check(*args) for every input
tuple and reports each PostconditionError as "label(args): message".
An empty report means pass.  The table is built when a suite runs, so
every check is looked up in its module at that moment.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Iterable, Iterator

from . import constructions as cons
from .constructions import scan_gap
from .membership import weight_profile

DEFAULT_CASES = 10_000

Row = tuple[str, Callable[..., object], Iterable[tuple[int, ...]]]


def _run(rows: Iterable[Row]) -> list[str]:
    failures = []
    for label, check, inputs in rows:
        for args in inputs:
            try:
                check(*args)
            except cons.PostconditionError as exc:
                failures.append(f"{label}({', '.join(map(str, args))}): {exc}")
    return failures


def _asserted(predicate: Callable[..., bool], message: str) -> Callable:
    """A check that raises PostconditionError(message) when predicate fails."""
    def check(*args: int) -> None:
        if not predicate(*args):
            raise cons.PostconditionError(message)
    return check


def _inflate_strictly(n: int) -> None:
    """inflate(n), whose defect B(n^2) - 1 must be >= 2 when B(n^2) >= 3."""
    p0 = weight_profile(cons.inflate(n))
    if (weight_profile(n).square_weight >= 3
            and p0.square_weight <= 2 * p0.weight + 1):
        raise cons.PostconditionError("strict defect inequality failed")


# The random inputs are the ones random.Random(seed).randint draws: each
# `while` is its rejection loop for randint(a, b), getrandbits(k) with k the
# bit length of b - a + 1, repeated while the draw is past b.

def _mult_mersenne_inputs(cases: int) -> Iterator[tuple[int, int]]:
    """Exhaustive nu <= 12, then random (n, nu) with n < 2^nu, nu <= 40."""
    for nu in range(1, 13):
        for n in range(1, 1 << nu):
            yield n, nu
    bits = random.Random(0).getrandbits
    for _ in range(cases):
        while (nu := bits(6) + 1) > 40:
            pass
        while (n := bits(nu) + 1) >= 1 << nu:
            pass
        yield n, nu


def _affix_one_inputs(cases: int) -> Iterator[tuple[int, int]]:
    bits = random.Random(1).getrandbits
    for _ in range(cases):
        while (n := bits(41) + 1) > 1 << 40:
            pass
        while (pad := bits(5)) > 20:
            pass
        yield n, n.bit_length() + 1 + pad


def _subtract_compose_inputs(cases: int) -> Iterator[tuple[int, int, int]]:
    bits = random.Random(2).getrandbits
    for _ in range(cases):
        while (n := bits(31)) > 1 << 30:
            pass
        while (m := bits(31)) > 1 << 30:
            pass
        while (pad := bits(4)) > 10:
            pass
        n, m = 2 * n + 1, 2 * m + 1
        k, h = n.bit_length(), m.bit_length()
        yield n, m, max(2 * h - 1, h + k + 1) + pad


def _subtract_mersenne_inputs(cases: int) -> Iterator[tuple[int, int, int]]:
    bits = random.Random(3).getrandbits
    for _ in range(cases):
        while (n := bits(31)) > 1 << 30:
            pass
        while (h := bits(4) + 1) > 10:
            pass
        while (pad := bits(4)) > 10:
            pass
        n = 2 * n + 1
        h += n.bit_length()
        yield n, h, 2 * h + 1 + pad


def _finalize_member_inputs(limit: int) -> Iterator[tuple[int, int]]:
    """Odd n <= limit with defect -1, at the minimal and a larger shift."""
    for n in range(1, limit + 1, 2):
        if weight_profile(n).defect == -1:
            yield n, n.bit_length() + 2
            yield n, n.bit_length() + 7


def _table(cases: int) -> dict[str, list[Row]]:
    """Rows of every suite; the scans over all n stop at 10^4."""
    scan = min(cases, 10_000)
    return {
        "lemmas": [
            ("mult_mersenne", cons.mult_mersenne,
             _mult_mersenne_inputs(cases)),
            ("affix_one", cons.affix_one, _affix_one_inputs(cases)),
            ("subtract_compose", cons.subtract_compose,
             _subtract_compose_inputs(cases)),
            ("subtract_mersenne", cons.subtract_mersenne,
             _subtract_mersenne_inputs(cases)),
            ("finalize_member", cons.finalize_member,
             _finalize_member_inputs(scan)),
            ("normalize_defect", cons.normalize_defect,
             ((n,) for n in range(3, scan + 1, 2)
              if weight_profile(n).defect >= 1)),
            ("inflate", _inflate_strictly, ((n,) for n in range(2, scan + 1))),
        ],
        "gaps": [
            ("scan_gap", _asserted(scan_gap, "member found inside the gap"),
             ((k,) for k in range(1, 11))),
            ("gap_weight_identity",
             _asserted(cons.gap_weight_identity, "identity failed"),
             ((k, r) for k in range(1, 11)
              for r in ((1, (1 << k) - 1) if k > 1 else (1,)))),
            ("near_power_witness", cons.near_power_witness,
             ((m,) for m in range(3, 31))),
        ],
        "tuples": [("four_tuple", cons.four_tuple,
                    ((k,) for k in range(9, 41)))],
        "mersenne": [("mersenne_member", cons.mersenne_member,
                      ((k,) for k in range(2, 31)))],
    }


def _run_table(name: str, cases: int = DEFAULT_CASES) -> list[str]:
    return _run(_table(cases)[name])


SUITES: dict[str, Callable[[int], list[str]]] = {
    name: partial(_run_table, name)
    for name in ("lemmas", "gaps", "tuples", "mersenne")}


def run_suite(name: str, cases: int | None = None) -> list[str]:
    """Run one named suite, or all of them, with DEFAULT_CASES random cases
    unless `cases` is given; returns counterexamples."""
    if cases is None:
        cases = DEFAULT_CASES
    if name == "all":
        failures = []
        for runner in SUITES.values():
            failures.extend(runner(cases))
        return failures
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)} or 'all'")
    return SUITES[name](cases)
