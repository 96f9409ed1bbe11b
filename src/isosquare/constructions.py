"""Constructive families of isosquare numbers with exact weight postconditions.

Each constructor returns its value only after re-checking the weight
identity it is supposed to realize; a failed check raises
PostconditionError and always means a bug, never a data problem.
The chain seed -> inflate -> normalize_defect -> finalize_member turns
an arbitrary non-power-of-two seed into a verified member whose leading
bits are those of the seed, which makes families of pairwise distinct
members cheap to build.  scan_gap checks the gap intervals exhaustively.

Every check is an if statement that raises, never an assert, so it
stays on under `python -O`; a message is formatted only when its check
fails, and a postcondition's message names no large value.
"""

from __future__ import annotations

import warnings
from math import isqrt
from operator import lt
from typing import Iterable, NamedTuple

from .membership import is_isosquare

_new = tuple.__new__


class PostconditionError(AssertionError):
    """A constructor's weight identity failed: internal inconsistency."""


class ConstructionStage(NamedTuple):
    """One audited step of a construction chain; construct_one builds it
    with tuple.__new__, since it checks nothing."""

    label: str
    value: int
    rule: str


class _Stages(NamedTuple):
    stages: tuple[ConstructionStage, ...]


class ConstructionTrace(_Stages):
    """Audited chain of stages ending in a verified isosquare number."""

    __slots__ = ()

    def __new__(cls, stages: tuple[ConstructionStage, ...]
                ) -> ConstructionTrace:
        self = cls._of_member(stages)
        if not is_isosquare(self.final):
            raise PostconditionError("final stage is not a member")
        return self

    @classmethod
    def _of_member(cls, stages: tuple[ConstructionStage, ...]
                   ) -> ConstructionTrace:
        """The trace, with every check but the final's membership, for a
        caller that has just tested it."""
        if stages == ():
            raise PostconditionError("trace must have at least one stage")
        values = [s.value for s in stages]
        if not all(map(lt, values, values[1:])):
            raise PostconditionError(
                "stage values must be strictly increasing")
        return _new(cls, (stages,))

    @classmethod
    def _make(cls, iterable: Iterable[tuple[ConstructionStage, ...]]
              ) -> ConstructionTrace:
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def final(self) -> int:
        return self.stages[-1].value


def mersenne_member(k: int) -> int:
    """2^k - 1, always a member for k >= 2; k = 1 is accepted with a warning."""
    if not k >= 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        warnings.warn("k=1 gives n=1, a trivial member outside the k>1 family",
                      stacklevel=2)
    n = (1 << k) - 1
    if not is_isosquare(n):
        raise PostconditionError(f"2^{k}-1 not a member")
    if not (n * n).bit_count() == k:
        raise PostconditionError(f"B((2^{k}-1)^2) != {k}")
    return n


def four_tuple(k: int) -> int:
    """Start n = 2^k - 2^(k-2) - 2^(k-3) - 4 of a run n..n+3 of members (k >= 9)."""
    if not k >= 9:
        raise ValueError(f"k must be >= 9, got {k}")
    n = (1 << k) - (1 << (k - 2)) - (1 << (k - 3)) - 4
    for j in range(4):
        if not is_isosquare(n + j):
            raise PostconditionError(f"start + {j} is not a member")
    return n


def gap_interval(k: int) -> tuple[int, int]:
    """Endpoints (2^2k, 2^2k + 2^k) of an open interval free of members."""
    if not k >= 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 1 << (2 * k)
    return n, n + (1 << k)


def scan_gap(k: int) -> bool:
    """True iff the open interval gap_interval(k) holds no member (k <= 31).

    The gap holds 2^k - 1 integers.  is_isosquare tests them for k <= 16,
    so props (k <= 10) loads no sieve; members_in_range lists longer gaps.
    """
    if not 1 <= k <= 31:
        raise ValueError(f"k must be in 1..31, got {k}")
    lo, hi = gap_interval(k)
    if k <= 16:
        return not any(map(is_isosquare, range(lo + 1, hi)))
    from .enumeration import members_in_range
    return not members_in_range(lo + 1, hi - 1)


def gap_weight_identity(k: int, r: int) -> bool:
    """Check B(m^2) = 1 + B(r) + B(r^2) for m = 2^2k + r, 0 < r < 2^k.

    This is the identity behind the gap interval: it forces
    B(m^2) > B(m), so no interior point can be a member.
    """
    if not 0 < r < (1 << k):
        raise ValueError(f"need 0 < r < 2^{k}, got {r}")
    m = (1 << (2 * k)) + r
    return (m * m).bit_count() == 1 + r.bit_count() + (r * r).bit_count()


def near_power_witness(m: int) -> int:
    """Member 2^(2m+1) + 2^(m+2) - 1 just above the power 2^(2m+1), m >= 3."""
    if not m >= 3:
        raise ValueError(f"m must be >= 3, got {m}")
    n = (1 << (2 * m + 1)) + (1 << (m + 2)) - 1
    if not is_isosquare(n):
        raise PostconditionError(
            "witness 2^(2m+1) + 2^(m+2) - 1 is not a member")
    if not n <= (1 << (2 * m + 1)) + 4 * isqrt(1 << (2 * m + 1)) + 4:
        raise PostconditionError("witness exceeds the stated window")
    return n


def mult_mersenne(n: int, nu: int) -> int:
    """n * (2^nu - 1) for 1 <= n < 2^nu; the product has weight exactly nu."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not n < (1 << nu):
        raise ValueError(f"need n < 2^{nu}, got {n}")
    r = n * ((1 << nu) - 1)
    if not r.bit_count() == nu:
        raise PostconditionError("B(n*(2^nu-1)) != nu")
    return r


def affix_one(n: int, nu: int) -> int:
    """2^nu * n + 1 for n < 2^(nu-1).

    Appends nu-1 zeros and a one below n, so the weight grows by 1 and
    the square weight by B(n) + 1.
    """
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (nu >= 2 and n < (1 << (nu - 1))):
        raise ValueError(f"need n < 2^({nu}-1), got n={n}")
    r = (n << nu) + 1
    if not r.bit_count() == n.bit_count() + 1:
        raise PostconditionError("weight identity failed")
    if not (r * r).bit_count() == (n * n).bit_count() + n.bit_count() + 1:
        raise PostconditionError("square weight identity failed")
    return r


def subtract_compose(n: int, m: int, nu: int) -> int:
    """n * 2^nu - m for odd n, m and nu >= max(2h-1, h+k+1).

    k and h are the bit lengths of n and m.  Both weight identities
    hold exactly:
        B(result)   = B(n) - B(m) + nu
        B(result^2) = B(n^2) + B(m^2) - B(m n) + nu - 1
    """
    if not (n >= 1 and n % 2 == 1):
        raise ValueError(f"n must be odd positive, got {n}")
    if not (m >= 1 and m % 2 == 1):
        raise ValueError(f"m must be odd positive, got {m}")
    k, h = n.bit_length(), m.bit_length()
    bound = max(2 * h - 1, h + k + 1)
    if not nu >= bound:
        raise ValueError(f"need nu >= {bound}, got {nu}")
    r = (n << nu) - m
    if not r.bit_count() == n.bit_count() - m.bit_count() + nu:
        raise PostconditionError("weight identity failed")
    if not (r * r).bit_count() == ((n * n).bit_count() + (m * m).bit_count()
                                   - (m * n).bit_count() + nu - 1):
        raise PostconditionError("square weight identity failed")
    return r


def finalize_member(n: int, nu: int) -> int:
    """2^nu * n - 1 for odd n with B(n^2) = 2B(n) - 1 and nu >= bitlen(n) + 2.

    The result is always a member; this is the last link of the chain.
    """
    if not (n >= 1 and n % 2 == 1):
        raise ValueError(f"n must be odd positive, got {n}")
    w, sw = n.bit_count(), (n * n).bit_count()
    if not sw == 2 * w - 1:
        raise ValueError(f"need B(n^2) = 2B(n)-1, got B={w}, square B={sw}")
    r = subtract_compose(n, 1, nu)
    if not is_isosquare(r):
        raise PostconditionError("2^nu * n - 1 is not a member")
    return r


def subtract_mersenne(n: int, h: int, nu: int) -> int:
    """n * 2^nu - (2^h - 1) for odd n < 2^h - 1 and nu >= 2h + 1.

    Weight identities:
        B(result)   = B(n) + nu - h
        B(result^2) = B(n^2) + nu - 1
    """
    if not (n >= 1 and n % 2 == 1):
        raise ValueError(f"n must be odd positive, got {n}")
    if not n < (1 << h) - 1:
        raise ValueError(f"need n < 2^{h}-1, got {n}")
    if not nu >= 2 * h + 1:
        raise ValueError(f"need nu >= {2 * h + 1}, got {nu}")
    r = (n << nu) - ((1 << h) - 1)
    if not r.bit_count() == n.bit_count() + nu - h:
        raise PostconditionError("weight identity failed")
    if not (r * r).bit_count() == (n * n).bit_count() + nu - 1:
        raise PostconditionError("square weight identity failed")
    return r


def normalize_defect(n: int) -> int:
    """Drive an odd n with defect >= +1 to a value with defect exactly -1.

    Uses h = bitlen(n) + 1 and nu = B(n^2) - 2B(n) + 2h, the explicit
    choice that makes B(n'^2) = 2B(n') - 1 for n' = n*2^nu - (2^h - 1).
    Also guarantees n' < n * 2^(4k+2).
    """
    if not (n > 1 and n % 2 == 1):
        raise ValueError(f"n must be odd and > 1, got {n}")
    k = n.bit_length()
    w, sw = n.bit_count(), (n * n).bit_count()
    if not sw >= 2 * w + 1:
        raise ValueError(f"need defect >= +1, got {sw - 2 * w} for n={n}")
    h = k + 1
    nu = sw - 2 * w + 2 * h
    r = subtract_mersenne(n, h, nu)
    if not (r * r).bit_count() == 2 * r.bit_count() - 1:
        raise PostconditionError("normalized defect is not -1")
    if not nu < 4 * k + 2:
        raise PostconditionError("shift bound nu < 4k+2 violated")
    return r


def inflate(n: int) -> int:
    """Append k zeros, a one, 2k+1 zeros and a one below n (k = bitlen(n)).

    Two nested affix-one steps, so B(n0) = B(n) + 2 and
    B(n0^2) = B(n^2) + 2B(n) + 3; the defect of the result is
    B(n^2) - 1, which is >= +1 whenever n is not a power of two.
    The result is odd and smaller than n^4 up to a constant.
    """
    if not n > 1:
        raise ValueError(f"n must be > 1, got {n}")
    k = n.bit_length()
    r = affix_one(affix_one(n, k + 1), 2 * k + 2)
    if not r.bit_count() == n.bit_count() + 2:
        raise PostconditionError("weight identity failed")
    if not (r * r).bit_count() == (n * n).bit_count() + 2 * n.bit_count() + 3:
        raise PostconditionError("square weight identity failed")
    return r


def construct_one(seed: int) -> ConstructionTrace:
    """Full chain seed -> inflate -> normalize -> finalize.

    Any seed > 1 that is not a power of two works, even seeds included
    (inflate always emits an odd value).  The top bitlen(seed) bits of
    every stage equal the seed, so distinct seeds give distinct finals.
    finalize_member tests the final's membership, so the trace does not
    test it again.
    """
    if not seed > 1:
        raise ValueError(f"seed must be > 1, got {seed}")
    if seed & (seed - 1) == 0:
        raise ValueError(f"seed must not be a power of two, got {seed}")
    inflated = inflate(seed)
    normalized = normalize_defect(inflated)
    final = finalize_member(normalized, normalized.bit_length() + 2)
    sb = seed.bit_length()
    if not final >> (final.bit_length() - sb) == seed:
        raise PostconditionError("leading seed bits not preserved")
    return ConstructionTrace._of_member((
        _new(ConstructionStage, ("seed", seed, "seed")),
        _new(ConstructionStage, ("inflate", inflated, "double-affix-one")),
        _new(ConstructionStage,
             ("normalize", normalized, "mersenne-subtract")),
        _new(ConstructionStage, ("finalize", final, "shift-minus-one")),
    ))


def family_traces(n: int) -> list[ConstructionTrace]:
    """Chains for the n seeds 2^k + i, i = 1..n, with k = bitlen(n).

    All seeds lie strictly between 2^k and 2^(k+1) (since n < 2^k),
    so none is a power of two and no fallback seed is ever needed.
    Results are ordered by seed.
    """
    if not (n > 1 and n % 2 == 1):
        raise ValueError(f"n must be odd and > 1, got {n}")
    k = n.bit_length()
    traces = [construct_one((1 << k) + i) for i in range(1, n + 1)]
    finals = [t.final for t in traces]
    if not len(set(finals)) == n:
        raise PostconditionError("family members are not pairwise distinct")
    return traces


def construct_family(n: int) -> list[int]:
    """n pairwise distinct verified members, each <= A * n^40 for a fixed A."""
    return [t.final for t in family_traces(n)]
