"""Digit sums, the digit-sum family predicates and weight profiles.

A positive integer n belongs to the (k, l, m) family when its base-k
digit sum is l times the base-k digit sum of n^m.  The central special
case is (2, 1, 2): B(n) = B(n^2), called isosquare here.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

_new = tuple.__new__


def digit_sum(n: int, base: int = 2) -> int:
    """Sum of the digits of n written in the given base.

    Binary weights elsewhere in the package call int.bit_count directly;
    this is the general-base form behind the (base, multiplier, power)
    predicate.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if base == 2:
        return n.bit_count()
    s = 0
    while n:
        n, r = divmod(n, base)
        s += r
    return s


class _Triple(NamedTuple):
    base: int = 2
    multiplier: int = 1
    power: int = 2


class PropertyTriple(_Triple):
    """Parameters (base, multiplier, power) of the family predicate."""

    __slots__ = ()

    def __new__(cls, *args: int, **kwargs: int) -> PropertyTriple:
        self = super().__new__(cls, *args, **kwargs)
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.power < 2:
            raise ValueError(f"power must be >= 2, got {self.power}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> PropertyTriple:
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)


ISOSQUARE = PropertyTriple(2, 1, 2)


class WeightProfile(NamedTuple):
    """Binary weights of n and n^2, plus the defect B(n^2) - 2*B(n).

    The construction chain branches on defect: seeds are driven to
    defect >= +1, normalized to exactly -1, then finalized to a member.
    It checks nothing, so weight_profile builds it with tuple.__new__, as
    namedtuple's _make does, without a Python __new__ call.
    """

    weight: int
    square_weight: int
    defect: int


def satisfies(n: int, t: PropertyTriple = ISOSQUARE) -> bool:
    """True iff digit_sum(n, base) == multiplier * digit_sum(n^power, base).

    The power is computed exactly; digit sums are discontinuous in the
    value, so no floating point is ever involved.
    """
    s, s_power = _digit_sums(n, t)
    return s == t.multiplier * s_power


def _digit_sums(n: int, t: PropertyTriple) -> tuple[int, int]:
    """digit_sum(n, base) and digit_sum(n^power, base) for positive n, the
    two sums that satisfies compares."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return digit_sum(n, t.base), digit_sum(n**t.power, t.base)


def is_isosquare(n: int) -> bool:
    """True iff B(n) = B(n^2)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n.bit_count() == (n * n).bit_count()


def weight_profile(n: int) -> WeightProfile:
    """Weights of n and n^2 packaged with the defect."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    w = n.bit_count()
    sw = (n * n).bit_count()
    return _new(WeightProfile, (w, sw, sw - 2 * w))

