"""Exact digit sums in any base.

Binary weights elsewhere in the package call int.bit_count directly;
digit_sum is the general-base form behind the (base, multiplier, power)
predicate.
"""

from __future__ import annotations


def digit_sum(n: int, base: int = 2) -> int:
    """Sum of the digits of n written in the given base."""
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
