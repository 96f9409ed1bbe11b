"""High-throughput enumeration of isosquare numbers.

The sieve tests B(m) = B(m^2) for every m up to a limit.  Below 2^63 the
test runs on numpy popcounts (square_weight) in blocks of 2^16 integers,
small enough that every temporary stays in cache.  numpy is imported on
the first call into a sieve kernel, so importing this module, or running
a CLI command that never sieves, does not load it.  One chunk loop runs a
kernel over contiguous chunks of the range on worker threads and hands
the results out in chunk order, so output is identical whatever the
worker count.  The member kernel (members_in_range) lists a chunk's
members for sieve_chunks and sieve, from 2^63 on in exact big-integer
arithmetic, which holds the GIL.  sieve_chunks resumes from a one-record
checkpoint, renamed into place after each chunk.  The odd-count kernel
(odd_counts_in_range) only counts a chunk's odd members, all that
counting needs, on numpy alone: counting refuses grid points above 2^63.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TypeVar

from .constructions import gap_interval
from .membership import is_isosquare

if TYPE_CHECKING:
    import numpy as np

FAST_LIMIT = 1 << 63  # numpy path below: square_weight is exact there
DEFAULT_CHUNK = 1 << 22
BLOCK = 1 << 16  # numpy path works in blocks this long to stay in cache

T = TypeVar("T")


@dataclass(frozen=True)
class CountSample:
    """Counting-function sample: number of members strictly below n."""

    n: int
    count: int


@dataclass(frozen=True)
class RunRecord:
    """Maximal run of consecutive members starting at start."""

    start: int
    length: int


def square_weight(a: np.ndarray) -> np.ndarray:
    """B(m^2) for each m of an increasing uint64 block with m < 2^63."""
    import numpy as np
    if a[-1] < 1 << 32:  # (2^32 - 1)^2 < 2^64: every square fits in a uint64
        return np.bitwise_count(a * a)
    # m = h*2^32 + l, so m^2 = h^2*2^64 + h*l*2^33 + l^2 with h*l < 2^63.
    h, l = a >> 32, a & 0xFFFFFFFF
    hl, ll = h * l, l * l
    low = ll + (hl << 33)  # wraps modulo 2^64
    high = h * h + (hl >> 31) + (low < ll)
    return np.bitwise_count(low) + np.bitwise_count(high)


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def members_in_range(lo: int, hi: int) -> list[int]:
    """All members m with lo <= m <= hi, increasing (lo >= 1)."""
    _require_positive(lo=lo)
    import numpy as np
    found: list[int] = []
    fast_hi = min(hi, FAST_LIMIT - 1)
    for start in range(lo, fast_hi + 1, BLOCK):
        a = np.arange(start, min(fast_hi, start + BLOCK - 1) + 1,
                      dtype=np.uint64)
        found += a[np.bitwise_count(a) == square_weight(a)].tolist()
    found += filter(is_isosquare, range(max(lo, FAST_LIMIT), hi + 1))
    return found


def odd_counts_in_range(lo: int, hi: int, points: Sequence[int]) -> list[int]:
    """Odd members m with lo <= m <= p, for each p of the sorted points.

    Points lie in [lo - 1, hi] (1 <= lo, hi < 2^63).  Only odd integers are
    tested, in blocks of BLOCK of them, and a block is counted, not listed.
    """
    _require_positive(lo=lo)
    if hi >= FAST_LIMIT:
        raise ValueError(f"hi must be below 2^63, got {hi}")
    import numpy as np
    counts: list[int] = []
    total, i = 0, 0
    for start in range(lo | 1, hi + 1, 2 * BLOCK):
        end = min(hi, start + 2 * BLOCK - 1)
        a = np.arange(start, end + 1, 2, dtype=np.uint64)
        mask = np.bitwise_count(a) == square_weight(a)
        while i < len(points) and points[i] <= end:
            # the odd integers start, start + 2, ... up to points[i]
            counts.append(total + int(np.count_nonzero(
                mask[:(points[i] - start) // 2 + 1])))
            i += 1
        total += int(np.count_nonzero(mask))
    return counts + [total] * (len(points) - i)


def read_checkpoint(path: str) -> tuple[int, int]:
    """The (chunk_end, cumulative_count) record, or (0, 0) if absent/empty.

    The file must be one line "chunk_end count" of two unsigned decimal
    integers, ending in a newline, with count <= chunk_end.  Anything else
    (a cut record, several lines, a non-ASCII byte) raises ValueError.
    """
    if not os.path.exists(path) or not os.path.getsize(path):
        return 0, 0
    with open(path, "rb") as fh:
        data = fh.read()
    fields = data.split()
    if (data.find(b"\n") != len(data) - 1 or len(fields) != 2
            or not all(f.isdigit() for f in fields)):
        raise ValueError(f"checkpoint {path}: expected one line "
                         "'chunk_end count'")
    end, count = map(int, fields)
    if count > end:
        raise ValueError(f"checkpoint {path}: count {count} exceeds "
                         f"chunk_end {end}")
    return end, count


def sieve_chunks(limit: int, workers: int = 1,
                 chunk_size: int = DEFAULT_CHUNK,
                 checkpoint: str | None = None
                 ) -> Iterator[tuple[int, list[int]]]:
    """Yield (chunk_end, members) for consecutive chunks covering [1, limit].

    The arguments and the checkpoint are checked (read, not written) at the
    call; sieving starts when the result is first advanced.  Chunks come in
    order, each with its members increasing; `workers` threads sieve at
    most 2 * workers + 1 chunks ahead of the consumer.  With a checkpoint
    path, its one record "chunk_end count" is replaced only when the
    consumer resumes the generator after receiving that chunk, so a
    recorded chunk was handed out in full.  A later run resumes after the
    recorded chunk, at no cost per chunk skipped; a chunk handed out but
    not recorded is produced again.
    """
    _require_positive(limit=limit, chunk_size=chunk_size, workers=workers)
    if checkpoint is None:
        return _chunk_loop(members_in_range, 1, limit, workers, chunk_size)
    done, count = read_checkpoint(checkpoint)
    chunks = _chunk_loop(members_in_range, done + 1, limit, workers,
                         chunk_size)
    return _recorded(chunks, checkpoint, count)


def _chunk_loop(kernel: Callable[[int, int], T], first: int, last: int,
                workers: int, chunk_size: int) -> Iterator[tuple[int, T]]:
    """Yield (chunk_end, kernel(lo, chunk_end)) for chunks covering
    [first, last], in order, run on `workers` threads at most
    2 * workers + 1 chunks ahead of the consumer.  Chunks keep the grid
    1, 1 + chunk_size, ...; the first starts at `first`."""
    if first > last:
        return
    starts = iter(range((first - 1) // chunk_size * chunk_size + 1, last + 1,
                        chunk_size))
    queued: deque = deque()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        while True:
            for lo in islice(starts, 2 * workers + 1 - len(queued)):
                hi = min(last, lo + chunk_size - 1)
                queued.append((hi, pool.submit(kernel, max(lo, first), hi)))
            if not queued:
                return
            hi, future = queued.popleft()
            yield hi, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _recorded(chunks: Iterator[tuple[int, list[int]]], checkpoint: str,
              count: int) -> Iterator[tuple[int, list[int]]]:
    """The chunks, each recorded in the checkpoint once the consumer
    resumes after it.  The record is written to checkpoint.tmp and renamed
    over the checkpoint, so a kill leaves the old record or the new one."""
    with closing(chunks):
        for hi, members in chunks:
            yield hi, members
            count += len(members)
            with open(checkpoint + ".tmp", "w") as fh:
                fh.write(f"{hi} {count}\n")
            os.replace(checkpoint + ".tmp", checkpoint)


def sieve(limit: int, workers: int = 1, chunk_size: int = DEFAULT_CHUNK,
          checkpoint: str | None = None) -> Iterator[int]:
    """Yield every member m <= limit in increasing order.

    The members of sieve_chunks, flattened; arguments and checkpoints
    behave as there.
    """
    chunks = sieve_chunks(limit, workers, chunk_size, checkpoint)
    return (m for _, members in chunks for m in members)


def counting(limit: int, grid: Sequence[int],
             workers: int = 1) -> list[CountSample]:
    """p(n) at each grid point: members strictly below n (grid points <= limit).

    m is a member iff 2m is, since B(2m) = B(m) and (2m)^2 = 4m^2, so
    p(n) = sum over j >= 0 of O((n - 1) >> j), where O(x) counts the odd
    members <= x.  Only the odd integers up to max(grid) - 1 <= 2^63 - 1
    are sieved, in chunks on `workers` threads as in sieve_chunks, and
    each chunk returns just its counts at the query points (n - 1) >> j;
    no member is listed.
    """
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid and (grid[0] < 1 or grid[-1] > limit):
        raise ValueError("grid points must lie in [1, limit]")
    if grid and grid[-1] > FAST_LIMIT:
        raise ValueError("grid points must be at most 2^63")
    _require_positive(limit=limit, workers=workers)
    points = sorted({(n - 1) >> j for n in grid
                     for j in range((n - 1).bit_length())})

    def chunk_counts(lo: int, hi: int) -> list[int]:
        inside = points[bisect_left(points, lo):bisect_right(points, hi)]
        return odd_counts_in_range(lo, hi, inside + [hi])

    found, below = [], 0  # O(p) for the points p of the chunks so far
    for _, counts in _chunk_loop(chunk_counts, 1, max(points, default=0),
                                 workers, DEFAULT_CHUNK):
        found += (below + c for c in counts[:-1])
        below += counts[-1]
    odd = dict(zip(points, found))
    return [CountSample(n=n, count=sum(odd[(n - 1) >> j]
                                       for j in range((n - 1).bit_length())))
            for n in grid]


def find_runs(limit: int, min_length: int = 2) -> list[RunRecord]:
    """Maximal runs of consecutive members with length >= min_length.

    Runs start at or below limit, even one below min_length, and a run
    touching the limit is extended until it closes, so each is maximal.
    """
    if min_length < 2:
        raise ValueError(f"min_length must be >= 2, got {min_length}")
    runs = []
    start = prev = None
    for m in sieve(limit):
        if prev is not None and m == prev + 1:
            prev = m
            continue
        if start is not None and prev - start + 1 >= min_length:
            runs.append(RunRecord(start=start, length=prev - start + 1))
        start = prev = m
    if start is not None:
        while is_isosquare(prev + 1):  # run may continue past the limit
            prev += 1
        if prev - start + 1 >= min_length:
            runs.append(RunRecord(start=start, length=prev - start + 1))
    return runs


def scan_gap(k: int) -> bool:
    """True iff the open interval gap_interval(k) holds no member (k <= 31)."""
    if k < 1 or gap_interval(k)[1] > FAST_LIMIT:
        raise ValueError(f"k must be in 1..31, got {k}")
    lo, hi = gap_interval(k)
    return not members_in_range(lo + 1, hi - 1)
