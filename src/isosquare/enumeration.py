"""High-throughput enumeration of isosquare numbers.

The sieve tests B(m) = B(m^2) for every m up to a limit.  Below 2^63 the
test runs on numpy popcounts (square_weight) in blocks of 2^16 integers,
small enough that every temporary stays in cache; from 2^63 on each
element falls back to exact big-integer arithmetic.  Contiguous chunks of
the range are sieved on worker threads (numpy releases the GIL, the
big-int path does not) and merged in chunk order, so output is identical
whatever the worker count.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .constructions import gap_interval
from .membership import is_isosquare

FAST_LIMIT = 1 << 63  # numpy path below: square_weight is exact there
DEFAULT_CHUNK = 1 << 22
BLOCK = 1 << 16  # numpy path works in blocks this long to stay in cache


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
    if a[-1] < 1 << 32:  # (2^32 - 1)^2 < 2^64: every square fits in a uint64
        return np.bitwise_count(a * a)
    # m = h*2^32 + l, so m^2 = h^2*2^64 + h*l*2^33 + l^2 with h*l < 2^63.
    h, l = a >> 32, a & 0xFFFFFFFF
    hl, ll = h * l, l * l
    low = ll + (hl << 33)  # wraps modulo 2^64
    high = h * h + (hl >> 31) + (low < ll)
    return np.bitwise_count(low) + np.bitwise_count(high)


def members_in_range(lo: int, hi: int) -> list[int]:
    """All members m with lo <= m <= hi, increasing (lo >= 1)."""
    if lo < 1:
        raise ValueError(f"lo must be >= 1, got {lo}")
    found: list[int] = []
    fast_hi = min(hi, FAST_LIMIT - 1)
    for start in range(lo, fast_hi + 1, BLOCK):
        a = np.arange(start, min(fast_hi, start + BLOCK - 1) + 1,
                      dtype=np.uint64)
        found += a[np.bitwise_count(a) == square_weight(a)].tolist()
    found += filter(is_isosquare, range(max(lo, FAST_LIMIT), hi + 1))
    return found


def read_checkpoint(path: str) -> tuple[int, int]:
    """Last (chunk_end, cumulative_count) record, or (0, 0) if absent/empty.

    A final line without a newline was torn by a crash mid-write and is
    ignored; any complete line that is malformed raises ValueError.
    """
    if not os.path.exists(path):
        return 0, 0
    last_end, last_count = 0, 0
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                break  # only the last line can lack its newline
            if not line.strip():
                continue
            try:
                end, count = map(int, line.split())
            except ValueError:
                raise ValueError(f"checkpoint {path} line {number}: expected "
                                 "'chunk_end count'") from None
            if end < last_end or count < last_count:
                raise ValueError(f"checkpoint {path} is not monotone")
            last_end, last_count = end, count
    return last_end, last_count


def _cut_torn_line(path: str) -> None:
    """Drop a final line without a newline, so appends start on a new line."""
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def sieve_chunks(limit: int, workers: int = 1,
                 chunk_size: int = DEFAULT_CHUNK,
                 checkpoint: str | None = None
                 ) -> Iterator[tuple[int, list[int]]]:
    """Yield (chunk_end, members) for consecutive chunks covering [1, limit].

    Chunks come in order, each with its members increasing; `workers`
    threads sieve at most 2 * workers + 1 chunks ahead of the consumer.
    With a checkpoint path, the line "chunk_end count" is appended only when
    the consumer resumes the generator after receiving that chunk, so a
    recorded chunk was handed out in full.  A later run resumes after the
    last recorded chunk, at no cost per chunk skipped; a chunk handed out
    but not recorded is produced again, and a torn last line is cut off.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    done, count = 0, 0
    if checkpoint is not None:
        done, count = read_checkpoint(checkpoint)
        _cut_torn_line(checkpoint)
    if done >= limit:
        return
    # chunks keep the grid 1, 1 + chunk_size, ...; the first starts at done + 1
    starts = iter(range(done // chunk_size * chunk_size + 1, limit + 1,
                        chunk_size))
    queued: deque = deque()
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        while True:
            for lo in islice(starts, 2 * workers + 1 - len(queued)):
                hi = min(limit, lo + chunk_size - 1)
                queued.append((hi, pool.submit(members_in_range,
                                               max(lo, done + 1), hi)))
            if not queued:
                return
            hi, future = queued.popleft()
            members = future.result()
            yield hi, members
            count += len(members)
            if checkpoint is not None:
                with open(checkpoint, "a") as fh:
                    fh.write(f"{hi} {count}\n")
    finally:
        pool.shutdown(cancel_futures=True)


def sieve(limit: int, workers: int = 1, chunk_size: int = DEFAULT_CHUNK,
          checkpoint: str | None = None) -> Iterator[int]:
    """Yield every member m <= limit in increasing order.

    The members of sieve_chunks, flattened; checkpoints behave as there.
    """
    for _, members in sieve_chunks(limit, workers, chunk_size, checkpoint):
        yield from members


def counting(limit: int, grid: Sequence[int],
             members: Sequence[int] | None = None,
             workers: int = 1) -> list[CountSample]:
    """p(n) at each grid point: members strictly below n (grid points <= limit).

    Without members, the sieve is streamed: a grid point n is answered
    from the first chunk with chunk_end + 1 >= n and the member counts of
    the chunks before it, so only one chunk's members are held here.
    """
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid and (grid[0] < 1 or grid[-1] > limit):
        raise ValueError("grid points must lie in [1, limit]")
    if members is None:
        chunks = sieve_chunks(limit, workers=workers)
    else:
        chunks = iter([(limit, members)])
    samples = []
    below, chunk_end, chunk = 0, 0, []
    for n in grid:
        while n > chunk_end + 1:
            below += len(chunk)
            chunk_end, chunk = next(chunks)
        samples.append(CountSample(n=n, count=below + bisect_left(chunk, n)))
    return samples


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
