"""High-throughput enumeration of isosquare numbers.

The sieve tests B(m) = B(m^2) for integers m up to a limit.  Below 2^63
the test runs on numpy, in blocks of BLOCK integers (BLOCK odd ones for
the odd kernels) aligned to their span, small enough that every temporary
stays in cache.  One block generator (_masks) reuses its buffers for
every block, takes B(m) as B(base) plus a table entry, and squares m in
one uint64 below 2^32 and in two uint64 limbs above, the high limb one
scalar per block.  numpy is imported on the first call into a block
kernel and concurrent.futures on the first chunk loop, so importing this
module, or running a CLI command that never sieves, loads neither;
scan_gap tests a gap of fewer than BLOCK integers with is_isosquare,
which costs less than importing numpy.  One
chunk loop runs a kernel over contiguous chunks of the range on worker
threads and hands the results out in chunk order, so output is identical
whatever the worker count.  The member kernel (members_in_range) lists a
chunk's members, from 2^63 on in exact big-integer arithmetic, which
holds the GIL.  sieve_chunks and sieve list members through odd parts: m
is a member iff 2m is, so once a chunk starts at twice the first integer
of the run, only its odd integers are tested and its even members are
doubled from earlier chunks, which keep about 0.24 p(limit) members for
that.  sieve_chunks resumes from a one-record checkpoint, renamed into
place after each chunk.  The odd-count kernel (odd_counts_in_range) only
counts a chunk's odd members, all that counting needs, on numpy alone:
counting refuses grid points above 2^63.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import closing
from functools import cache
from itertools import islice
from typing import (TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence,
                    TypeVar)

from .membership import is_isosquare

if TYPE_CHECKING:
    import numpy as np

FAST_LIMIT = 1 << 63  # numpy path below: its two-limb square is exact there
DEFAULT_CHUNK = 1 << 22
BLOCK = 1 << 16  # numpy path works in blocks this long to stay in cache

T = TypeVar("T")


class CountSample(NamedTuple):
    """Counting-function sample: number of members strictly below n."""

    n: int
    count: int


class RunRecord(NamedTuple):
    """Maximal run of consecutive members starting at start."""

    start: int
    length: int


def _require_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


@cache
def _weights(step: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets step - 1, 2 * step - 1, ... below step * BLOCK (uint64)
    and their binary weights (uint8), both read-only."""
    import numpy as np
    offsets = np.arange(step - 1, step * BLOCK, step, dtype=np.uint64)
    weights = np.bitwise_count(offsets)
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def _masks(lo: int, hi: int, step: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, mask) over the integers m = step - 1 (mod step) with
    lo <= m <= hi < 2^63 (step 1 or 2): mask[i] tells whether
    start + step * i is a member.  The mask is a view of a buffer that the
    next block overwrites.

    Blocks are aligned to step * BLOCK, so a block's integers are
    base + offset with offset < step * BLOCK, B(m) = B(base) + B(offset)
    comes from a table, and no block crosses a multiple of 2^32.
    """
    if lo > hi:
        return
    import numpy as np
    offsets, weights = _weights(step)
    span = step * BLOCK
    size = min(BLOCK, (hi - lo) // step + 1)
    limb, square, cross = (np.empty(size, np.uint64) for _ in range(3))
    weight, high_weight = np.empty(size, np.uint8), np.empty(size, np.uint8)
    mask = np.empty(size, np.bool_)
    for base in range(lo // span * span, hi + 1, span):
        i = max(lo - base, 0) // step
        j = min((hi - base + 1) // step, BLOCK)
        if i >= j:  # no odd integer of [lo, hi] in this block
            continue
        n = j - i
        # m = h * 2^32 + l, with one h for the whole block
        h = base >> 32
        l = np.add(offsets[i:j], base & 0xFFFFFFFF, out=limb[:n])
        w = weight[:n]
        if not h:  # (2^32 - 1)^2 < 2^64: m^2 fits in a uint64
            np.bitwise_count(np.multiply(l, l, out=square[:n]), out=w)
        else:
            # m^2 = h^2*2^64 + h*l*2^33 + l^2 with h*l < 2^63
            ll = np.multiply(l, l, out=square[:n])
            hl = np.multiply(l, h, out=cross[:n])
            low = np.add(np.left_shift(hl, 33, out=l), ll, out=l)  # wraps
            high = np.right_shift(hl, 31, out=hl)
            high += h * h
            high += np.less(low, ll, out=ll)  # the carry out of the low limb
            np.bitwise_count(low, out=w)
            w += np.bitwise_count(high, out=high_weight[:n])
        # B(m^2) == B(base) + B(offset), in uint8 arithmetic modulo 256
        w -= base.bit_count()
        yield base + step * i + step - 1, np.equal(w, weights[i:j],
                                                   out=mask[:n])


def _members(lo: int, hi: int, step: int) -> np.ndarray:
    """The members m = step - 1 (mod step) with lo <= m <= hi < 2^63,
    increasing, as an int64 array."""
    import numpy as np
    found = [np.flatnonzero(mask) * step + start
             for start, mask in _masks(lo, hi, step)]
    return np.concatenate(found) if found else np.empty(0, np.int64)


def members_in_range(lo: int, hi: int) -> list[int]:
    """All members m with lo <= m <= hi, increasing (lo >= 1)."""
    _require_positive(lo=lo)
    found = _members(lo, min(hi, FAST_LIMIT - 1), 1).tolist()
    found += filter(is_isosquare, range(max(lo, FAST_LIMIT), hi + 1))
    return found


def odd_counts_in_range(lo: int, hi: int, points: Sequence[int]) -> list[int]:
    """Odd members m with lo <= m <= p, for each p of the sorted points.

    Points lie in [lo - 1, hi] (1 <= lo, hi < 2^63).  Only odd integers are
    tested, and a block is counted, not listed.
    """
    _require_positive(lo=lo)
    if hi >= FAST_LIMIT:
        raise ValueError(f"hi must be below 2^63, got {hi}")
    import numpy as np
    counts: list[int] = []
    total, i = 0, 0
    for start, mask in _masks(lo, hi, 2):
        end = start + 2 * (len(mask) - 1)
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
        return _listed(1, limit, workers, chunk_size)
    done, count = read_checkpoint(checkpoint)
    return _recorded(_listed(done + 1, limit, workers, chunk_size),
                     checkpoint, count)


def _listed(first: int, last: int, workers: int, chunk_size: int
            ) -> Iterator[tuple[int, list[int]]]:
    """The chunks of [first, last] with their members, as _chunk_loop
    yields them, listed through odd parts.

    m is a member iff 2m is, so once a chunk [lo, hi] has lo >= 2 * first
    its even members are twice the members of [ceil(lo / 2), hi // 2],
    which lie in earlier chunks of this run: the workers test only its odd
    integers.  Earlier chunks, and chunks that reach FAST_LIMIT, are tested
    in full.  The members up to last // 2 that a later chunk may still
    double are kept, one array per chunk, until they lie below lo / 2.
    """
    def kernel(lo: int, hi: int) -> np.ndarray | list[int]:
        if hi >= FAST_LIMIT:
            return members_in_range(lo, hi)
        return _members(lo, hi, 2 if lo >= 2 * first else 1)

    import numpy as np
    kept: deque = deque()  # (chunk end, members <= last // 2) per chunk
    lo = first
    for hi, found in _chunk_loop(kernel, first, last, workers, chunk_size):
        if hi < FAST_LIMIT:
            if lo >= 2 * first:
                half_lo, half_hi = (lo + 1) // 2, hi // 2
                while kept and kept[0][0] < half_lo:
                    kept.popleft()
                # [half_lo, half_hi] lies in [first, lo - 1], where every
                # chunk but the first is chunk_size long, and it is at most
                # chunk_size // 2 + 1 long: it meets at most two chunks
                doubled = [2 * m[np.searchsorted(m, half_lo):
                                 np.searchsorted(m, half_hi, "right")]
                           for _, m in islice(kept, 2)]
                found = np.sort(np.concatenate([found, *doubled]))
            if lo <= last // 2:
                kept.append((hi, found[found <= last // 2]))
            found = found.tolist()
        yield hi, found
        lo = hi + 1


def _chunk_loop(kernel: Callable[[int, int], T], first: int, last: int,
                workers: int, chunk_size: int) -> Iterator[tuple[int, T]]:
    """Yield (chunk_end, kernel(lo, chunk_end)) for chunks covering
    [first, last], in order, run on `workers` threads at most
    2 * workers + 1 chunks ahead of the consumer.  Chunks keep the grid
    1, 1 + chunk_size, ...; the first starts at `first`."""
    if first > last:
        return
    from concurrent.futures import ThreadPoolExecutor
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
    """True iff the open interval gap_interval(k) holds no member (k <= 31).

    The gap holds 2^k - 1 integers.  Below BLOCK of them (k <= 16) they are
    tested with is_isosquare, in at most about 15 ms, where importing numpy
    takes about 0.15 s: props --suite gaps (k <= 10) loads no numpy.
    """
    from .constructions import gap_interval
    if k < 1 or gap_interval(k)[1] > FAST_LIMIT:
        raise ValueError(f"k must be in 1..31, got {k}")
    lo, hi = gap_interval(k)
    if hi - lo - 1 < BLOCK:
        return not any(map(is_isosquare, range(lo + 1, hi)))
    return not members_in_range(lo + 1, hi - 1)
