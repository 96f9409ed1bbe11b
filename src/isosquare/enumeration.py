"""High-throughput enumeration of isosquare numbers, 1 <= m < 2^63.

The C kernel _sieve.c is an extension module, compiled on the first
kernel call, cached in the package's __pycache__ and loaded as
isosquare._sieve; importing this module loads no kernel.  Each kernel call
lists or counts a whole chunk with the GIL released, in buffers of its
own.  The kernel has a scalar path and, on x86-64 CPUs with AVX-512
VPOPCNTDQ, a vector path that tests 16 integers at a time below 2^32 and
8 above.  Loading it selects the path once, through its isq_select,
before any sieve thread starts, then checks every entry point against
is_isosquare on windows at the kernel's range boundaries and raises
OSError on any mismatch.  A chunk loop runs a kernel over chunks on
min(workers, chunks) threads, or in the calling thread where that is
one, and hands the results out in order, so output is the same for any
worker count.  Chunks lie on one grid, 1, 1 + DEFAULT_CHUNK,
1 + 2 * DEFAULT_CHUNK and so on.  The sieve tests every integer of each
chunk and hands out its members one by one (sieve) or as the decimal
text the kernel writes (sieve_text_chunks, the one producer that keeps a
checkpoint, one record that each chunk overwrites in place); counting
tests only the odd ones, since m is a member iff 2m is.  Of the package,
this module imports membership alone.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import ExitStack, closing
from functools import cache
from itertools import islice
from stat import S_ISREG
from threading import Lock
from types import ModuleType
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

from .membership import is_isosquare

TOP = 1 << 63  # the kernel tests 1 <= m < TOP
DEFAULT_CHUNK = 1 << 22
_RECORD = b"%d %d\n"  # a checkpoint's one record: chunk_end count
_SOURCE = os.path.join(os.path.dirname(__file__), "_sieve.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_FLAGS = ["-O3", "-shared", "-fPIC"]
_BUILD = Lock()  # one thread at a time loads the kernel
# Windows on which each load checks the selected path against is_isosquare:
# one straddles 2^32, where m^2 outgrows a uint64 and the 16-lane loop
# hands over to the 8-lane one, one from 1, where most vectors hold several
# members to store lane by lane, and one ends at 2^63 - 1; at step 1 and 2
# each leaves a tail of fewer than 8 to the scalar loops.
_CHECKED = ((2**32 - 45, 2**32 + 44), (1, 100), (TOP - 90, TOP - 1))

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


def _require_below_top(name: str, value: int) -> None:
    if value >= TOP:
        raise ValueError(f"{name} must be below 2^63, got {value}")


def _kernel() -> ModuleType:
    """The kernel of _load.  The lock lets one thread at a time call _load,
    so the first call loads, selects and checks the kernel once, before
    any thread runs it, and no thread reads sysconfig's variables while
    another fills them on their first use."""
    with _BUILD:
        return _load()


@cache
def _load() -> ModuleType:
    """_sieve.c compiled and loaded as the extension module
    isosquare._sieve, the vector path selected where the CPU has it and
    checked (_check).

    It is cached in _CACHE under a name keyed by the source, the compiler
    flags and the interpreter's extension suffix; where _CACHE cannot be
    written, it is built in a temporary directory, removed once the module
    is loaded.  The compiler writes a name of this process's own, renamed
    into place, so processes that build at once each leave a complete
    module.  Only a build imports subprocess and sysconfig.
    """
    from binascii import crc32
    from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                     ModuleSpec)
    with ExitStack() as stack:
        with open(_SOURCE, "rb") as fh:
            key = repr((fh.read(), _FLAGS, EXTENSION_SUFFIXES[0]))
        name = f"_sieve.{crc32(key.encode()):08x}.so"
        path = os.path.join(_CACHE, name)
        if not os.path.exists(path):
            import subprocess
            if not _writable(_CACHE):
                import tempfile
                private = stack.enter_context(tempfile.TemporaryDirectory())
                path = os.path.join(private, name)
            partial = f"{path}.{os.getpid()}.tmp"
            command = _compiler()
            done = subprocess.run([*command, "-o", partial, _SOURCE],
                                  capture_output=True, text=True,
                                  errors="replace")
            if done.returncode:
                raise OSError(f"cannot compile the sieve kernel: "
                              f"{' '.join(command)} exited with "
                              f"{done.returncode}: {done.stderr.strip()}")
            os.replace(partial, path)
        loader = ExtensionFileLoader("isosquare._sieve", path)
        lib = loader.create_module(ModuleSpec(loader.name, loader,
                                              origin=path))
        loader.exec_module(lib)
    lib.isq_select(1)
    _check(lib)
    return lib


def _compiler() -> list[str]:
    """The command that builds _SOURCE, less its output: the C compiler
    Python was built with, _FLAGS and Python's include directory."""
    import sysconfig
    return [*(sysconfig.get_config_var("CC") or "cc").split(), *_FLAGS,
            f"-I{sysconfig.get_path('include')}"]


def _check(lib: ModuleType) -> None:
    """Raise OSError unless every entry point of the selected path agrees
    with is_isosquare on the _CHECKED windows."""
    for lo, hi in _CHECKED:
        members = [m for m in range(lo, hi + 1) if is_isosquare(m)]
        odd = [m for m in members if m % 2]
        points = [lo - 1, (lo + hi) // 2, hi]
        if (lib.members(lo, hi) != members
                or lib.odd_counts(lo, hi, points)
                != [bisect_right(odd, p) for p in points]
                or lib.members_text(lo, hi)
                != "".join(f"{m}\n" for m in members)):
            path = "vector" if lib.isq_select(-1) else "scalar"
            raise OSError(f"the sieve kernel's {path} path disagrees with "
                          f"is_isosquare on [{lo}, {hi}]")


def _writable(directory: str) -> bool:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def members_in_range(lo: int, hi: int) -> list[int]:
    """All members m with lo <= m <= hi, increasing (1 <= lo, hi < 2^63),
    listed by one kernel call; none, with no call, if hi < lo."""
    _require_positive(lo=lo)
    _require_below_top("hi", hi)
    if hi < lo:
        return []
    return _kernel().members(lo, hi)


def _members_text(lo: int, hi: int) -> str:
    """members_in_range(lo, hi) as decimal text, one member a line, written
    by one kernel call, with its arguments taken as valid."""
    return _kernel().members_text(lo, hi)


def odd_counts_in_range(lo: int, hi: int, points: Sequence[int]) -> list[int]:
    """Odd members m with lo <= m <= p, for each p of the sorted points,
    which lie in [lo - 1, hi] (1 <= lo, hi < 2^63); zeros if hi < lo."""
    _require_positive(lo=lo)
    _require_below_top("hi", hi)
    if (any(b < a for a, b in zip(points, points[1:]))
            or points and (points[0] < lo - 1 or points[-1] > hi)):
        raise ValueError(f"points must be sorted and lie in [lo - 1, hi] = "
                         f"[{lo - 1}, {hi}]")
    if hi < lo:
        return [0] * len(points)
    return _odd_counts(lo, hi, points)


def _odd_counts(lo: int, hi: int, points: Sequence[int]) -> list[int]:
    """odd_counts_in_range, with its arguments taken as valid."""
    return _kernel().odd_counts(lo, hi, points)


def read_checkpoint(path: str) -> tuple[int, int]:
    """The (chunk_end, cumulative_count) record, or (0, 0) if absent/empty.

    The file must be a regular file holding one canonical record, the
    bytes b"%d %d\\n" % (chunk_end, count) that _recorded writes, with
    count <= chunk_end.  Anything else (a FIFO or device, a cut record,
    several lines, a leading zero, a sign, other spacing, a non-ASCII
    byte) raises ValueError.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return 0, 0
    if not S_ISREG(mode):
        raise ValueError(f"checkpoint {path}: not a regular file")
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        return 0, 0
    fields = data.split()
    if (len(fields) != 2 or not all(map(bytes.isdigit, fields))
            or data != _RECORD % tuple(map(int, fields))):
        raise ValueError(f"checkpoint {path}: expected one line "
                         "'chunk_end count'")
    end, count = map(int, fields)
    if count > end:
        raise ValueError(f"checkpoint {path}: count {count} exceeds "
                         f"chunk_end {end}")
    return end, count


def sieve_text_chunks(limit: int, workers: int = 1,
                      checkpoint: str | None = None
                      ) -> Iterator[tuple[int, str]]:
    """Yield (chunk_end, text) for consecutive chunks covering [1, limit],
    the text holding the chunk's members in decimal, one a line ("m\\n"),
    as the kernel writes them.

    The arguments and the checkpoint are checked (read, not written) and
    the kernel loaded at the call; sieving starts when the result is first
    advanced.  Each chunk is written by one _members_text call, through
    _chunk_loop at most 2 * workers + 1 chunks ahead of the consumer and
    none with one worker: those chunks are all the run holds.  Chunks come
    in order, on the module's grid of DEFAULT_CHUNK integers.  The
    checkpoint's one record "chunk_end count" is overwritten in place
    (_recorded) only when the consumer resumes after that chunk, so a
    recorded chunk was handed out in full, and a kill leaves the old
    record or the new one.  A later run resumes after it, at no cost per
    chunk skipped; a chunk handed out but not recorded is produced again.
    """
    _start(limit, workers)
    if checkpoint is None:
        return _chunk_loop(_members_text, 1, limit, workers)
    done, count = read_checkpoint(checkpoint)
    return _recorded(_chunk_loop(_members_text, done + 1, limit, workers),
                     checkpoint, count)


def sieve(limit: int, workers: int = 1) -> Iterator[int]:
    """Yield every member m <= limit in increasing order, each chunk of
    sieve_text_chunks listed by one call of the members_in_range this
    module holds at the call, where arguments are checked and the kernel
    loaded, as there."""
    _start(limit, workers)
    chunks = _chunk_loop(members_in_range, 1, limit, workers)
    return (m for _, members in chunks for m in members)


def _start(limit: int, workers: int) -> None:
    """Check a sieve's arguments and load the kernel."""
    _require_positive(limit=limit, workers=workers)
    _require_below_top("limit", limit)
    _kernel()


def _chunk_loop(kernel: Callable[[int, int], T], first: int, last: int,
                workers: int) -> Iterator[tuple[int, T]]:
    """Yield (chunk_end, kernel(lo, chunk_end)) for chunks covering
    [first, last], in order, run on t = min(workers, chunks) threads at
    most 2t + 1 chunks ahead of the consumer; with t = 1 each chunk runs in
    the calling thread when the consumer asks for it, none ahead.  A
    chunk's exception is raised in the consumer.  On close the chunks not
    yet started are dropped and every thread is joined.  Chunks keep the
    grid 1, 1 + DEFAULT_CHUNK, and so on, with DEFAULT_CHUNK read when the
    loop starts; the first chunk starts at `first`."""
    if first > last:
        return
    size = DEFAULT_CHUNK
    starts = range((first - 1) // size * size + 1, last + 1, size)
    spans = ((max(lo, first), min(last, lo + size - 1)) for lo in starts)
    workers = min(workers, len(starts))
    if workers == 1:
        for lo, hi in spans:
            yield hi, kernel(lo, hi)
        return
    from queue import SimpleQueue
    from threading import Thread
    tasks: SimpleQueue = SimpleQueue()  # (lo, hi, result box), None: stop
    closed = False

    def work() -> None:
        while (task := tasks.get()) is not None:
            lo, hi, box = task
            if closed:
                continue
            try:
                box.put((kernel(lo, hi), None))
            except BaseException as exc:  # raised in the consumer
                box.put((None, exc))

    queued: deque = deque()
    # daemon: a chunk loop that is never closed cannot hold up exit
    threads = [Thread(target=work, daemon=True) for _ in range(workers)]
    try:
        for thread in threads:
            thread.start()
        while True:
            for lo, hi in islice(spans, 2 * workers + 1 - len(queued)):
                box: SimpleQueue = SimpleQueue()
                tasks.put((lo, hi, box))
                queued.append((hi, box))
            if not queued:
                return
            hi, box = queued.popleft()
            result, exc = box.get()
            if exc is not None:
                raise exc
            yield hi, result
    finally:
        closed = True
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()


def _recorded(chunks: Iterator[tuple[int, str]], checkpoint: str,
              count: int) -> Iterator[tuple[int, str]]:
    """The text chunks, each recorded in the checkpoint, with its lines
    more members, once the consumer resumes after it.

    The checkpoint is opened once, at the first record, and each record
    overwrites the one before in place, with one pwrite at offset 0.  A
    record never gets shorter, since chunk_end grows and count never
    falls, and read_checkpoint takes only the canonical record, so no
    stale byte is left past it.  A write of at most 40 bytes inside the
    first page lands whole or not at all when the process is killed, so
    a kill leaves the old record or the new one.
    """
    fd = -1
    try:
        with closing(chunks):
            for hi, text in chunks:
                yield hi, text
                count += text.count("\n")
                if fd < 0:
                    fd = os.open(checkpoint, os.O_WRONLY | os.O_CREAT, 0o666)
                record = _RECORD % (hi, count)
                if os.pwrite(fd, record, 0) != len(record):
                    raise OSError(f"checkpoint {checkpoint}: short write")
    finally:
        if fd >= 0:
            os.close(fd)


def counting(limit: int, grid: Sequence[int],
             workers: int = 1) -> list[CountSample]:
    """p(n) at each grid point: members strictly below n (grid points <= limit).

    m is a member iff 2m is, since B(2m) = B(m) and (2m)^2 = 4m^2, so
    p(n) = sum over j >= 0 of O((n - 1) >> j), where O(x) counts the odd
    members <= x: each chunk of the odd integers up to max(grid) - 1 only
    returns its counts at those points, on `workers` threads.
    """
    grid = list(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid and (grid[0] < 1 or grid[-1] > limit):
        raise ValueError("grid points must lie in [1, limit]")
    if grid and grid[-1] > TOP:
        raise ValueError("grid points must be at most 2^63")
    _require_positive(limit=limit, workers=workers)
    _kernel()
    points = sorted({(n - 1) >> j for n in grid
                     for j in range((n - 1).bit_length())})

    def chunk_counts(lo: int, hi: int) -> list[int]:
        inside = points[bisect_left(points, lo):bisect_right(points, hi)]
        return _odd_counts(lo, hi, inside + [hi])

    found, below = [], 0  # O(p) for the points p of the chunks so far
    for _, counts in _chunk_loop(chunk_counts, 1, max(points, default=0),
                                 workers):
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
