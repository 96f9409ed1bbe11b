import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from bisect import bisect_left
from itertools import accumulate, count, islice
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isosquare import enumeration
from isosquare.constructions import scan_gap
from isosquare.enumeration import (DEFAULT_CHUNK, CountSample, RunRecord,
                                   counting, find_runs, members_in_range,
                                   odd_counts_in_range, read_checkpoint,
                                   sieve, sieve_text_chunks)
from isosquare.membership import is_isosquare

from conftest import (NON_CANONICAL, check_record, kernel_block,
                      oracle_is_member, oracle_members, short_kernel)

SRC = Path(__file__).resolve().parents[1] / "src"
BLOCK = kernel_block()


class TestSieve:
    def test_limit4(self):
        assert list(sieve(4)) == [1, 2, 3, 4]

    def test_limit16(self, members_16):
        assert list(sieve(16)) == members_16

    def test_matches_oracle_to_2000(self):
        assert list(sieve(2000)) == oracle_members(2000)

    def test_13742_contains_fixtures(self):
        members = set(sieve(13742))
        assert {316, 317, 318, 319} <= members
        assert all(2**k - 1 in members for k in range(2, 14))

    def test_closure_under_doubling(self):
        limit = 5000
        members = set(sieve(limit))
        for m in members:
            if 2 * m <= limit:
                assert 2 * m in members

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            list(sieve(0))

    def test_deterministic_across_workers(self, monkeypatch):
        chunks_of(monkeypatch, 1 << 14)
        reference = list(sieve(200_000, workers=1))
        for workers in (2, 4):
            assert list(sieve(200_000, workers=workers)) == reference

    def test_chunk_size_irrelevant(self, monkeypatch):
        reference = list(sieve(50_000))
        chunks_of(monkeypatch, 777)
        assert list(sieve(50_000)) == reference
        assert joined(sieve_text_chunks(50_000)) == text(reference)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_members_in_range_call_per_chunk(self, monkeypatch, workers):
        # the module's members_in_range at the call, so a wrapper set on
        # the module (as a tracer sets one) sees every chunk
        calls = []
        members = enumeration.members_in_range
        monkeypatch.setattr(enumeration, "members_in_range",
                            lambda lo, hi: calls.append((lo, hi))
                            or members(lo, hi))
        chunks_of(monkeypatch, 1000)
        assert list(sieve(3500, workers)) == oracle_members(3500)
        assert sorted(calls) == [(1, 1000), (1001, 2000), (2001, 3000),
                                 (3001, 3500)]

    def test_matches_python_popcount_above_2_31(self, kernel_paths):
        lo = (1 << 31) + 1
        fast = [m for m in range(lo, lo + 2000)
                if m.bit_count() == (m * m).bit_count()]
        for path in kernel_paths():
            assert members_in_range(lo, lo + 1999) == fast, path

    @pytest.mark.parametrize("lo, hi", [
        ((1 << 31) - 1000, (1 << 31) + 1000),  # straddles 2^31
        ((1 << 32) - 2000, (1 << 32) - 1),     # ends at the last uint64 square
        ((1 << 32) - 1000, (1 << 32) + 1000),
        ((1 << 32), (1 << 32) + 2000),         # squares overflow 64 bits
        (BLOCK - 3, 3 * BLOCK + 5),            # two block boundaries, partial tail
        ((1 << 32) + 5, (1 << 32) + 2 * BLOCK + 13),  # 128-bit squares
        ((1 << 63) - 2000, (1 << 63) - 1),     # ends at member 2^63-1
    ])
    def test_matches_oracle_across_boundaries(self, kernel_paths, lo, hi):
        members = [m for m in range(lo, hi + 1) if oracle_is_member(m)]
        for path in kernel_paths():
            assert members_in_range(lo, hi) == members, path

    def test_window_from_2_63_rejected(self):
        # the sieve's range is [1, 2^63); is_isosquare is exact beyond it
        for hi in ((1 << 63) + 1000, 1 << 63):
            with pytest.raises(ValueError, match=re.escape(
                    f"hi must be below 2^63, got {hi}")):
                members_in_range((1 << 63) - 1000, hi)

    def test_limit_from_2_63_rejected_at_call(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sieved before checking the limit")
        monkeypatch.setattr(enumeration, "_chunk_loop", fail)
        for limit in (1 << 63, (1 << 63) + 1, 1 << 64):
            message = re.escape(f"limit must be below 2^63, got {limit}")
            for call in (lambda: sieve(limit),
                         lambda: sieve_text_chunks(limit),
                         lambda: find_runs(limit)):
                with pytest.raises(ValueError, match=message):
                    call()

    @pytest.mark.parametrize("lo", [0, -3])
    def test_non_positive_lo_rejected(self, lo):
        with pytest.raises(ValueError, match="lo must be >= 1"):
            members_in_range(lo, 5)
        with pytest.raises(ValueError, match="lo must be >= 1"):
            odd_counts_in_range(lo, 5, [])
        assert members_in_range(5, 4) == []

    # an empty window reaches no kernel, which refuses a negative hi
    # (OverflowError) and a lo past 2^63 (ValueError)
    @pytest.mark.parametrize("lo, hi", [
        (5, 4), (5, -1), (5, -(1 << 64)), (1 << 64, (1 << 63) - 1)],
        ids=["lo-1", "-1", "-2^64", "lo-2^64"])
    def test_empty_window_calls_no_kernel(self, monkeypatch, lo, hi):
        def fail():
            raise AssertionError("an empty window called the kernel")
        monkeypatch.setattr(enumeration, "_kernel", fail)
        assert members_in_range(lo, hi) == []
        assert odd_counts_in_range(lo, hi, []) == []
        if hi == lo - 1:
            assert odd_counts_in_range(lo, hi, [hi, hi]) == [0, 0]

    def test_bad_workers(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("100 5\n")  # a rejected call leaves it as it is
        for run in (lambda: sieve(1000, 0),
                    lambda: sieve_text_chunks(1000, 0, str(path)),
                    lambda: counting(1000, [500], workers=0)):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run()
        assert path.read_text() == "100 5\n"

    @pytest.mark.parametrize("call", [
        lambda: sieve(0),
        lambda: sieve_text_chunks(0),
        lambda: counting(0, []),
        lambda: counting(5, [], workers=0),
    ], ids=["sieve", "sieve_text_chunks", "counting-limit",
            "counting-workers"])
    def test_bad_arguments_rejected_at_call(self, call):
        with pytest.raises(ValueError, match="must be >= 1"):
            call()  # no iteration: the error comes before any chunk

    def test_first_kernel_load_in_worker_threads(self, tmp_path):
        # A fresh interpreter with an empty kernel cache first calls the
        # kernel in two threads at once: it is compiled once, and both
        # windows come out right.
        script = ("import subprocess, sys, threading\n"
                  "from isosquare import enumeration\n"
                  "enumeration._CACHE = sys.argv[1]\n"
                  "compiles, run = [], subprocess.run\n"
                  "subprocess.run = lambda *a, **k: compiles.append(a) "
                  "or run(*a, **k)\n"
                  "found = {}\n"
                  "def work(lo):\n"
                  "    found[lo] = enumeration.members_in_range(lo, lo + "
                  "2**15 - 1)\n"
                  "threads = [threading.Thread(target=work, args=(lo,))\n"
                  "           for lo in (1, 2**15 + 1)]\n"
                  "for t in threads: t.start()\n"
                  "for t in threads: t.join()\n"
                  "print(len(compiles), *found[1], *found[2**15 + 1])")
        cache = tmp_path / "cache"
        proc = subprocess.run([sys.executable, "-c", script, str(cache)],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        compiles, *members = map(int, proc.stdout.split())
        assert compiles == 1
        assert members == oracle_members(2**16)
        assert len(os.listdir(cache)) == 1


def check_odd_counts(lo, hi, odd):
    """odd_counts_in_range on [lo, hi] against its sorted odd members, at
    points 32 apart (16 odd integers, two vectors of 8) from each start
    lo - 1, lo + 1, ..., lo + 29: so every odd integer is tested in a full
    vector in most calls, and together the counts pin down each one."""
    for start in range(lo - 1, lo + 31, 2):
        points = sorted({lo - 1, hi, *range(start, hi + 1, 32)})
        assert odd_counts_in_range(lo, hi, points) == [
            bisect_left(odd, p + 1) for p in points]


class TestChunkLoop:
    """_chunk_loop's contract, on chunks of 10 integers: chunks come in
    order, on min(workers, chunks) threads at most 2 * workers + 1 ahead
    of the consumer, or in the calling thread and none ahead where that
    is one thread; a chunk's exception reaches the consumer, and closing
    drops the chunks not yet started and joins every thread.  Warnings
    are errors, so an exception left unhandled in a thread fails the
    test."""

    @pytest.fixture(autouse=True)
    def ten_integer_chunks(self, monkeypatch):
        chunks_of(monkeypatch, 10)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_in_order_under_fast_switching(self, workers):
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            chunks = list(enumeration._chunk_loop(
                lambda lo, hi: (lo, hi), 5, 100, workers))
        finally:
            sys.setswitchinterval(interval)
        assert chunks == [(10, (5, 10))] + [
            (hi, (hi - 9, hi)) for hi in range(20, 101, 10)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_chunk_exception_reaches_consumer(self, workers, k):
        before = threading.active_count()
        failure = RuntimeError("chunk failed")

        def kernel(lo, hi):
            if lo == 10 * k + 1:
                raise failure
            return lo

        yielded = []
        with pytest.raises(RuntimeError) as raised:
            for _, lo in enumeration._chunk_loop(kernel, 1, 100, workers):
                yielded.append(lo)
        assert raised.value is failure
        assert yielded == list(range(1, 10 * k, 10))
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("taken", [1, 3])
    def test_no_kernel_call_past_the_lookahead(self, workers, taken):
        # Holding chunk `taken`, the consumer has let 2 * workers more
        # start, or none with one worker.
        before = threading.active_count()
        started = []
        chunks = enumeration._chunk_loop(
            lambda lo, hi: started.append(lo // 10), 1, 100, workers)
        list(islice(chunks, taken))
        ahead = list(range(min(10, taken + (2 * workers if workers > 1
                                             else 0))))
        deadline = time.monotonic() + 30
        while len(started) < len(ahead) and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)  # time for any call past the lookahead to start
        chunks.close()
        assert sorted(started) == ahead
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("taken", [1, 3])
    def test_close_drops_chunks_not_started(self, workers, taken):
        # Chunks from index `taken` on wait at the gate, so when the
        # consumer closes the loop, at most `workers` of them have started
        # and the rest of the lookahead is still queued; the gate opens
        # only after the close has begun.
        before = threading.active_count()
        started, gate = [], threading.Event()

        def kernel(lo, hi):
            started.append(lo // 10)
            if lo // 10 >= taken:
                assert gate.wait(timeout=30)
            return lo

        chunks = enumeration._chunk_loop(kernel, 1, 100, workers)
        assert [lo for _, lo in islice(chunks, taken)] == list(
            range(1, 10 * taken, 10))
        opener = threading.Timer(0.2, gate.set)
        opener.start()
        chunks.close()
        opener.join(timeout=30)
        assert not opener.is_alive()
        assert set(range(taken)) <= set(started)
        assert set(started) <= set(range(taken + workers))
        assert threading.active_count() == before

    def test_one_worker_runs_in_the_calling_thread(self):
        before, caller = threading.active_count(), threading.get_ident()
        calls = []

        def kernel(lo, hi):
            calls.append((threading.get_ident(), threading.active_count()))

        list(enumeration._chunk_loop(kernel, 1, 100, 1))
        assert calls == [(caller, before)] * 10

    def test_no_more_threads_than_chunks(self):
        before, alive = threading.active_count(), []

        def kernel(lo, hi):
            alive.append(threading.active_count() - before)
            return lo

        for _ in enumeration._chunk_loop(kernel, 1, 20, 4):
            alive.append(threading.active_count() - before)
        assert len(alive) == 4 and max(alive) <= 2
        assert threading.active_count() == before


class TestSquareWeight:
    VALUES = [(1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 40) + 7,
              (1 << 62) + 12345, (1 << 63) - 1]

    # each value alone, then windows of two blocks ending at each value,
    # which members_in_range tests in three kernel calls; their odd
    # integers are counted too; from 2^32 on the kernel squares in 128
    # bits, on either path
    @pytest.mark.parametrize("block", [[m] for m in VALUES] + [VALUES])
    def test_matches_big_int(self, kernel_paths, block):
        width = 0 if len(block) == 1 else 2 * BLOCK
        for m in block:
            expected = [x for x in range(m - width, m + 1)
                        if (x * x).bit_count() == x.bit_count()]
            for path in kernel_paths():
                assert members_in_range(m - width, m) == expected, path
                check_odd_counts(m - width, m, [x for x in expected if x % 2])


def text(members):
    """The members in decimal, one a line: what the text kernel writes."""
    return "".join(f"{m}\n" for m in members)


def joined(chunks):
    """The text of sieve_text_chunks' chunks, in the order handed out."""
    return "".join(chunk for _, chunk in chunks)


def chunks_of(monkeypatch, size):
    """Sieve on a grid of `size` integers for the rest of the test."""
    monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", size)


class TestBlockKernel:
    """Every entry point on each path of the kernel this CPU has."""

    # Single integers, windows ending at p or starting one past it, and
    # even ends (which step 2 skips), around multiples of BLOCK, a chunk
    # end, 2^32 (one uint64 square, then 128 bits), 2^40 and the last
    # integers below 2^63.
    WINDOWS = [(p + a, p + b)
               for p in (2 * BLOCK, 3 * BLOCK, DEFAULT_CHUNK, 1 << 32,
                         (1 << 32) + 3 * BLOCK, 1 << 40, 1 << 63)
               for a, b in ((-1, -1), (0, 0), (1, 1), (-40, -1), (0, 40),
                            (-41, 40), (-40, 0), (1, 41))
               if p + b < 1 << 63]

    @staticmethod
    def check(kernel_paths, lo, hi, points, member=oracle_is_member):
        """members_in_range, its text, odd_counts_in_range at the points
        and check_odd_counts, on each path, against the member
        predicate."""
        members = [m for m in range(lo, hi + 1) if member(m)]
        odd = [m for m in members if m % 2]
        counts = [bisect_left(odd, p + 1) for p in points]
        for path in kernel_paths():
            assert members_in_range(lo, hi) == members, path
            assert enumeration._members_text(lo, hi) == text(members), path
            assert odd_counts_in_range(lo, hi, points) == counts, path
            check_odd_counts(lo, hi, odd)

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_matches_oracle(self, kernel_paths, lo, hi):
        self.check(kernel_paths, lo, hi, list(range(lo - 1, hi + 1)))

    # The vector loops take 16 integers at a time below 2^32 and 8 from
    # there on, and leave the rest to the scalar ones: windows of every
    # length up to 33 (two 16-lane vectors and one more integer at step 2)
    # that start at 1 or end at, or start at, a block end, a chunk end, the
    # last integer whose square fits a uint64, 2^32, 2^40 and 2^63 - 1.
    @pytest.mark.parametrize("p", [1, 2 * BLOCK, DEFAULT_CHUNK, (1 << 32) - 1,
                                   1 << 32, 1 << 40, (1 << 63) - 1])
    def test_every_tail_length(self, kernel_paths, p):
        for length in range(34):
            for lo in {p, p - length + 1}:
                hi = lo + length - 1
                if lo >= 1 and hi < 1 << 63:
                    self.check(kernel_paths, lo, hi,
                               [lo - 1, (lo + hi) // 2, hi][:length + 1])

    # A text line grows a digit where the members pass 10^k: a window from
    # the last member below 10^k to the first from it on, written by one
    # kernel call, where they lie within 4096 integers (k <= 9 but 7), else
    # a window around each, since the members grow sparse.
    @pytest.mark.parametrize("k", range(1, 19))
    def test_text_across_powers_of_ten(self, kernel_paths, k):
        p, width = 10**k, 1 << 10
        while not (below := members_in_range(max(1, p - width), p - 1)):
            width *= 4
        while not (above := members_in_range(p, p + width)):
            width *= 4
        below, above = below[-1], above[0]
        windows = ([(below - 2, above + 2)] if above - below < 4096
                   else [(below - 2, below + 2), (above - 2, above + 2)])
        for lo, hi in windows:
            self.check(kernel_paths, max(lo, 1), hi, [max(lo, 1) - 1, hi])

    # Random windows of up to 300 integers, at every magnitude below 2^63.
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 63).flatmap(
        lambda k: st.integers(1 << (k - 1), (1 << k) - 1)),
        st.integers(0, 300))
    def test_paths_agree_with_is_isosquare(self, kernel_paths, lo, width):
        hi = min(lo + width - 1, (1 << 63) - 1)
        self.check(kernel_paths, lo, hi, [lo - 1, (lo + hi) // 2, hi],
                   member=is_isosquare)


class TestPathsAgree:
    """The scalar and vector paths on windows of 2^20 integers below 2^32,
    where the 16-lane loop does nearly all the vector path's work."""

    SIZE = 1 << 20
    # from 1, ending at 2^32 - 1 and from a seeded offset
    STARTS = [1, (1 << 32) - SIZE,
              random.Random(2004).randrange(1, (1 << 32) - SIZE)]

    @pytest.mark.parametrize("lo", STARTS)
    def test_same_list_text_and_odd_counts(self, kernel_paths, lo):
        hi = lo + self.SIZE - 1
        rng = random.Random(lo)
        points = sorted(rng.sample(range(lo - 1, hi + 1), 200))
        results = {path: (members_in_range(lo, hi),
                          enumeration._members_text(lo, hi),
                          odd_counts_in_range(lo, hi, points))
                   for path in kernel_paths()}
        members, lines, counts = results.pop("scalar")
        for path, result in results.items():
            assert result == (members, lines, counts), path
        assert lines == text(members)
        odd = [m for m in members if m % 2]
        assert counts == [bisect_left(odd, p + 1) for p in points]
        # an oracle sample: listed members, and integers listed or not
        listed = set(members)
        assert all(map(oracle_is_member, rng.sample(members, 100)))
        for m in rng.sample(range(lo, hi + 1), 300):
            assert (m in listed) == oracle_is_member(m), m


class TestThreadBuffers:
    """Threads that list members at once each get their own window's: each
    kernel call lists into buffers of its own."""

    # windows of two BLOCKs each, listed over and over by two threads at
    # once: with one pair of buffers for both threads, about one call in
    # 150 got lines of the other window
    WINDOWS = [(1, 2 * BLOCK), (2 * BLOCK + 1, 4 * BLOCK)]

    @classmethod
    def list_at_once(cls, lister, expected):
        start = threading.Barrier(2, timeout=60)
        results = [[], []]

        def list_window(i):
            start.wait()
            results[i] += (lister(*cls.WINDOWS[i]) for _ in range(1000))

        threads = [threading.Thread(target=list_window, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for i, found in enumerate(results):
            assert found == [expected[i]] * 1000, cls.WINDOWS[i]

    def test_threads_at_once_each_get_the_oracle_list(self):
        self.list_at_once(members_in_range, [
            [m for m in range(lo, hi + 1) if oracle_is_member(m)]
            for lo, hi in self.WINDOWS])

    def test_threads_at_once_each_get_the_oracle_text(self):
        self.list_at_once(enumeration._members_text, [
            text(m for m in range(lo, hi + 1) if oracle_is_member(m))
            for lo, hi in self.WINDOWS])


class TestKernelCalls:
    """The extension module's boundary: one call per chunk, no argument
    wrapped silently, buffers that grow, and no memory kept."""

    @staticmethod
    def counted(monkeypatch):
        """The names of the kernel's entry points as they are called, through
        a proxy put in place of the loaded module."""
        kernel, calls = enumeration._kernel(), []

        class Proxy:
            def __getattr__(self, name):
                entry = getattr(kernel, name)
                return lambda *args: calls.append(name) or entry(*args)
        monkeypatch.setattr(enumeration, "_load", Proxy)
        return calls

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_kernel_call_per_chunk(self, monkeypatch, workers):
        # chunks of 2.5 BLOCKs: 4 of them up to 10 BLOCKs
        chunks_of(monkeypatch, 5 * BLOCK // 2)
        limit = 10 * BLOCK
        members = oracle_members(limit)
        calls = self.counted(monkeypatch)
        assert joined(sieve_text_chunks(limit, workers)) == text(members)
        assert calls == ["members_text"] * 4
        calls.clear()
        assert list(sieve(limit, workers)) == members
        assert calls == ["members"] * 4
        calls.clear()
        assert members_in_range(1, limit) == members
        assert enumeration._members_text(1, limit) == text(members)
        assert calls == ["members", "members_text"]

    def test_text_outgrows_the_first_buffer(self, kernel_paths):
        # A call's buffer first has room for one BLOCK's members and lines,
        # so the second BLOCK grows it, keeping the lines (or, listing
        # ints, the members) of the first; then come a BLOCK and a tail.
        lo, hi = 1, 3 * BLOCK + 99
        members = oracle_members(hi)
        for path in kernel_paths():
            assert members_in_range(lo, hi) == members, path
            assert enumeration._members_text(lo, hi) == text(members), path

    # Each argument of each entry point: below 0 and from 2^64 on an
    # OverflowError, not an int a TypeError, where ctypes' c_uint64 turned
    # -1 into 2^64 - 1 without an error.
    ARGUMENTS = {
        "members-lo": lambda k, x: k.members(x, 10),
        "members-hi": lambda k, x: k.members(1, x),
        "members_text-lo": lambda k, x: k.members_text(x, 10),
        "members_text-hi": lambda k, x: k.members_text(1, x),
        "odd_counts-lo": lambda k, x: k.odd_counts(x, 10, [5]),
        "odd_counts-hi": lambda k, x: k.odd_counts(1, x, [5]),
        "odd_counts-point": lambda k, x: k.odd_counts(1, 10, [5, x]),
    }
    BAD = {"minus-1": (-1, OverflowError),
           "minus-2^64": (-(1 << 64), OverflowError),
           "2^64": (1 << 64, OverflowError),
           "float": (1.0, TypeError),
           "str": ("1", TypeError),
           "none": (None, TypeError)}

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("call", ARGUMENTS)
    def test_no_silent_wrap(self, call, bad):
        value, error = self.BAD[bad]
        with pytest.raises(error):
            self.ARGUMENTS[call](enumeration._kernel(), value)
        assert members_in_range(1, 16) == oracle_members(16)

    def test_select_argument(self):
        # a path below -2^31 or from 2^31 on is an OverflowError, one that
        # is not an int a TypeError; a negative path keeps the selection
        kernel = enumeration._kernel()
        selected = kernel.isq_select(-1)
        for value in (-(1 << 64), -(1 << 31) - 1, 1 << 31, 1 << 64):
            with pytest.raises(OverflowError):
                kernel.isq_select(value)
        for value in (1.0, "1", None):
            with pytest.raises(TypeError):
                kernel.isq_select(value)
        assert kernel.isq_select(-5) == kernel.isq_select(-1) == selected

    @pytest.mark.parametrize("lo, hi", [(0, 10), (1, 1 << 63),
                                        ((1 << 63) + 1, 10),
                                        (1, (1 << 64) - 1)])
    def test_window_outside_the_kernel_range(self, lo, hi):
        kernel = enumeration._kernel()
        for call in (lambda: kernel.members(lo, hi),
                     lambda: kernel.members_text(lo, hi),
                     lambda: kernel.odd_counts(lo, hi, [])):
            with pytest.raises(ValueError, match=re.escape(
                    f"1 <= lo <= 2^63 and hi < 2^63, got lo = {lo}, "
                    f"hi = {hi}")):
                call()
        # a lo past hi, up to 2^63, lists and counts nothing
        assert kernel.members(1 << 63, 10) == []
        assert kernel.members_text(1 << 63, (1 << 63) - 1) == ""
        assert kernel.odd_counts(1 << 63, (1 << 63) - 1, [5, 7]) == [0, 0]

    def test_calls_keep_no_memory(self):
        # 1,000 calls of each entry point, errors included, leave the
        # traced size (PyMem_Raw buffers as well as objects) where it was
        kernel = enumeration._kernel()
        points = list(range(0, 2 * BLOCK, 1000))
        calls = [lambda: kernel.members(1, 2 * BLOCK),
                 lambda: kernel.members_text(1, 2 * BLOCK),
                 lambda: kernel.odd_counts(1, 2 * BLOCK, points),
                 lambda: kernel.isq_select(-1),
                 lambda: kernel.members(-1, 10),
                 lambda: kernel.members_text(0, 10),
                 lambda: kernel.odd_counts(1, 2 * BLOCK, [*points, "x"])]

        def repeat(call, times):
            for _ in range(times):
                with contextlib.suppress(OverflowError, TypeError,
                                         ValueError):
                    call()
        tracemalloc.start()
        try:
            for call in calls:
                repeat(call, 2)
                before = tracemalloc.get_traced_memory()[0]
                repeat(call, 1000)
                assert tracemalloc.get_traced_memory()[0] - before < 4096
        finally:
            tracemalloc.stop()


# Lists the members up to 2^12 in a fresh interpreter, with the kernel
# cached in argv[1]; with "no-compiler", running the compiler fails.
KERNEL_RUN = ("import subprocess, sys\n"
              "from isosquare import enumeration\n"
              "enumeration._CACHE = sys.argv[1]\n"
              "if sys.argv[2:] == ['no-compiler']:\n"
              "    def refuse(*args, **kwargs):\n"
              "        raise AssertionError('the compiler ran')\n"
              "    subprocess.run = refuse\n"
              "print(*enumeration.members_in_range(1, 2**12))\n")


class TestKernel:
    """_sieve.c is compiled once into its cache, then loaded from there."""

    @staticmethod
    def start(cache, *args):
        return subprocess.Popen(
            [sys.executable, "-c", KERNEL_RUN, str(cache), *args],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    @staticmethod
    def members(proc):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == ""
        return list(map(int, out.split()))

    def test_second_process_does_not_compile(self, tmp_path):
        cache = tmp_path / "cache"
        assert self.members(self.start(cache)) == oracle_members(2**12)
        (library,) = cache.iterdir()
        built = library.stat()
        assert self.members(self.start(cache, "no-compiler")) == \
            oracle_members(2**12)
        assert list(cache.iterdir()) == [library]
        assert (library.stat().st_ino, library.stat().st_mtime_ns) == (
            built.st_ino, built.st_mtime_ns)

    def test_first_uses_at_once_leave_one_library(self, tmp_path):
        cache = tmp_path / "cache"
        together = [self.start(cache) for _ in range(2)]
        for proc in together:
            assert self.members(proc) == oracle_members(2**12)
        (library,) = cache.iterdir()
        assert re.fullmatch(r"_sieve\.[0-9a-f]{8}\.so", library.name)
        # complete: a later process loads it without compiling
        assert self.members(self.start(cache, "no-compiler")) == \
            oracle_members(2**12)

    @pytest.mark.parametrize("how", ["not-a-directory", "read-only"])
    def test_unwritable_cache_builds_privately(self, monkeypatch, tmp_path,
                                               fresh_kernel, how):
        # As root every write is allowed, so os.access is told the cache
        # is read-only.  The private build goes to a temporary directory,
        # removed once the library is loaded.
        private = tmp_path / "tmp"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        if how == "not-a-directory":
            blocker = tmp_path / "file"
            blocker.write_text("")
            monkeypatch.setattr(enumeration, "_CACHE", str(blocker / "c"))
        else:
            fresh_kernel.mkdir()
            access = os.access
            monkeypatch.setattr(os, "access", lambda target, mode: (
                access(target, mode) and str(target) != str(fresh_kernel)))
        lo, hi = (1 << 32) - 3000, (1 << 32) + 3000
        members = [m for m in range(lo, hi + 1) if oracle_is_member(m)]
        assert members_in_range(lo, hi) == members
        assert odd_counts_in_range(lo, hi, [hi]) == [
            sum(m % 2 for m in members)]
        assert list(private.iterdir()) == []
        if how == "read-only":
            assert list(fresh_kernel.iterdir()) == []

    def test_vector_path_chosen_where_the_cpu_has_it(self):
        # A kernel that ran the scalar path there would count right, only
        # slower: a fresh process must load it on the vector path.
        try:
            cpuinfo = Path("/proc/cpuinfo").read_text()
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
        if not re.search(r"\bavx512_vpopcntdq\b", cpuinfo):
            pytest.skip("the CPU has no AVX-512 VPOPCNTDQ (avx512_vpopcntdq "
                        "in /proc/cpuinfo)")
        proc = subprocess.run(
            [sys.executable, "-c", "from isosquare import enumeration\n"
             "print(enumeration._kernel().isq_select(-1))"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    def test_load_check_mismatch_raises(self, monkeypatch, unloaded_kernel):
        # Each load compares every entry point of the selected path with
        # is_isosquare; told other answers, or given a byte of text or a
        # member of the list-only call short from the listing entry point
        # alone, it refuses the kernel.
        for fault in ("answers", "text", "list"):
            if fault == "answers":
                monkeypatch.setattr(enumeration, "is_isosquare",
                                    lambda m: not is_isosquare(m))
            else:
                short_kernel(monkeypatch, fault)
            for _ in range(2):  # a refused kernel is not cached
                with pytest.raises(OSError, match=re.escape(
                        "path disagrees with is_isosquare on "
                        "[4294967251, 4294967340]")):
                    enumeration._kernel()
            monkeypatch.undo()
        assert members_in_range(1, 16) == oracle_members(16)
        assert enumeration._members_text(1, 16) == text(oracle_members(16))

    def test_compiles_without_warnings(self, tmp_path):
        # the loader's own command, Python's include directory included
        proc = subprocess.run(
            [*enumeration._compiler(), "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / "kernel.so"), enumeration._SOURCE],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestCheckpoint:
    """sieve_text_chunks' checkpoint, the one the enumerate command keeps,
    with the chunk text checked against oracle_members."""

    def test_records_are_monotone(self, tmp_path, monkeypatch):
        # each record replaces the one before: the file is always one line
        chunks_of(monkeypatch, 1000)
        path = tmp_path / "ck.txt"
        rows = []
        for _ in sieve_text_chunks(10_000, checkpoint=str(path)):
            if path.exists():
                assert path.read_text().count("\n") == 1
                rows.append(read_checkpoint(str(path)))
        assert rows == [(end, len(oracle_members(end)))
                        for end in range(1000, 10_000, 1000)]
        assert path.read_text() == f"10000 {len(oracle_members(10_000))}\n"
        assert os.listdir(tmp_path) == ["ck.txt"]  # no .tmp left behind

    def test_resume_emits_remaining_members(self, tmp_path, monkeypatch):
        chunks_of(monkeypatch, 1000)
        path = str(tmp_path / "ck.txt")
        first = joined(sieve_text_chunks(4000, checkpoint=path))
        rest = joined(sieve_text_chunks(10_000, checkpoint=path))
        assert first + rest == text(oracle_members(10_000))
        assert read_checkpoint(path) == (10_000, len(oracle_members(10_000)))

    def test_chunk_recorded_only_after_consumer_resumes(self, tmp_path,
                                                        monkeypatch):
        chunks_of(monkeypatch, 1000)
        path = tmp_path / "ck.txt"
        chunks = sieve_text_chunks(10_000, checkpoint=str(path))
        end, chunk = next(chunks)
        assert (end, chunk) == (1000, text(oracle_members(1000)))
        assert not path.exists()
        next(chunks)
        assert read_checkpoint(str(path)) == (end, len(oracle_members(end)))
        chunks.close()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("taken", [3, 5000])
    def test_close_mid_chunk_loses_no_member(self, tmp_path, monkeypatch,
                                             workers, taken):
        # The consumer passes the members on one line at a time and stops
        # after `taken` of them, inside a chunk.
        chunks_of(monkeypatch, 1 << 16)
        path = str(tmp_path / "ck.txt")
        full = list(sieve(10**6))
        assert len(full) == 10_191
        first = sieve_text_chunks(10**6, workers, path)
        lines = (line for _, chunk in first
                 for line in chunk.splitlines(keepends=True))
        assert "".join(islice(lines, taken)) == text(full[:taken])
        first.close()
        rest = joined(sieve_text_chunks(10**6, workers, path))
        resumed_at = len(full) - rest.count("\n")
        assert 0 <= resumed_at <= taken
        assert rest == text(full[resumed_at:])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 400), st.integers(1, 2),
           st.data())
    def test_interrupted_and_torn_run_resumes(self, limit, size, workers,
                                              data):
        # Delivery is at least once: a resumed run starts after the record,
        # and every member up to it was handed out.  A stray ck.txt.tmp,
        # which earlier versions wrote and renamed, is ignored and left as
        # it is; a cut record is never read as a smaller count.
        full = oracle_members(limit)
        with (tempfile.TemporaryDirectory() as tmp,
              pytest.MonkeyPatch.context() as patch):
            chunks_of(patch, size)
            ck = Path(tmp) / "ck.txt"
            path = str(ck)
            first = sieve_text_chunks(limit, workers, path)
            chunks = -(-limit // size)
            taken = data.draw(st.integers(0, chunks), label="chunks taken")
            handed = joined(islice(first, taken))
            first.close()
            stray = data.draw(st.none() | st.binary(max_size=12),
                              label="stray .tmp")
            if stray is not None:
                Path(path + ".tmp").write_bytes(stray)
            recorded = ck.read_bytes() if ck.exists() else b""
            for cut in range(1, len(recorded)):
                ck.write_bytes(recorded[:cut])
                with pytest.raises(ValueError, match=re.escape(path)):
                    read_checkpoint(path)
            ck.write_bytes(recorded)  # empty when nothing was recorded
            done, count = read_checkpoint(path)
            assert done == min(limit, max(taken - 1, 0) * size)
            before = [m for m in full if m <= done]
            assert count == len(before)
            assert handed.startswith(text(before))
            rest = joined(sieve_text_chunks(limit, workers, path))
            assert rest == text(full[count:])
            assert ck.read_bytes() == f"{limit} {len(full)}\n".encode()
            if stray is None:
                assert os.listdir(tmp) == ["ck.txt"]
            else:
                assert Path(path + ".tmp").read_bytes() == stray

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("done", [0, 1, 2999, 3000, 7777])
    def test_text_chunks_match_list_chunks(self, tmp_path, monkeypatch,
                                           workers, done):
        # Each chunk's text lists the oracle's members of that chunk, and
        # the record after it adds their number, fresh and resumed at,
        # past and inside a chunk end.
        chunks_of(monkeypatch, 3000)
        full = oracle_members(20_000)
        path = tmp_path / "ck.txt"
        path.write_text(f"{done} {done // 3}\n")
        chunks, records = [], []
        for end, chunk in sieve_text_chunks(20_000, workers, str(path)):
            records.append(path.read_text())
            chunks.append((end, chunk))
        records.append(path.read_text())
        ends = [e for e in range(3000, 20_000, 3000) if e > done] + [20_000]
        lists = [[m for m in full if lo < m <= hi]
                 for lo, hi in zip([done] + ends, ends)]
        assert chunks == [(end, text(chunk)) for end, chunk in zip(ends, lists)]
        counts = accumulate([done // 3] + [len(chunk) for chunk in lists])
        assert records == [f"{end} {count}\n"
                           for end, count in zip([done] + ends, counts)]

    def test_resume_across_2_32_independent_of_workers(self, tmp_path,
                                                       monkeypatch):
        # the chunk ending at 4,295,000,000 straddles 2^32
        chunks_of(monkeypatch, 100_000)
        done, limit = (1 << 32) - 50_000, (1 << 32) + 250_000
        path = tmp_path / "ck.txt"
        runs = []
        for workers in (1, 2, 3):
            path.write_text(f"{done} 7\n")
            runs.append(list(sieve_text_chunks(limit, workers, str(path))))
            found = joined(runs[-1])
            assert read_checkpoint(str(path)) == (limit, 7 + found.count("\n"))
        assert runs[0] == runs[1] == runs[2]
        assert [end for end, _ in runs[0]] == [4_295_000_000, 4_295_100_000,
                                               4_295_200_000, limit]
        assert found == text(members_in_range(done + 1, limit))

    def test_non_monotone_rejected(self, tmp_path):
        # two records, in order or not, are the old log format: refused
        path = tmp_path / "ck.txt"
        for content in (b"100 5\n50 7\n", b"100 5\n200 7\n", b"100 5\n\n"):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=re.escape(
                    f"checkpoint {path}: expected one line 'chunk_end count'")):
                read_checkpoint(str(path))

    def test_torn_record_refused_at_every_cut(self, tmp_path, monkeypatch):
        chunks_of(monkeypatch, 1000)
        path = tmp_path / "ck.txt"
        full = joined(sieve_text_chunks(10_000, checkpoint=str(path)))
        assert full == text(oracle_members(10_000))
        record = path.read_bytes()
        assert record == f"10000 {full.count(chr(10))}\n".encode()
        path.write_bytes(b"")
        assert read_checkpoint(str(path)) == (0, 0)
        for cut in range(len(record)):
            for junk in (b"", b"\xff"):  # a torn tail may hold any byte
                torn = record[:cut] + junk
                if not torn:
                    continue  # the empty file, which starts a run afresh
                path.write_bytes(torn)
                for call in (lambda: read_checkpoint(str(path)),
                             lambda: sieve_text_chunks(10_000, 1, str(path))):
                    with pytest.raises(ValueError, match=re.escape(
                            f"checkpoint {path}: expected one line")):
                        call()
                assert path.read_bytes() == torn

    @pytest.mark.parametrize("content, message", [
        (b"83\n", "expected one line 'chunk_end count'"),
        (b"5 x\n", "expected one line 'chunk_end count'"),
        (b"5 1 7\n", "expected one line 'chunk_end count'"),
        (b"\xff\xfe 3\n", "expected one line 'chunk_end count'"),
        (b"10 -1\n", "expected one line 'chunk_end count'"),
        (b"10 50\n", "count 50 exceeds chunk_end 10"),
        *((record, "expected one line 'chunk_end count'")
          for record in NON_CANONICAL.values()),
    ], ids=["one-field", "not-a-number", "three-fields", "not-utf-8",
            "negative", "count-above-end", *NON_CANONICAL])
    def test_complete_malformed_line_rejected(self, tmp_path, content,
                                              message):
        path = tmp_path / "ck.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: {message}")):
            read_checkpoint(str(path))

    def test_stray_tmp_is_ignored_and_left_as_is(self, tmp_path,
                                                 monkeypatch):
        # earlier versions wrote ck.txt.tmp and renamed it, so a kill
        # between the two could leave it
        chunks_of(monkeypatch, 1000)
        path, tmp = tmp_path / "ck.txt", tmp_path / "ck.txt.tmp"
        full = oracle_members(10_000)
        first = sieve_text_chunks(10_000, checkpoint=str(path))
        list(islice(first, 4))
        first.close()
        tmp.write_bytes(b"4000 9\xff")
        done, count = read_checkpoint(str(path))
        assert (done, count) == (3000, sum(m <= 3000 for m in full))
        rest = sieve_text_chunks(10_000, checkpoint=str(path))
        assert joined(rest) == text(full[count:])
        assert path.read_text() == f"10000 {len(full)}\n"
        assert tmp.read_bytes() == b"4000 9\xff"

    def test_resumed_run_leaves_one_canonical_line(self, tmp_path,
                                                   monkeypatch):
        # Each record is written over the one before and is never shorter:
        # from a 4-byte record to 11-byte ones, the file holds exactly the
        # last record at every step.
        chunks_of(monkeypatch, 7)
        full = oracle_members(3000)
        path = tmp_path / "ck.txt"
        path.write_bytes(b"5 4\n")
        files, records = [], []
        for end, _ in sieve_text_chunks(3000, 2, str(path)):
            files.append(path.read_bytes())
            records.append((end, bisect_left(full, end + 1)))
        files.append(path.read_bytes())
        assert files == [b"%d %d\n" % r for r in [(5, 4)] + records]
        assert records[-1] == (3000, len(full))

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_non_regular_file_refused(self, tmp_path, kind):
        # a FIFO reads as empty and would block a writer with no reader
        path = tmp_path / "ck"
        if kind == "fifo":
            os.mkfifo(path)
        else:
            path.mkdir()
        for call in (lambda: read_checkpoint(str(path)),
                     lambda: sieve_text_chunks(10, 1, str(path))):
            with pytest.raises(ValueError, match=re.escape(
                    f"checkpoint {path}: not a regular file")):
                call()

    def test_killed_writer_leaves_a_whole_record(self, tmp_path):
        # A child process resumes from the record it finds and writes ever
        # larger records through _recorded as fast as it can, its chunks
        # holding count = chunk_end // 2 lines in all.  Once its first
        # record is written it says so on a pipe, and it is killed at a
        # seeded random moment after that.  Each kill leaves a record that
        # reads, keeps that count and is larger than the one before.  The
        # first record is one chunk short of 10^5, so the records soon
        # outgrow it by a byte.
        def halves(end):
            for hi in count(end + 3, 3):
                yield hi, "\n" * (hi // 2 - end // 2)
                end = hi

        path = str(tmp_path / "ck.txt")
        last = (99_996, 49_998)
        Path(path).write_bytes(b"%d %d\n" % last)
        rng = random.Random(32)
        for _ in range(200):
            started, ready = os.pipe()
            pid = os.fork()
            if not pid:
                try:
                    end, lines = read_checkpoint(path)
                    chunks = enumeration._recorded(halves(end), path, lines)
                    for taken, _ in enumerate(chunks):
                        if taken == 1:  # the first record is written
                            os.write(ready, b"1")
                finally:
                    os._exit(1)
            try:
                os.close(ready)
                os.read(started, 1)  # b"" at once if the child died
                time.sleep(rng.uniform(0, 0.001))
            finally:
                os.kill(pid, signal.SIGKILL)
                status = os.waitpid(pid, 0)[1]
                os.close(started)
            assert os.WIFSIGNALED(status)  # still writing when killed
            record = read_checkpoint(path)
            assert record[1] == record[0] // 2 and record > last
            last = record
        assert last[0] > 10**5

    def test_resume_near_limit_skips_chunks_lazily(self, tmp_path):
        limit = 1 << 40
        path = tmp_path / "ck.txt"
        path.write_text(f"{limit - 100} 0\n")
        # the 2^18 chunks skipped hold under 1 MiB beyond what one kernel
        # call's buffers take
        tracemalloc.start()
        try:
            enumeration._members_text(limit - 99, limit)
            kernel_call = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            chunks = list(sieve_text_chunks(limit, checkpoint=str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [(limit, text(members_in_range(limit - 99, limit)))]
        assert peak < kernel_call + (1 << 20)

    # 9,500 lies in the last chunk of the full run, which ends off the grid
    @pytest.mark.parametrize("limit", [9_999, 9_500])
    def test_rerun_after_full_run_does_nothing(self, tmp_path, monkeypatch,
                                               limit):
        chunks_of(monkeypatch, 1000)
        path = tmp_path / "ck.txt"
        joined(sieve_text_chunks(9_999, checkpoint=str(path)))
        recorded = path.read_bytes()
        assert list(sieve_text_chunks(limit, 2, str(path))) == []
        assert path.read_bytes() == recorded


class TestResumeKernelCalls:
    """A resumed run writes each chunk's text with one kernel call, from
    the record on, whatever the resume point."""

    @staticmethod
    def spy_text(monkeypatch):
        calls = []  # (lo, hi) of every _members_text call
        members = enumeration._members_text

        def spy(lo, hi):
            calls.append((lo, hi))
            return members(lo, hi)
        monkeypatch.setattr(enumeration, "_members_text", spy)
        return calls

    # Chunks of 101 start at 910 and 1011.  Resumed after 454, 504 or 505
    # (first = 455, 505, 506), a chunk has lo at, just above or just below
    # 2 * first; each chunk is still written by one call.
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("done, lo", [(454, 910), (504, 1011),
                                          (505, 1011)])
    def test_resume_around_twice_first(self, tmp_path, monkeypatch, workers,
                                       done, lo):
        chunks_of(monkeypatch, 101)
        full = oracle_members(3000)
        count = bisect_left(full, done + 1)
        path = tmp_path / "ck.txt"
        path.write_text(f"{done} {count}\n")
        calls = self.spy_text(monkeypatch)
        chunks = list(sieve_text_chunks(3000, workers, str(path)))
        assert joined(chunks) == text(full[count:])
        assert path.read_text() == f"3000 {len(full)}\n"
        ends = [hi for hi, _ in chunks]
        assert sorted(calls) == list(zip([done + 1] + [e + 1 for e in ends],
                                         ends))
        assert (lo, lo + 100) in calls


class TestCounting:
    def test_p2(self):
        assert counting(10, [2]) == [CountSample(2, 1)]

    def test_p17(self):
        assert counting(20, [17]) == [CountSample(17, 11)]

    def test_p1(self):
        assert counting(10, [1]) == [CountSample(1, 0)]

    def test_strict_convention(self):
        # 16 is a member; p(16) excludes it, p(17) includes it
        assert counting(20, [16, 17]) == [CountSample(16, 10),
                                          CountSample(17, 11)]

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            counting(100, [5, 3])

    def test_grid_beyond_limit_rejected(self):
        with pytest.raises(ValueError):
            counting(100, [5, 200])

    def test_grid_above_2_63_rejected_at_call(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sieved before checking the grid")
        monkeypatch.setattr(enumeration, "_chunk_loop", fail)
        for grid in ([(1 << 63) + 1], [5, 10**19]):
            with pytest.raises(ValueError,
                               match=re.escape("at most 2^63")):
                counting(1 << 64, grid)

    def test_grid_at_2_63_counts_below_it(self, monkeypatch):
        # p(2^63) needs odd counts only up to 2^63 - 1, where the kernel
        # is still exact; a stub kernel over two huge chunks shows the
        # ranges that counting asks for.
        asked = []

        def kernel(lo, hi, points):
            asked.append((lo, hi))
            return [0] * len(points)
        monkeypatch.setattr(enumeration, "_odd_counts", kernel)
        monkeypatch.setattr(enumeration, "DEFAULT_CHUNK", 1 << 62)
        assert counting(1 << 64, [1 << 63]) == [CountSample(1 << 63, 0)]
        assert sorted(asked) == [(1, 1 << 62),
                                 ((1 << 62) + 1, (1 << 63) - 1)]

    def test_consistent_with_sieve_random_grid(self):
        limit = 50_000
        members = list(sieve(limit))
        rng = random.Random(42)
        grid = sorted(rng.sample(range(1, limit + 1), 50))
        for s in counting(limit, grid):
            assert s.count == sum(1 for m in members if m < s.n)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_matches_bisect_at_chunk_boundaries(self, workers):
        limit = 10**7  # three chunks of DEFAULT_CHUNK
        chunks = list(sieve_text_chunks(limit))
        assert len(chunks) == 3
        grid = {1, 2, 3, 16, 17, limit}
        for end, _ in chunks:
            grid |= {end - 1, end, end + 1} if end < limit else {end - 1, end}
        grid |= set(random.Random(7).sample(range(1, limit + 1), 50))
        grid = sorted(grid)
        members = list(sieve(limit))
        assert joined(chunks) == text(members)
        assert counting(limit, grid, workers=workers) == [
            CountSample(n, bisect_left(members, n)) for n in grid]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_far_below_limit(self, workers):
        # Only the odd integers below the last grid point are sieved.  Its
        # (n - 1) >> 1 lies well inside the first chunk, so a chunk's count
        # must run to its end, past its last query point.
        top = 3 * DEFAULT_CHUNK // 2 + 7
        grid = [1, 2, 999, 1000, top]
        members = list(sieve(top))
        assert counting(1 << 40, grid, workers=workers) == [
            CountSample(n, bisect_left(members, n)) for n in grid]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000).flatmap(lambda limit: st.tuples(
        st.just(limit),
        st.lists(st.integers(1, limit), unique=True, max_size=30))),
        st.integers(1, 2))
    def test_matches_oracle_property(self, limit_grid, workers):
        limit, grid = limit_grid
        grid.sort()
        members = oracle_members(limit)
        assert counting(limit, grid, workers=workers) == [
            CountSample(n, bisect_left(members, n)) for n in grid]

    def test_counts_non_decreasing(self):
        samples = counting(10_000, list(range(1, 10_001, 97)))
        counts = [s.count for s in samples]
        assert counts == sorted(counts)
        assert all(s.count <= s.n for s in samples)


class TestOddCounts:
    @staticmethod
    def expected(lo, hi, points):
        odd = [m for m in range(lo | 1, hi + 1, 2) if oracle_is_member(m)]
        return [bisect_left(odd, p + 1) for p in points]

    @pytest.mark.parametrize("lo, hi", [
        ((1 << 32) - 1001, (1 << 32) + 999),       # straddles 2^32
        ((1 << 32) - 2 * BLOCK - 500, (1 << 32) + 500),  # two blocks
        ((1 << 32) - 3, (1 << 32) + 1),
        ((1 << 63) - 999, (1 << 63) - 1),          # ends at member 2^63 - 1
        (2, 2 * BLOCK + 10),                       # a block end
        (1, 1),
    ])
    def test_matches_oracle(self, kernel_paths, lo, hi):
        # lo - 1, lo, hi, odd and even points inside, and around the second
        # block's start and the two range boundaries
        second = (lo | 1) + 2 * BLOCK
        edges = [p + d for p in (second, 1 << 32, 1 << 63) for d in (-1, 0, 1)]
        inner = random.Random(lo).sample(range(lo, hi + 1),
                                         min(20, hi - lo + 1))
        points = sorted({lo - 1, lo, hi, *inner,
                         *[p for p in edges if lo <= p <= hi]})
        assert hi == lo or {p % 2 for p in points} == {0, 1}
        expected = self.expected(lo, hi, points)
        for path in kernel_paths():
            assert odd_counts_in_range(lo, hi, points) == expected, path

    def test_repeated_points_and_empty_range(self):
        assert odd_counts_in_range(6, 15, [5, 7, 7, 15, 15]) == [0, 1, 1, 2, 2]
        assert odd_counts_in_range(5, 4, [4]) == [0]
        assert odd_counts_in_range(1, 1000, [0, 100, 1000]) == [0, 8, 36]

    # Unsorted points counted [36, 36] for [1000, 100]; a negative point
    # wrapped to 2^64 - 1 and was clamped to hi, as was one above hi.
    @pytest.mark.parametrize("lo, points", [
        (1, [1000, 100]), (1, [7, 6, 1000]), (1, [-1]), (1, [-1, 9]),
        (1, [5, 1001]), (10, [8])])
    def test_points_unsorted_or_outside_rejected(self, lo, points):
        with pytest.raises(ValueError, match=re.escape(
                f"points must be sorted and lie in [lo - 1, hi] = "
                f"[{lo - 1}, 1000]")):
            odd_counts_in_range(lo, 1000, points)

    @pytest.mark.parametrize("hi", [1 << 63, (1 << 63) + 1, 1 << 64])
    def test_hi_from_2_63_rejected(self, hi):
        with pytest.raises(ValueError, match=re.escape(
                f"hi must be below 2^63, got {hi}")):
            odd_counts_in_range((1 << 63) - 5, hi, [])


class TestFindRuns:
    def test_second_four_run(self):
        runs = find_runs(400, min_length=4)
        assert runs == [RunRecord(1, 4), RunRecord(316, 4)]

    def test_small(self, members_16):
        runs = find_runs(10, min_length=2)
        assert RunRecord(1, 4) in runs
        assert RunRecord(6, 3) in runs

    def test_empty(self):
        # the only run starting at or below 3 is 1..4, shorter than 5
        assert find_runs(3, min_length=5) == []

    @pytest.mark.parametrize("limit, min_length", [(1, 2), (2, 3), (3, 4)])
    def test_limit_below_min_length_still_extends(self, limit, min_length):
        assert find_runs(limit, min_length) == [RunRecord(1, 4)]

    def test_run_boundaries_are_non_members(self):
        from isosquare.membership import is_isosquare
        for r in find_runs(20_000, min_length=3):
            assert all(is_isosquare(r.start + j) for j in range(r.length))
            assert r.start == 1 or not is_isosquare(r.start - 1)
            assert not is_isosquare(r.start + r.length)

    def test_run_touching_limit_is_extended(self):
        # 316..319 are members; a scan stopping at 317 must still
        # report the full maximal run
        runs = find_runs(317, min_length=2)
        assert runs[-1] == RunRecord(316, 4)


class TestRecords:
    def test_count_sample(self):
        check_record(CountSample, {"n": 1000, "count": 100})

    def test_run_record(self):
        check_record(RunRecord, {"start": 316, "length": 4})

    def test_records_are_tuples(self):
        # records with equal values compare equal, whatever their type
        assert CountSample(1, 4) == RunRecord(1, 4) == (1, 4)


class TestScanGap:
    # 16: just above 2^32, 2^16 - 1 integers on is_isosquare; 17: 2^17 - 1
    # integers on the kernel's unsigned __int128 squares
    @pytest.mark.parametrize("k", [*range(1, 11), 16, 17])
    def test_gap_is_empty(self, k):
        assert scan_gap(k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            scan_gap(32)
        with pytest.raises(ValueError):
            scan_gap(0)
