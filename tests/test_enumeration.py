import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from bisect import bisect_left
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from isosquare import enumeration
from isosquare.enumeration import (BLOCK, DEFAULT_CHUNK, CountSample,
                                   RunRecord, counting, find_runs,
                                   members_in_range, odd_counts_in_range,
                                   read_checkpoint, scan_gap, sieve,
                                   sieve_chunks, square_weight)

from conftest import oracle_is_member, oracle_members

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_deterministic_across_workers(self):
        reference = list(sieve(200_000, workers=1, chunk_size=1 << 14))
        for workers in (2, 4):
            assert list(sieve(200_000, workers=workers,
                              chunk_size=1 << 14)) == reference

    def test_chunk_size_irrelevant(self):
        reference = list(sieve(50_000))
        assert list(sieve(50_000, chunk_size=777)) == reference

    def test_matches_python_popcount_above_2_31(self):
        lo = (1 << 31) + 1
        fast = [m for m in range(lo, lo + 2000)
                if m.bit_count() == (m * m).bit_count()]
        assert members_in_range(lo, lo + 1999) == fast

    @pytest.mark.parametrize("lo, hi", [
        ((1 << 31) - 1000, (1 << 31) + 1000),  # straddles 2^31
        ((1 << 32) - 2000, (1 << 32) - 1),     # ends at the last uint64 square
        ((1 << 32) - 1000, (1 << 32) + 1000),
        ((1 << 32), (1 << 32) + 2000),         # squares overflow 64 bits
        (BLOCK - 3, 3 * BLOCK + 5),            # two block boundaries, partial tail
        ((1 << 32) + 5, (1 << 32) + 2 * BLOCK + 13),  # two-limb squares
        ((1 << 63) - 2000, (1 << 63) - 1),     # ends at member 2^63-1
        ((1 << 63) - 1000, (1 << 63) + 1000),  # numpy and big-int paths
    ])
    def test_matches_oracle_across_boundaries(self, lo, hi):
        assert members_in_range(lo, hi) == [m for m in range(lo, hi + 1)
                                            if oracle_is_member(m)]

    @pytest.mark.parametrize("lo", [0, -3])
    def test_non_positive_lo_rejected(self, lo):
        with pytest.raises(ValueError, match="lo must be >= 1"):
            members_in_range(lo, 5)
        with pytest.raises(ValueError, match="lo must be >= 1"):
            odd_counts_in_range(lo, 5, [])
        assert members_in_range(5, 4) == []

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_bad_chunk_size(self, tmp_path, chunk_size):
        path = tmp_path / "ck.txt"
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            list(sieve(100, chunk_size=chunk_size, checkpoint=str(path)))
        assert not path.exists()

    def test_bad_workers(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("100 5\n")  # a rejected call leaves it as it is
        for run in (lambda: list(sieve(1000, 0, checkpoint=str(path))),
                    lambda: next(sieve_chunks(1000, 0, 100, str(path))),
                    lambda: counting(1000, [500], workers=0)):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run()
        assert path.read_text() == "100 5\n"

    @pytest.mark.parametrize("call", [
        lambda: sieve(0),
        lambda: sieve_chunks(0),
        lambda: counting(0, []),
        lambda: counting(5, [], workers=0),
    ], ids=["sieve", "sieve_chunks", "counting-limit", "counting-workers"])
    def test_bad_arguments_rejected_at_call(self, call):
        with pytest.raises(ValueError, match="must be >= 1"):
            call()  # no iteration: the error comes before any chunk

    def test_first_numpy_import_in_worker_threads(self):
        # A fresh interpreter first imports numpy inside both sieve workers.
        script = ("from isosquare.enumeration import sieve\n"
                  "print(*sieve(2**20, workers=2, chunk_size=2**14))")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        members = list(map(int, proc.stdout.split()))
        # The first four chunks, where both workers import numpy, against the
        # oracle (all of 2^20 takes it seconds); the rest against 1 worker.
        head = members[:bisect_left(members, 2**16 + 1)]
        assert head == oracle_members(2**16)
        assert members == list(sieve(2**20))


class TestSquareWeight:
    VALUES = [(1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 40) + 7,
              (1 << 62) + 12345, (1 << 63) - 1]

    # each value alone, then all in one block, which takes two limbs
    @pytest.mark.parametrize("block", [[m] for m in VALUES] + [VALUES])
    def test_matches_big_int(self, block):
        a = np.array(block, dtype=np.uint64)
        assert square_weight(a).tolist() == [(m * m).bit_count()
                                             for m in block]


class TestCheckpoint:
    def test_records_are_monotone(self, tmp_path):
        # each record replaces the one before: the file is always one line
        path = tmp_path / "ck.txt"
        rows = []
        for _ in sieve_chunks(10_000, chunk_size=1000, checkpoint=str(path)):
            if path.exists():
                assert path.read_text().count("\n") == 1
                rows.append(read_checkpoint(str(path)))
        assert [end for end, _ in rows] == list(range(1000, 10_000, 1000))
        assert [count for _, count in rows] == sorted(c for _, c in rows)
        assert path.read_text() == f"10000 {len(oracle_members(10_000))}\n"
        assert os.listdir(tmp_path) == ["ck.txt"]  # no .tmp left behind

    def test_resume_emits_remaining_members(self, tmp_path):
        path = tmp_path / "ck.txt"
        first = list(sieve(4000, chunk_size=1000, checkpoint=str(path)))
        rest = list(sieve(10_000, chunk_size=1000, checkpoint=str(path)))
        assert first + rest == oracle_members(10_000)
        assert read_checkpoint(str(path)) == (10_000,
                                              len(oracle_members(10_000)))

    def test_chunk_recorded_only_after_consumer_resumes(self, tmp_path):
        path = tmp_path / "ck.txt"
        chunks = sieve_chunks(10_000, chunk_size=1000, checkpoint=str(path))
        end, members = next(chunks)
        assert not path.exists()
        next(chunks)
        assert read_checkpoint(str(path)) == (end, len(members))
        chunks.close()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("taken", [3, 5000])
    def test_close_mid_chunk_loses_no_member(self, tmp_path, workers, taken):
        path = str(tmp_path / "ck.txt")
        full = list(sieve(10**6, chunk_size=1 << 16))
        assert len(full) == 10_191
        first = sieve(10**6, workers=workers, chunk_size=1 << 16,
                      checkpoint=path)
        assert list(islice(first, taken)) == full[:taken]
        first.close()
        rest = list(sieve(10**6, workers=workers, chunk_size=1 << 16,
                          checkpoint=path))
        resumed_at = len(full) - len(rest)
        assert 0 <= resumed_at <= taken
        assert rest == full[resumed_at:]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 400), st.integers(1, 2),
           st.data())
    def test_interrupted_and_torn_run_resumes(self, limit, chunk_size,
                                              workers, data):
        # Delivery is at least once: a resumed run starts after the record,
        # and every member up to it was handed out.  A kill between writing
        # ck.txt.tmp and renaming it leaves that file, which is ignored; a
        # cut record is never read as a smaller count.
        full = oracle_members(limit)
        with tempfile.TemporaryDirectory() as tmp:
            ck = Path(tmp) / "ck.txt"
            path = str(ck)
            first = sieve_chunks(limit, workers, chunk_size, path)
            chunks = -(-limit // chunk_size)
            taken = data.draw(st.integers(0, chunks), label="chunks taken")
            handed = [m for _, members in islice(first, taken)
                      for m in members]
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
            assert done == min(limit, max(taken - 1, 0) * chunk_size)
            before = [m for m in full if m <= done]
            assert count == len(before) and handed[:count] == before
            rest = [m for _, members in sieve_chunks(limit, workers,
                                                     chunk_size, path)
                    for m in members]
            assert rest == full[count:]
            assert ck.read_bytes() == f"{limit} {len(full)}\n".encode()
            assert os.listdir(tmp) == ["ck.txt"]

    def test_resume_across_2_32_independent_of_workers(self, tmp_path):
        # the chunk ending at 4,295,000,000 straddles 2^32
        done, limit = (1 << 32) - 50_000, (1 << 32) + 250_000
        path = tmp_path / "ck.txt"
        runs = []
        for workers in (1, 2, 3):
            path.write_text(f"{done} 7\n")
            runs.append(list(sieve_chunks(limit, workers, 100_000,
                                          str(path))))
            members = [m for _, chunk in runs[-1] for m in chunk]
            assert read_checkpoint(str(path)) == (limit, 7 + len(members))
        assert runs[0] == runs[1] == runs[2]
        assert [end for end, _ in runs[0]] == [4_295_000_000, 4_295_100_000,
                                               4_295_200_000, limit]
        assert members == members_in_range(done + 1, limit)

    def test_non_monotone_rejected(self, tmp_path):
        # two records, in order or not, are the old log format: refused
        path = tmp_path / "ck.txt"
        for content in (b"100 5\n50 7\n", b"100 5\n200 7\n", b"100 5\n\n"):
            path.write_bytes(content)
            with pytest.raises(ValueError, match=re.escape(
                    f"checkpoint {path}: expected one line 'chunk_end count'")):
                read_checkpoint(str(path))

    def test_torn_record_refused_at_every_cut(self, tmp_path):
        path = tmp_path / "ck.txt"
        full = list(sieve(10_000, chunk_size=1000, checkpoint=str(path)))
        record = path.read_bytes()
        assert record == f"10000 {len(full)}\n".encode()
        path.write_bytes(b"")
        assert read_checkpoint(str(path)) == (0, 0)
        for cut in range(len(record)):
            for junk in (b"", b"\xff"):  # a torn tail may hold any byte
                torn = record[:cut] + junk
                if not torn:
                    continue  # the empty file, which starts a run afresh
                path.write_bytes(torn)
                for call in (lambda: read_checkpoint(str(path)),
                             lambda: sieve_chunks(10_000, 1, 1000, str(path))):
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
    ], ids=["one-field", "not-a-number", "three-fields", "not-utf-8",
            "negative", "count-above-end"])
    def test_complete_malformed_line_rejected(self, tmp_path, content,
                                              message):
        path = tmp_path / "ck.txt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(
                f"checkpoint {path}: {message}")):
            read_checkpoint(str(path))

    def test_stray_tmp_is_ignored_and_overwritten(self, tmp_path):
        # a kill between writing ck.txt.tmp and renaming it leaves the file
        path, tmp = tmp_path / "ck.txt", tmp_path / "ck.txt.tmp"
        full = list(sieve(10_000, chunk_size=1000))
        first = sieve_chunks(10_000, chunk_size=1000, checkpoint=str(path))
        list(islice(first, 4))
        first.close()
        tmp.write_bytes(b"4000 9\xff")
        done, count = read_checkpoint(str(path))
        assert (done, count) == (3000, sum(m <= 3000 for m in full))
        rest = sieve(10_000, chunk_size=1000, checkpoint=str(path))
        assert tmp.read_bytes() == b"4000 9\xff"  # the call only reads
        assert full[:count] + list(rest) == full
        assert path.read_text() == f"10000 {len(full)}\n"
        assert not tmp.exists()

    def test_resume_near_limit_skips_chunks_lazily(self, tmp_path):
        limit = 1 << 40
        path = tmp_path / "ck.txt"
        path.write_text(f"{limit - 100} 0\n")
        tracemalloc.start()
        try:
            chunks = list(sieve_chunks(limit, checkpoint=str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [(limit, members_in_range(limit - 99, limit))]
        assert peak < 1 << 20

    # 9,500 lies in the last chunk of the full run, which ends off the grid
    @pytest.mark.parametrize("limit", [9_999, 9_500])
    def test_rerun_after_full_run_does_nothing(self, tmp_path, limit):
        path = tmp_path / "ck.txt"
        list(sieve(9_999, chunk_size=1000, checkpoint=str(path)))
        recorded = path.read_bytes()
        assert list(sieve_chunks(limit, 2, 1000, str(path))) == []
        assert path.read_bytes() == recorded


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
        monkeypatch.setattr(enumeration, "odd_counts_in_range", kernel)
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
        chunks = list(sieve_chunks(limit))
        assert len(chunks) == 3
        grid = {1, 2, 3, 16, 17, limit}
        for end, _ in chunks:
            grid |= {end - 1, end, end + 1} if end < limit else {end - 1, end}
        grid |= set(random.Random(7).sample(range(1, limit + 1), 50))
        grid = sorted(grid)
        members = list(sieve(limit))
        assert members == [m for _, chunk in chunks for m in chunk]
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
        ((1 << 32) - 1001, (1 << 32) + 999),       # one two-limb block
        ((1 << 32) - 2 * BLOCK - 500, (1 << 32) + 500),  # one limb, then two
        ((1 << 32) - 3, (1 << 32) + 1),
        ((1 << 63) - 999, (1 << 63) - 1),          # ends at member 2^63 - 1
        (2, 2 * BLOCK + 10),                       # a block end
        (1, 1),
    ])
    def test_matches_oracle(self, lo, hi):
        # lo - 1, lo, hi, odd and even points inside, and around the second
        # block's start and the two range boundaries
        second = (lo | 1) + 2 * BLOCK
        edges = [p + d for p in (second, 1 << 32, 1 << 63) for d in (-1, 0, 1)]
        inner = random.Random(lo).sample(range(lo, hi + 1),
                                         min(20, hi - lo + 1))
        points = sorted({lo - 1, lo, hi, *inner,
                         *[p for p in edges if lo <= p <= hi]})
        assert hi == lo or {p % 2 for p in points} == {0, 1}
        assert odd_counts_in_range(lo, hi, points) == self.expected(lo, hi,
                                                                    points)

    def test_repeated_points_and_empty_range(self):
        assert odd_counts_in_range(6, 15, [5, 7, 7, 15, 15]) == [0, 1, 1, 2, 2]
        assert odd_counts_in_range(5, 4, [4]) == [0]

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


class TestScanGap:
    @pytest.mark.parametrize("k", [*range(1, 11), 16])  # 16: just above 2^32
    def test_gap_is_empty(self, k):
        assert scan_gap(k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            scan_gap(32)
        with pytest.raises(ValueError):
            scan_gap(0)
