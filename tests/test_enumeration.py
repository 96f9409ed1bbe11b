import random
import re
import tracemalloc
from bisect import bisect_left
from itertools import islice

import numpy as np
import pytest

from isosquare.enumeration import (BLOCK, CountSample, RunRecord, counting,
                                   find_runs, members_in_range,
                                   read_checkpoint, scan_gap, sieve,
                                   sieve_chunks, square_weight)

from conftest import oracle_is_member, oracle_members


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

    def test_slow_path_above_fast_limit(self):
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
        assert members_in_range(5, 4) == []

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_bad_chunk_size(self, tmp_path, chunk_size):
        path = tmp_path / "ck.txt"
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            list(sieve(100, chunk_size=chunk_size, checkpoint=str(path)))
        assert not path.exists()

    def test_bad_workers(self, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("100 5\n20")  # a torn last line that a run cuts off
        for run in (lambda: list(sieve(1000, 0, checkpoint=str(path))),
                    lambda: next(sieve_chunks(1000, 0, 100, str(path))),
                    lambda: counting(1000, [500], workers=0)):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                run()
        assert path.read_text() == "100 5\n20"


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
        path = tmp_path / "ck.txt"
        list(sieve(10_000, chunk_size=1000, checkpoint=str(path)))
        rows = [tuple(map(int, line.split()))
                for line in path.read_text().splitlines()]
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)
        assert rows[-1] == (10_000, len(oracle_members(10_000)))

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
        path = tmp_path / "ck.txt"
        path.write_text("100 5\n50 7\n")
        with pytest.raises(ValueError):
            read_checkpoint(str(path))

    def test_torn_last_line_resumes_at_every_cut(self, tmp_path):
        full_path = tmp_path / "full.txt"
        full = list(sieve(10_000, chunk_size=1000, checkpoint=str(full_path)))
        lines = full_path.read_text().splitlines(keepends=True)
        done = "".join(lines[:3])
        torn = lines[3]
        path = tmp_path / "ck.txt"
        for cut in range(len(torn) + 1):
            path.write_text(done + torn[:cut])
            resumed_from = read_checkpoint(str(path))
            rest = list(sieve(10_000, chunk_size=1000, checkpoint=str(path)))
            assert full[:resumed_from[1]] + rest == full
            assert resumed_from[0] == (4000 if cut == len(torn) else 3000)
            assert path.read_text() == full_path.read_text()
            assert read_checkpoint(str(path)) == (10_000, len(full))

    @pytest.mark.parametrize("text, number", [("4194304 12345\n83\n", 2),
                                              ("5 x\n", 1),
                                              ("\n5 1 7\n", 2)],
                             ids=["one-field", "not-a-number", "three-fields"])
    def test_complete_malformed_line_rejected(self, tmp_path, text, number):
        path = tmp_path / "ck.txt"
        path.write_text(text)
        message = f"{path} line {number}: expected 'chunk_end count'"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_checkpoint(str(path))

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

    def test_consistent_with_sieve_random_grid(self):
        limit = 50_000
        members = list(sieve(limit))
        rng = random.Random(42)
        grid = sorted(rng.sample(range(1, limit + 1), 50))
        for s in counting(limit, grid, members=members):
            assert s.count == sum(1 for m in members if m < s.n)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_matches_bisect_at_chunk_boundaries(self, workers):
        limit = 10**7  # three chunks of DEFAULT_CHUNK
        chunks = list(sieve_chunks(limit))
        assert len(chunks) == 3
        grid = {1, limit}
        for end, _ in chunks:
            grid |= {end, end + 1} if end < limit else {end}
        grid |= set(random.Random(7).sample(range(1, limit + 1), 50))
        grid = sorted(grid)
        members = list(sieve(limit))
        assert members == [m for _, chunk in chunks for m in chunk]
        assert counting(limit, grid, workers=workers) == [
            CountSample(n, bisect_left(members, n)) for n in grid]

    def test_counts_non_decreasing(self):
        samples = counting(10_000, list(range(1, 10_001, 97)))
        counts = [s.count for s in samples]
        assert counts == sorted(counts)
        assert all(s.count <= s.n for s in samples)


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
