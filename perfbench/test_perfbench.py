"""Self-tests of the benchmark: each workload once at reduced size.

Run from the repository root with `python -m pytest perfbench`.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as wl

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int = 0) -> tuple[dict, dict]:
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "small"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.PASSES)


@pytest.mark.parametrize("workload", list(wl.PASSES))
def test_end_to_end_metrics_present_and_checked(capsys, workload):
    record, result = _run(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["failed_ratio"] == 0
    assert {"affinity_cpus", "nproc", "python", "numpy", "commit",
            "seed"} <= set(record["env"])


def test_per_layer_metrics_present(capsys):
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == tracing.PER_LAYER
    record, result = _run(capsys, "chains", trace=1)
    assert result["correct"]
    assert _units(result["metrics"]) == tracing.UNITS
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["enumeration.counting.members_in"] == wl.SIZES["small"].members
    assert metrics["checks.failures"] == 0
    assert metrics["constructions.final_bits_max"] > 100


def _corrupt_cli(monkeypatch, command: str, edit) -> None:
    original = wl.subprocess_cli

    def factory(root, tmp):
        inner = original(root, tmp)

        def cli(argv):
            res = inner(argv)
            if argv[0] == command:
                res.out = edit(res.out)
            return res
        return cli
    monkeypatch.setattr(wl, "subprocess_cli", factory)


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _add_non_member(monkeypatch) -> None:
    import isosquare

    original = isosquare.members_in_range

    def corrupted(lo, hi):
        found = original(lo, hi)
        extra = next(n for n in range(lo, hi + 1) if not wl.oracle_member(n))
        return sorted(set(found) | {extra})
    monkeypatch.setattr(isosquare, "members_in_range", corrupted)


@pytest.mark.parametrize("workload, corrupt", [
    ("sieve_1e8", lambda mp: _corrupt_cli(mp, "enumerate", _drop_last_line)),
    ("sieve_1e8", lambda mp: _corrupt_cli(mp, "count", lambda t: t + "2000,1\n")),
    ("wide_windows", _add_non_member),
    ("chains", lambda mp: _corrupt_cli(mp, "construct", _drop_last_line)),
])
def test_corrupted_output_raises_failed_ratio(capsys, monkeypatch, workload,
                                              corrupt):
    corrupt(monkeypatch)
    record, result = _run(capsys, workload)
    assert record["failed_ratio"] > 0
    assert not result["correct"] and result["failed"] >= 1


def test_oracle_agrees_with_plain_repeated_division():
    rng = random.Random(0)
    values = list(range(1 << 12)) + [rng.getrandbits(b) for b in range(1, 700)]
    assert all(wl.oracle_weight(n) == wl._bit_sum(n) for n in values)


def test_summary_reports_a_tail_only_with_ten_samples_beyond():
    assert set(run.summary([1.0] * 19)) == {"median", "n"}
    assert run.summary(list(range(20)))["p50"] == 9
    assert run.summary(list(range(1000)))["p99"] == 989


def test_times_are_scaled_by_the_paired_reference_start():
    ref = run.REFERENCE_S
    timed = [(2.0, ref), (9.0, 3 * ref), (8.0, 2 * ref)]
    assert run.at_reference_speed(timed) == pytest.approx(3.0)


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "chains", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and done.stdout == ""
