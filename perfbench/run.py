"""Benchmark of the isosquare package: end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sieve_1e8 --seed 1 --seconds 30 --trace 0

The benchmark runs the checkout's own source (src/ first on the path) and
exits with code 2, printing no result, when there is none.  It repeats passes of the
workload (see workloads.py) for about --seconds, closed loop, from one
single-threaded benchmark process, and checks every output.

--trace 0 measures the end-to-end metrics:
  setup_s      time of a cold interpreter that imports isosquare.cli and
               exits, over 15 starts spread over the run, at the
               reference speed (below)
  pass_s       time of one pass at the reference speed: the CLI wall
               times of its commands (sieve_1e8, chains) or call times of
               its members_in_range windows (wide_windows), summed
  peak_rss_mb  median over passes of the largest resident set of any
               process of the workload's process tree (the CLI commands
               with their sieve workers; the benchmark process itself for wide_windows)

The shared machine's speed swings by up to 1.6x within seconds, and by
20% between the medians of runs minutes apart, so raw wall times do not
repeat.  Each timed command, call pass and set-up probe is therefore paired
with a bare interpreter start made just before it (workloads.reference_start),
and a time is reported as REFERENCE_S times the median of its ratio to that
start: seconds at the speed of the sandbox the benchmark was defined on.
The raw wall times are in the record line.

--trace 1 measures the per-layer metrics (tracing.py).  Each traced cycle
runs, for every workload in turn, one untraced and one traced in-process
pass (order alternating between cycles), so every per-layer metric is
measured whichever workload is named; trace.<workload>.overhead_s is the
traced minus the untraced pass time.  Spans are written as JSON lines to
.perfbench/trace-<workload>.jsonl.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the full record: environment, seed, repeat count,
per-operation medians with a tail percentile and sample count, and
failed_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
# Median wall time of a bare interpreter start (workloads.reference_start)
# over 663 starts on the 2-core sandbox the benchmark was defined on.
REFERENCE_S = 0.0160


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; none below 20 samples) and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for p in TAIL_LADDER:
        rank = -(-p * n // 100)  # ceil
        if n - rank >= 10:
            out[f"p{p:g}"] = ordered[int(rank) - 1]
            break
    return out


def at_reference_speed(timed: list[tuple[float, float]]) -> float:
    """Median of seconds / reference seconds over (seconds, reference)
    pairs, times REFERENCE_S."""
    return REFERENCE_S * statistics.median(s / ref for s, ref in timed)


def environment(seed: int) -> dict:
    import numpy

    src = ROOT / "src" / "isosquare"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"affinity_cpus": len(os.sched_getaffinity(0)),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": commit,
            "src_sha256": digest.hexdigest(),
            "seed": seed}


def use_checkout_source() -> None:
    """Put the checkout's src/ first on the path and check it is used."""
    src = ROOT / "src" / "isosquare"
    if not (src / "cli.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src.parent))
    import isosquare

    if Path(isosquare.__file__).resolve().parent != src:
        print(f"error: imported isosquare from {isosquare.__file__}",
              file=sys.stderr)
        raise SystemExit(2)


def _time_boxed(seconds: float, step) -> list:
    """Repeat step() while the next repeat is expected to end within
    `seconds` of the start; at least once."""
    results, start, last = [], perf_counter(), 0.0
    while not results or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        results.append(step(len(results)))
        last = perf_counter() - t0
    return results


def measure(workload: str, ctx, seconds: float
            ) -> tuple[list, dict, dict, dict]:
    """End-to-end run: returns (runs, metrics, repeats, per-operation
    summaries)."""
    # Set-up time drifts with the machine's load, so the probes are spread
    # over the run: a few first, then one after each pass, then the rest.
    probes = ctx.size.setup_probes

    def probe() -> tuple[float, float]:
        ref_s = wl.reference_start()
        return wl.setup_probe(ROOT), ref_s

    setup = [probe() for _ in range(min(3, probes))]

    def one_pass(i: int) -> list:
        done = wl.PASSES[workload](ctx)
        if len(setup) < probes:
            setup.append(probe())
        return done

    passes = _time_boxed(seconds, one_pass)
    setup += [probe() for _ in range(probes - len(setup))]
    runs = [r for p in passes for r in p]
    names = list(dict.fromkeys(r.op for r in runs))
    # Each operation's time at the reference speed, times how often a
    # pass runs it (once per command; size.windows * 3 for windows).
    pass_s = sum(at_reference_speed([(r.seconds, r.ref_s) for r in runs
                                     if r.op == name])
                 * sum(r.op == name for r in runs) / len(passes)
                 for name in names)
    if workload == "wide_windows":
        rss_kb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    else:
        rss_kb = [max(r.rss_kb for r in p) for p in passes]
    metrics = {
        "setup_s": (at_reference_speed(setup), "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (statistics.median(rss_kb) / 1024, "MB"),
    }
    # Raw wall times below; the metrics above are at the reference speed.
    ops: dict = {
        "setup_wall_s": summary([s for s, _ in setup]),
        "pass_wall_s": summary([sum(r.seconds for r in p) for p in passes]),
        "reference_start_s": summary([ref for _, ref in setup]),
    }
    for name in names:
        mine = [r for r in runs if r.op == name]
        ops[f"{name}_s"] = summary([r.seconds for r in mine])
        if any(r.rss_kb for r in mine):
            ops[f"{name}_peak_rss_mb"] = max(r.rss_kb for r in mine) / 1024
    if workload == "wide_windows":
        ops["tested_per_s"] = (sum(r.tested for r in runs)
                               / sum(r.seconds for r in runs))
    return runs, metrics, {"passes": len(passes)}, ops


def measure_traced(workload: str, ctx, seconds: float
                   ) -> tuple[list, dict, dict, dict]:
    """Traced run over every workload: returns (runs, metrics, repeats,
    where the spans went)."""
    from isosquare import cli

    runs, tracers = [], []

    def cycle(i: int) -> dict:
        tracer = tracing.Tracer()
        tracers.append(tracer)
        plain = replace(ctx, cli=wl.inprocess_cli(cli.main))
        traced = replace(ctx, cli=wl.inprocess_cli(cli.main, tracer.span),
                         span=tracer.span)
        overhead = {}
        for name, run_pass in wl.PASSES.items():
            args = {"library_ops": True} if name == "sieve_1e8" else {}
            seconds_of = {}
            for c in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                if c is traced:
                    with tracer.installed():
                        done = run_pass(c, **args)
                else:
                    done = run_pass(c, **args)
                runs.extend(done)
                seconds_of[c is traced] = sum(r.seconds for r in done)
            overhead[f"trace.{name}.overhead_s"] = (seconds_of[True]
                                                    - seconds_of[False])
        return {**tracing.layer_metrics(tracer), **overhead}

    cycles = _time_boxed(seconds, cycle)
    trace_path = OUT_DIR / f"trace-{workload}.jsonl"
    tracers[-1].write(trace_path)
    medians = tracing.median_metrics(cycles)
    metrics = {k: (v, tracing.UNITS[k]) for k, v in medians.items()}
    return runs, metrics, {"cycles": len(cycles)}, {"spans": str(trace_path)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(wl.PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full",
                        help="small is for the benchmark's own tests")
    args = parser.parse_args(argv)

    use_checkout_source()
    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        ctx = wl.Context(ROOT, tmp, wl.SIZES[args.size], rng,
                         wl.subprocess_cli(ROOT, tmp))
        if args.trace:
            runs, metrics, repeats, detail = measure_traced(
                args.workload, ctx, args.seconds)
        else:
            runs, metrics, repeats, detail = measure(args.workload, ctx,
                                                     args.seconds)

    failed = [r for r in runs if r.problems]
    for r in failed[:10]:
        print(f"check failed: {r.op}: {'; '.join(r.problems[:3])}",
              file=sys.stderr)
    record = {"workload": args.workload, "trace": args.trace,
              "size": args.size, "seconds": args.seconds,
              "env": environment(args.seed), "repeats": repeats, **detail,
              "failed_ratio": len(failed) / len(runs)}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failed, "attempted": len(runs), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
