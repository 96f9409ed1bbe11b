"""Workloads of the isosquare benchmark: inputs, operations and output checks.

Three workloads stress different layers of the package:

  sieve_1e8     CLI `enumerate`, `count` and `analyze` at 10^8.  Every
                integer is below 2^31, so the numpy path of `enumeration`
                does nearly all the work; `constructions` and `checks` do
                none.  `enumerate` prints and checkpoints every member while
                `count` and `analyze` only need counts, so a change that
                helps one use of the sieve at the cost of the other shows.
  wide_windows  in-process `isosquare.members_in_range` on equal-width
                windows straddling 2^32, at a seeded offset in
                [2^40, 2^41) and ending at 2^63 - 1.  The exact big-int
                path does all the work and `cli` none; the top window pins
                the boundary where a fixed-width path must stay exact.
  chains        CLI `construct --family 4001` and `props --suite all`:
                `constructions`, `membership` on 100-600-bit integers and
                `checks` do the work, `enumeration` only runs scan_gap with
                k <= 10, so a sieve optimisation predicts no change here.

A pass runs a workload's operations once, closed loop: one command or call
at a time, and never more than two sieve workers.  Every output is checked
against a repeated-division oracle that shares no code with the package;
an operation whose check fails counts as failed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from bisect import bisect_left
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Size:
    """Inputs of one benchmark size and the outputs frozen for them."""

    limit: str          # sieve limit as the CLI takes it
    members: int        # members up to the limit
    alpha_line: str     # first line `analyze` prints
    profile_rows: int   # rows `analyze` writes below the header
    window: int         # width of each wide_windows window
    windows: int        # wide_windows windows per band and pass
    family: int         # construct --family
    props: tuple[str, ...]  # extra props arguments
    setup_probes: int   # cold interpreter starts per run


# Member counts: 282,762 up to 10^8, and 2,152 up to 10^5 from the oracle.
# The analyze lines were printed by the package at the commit that added
# this benchmark; a change to them is a change of output.
SIZES = {
    "full": Size("10^8", 282_762,
                 "alpha_hat=0.729504 intercept=-0.924914 "
                 "residual_rms=0.033989 samples=13",
                 67, 1 << 16, 24, 4001, (), 15),
    "small": Size("10^5", 2_152,
                  "alpha_hat=0.639277 intercept=0.281298 "
                  "residual_rms=0.018917 samples=13",
                  27, 1 << 10, 2, 41, ("--cases", "200"), 3),
}

GRID = "geometric:1024:1.189"
SIEVE_WORKERS = "2"
MEMBER_SAMPLE = 256   # enumerate members re-checked per pass
GAP_SAMPLE = 16       # gaps between members re-checked per pass
MISS_SAMPLE = 32      # unreported integers re-checked per window
STAGES = ["seed", "inflate", "normalize", "finalize"]


# --- oracle -----------------------------------------------------------------

def _bit_sum(n: int) -> int:
    """Base-2 digit sum by repeated division, as the test suite's oracle."""
    s = 0
    while n:
        n, r = divmod(n, 2)
        s += r
    return s


_LIMB = 16
_LIMB_SUM = [_bit_sum(i) for i in range(1 << _LIMB)]


def oracle_weight(n: int) -> int:
    """Binary digit sum by repeated division by 2^16, limbs summed from a
    table built by repeated division by 2; neither uses a popcount."""
    s = 0
    while n:
        n, r = divmod(n, 1 << _LIMB)
        s += _LIMB_SUM[r]
    return s


def oracle_member(n: int) -> bool:
    return oracle_weight(n) == oracle_weight(n * n)


# --- running operations -----------------------------------------------------

@dataclass
class CliResult:
    seconds: float
    code: int
    out: str
    rss_kb: int = 0   # peak resident set of the command's process tree
    ref_s: float = 0.0  # reference_start() just before the command


@dataclass
class Run:
    """One finished, checked operation."""

    op: str
    seconds: float
    problems: list[str]
    rss_kb: int = 0
    tested: int = 0   # integers a window call covered
    ref_s: float = 0.0  # reference_start() next to the operation


@dataclass
class Context:
    root: Path
    tmp: Path
    size: Size
    rng: random.Random
    cli: Callable[[list[str]], CliResult]
    # Opens a span around a library operation in traced passes.
    span: Callable[[str], object] = field(default=lambda name: nullcontext())


def source_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's src first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
    return env


def subprocess_cli(root: Path, tmp: Path) -> Callable[[list[str]], CliResult]:
    """Runs `python -m isosquare.cli ARGV` with stdout read from a pipe.

    The time runs from the start of the child to its exit.  os.wait4
    reaps it, so its rusage (which covers the sieve workers it reaped)
    gives the peak resident set of the command's process tree.
    """
    env = source_env(root)

    def run(argv: list[str]) -> CliResult:
        ref_s = reference_start()
        with open(tmp / "stderr.txt", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "isosquare.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=env, cwd=root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace"))
        return CliResult(seconds, proc.returncode,
                         out.decode("ascii", errors="replace"),
                         usage.ru_maxrss, ref_s)

    return run


def inprocess_cli(main: Callable[[list[str]], int],
                  span: Callable[[str], object] | None = None
                  ) -> Callable[[list[str]], CliResult]:
    """Calls cli.main(ARGV) with stdout sent to an in-memory sink.

    With `span`, the call is wrapped in a span named cli.<command>.
    """
    def run(argv: list[str]) -> CliResult:
        sink = io.StringIO()
        scope = span("cli." + argv[0]) if span else nullcontext()
        t0 = perf_counter()
        with redirect_stdout(sink), scope as cli_span:
            code = main(argv)
        seconds = perf_counter() - t0
        out = sink.getvalue()
        if cli_span:
            cli_span.attrs["stdout_bytes"] = len(out)  # the output is ASCII
        return CliResult(seconds, code, out)

    return run


def reference_start() -> float:
    """Wall time of a bare interpreter start (`python -I -S -c pass`).

    It runs no code of the package, so it gauges only how fast the shared
    machine is at that moment: its speed swings by up to 1.6x within
    seconds, and process start, Python and numpy code slow down together.
    A start timed straight after the benchmark sat idle tracks that speed
    less well, so a short loop (about 15 ms) runs first.
    """
    spin = 0
    for i in range(150_000):
        spin += i * i % 7
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return perf_counter() - t0


def setup_probe(root: Path) -> float:
    """Wall time of a cold interpreter that imports isosquare.cli and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import isosquare.cli"],
                   env=source_env(root), cwd=root, check=True)
    return perf_counter() - t0


# --- sieve_1e8 --------------------------------------------------------------

def _limit(size: Size) -> int:
    base, exp = size.limit.split("^")
    return int(base) ** int(exp)


def check_members(text: str, limit: int, expected: int,
                  rng: random.Random) -> tuple[list[str], list[int]]:
    """Count, order and a seeded oracle sample of the members and gaps."""
    try:
        members = [int(x) for x in text.split()]
    except ValueError as exc:
        return [f"unparsable member: {exc}"], []
    problems = []
    if len(members) != expected:
        problems.append(f"{len(members)} members, expected {expected}")
    if members and (members[0] < 1 or members[-1] > limit):
        problems.append("member outside [1, limit]")
    if any(b <= a for a, b in zip(members, members[1:])):
        problems.append("members not strictly increasing")
    if problems:
        return problems, members
    for m in rng.sample(members, min(MEMBER_SAMPLE, len(members))):
        if not oracle_member(m):
            problems.append(f"{m} is not a member")
    bounds = members + [limit + 1]
    for i in rng.sample(range(len(members)), min(GAP_SAMPLE, len(members))):
        for n in range(bounds[i] + 1, bounds[i + 1]):
            if oracle_member(n):
                problems.append(f"member {n} missing between "
                                f"{bounds[i]} and {bounds[i + 1]}")
                break
    return problems, members


def check_checkpoint(path: Path, limit: int, expected: int) -> list[str]:
    try:
        rows = [tuple(int(x) for x in line.split())
                for line in path.read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [f"checkpoint unreadable: {exc}"]
    if any(len(r) != 2 for r in rows):
        return ["checkpoint line without exactly two fields"]
    if any(b[0] <= a[0] or b[1] < a[1] for a, b in zip(rows, rows[1:])):
        return ["checkpoint not monotone"]
    if not rows or rows[-1] != (limit, expected):
        return [f"checkpoint ends {rows[-1:]}, expected {(limit, expected)}"]
    return []


def check_count(text: str, members: list[int], limit: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "n,count":
        return ["missing n,count header"]
    try:
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        return [f"unparsable row: {exc}"]
    if not rows or any(len(r) != 2 for r in rows):
        return ["no rows, or a row without two fields"]
    grid = [n for n, _ in rows]
    if grid[0] != 1024 or grid[-1] > limit or any(
            b <= a for a, b in zip(grid, grid[1:])):
        return ["grid not increasing from 1024 within the limit"]
    return [f"p({n}) = {c}, enumerate gives {bisect_left(members, n)}"
            for n, c in rows if c != bisect_left(members, n)][:5]


def check_analyze(text: str, out: Path, size: Size) -> list[str]:
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != size.alpha_line:
        problems.append(f"fit line {lines[:1]}, expected {size.alpha_line!r}")
    if len(lines) != 2 or not lines[1].endswith(f", {size.profile_rows} points)"):
        problems.append(f"unexpected summary {lines[1:]}")
    try:
        rows = out.read_text().splitlines()
    except OSError as exc:
        return problems + [f"profile unreadable: {exc}"]
    if rows[:1] != ["n,log2n,profile_value"] or len(rows) != size.profile_rows + 1:
        problems.append(f"profile has {len(rows)} lines, expected "
                        f"{size.profile_rows + 1} with header")
    return problems


def _exit_problems(res: CliResult) -> list[str]:
    return [] if res.code == 0 else [f"exit code {res.code}"]


def sieve_pass(ctx: Context, library_ops: bool = False) -> list[Run]:
    """enumerate (2 workers, fresh checkpoint), count (1 worker), analyze
    (2 workers).  With `library_ops`, also sieve(limit) with 1 and with 2
    workers and read_checkpoint on the finished checkpoint, as the traced
    run needs."""
    size, limit = ctx.size, _limit(ctx.size)
    ckpt, profile = ctx.tmp / "enumerate.ckpt", ctx.tmp / "profile.csv"
    ckpt.unlink(missing_ok=True)
    profile.unlink(missing_ok=True)

    res = ctx.cli(["enumerate", "--limit", size.limit, "--workers",
                   SIEVE_WORKERS, "--checkpoint", str(ckpt)])
    problems, members = check_members(res.out, limit, size.members, ctx.rng)
    problems += _exit_problems(res) + check_checkpoint(ckpt, limit, size.members)
    runs = [Run("enumerate", res.seconds, problems, res.rss_kb,
                ref_s=res.ref_s)]

    res = ctx.cli(["count", "--limit", size.limit, "--grid", GRID])
    runs.append(Run("count", res.seconds,
                    _exit_problems(res) + check_count(res.out, members, limit),
                    res.rss_kb, ref_s=res.ref_s))

    res = ctx.cli(["analyze", "--limit", size.limit, "--workers",
                   SIEVE_WORKERS, "--out", str(profile)])
    runs.append(Run("analyze", res.seconds,
                    _exit_problems(res) + check_analyze(res.out, profile, size),
                    res.rss_kb, ref_s=res.ref_s))
    if library_ops:
        runs += _sieve_library_ops(ctx, limit, members, ckpt)
    return runs


def _sieve_library_ops(ctx: Context, limit: int, members: list[int],
                       ckpt: Path) -> list[Run]:
    from isosquare import enumeration

    runs = []
    for workers in (1, 2):
        with ctx.span(f"op.sieve_w{workers}"):
            t0 = perf_counter()
            got = list(enumeration.sieve(limit, workers=workers))
            seconds = perf_counter() - t0
        ok = got == members
        runs.append(Run(f"sieve_w{workers}", seconds,
                        [] if ok else ["differs from enumerate output"]))
    with ctx.span("op.read_checkpoint"):
        t0 = perf_counter()
        last = enumeration.read_checkpoint(str(ckpt))
        seconds = perf_counter() - t0
    ok = last == (limit, len(members))
    runs.append(Run("read_checkpoint", seconds,
                    [] if ok else [f"read_checkpoint gave {last}"]))
    return runs


# --- wide_windows -----------------------------------------------------------

def windows(rng: random.Random, width: int) -> list[tuple[int, int]]:
    """One window per band: straddling 2^32, at a seeded offset in
    [2^40, 2^41), and ending at 2^63 - 1."""
    starts = [(1 << 32) - rng.randrange(1, width),
              rng.randrange(1 << 40, (1 << 41) - width + 1),
              (1 << 63) - width]
    return [(lo, lo + width - 1) for lo in starts]


def check_window(lo: int, hi: int, found: list[int],
                 rng: random.Random) -> list[str]:
    if any(not lo <= m <= hi for m in found) or any(
            b <= a for a, b in zip(found, found[1:])):
        return ["members outside the window or out of order"]
    problems = [f"{m} is not a member" for m in found if not oracle_member(m)]
    reported = set(found)
    for n in rng.sample(range(lo, hi + 1), MISS_SAMPLE):
        if n not in reported and oracle_member(n):
            problems.append(f"member {n} not reported")
    return problems


def windows_pass(ctx: Context) -> list[Run]:
    """size.windows windows in each band.  A pass of about a second
    averages over the speed swings of a shared machine, which a single
    10 ms call does not."""
    import isosquare

    runs, ref_s = [], reference_start()
    for _ in range(ctx.size.windows):
        for lo, hi in windows(ctx.rng, ctx.size.window):
            with ctx.span("op.window"):
                t0 = perf_counter()
                found = isosquare.members_in_range(lo, hi)
                seconds = perf_counter() - t0
            runs.append(Run("window", seconds,
                            check_window(lo, hi, found, ctx.rng),
                            tested=hi - lo + 1, ref_s=ref_s))
    return runs


# --- chains -----------------------------------------------------------------

def family_bound_log2(root: Path) -> int:
    data = json.loads((root / "tests" / "data" / "family_bound.json").read_text())
    return int(data["log2_scale"])


def check_construct(text: str, family: int, log2_scale: int) -> list[str]:
    try:
        records = [json.loads(line) for line in text.splitlines()]
        stages = [r["stage"] for r in records]
        values = [int(r["value"]) for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable stage record: {exc}"]
    if stages != STAGES * family:
        return [f"{len(stages)} stage records, expected {family} chains of "
                f"{STAGES}"]
    finals = values[len(STAGES) - 1::len(STAGES)]
    problems = []
    if len(set(finals)) != family:
        problems.append("finals not pairwise distinct")
    bound = (1 << log2_scale) * family**40
    if any(f > bound for f in finals):
        problems.append(f"a final exceeds 2^{log2_scale} * {family}^40")
    bad = [f for f in finals if not oracle_member(f)]
    if bad:
        problems.append(f"{len(bad)} finals are not members, first {bad[0]}")
    return problems


def chains_pass(ctx: Context) -> list[Run]:
    size = ctx.size
    res = ctx.cli(["construct", "--family", str(size.family),
                   "--format", "json-lines"])
    runs = [Run("construct", res.seconds,
                _exit_problems(res) + check_construct(
                    res.out, size.family, family_bound_log2(ctx.root)),
                res.rss_kb, ref_s=res.ref_s)]
    res = ctx.cli(["props", "--suite", "all", *size.props])
    ok = res.code == 0 and res.out == "suite all: pass\n"
    runs.append(Run("props", res.seconds,
                    [] if ok else [f"props exit {res.code}: {res.out[:200]!r}"],
                    res.rss_kb, ref_s=res.ref_s))
    return runs


PASSES: dict[str, Callable[..., list[Run]]] = {
    "sieve_1e8": sieve_pass,
    "wide_windows": windows_pass,
    "chains": chains_pass,
}
