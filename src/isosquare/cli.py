"""Command-line interface.

Exit codes: 0 success (or positive verdict, or a reader that closed
stdout early), 1 negative verdict, 2 usage or precondition error.
Structured output is CSV with a single header row or JSON lines with one
object per line; integers are always printed as plain decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, checks, constructions, enumeration
from .membership import ISOSQUARE, PropertyTriple, digit_sum, satisfies

DEFAULT_FIT_WINDOW = 10  # fit uses grid points with n >= limit / this


def parse_limit(text: str) -> int:
    """Integer with power shorthand: '10^7' and '2^20' are accepted."""
    if "^" not in text:
        return int(text)
    base_s, exp_s = text.split("^", 1)
    exp = int(exp_s)
    if exp < 0:
        raise ValueError(f"exponent must be >= 0, got {text!r}")
    return int(base_s) ** exp


def _parse_triple(text: str) -> PropertyTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"triple must be k,l,m, got {text!r}")
    k, l, m = (int(p) for p in parts)
    return PropertyTriple(base=k, multiplier=l, power=m)


def _parse_grid(spec: str, limit: int) -> list[int]:
    try:
        if not spec.startswith("geometric:"):
            return [parse_limit(p) for p in spec.split(",")]
        _, start, ratio = spec.split(":")
        start, ratio = parse_limit(start), float(ratio)
    except ValueError:
        raise ValueError("grid must be geometric:start:ratio or n1,n2,..., "
                         f"got {spec!r}") from None
    return analysis.geometric_grid(start, limit, ratio)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _require_writable(path: str, what: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if (os.path.isdir(path) or not os.path.isdir(parent)
            or not os.access(target, os.W_OK)):
        raise ValueError(f"{what} location not writable: {path}")


def cmd_check(args: argparse.Namespace) -> int:
    n = parse_limit(args.n)
    triple = _parse_triple(args.triple)
    member = satisfies(n, triple)
    s1 = digit_sum(n, triple.base)
    s2 = digit_sum(n**triple.power, triple.base)
    if triple == ISOSQUARE:
        sums = f"B(n)={s1} B(n^2)={s2}"
    else:
        sums = (f"base={triple.base} digit_sum(n)={s1} "
                f"digit_sum(n^{triple.power})={s2}")
    print(f"n={n} {sums} member={'yes' if member else 'no'}")
    return 0 if member else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    limit = parse_limit(args.limit)
    if limit < 1:  # checked here too, since the header is written first
        raise ValueError(f"limit must be >= 1, got {limit}")
    if args.checkpoint is not None:
        _require_writable(args.checkpoint, "checkpoint")
    out = sys.stdout
    if args.format == "csv":
        out.write("n\n")
    # Flushed before the generator resumes, which is when it records the
    # chunk in the checkpoint: a recorded member has left the process.
    for _, members in enumeration.sieve_chunks(limit, workers=args.workers,
                                               checkpoint=args.checkpoint):
        if members:
            out.write("\n".join(map(str, members)) + "\n")
        out.flush()
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    limit = parse_limit(args.limit)
    grid = _parse_grid(args.grid, limit)
    samples = enumeration.counting(limit, grid)
    print("n,count")
    for s in samples:
        print(f"{s.n},{s.count}")
    return 0


def _emit_trace(trace: constructions.ConstructionTrace, fmt: str) -> None:
    for stage in trace.stages:
        record = {
            "stage": stage.label,
            "value": str(stage.value),
            "bits": stage.value.bit_length(),
            "weight": stage.weight,
            "square_weight": stage.square_weight,
            "rule": stage.rule,
        }
        if fmt == "json-lines":
            print(json.dumps(record))
        else:
            print("{stage:>9}  value={value}  bits={bits}  weight={weight}  "
                  "square_weight={square_weight}  rule={rule}".format(**record))


def cmd_construct(args: argparse.Namespace) -> int:
    if args.seed is not None:
        traces = [constructions.construct_one(parse_limit(args.seed))]
    else:
        traces = constructions.family_traces(parse_limit(args.family))
    for trace in traces:
        _emit_trace(trace, args.format)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    limit = parse_limit(args.limit)
    if limit < 1 << 12:
        raise ValueError(f"limit must be >= 2^12, got {limit}")
    _require_writable(args.out, "--out")
    grid = analysis.geometric_grid(1 << 10, limit)
    fit_from = (limit // DEFAULT_FIT_WINDOW if args.fit_from is None
                else args.fit_from)
    # Every grid point is >= 2^10, so its count is >= 1 and each point in
    # the window is a usable sample for fit_exponent.
    in_window = sum(n >= fit_from for n in grid)
    if in_window < 2:
        raise ValueError(f"need at least 2 usable samples, got {in_window}")
    samples = enumeration.counting(limit, grid, workers=args.workers)
    fit_samples = [s for s in samples if s.n >= fit_from]
    fit = analysis.fit_exponent(fit_samples)
    print(f"alpha_hat={fit.alpha_hat:.6f} intercept={fit.intercept:.6f} "
          f"residual_rms={fit.residual_rms:.6f} samples={fit.sample_count}")
    alpha = (analysis.alpha_theoretical() if args.alpha == "theoretical"
             else fit.alpha_hat)
    profile = analysis.fluctuation_profile(samples, alpha)
    with open(args.out, "w") as fh:
        fh.write("n,log2n,profile_value\n")
        for p in profile:
            fh.write(f"{p.n},{p.log2_n:.10g},{p.value:.10g}\n")
    print(f"profile written to {args.out} (alpha={alpha:.6f}, "
          f"{len(profile)} points)")
    return 0


def cmd_props(args: argparse.Namespace) -> int:
    failures = checks.run_suite(args.suite, cases=args.cases)
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        return 1
    print(f"suite {args.suite}: pass")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isosquare",
        description="Isosquare numbers: membership, constructions, "
                    "enumeration and counting-function analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership verdict for one integer")
    p.add_argument("n")
    p.add_argument("--triple", default="2,1,2", metavar="k,l,m")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list members up to a limit")
    p.add_argument("--limit", required=True)
    p.add_argument("--format", choices=["plain", "csv"], default="plain")
    p.add_argument("--checkpoint")
    p.add_argument("--workers", type=positive_int,
                   default=_default_workers())
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="counting function p(n) on a grid")
    p.add_argument("--limit", required=True)
    p.add_argument("--grid", required=True,
                   metavar="geometric:start:ratio | n1,n2,...")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("construct", help="run the member construction chain")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed")
    group.add_argument("--family")
    p.add_argument("--format", choices=["plain", "json-lines"],
                   default="plain")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze",
                       help="exponent fit and fluctuation profile CSV")
    p.add_argument("--limit", required=True)
    p.add_argument("--alpha", choices=["theoretical", "fit"], default="fit")
    p.add_argument("--out", default="profile.csv")
    p.add_argument("--fit-from", type=parse_limit, default=None,
                   help="fit only grid points with n >= this "
                        "(default: limit/10)")
    p.add_argument("--workers", type=positive_int,
                   default=_default_workers())
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("props", help="run verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--cases", type=positive_int, default=checks.DEFAULT_CASES)
    p.set_defaults(func=cmd_props)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader left (as `enumerate | head` does): not an error.  Send
        # what is still buffered to devnull so the exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
