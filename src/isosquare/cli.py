"""Command-line interface.

Exit codes: 0 success (or positive verdict, or a reader that closed
stdout early), 1 negative verdict, 2 usage or precondition error; a
malformed number is a usage error from argparse, naming its argument.
Structured output is CSV with a single header row or JSON lines with one
object per line; integers are read and printed in decimal at any size.
Each command imports the modules it runs and no others.  `run` is the
process entry point; `main` is the in-process API.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable, NoReturn

from .membership import ISOSQUARE, PropertyTriple, _digit_sums

if TYPE_CHECKING:
    from .constructions import ConstructionTrace

DEFAULT_FIT_WINDOW = 10  # fit uses grid points with n >= limit / this

# Chains whose records construct writes at once; each write is a syscall
# on an unbuffered stdout (256 chains of --family 4001 are about 150 KB).
_CHAINS_PER_WRITE = 256

# A stage record per format.  Labels and rules are lowercase words and the
# value is a decimal string, so no JSON field needs escaping.
_RECORDS = {
    "json-lines": '{"stage": "%s", "value": "%d", "bits": %d, "weight": %d, '
                  '"square_weight": %d, "rule": "%s"}\n',
    "plain": "%9s  value=%d  bits=%d  weight=%d  square_weight=%d  "
             "rule=%s\n",
}


def _typed(parse: Callable[[str], object]) -> Callable[[str], object]:
    """parse as an argparse type: its ValueError becomes a usage error
    that keeps the reason."""
    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"invalid value {text!r}: {exc}") from None
    return convert


def parse_limit(text: str) -> int:
    """Integer with power shorthand: '10^7' and '2^20' are accepted."""
    if "^" not in text:
        return int(text)
    base_s, exp_s = text.split("^", 1)
    exp = int(exp_s)
    if exp < 0:
        raise ValueError(f"exponent must be >= 0, got {exp}")
    return int(base_s) ** exp


@_typed
def _parse_triple(text: str) -> PropertyTriple:
    k, l, m = map(int, text.split(","))  # ValueError unless k,l,m
    return PropertyTriple(base=k, multiplier=l, power=m)


def _parse_grid(spec: str, limit: int) -> list[int]:
    from . import analysis
    try:
        if not spec.startswith("geometric:"):
            return [parse_limit(p) for p in spec.split(",")]
        _, start, ratio = spec.split(":")
        start, ratio = parse_limit(start), float(ratio)
    except ValueError:
        raise ValueError("grid must be geometric:start:ratio or n1,n2,..., "
                         f"got {spec!r}") from None
    return analysis.geometric_grid(start, limit, ratio)


@_typed
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _default_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _require_writable(path: str) -> None:
    """Raise ValueError, naming the --out path as given, unless the file
    it names, through any symbolic links, can be written: the file where it
    exists, else its directory."""
    real = os.path.realpath(path)
    parent = os.path.dirname(real)
    target = real if os.path.exists(real) else parent
    if (os.path.isdir(real) or not os.path.isdir(parent)
            or not os.access(target, os.W_OK)):
        raise ValueError(f"--out location not writable: {path}")


def cmd_check(args: argparse.Namespace) -> int:
    n, triple = args.n, args.triple
    s1, s2 = _digit_sums(n, triple)
    member = s1 == triple.multiplier * s2
    if triple == ISOSQUARE:
        sums = f"B(n)={s1} B(n^2)={s2}"
    else:
        sums = (f"base={triple.base} digit_sum(n)={s1} "
                f"digit_sum(n^{triple.power})={s2}")
    print(f"n={n} {sums} member={'yes' if member else 'no'}")
    return 0 if member else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import enumeration
    chunks = enumeration.sieve_text_chunks(args.limit, workers=args.workers,
                                           checkpoint=args.checkpoint)
    out = sys.stdout
    if args.format == "csv":
        out.write("n\n")
    # Flushed before the generator resumes, which is when it records the
    # chunk in the checkpoint: a recorded member has left the process.
    for _, text in chunks:
        out.write(text)
        out.flush()
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from . import enumeration
    grid = _parse_grid(args.grid, args.limit)
    samples = enumeration.counting(args.limit, grid, workers=args.workers)
    sys.stdout.write("n,count\n" + "".join([f"{s.n},{s.count}\n"
                                             for s in samples]))
    return 0


def _emit_traces(traces: list[ConstructionTrace], fmt: str) -> None:
    """Write the chains' stage records, one line each, in one write."""
    record = _RECORDS[fmt]
    sys.stdout.write("".join([
        record % (label, value, value.bit_length(), value.bit_count(),
                  (value * value).bit_count(), rule)
        for trace in traces for label, value, rule in trace.stages]))


def cmd_construct(args: argparse.Namespace) -> int:
    from . import constructions
    if args.seed is not None:
        traces = [constructions.construct_one(args.seed)]
    else:
        traces = constructions.family_traces(args.family)
    for i in range(0, len(traces), _CHAINS_PER_WRITE):
        _emit_traces(traces[i:i + _CHAINS_PER_WRITE], args.format)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analysis, enumeration
    if args.limit < 1 << 12:
        raise ValueError(f"limit must be >= 2^12, got {args.limit}")
    _require_writable(args.out)
    grid = analysis.geometric_grid(1 << 10, args.limit)
    fit_from = (args.limit // DEFAULT_FIT_WINDOW if args.fit_from is None
                else args.fit_from)
    # Every grid point is >= 2^10, so its count is >= 1 and each point in
    # the window is a usable sample for fit_exponent.
    in_window = sum(n >= fit_from for n in grid)
    if in_window < 2:
        raise ValueError(f"need at least 2 usable samples, got {in_window}")
    samples = enumeration.counting(args.limit, grid, workers=args.workers)
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
    from . import checks
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
    integer = _typed(parse_limit)
    sieving = argparse.ArgumentParser(add_help=False)
    sieving.add_argument("--limit", type=integer, required=True)
    sieving.add_argument("--workers", type=positive_int,
                         default=_default_workers())

    p = sub.add_parser("check", help="membership verdict for one integer")
    p.add_argument("n", type=integer)
    p.add_argument("--triple", type=_parse_triple, default=ISOSQUARE,
                   metavar="k,l,m")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", parents=[sieving],
                       help="list members up to a limit")
    p.add_argument("--format", choices=["plain", "csv"], default="plain")
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", parents=[sieving],
                       help="counting function p(n) on a grid")
    p.add_argument("--grid", required=True,
                   metavar="geometric:start:ratio | n1,n2,...")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("construct", help="run the member construction chain")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=integer)
    group.add_argument("--family", type=integer)
    p.add_argument("--format", choices=["plain", "json-lines"],
                   default="plain")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", parents=[sieving],
                       help="exponent fit and fluctuation profile CSV")
    p.add_argument("--alpha", choices=["theoretical", "fit"], default="fit")
    p.add_argument("--out", default="profile.csv")
    p.add_argument("--fit-from", type=integer, default=None,
                   help="fit only grid points with n >= this "
                        "(default: limit/10)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("props", help="run verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--cases", type=positive_int)
    p.set_defaults(func=cmd_props)

    return parser


def _discard_stdout() -> None:
    """Point stdout at devnull once its reader left (as `enumerate | head`
    does), so that what is still buffered goes nowhere, quietly."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    # Python caps decimal int <-> str at 4,300 digits; lifted until return.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        _discard_stdout()  # not an error
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(cap)


def run() -> NoReturn:
    """Run main() on sys.argv as the whole process, then end it.

    os._exit skips the interpreter's teardown and its collection passes;
    each command has closed its files and joined its threads when main
    returns.  A write error in the final flush is reported like one in a
    command.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: usage error or --help
        code = exc.code
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
