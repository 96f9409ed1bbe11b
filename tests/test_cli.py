import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from isosquare import analysis, constructions, enumeration
from isosquare.cli import build_parser, main, parse_limit

from conftest import oracle_is_member, oracle_members

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_sieving(monkeypatch, message):
    """Make each way into the sieve fail: the member stream, the chunk loop
    that it and counting share, and the odd-count kernel."""
    def fail(*args, **kwargs):
        raise AssertionError(message)
    for name in ("sieve_chunks", "_chunk_loop", "odd_counts_in_range"):
        monkeypatch.setattr(enumeration, name, fail)


@contextmanager
def digit_cap(digits):
    """Set Python's cap on int <-> decimal str conversion (0: none) for
    the block; the library runs under the default cap of 4,300 digits."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


class TestParseLimit:
    def test_shorthand(self):
        assert parse_limit("10^7") == 10**7
        assert parse_limit("2^20") == 2**20
        assert parse_limit("13742") == 13742

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_limit("ten")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse_limit("2^-1")

    @pytest.mark.parametrize("argv, name", [
        (["check", "ten"], "n"),
        (["check", "5", "--triple", "2,x,2"], "--triple"),
        (["check", "5", "--triple", "1,1,2"], "--triple"),
        (["enumerate", "--limit", "10^x"], "--limit"),
        (["count", "--grid", "5", "--limit", "ten"], "--limit"),
        (["analyze", "--limit", "2^-1"], "--limit"),
        (["construct", "--seed", "5.0"], "--seed"),
        (["construct", "--family", "x^3"], "--family"),
        (["enumerate", "--limit", "10", "--workers", "x"], "--workers"),
    ])
    def test_malformed_number_is_usage_error(self, capsys, monkeypatch,
                                             argv, name):
        forbid_sieving(monkeypatch, "sieved before parsing the arguments")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        reason = {"1,1,2": "base must be >= 2, got 1",
                  "2^-1": "exponent must be >= 0, got -1"}.get(argv[-1], "")
        assert (f"error: argument {name}: invalid value {argv[-1]!r}: "
                f"{reason}") in err
        assert "_parse" not in err and "positive_int" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "5"],                        # returns 1
        ["check", "0"],                        # returns 2 after ValueError
        ["check", "2^-1"],                     # argparse exits 2
    ])
    def test_digit_cap_restored(self, capsys, argv):
        with digit_cap(5000):
            try:
                main(argv)
            except SystemExit:
                pass
            assert sys.get_int_max_str_digits() == 5000


class TestCheck:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "check", "316")
        assert code == 0
        assert "B(n)=5" in out and "member=yes" in out

    def test_non_member(self, capsys):
        code, out, _ = run(capsys, "check", "5")
        assert code == 1
        assert "member=no" in out

    def test_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "0")
        assert code == 2 and "error" in err

    def test_custom_triple(self, capsys):
        code, out, _ = run(capsys, "check", "2", "--triple", "3,1,2")
        assert code == 0 and "base=3" in out

    def test_malformed_triple(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "5", "--triple", "2,1"])
        assert exc.value.code == 2

    def test_decimal_at_any_size(self, capsys):
        code, out, _ = run(capsys, "check", "2^20000")
        with digit_cap(0):
            assert out.split()[0] == f"n={2**20000}"
        assert code == 0


class TestEnumerate:
    def test_limit16(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--limit", "16",
                           "--workers", "1")
        assert code == 0
        assert [int(x) for x in out.split()] == oracle_members(16)

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--limit", "4",
                           "--format", "csv", "--workers", "1")
        assert code == 0
        assert out.splitlines() == ["n", "1", "2", "3", "4"]

    def test_format_comes_only_from_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOSQUARE_FORMAT", "csv")
        code, out, _ = run(capsys, "enumerate", "--limit", "4",
                           "--workers", "1")
        assert code == 0
        assert out.splitlines() == ["1", "2", "3", "4"]

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_zero_limit(self, capsys, fmt):
        code, out, err = run(capsys, "enumerate", "--limit", "0",
                             "--format", fmt)
        assert code == 2 and out == ""
        assert "limit must be >= 1, got 0" in err

    def test_unwritable_checkpoint(self, capsys):
        code, _, err = run(capsys, "enumerate", "--limit", "10",
                           "--checkpoint", "/nonexistent/dir/ck.txt")
        assert code == 2 and "checkpoint" in err

    def test_unwritable_checkpoint_reported_before_limit(self, capsys):
        code, out, err = run(capsys, "enumerate", "--limit", "0",
                             "--format", "csv",
                             "--checkpoint", "/nonexistent/dir/ck.txt")
        assert code == 2 and out == ""
        assert "checkpoint location not writable" in err

    @pytest.mark.parametrize("exists", [False, True])
    def test_unwritable_checkpoint_directory(self, capsys, tmp_path,
                                             monkeypatch, exists):
        # The record is renamed into place, so the directory must be
        # writable even where the file is.  As root every write is allowed,
        # so os.access is told the directory is read-only.
        path = tmp_path / "ck.txt"
        if exists:
            path.write_text("100 5\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda target, mode: (
            access(target, mode) and str(target) != str(tmp_path)))
        forbid_sieving(monkeypatch, "sieved with an unwritable checkpoint")
        code, out, err = run(capsys, "enumerate", "--limit", "10^6",
                             "--format", "csv", "--checkpoint", str(path))
        assert code == 2 and out == ""
        assert f"error: checkpoint location not writable: {path}" in err

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    @pytest.mark.parametrize("content, message", [
        (b"5 x\n", "expected one line 'chunk_end count'"),
        (b"100 5\n50 7\n", "expected one line 'chunk_end count'"),
        (b"\xff\xfe 3\n", "expected one line 'chunk_end count'"),
        (b"10 50\n", "count 50 exceeds chunk_end 10"),
    ], ids=["malformed", "two-records", "not-utf-8", "count-above-end"])
    def test_bad_checkpoint_prints_nothing(self, capsys, tmp_path, fmt,
                                           content, message):
        path = tmp_path / "ck.txt"
        path.write_bytes(content)
        code, out, err = run(capsys, "enumerate", "--limit", "100",
                             "--format", fmt, "--checkpoint", str(path),
                             "--workers", "1")
        assert code == 2 and out == ""
        assert f"error: checkpoint {path}: {message}" in err
        assert path.read_bytes() == content

    def test_old_log_refused_its_last_line_resumes(self, capsys, tmp_path):
        full = list(enumeration.sieve(5 * 10**6))
        done = sum(1 for m in full if m <= 1 << 22)
        last = f"{1 << 22} {done}\n".encode()
        path = tmp_path / "ck.txt"
        # logs that earlier versions appended to, complete or torn
        for log in (f"{1 << 21} {sum(m <= 1 << 21 for m in full)}\n".encode()
                    + last, last + b"83", last + b"4194400 1\xff"):
            path.write_bytes(log)
            code, out, err = run(capsys, "enumerate", "--limit", "5000000",
                                 "--checkpoint", str(path), "--workers", "1")
            assert code == 2 and out == ""
            assert f"error: checkpoint {path}: expected one line" in err
            assert path.read_bytes() == log
        path.write_bytes(last)  # the conversion: keep the last complete line
        code, out, _ = run(capsys, "enumerate", "--limit", "5000000",
                           "--checkpoint", str(path), "--workers", "1")
        assert code == 0
        assert [int(x) for x in out.split()] == full[done:]
        assert path.read_text() == f"5000000 {len(full)}\n"

    def test_malformed_checkpoint_line_is_error(self, capsys, tmp_path):
        path = tmp_path / "ck.txt"
        path.write_text("4194304 12345\n83\n")
        code, out, err = run(capsys, "enumerate", "--limit", "5000000",
                             "--checkpoint", str(path), "--workers", "1")
        assert code == 2 and out == "" and "error:" in err

    def test_checkpoint_never_ahead_of_stdout(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.txt"
        seen = []  # (count recorded, lines on stdout) at each write/flush

        class Stdout(io.StringIO):
            def observe(self):
                recorded = enumeration.read_checkpoint(str(path))[1]
                seen.append((recorded, self.getvalue().count("\n")))

            def write(self, text):
                self.observe()
                return super().write(text)

            def flush(self):
                self.observe()

        out = Stdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["enumerate", "--limit", "10^7", "--workers", "2",
                     "--checkpoint", str(path)]) == 0
        lines = out.getvalue().count("\n")
        assert path.read_text() == f"{10**7} {lines}\n"
        assert len(seen) >= 6
        assert all(recorded <= printed for recorded, printed in seen)

    def test_output_independent_of_workers(self, capsys):
        outputs = {run(capsys, "enumerate", "--limit", "10^7", "--workers",
                       str(w))[1] for w in (1, 2)}
        members = list(enumeration.sieve(10**7))
        assert outputs == {"".join(f"{m}\n" for m in members)}

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_rejected(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--limit", "10", "--workers", workers])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_default_workers_follow_affinity(self, monkeypatch):
        def workers():
            return build_parser().parse_args(["enumerate", "--limit",
                                              "5"]).workers
        assert workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert workers() == (os.cpu_count() or 1)

    def test_closed_reader_ends_quietly(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "isosquare.cli", "enumerate", "--limit",
             "10^7", "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()  # the first chunk alone overflows the pipe
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestNumpyLoading:
    """Only the sieve loads numpy; each case runs in a fresh interpreter."""

    @staticmethod
    def numpy_loaded(code):
        script = f"{code}\nimport sys\nprint('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        return proc.stdout.splitlines()[-1] == "True"

    @pytest.mark.parametrize("code", [
        "import isosquare",
        "import isosquare.cli",
        "from isosquare import cli; cli.main(['check', '316'])",
        "from isosquare import cli; cli.main(['construct', '--seed', '5'])",
        "from isosquare import cli; "
        "cli.main(['props', '--suite', 'lemmas', '--cases', '50'])",
        "from isosquare import cli; cli.main(['enumerate', '--limit', '0'])",
    ], ids=["import", "import-cli", "check", "construct", "props-lemmas",
            "enumerate-limit-0"])
    def test_not_loaded(self, code):
        assert not self.numpy_loaded(code)

    def test_loaded_by_sieve(self):
        assert self.numpy_loaded("from isosquare.enumeration import "
                                 "members_in_range; members_in_range(1, 10)")


class TestCount:
    def test_explicit_grid(self, capsys):
        code, out, _ = run(capsys, "count", "--limit", "20",
                           "--grid", "2,17")
        assert code == 0
        assert out.splitlines() == ["n,count", "2,1", "17,11"]

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "count", "--limit", "10", "--grid", "1")
        assert code == 0
        assert out.splitlines() == ["n,count", "1,0"]

    def test_geometric_grid(self, capsys):
        code, out, _ = run(capsys, "count", "--limit", "2^12",
                           "--grid", "geometric:1024:2.0")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "n,count"
        assert [r.split(",")[0] for r in rows[1:]] == ["1024", "2048", "4096"]

    def test_bad_spec(self, capsys):
        # not increasing, below 1, above the limit: no header is printed
        for grid in ("5,3", "0,5", "5,200"):
            code, out, _ = run(capsys, "count", "--limit", "100",
                               "--grid", grid)
            assert code == 2 and out == ""
        # malformed specs and numbers name the expected form
        for grid, message in (("geometric:5:nan", "ratio must be > 1"),
                              ("geometric:5", "geometric:start:ratio"),
                              ("geometric:5:2:3", "geometric:start:ratio"),
                              ("geometric:x:2", "geometric:start:ratio"),
                              ("5,,7", "geometric:start:ratio"),
                              ("geometric:5:x", "geometric:start:ratio")):
            code, out, err = run(capsys, "count", "--limit", "100",
                                 "--grid", grid)
            assert code == 2 and out == "" and message in err

    def test_output_independent_of_workers(self, capsys):
        grid = "1,2,16,17,4194303,4194304,4194305,8388609,9999999,10000000"
        outs = [run(capsys, "count", "--limit", "10^7", "--grid", grid,
                    "--workers", workers) for workers in ("1", "2")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and outs[0][1].splitlines()[1:5] == [
            "1,0", "2,1", "16,10", "17,11"]

    def test_huge_geometric_limit_rejected(self, capsys, monkeypatch):
        forbid_sieving(monkeypatch, "sieved before checking the grid")
        code, out, err = run(capsys, "count", "--limit", "10^400",
                             "--grid", "geometric:1:2")
        assert code == 2 and out == ""
        assert err.startswith("error: geometric grid limit must be below")

    def test_grid_above_2_63_rejected(self, capsys, monkeypatch):
        forbid_sieving(monkeypatch, "sieved before checking the grid")
        code, out, err = run(capsys, "count", "--limit", "10^19",
                             "--grid", "10^19")
        assert code == 2 and out == ""
        assert err == "error: grid points must be at most 2^63\n"


class TestConstruct:
    def test_seed_json_lines(self, capsys):
        code, out, _ = run(capsys, "construct", "--seed", "5",
                           "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["stage"] for r in records] == ["seed", "inflate",
                                                "normalize", "finalize"]
        assert records[0]["value"] == "5"
        final = records[-1]
        assert final["weight"] == final["square_weight"]
        assert set(records[0]) == {"stage", "value", "bits", "weight",
                                   "square_weight", "rule"}

    def test_family(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "3",
                           "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 12
        finals = {r["value"] for r in records if r["stage"] == "finalize"}
        assert len(finals) == 3

    def test_power_of_two_seed(self, capsys):
        code, _, err = run(capsys, "construct", "--seed", "4")
        assert code == 2 and "power of two" in err

    def test_plain_format(self, capsys):
        code, out, _ = run(capsys, "construct", "--seed", "6")
        assert code == 0 and "finalize" in out

    def test_seed_beyond_decimal_cap(self, capsys):
        # The final has some 24,000 bits: over 4,300 decimal digits.
        code, out, _ = run(capsys, "construct", "--seed", "10^300",
                           "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        with digit_cap(0):
            seed, final = (int(records[i]["value"]) for i in (0, -1))
        assert seed == 10**300 and records[-1]["bits"] == final.bit_length()
        assert final >> (final.bit_length() - seed.bit_length()) == seed
        assert oracle_is_member(final)


class TestAnalyze:
    def test_small_limit_rejected(self, capsys):
        code, _, _ = run(capsys, "analyze", "--limit", "100")
        assert code == 2

    def test_unwritable_out_rejected_before_sieving(self, capsys,
                                                     monkeypatch):
        forbid_sieving(monkeypatch, "sieved before checking --out")
        code, _, err = run(capsys, "analyze", "--limit", "10^8",
                           "--out", "/nonexistent/dir/profile.csv")
        assert code == 2 and "error:" in err and "--out" in err

    def test_out_needs_only_the_file_writable(self, capsys, tmp_path,
                                              monkeypatch):
        # --out is written in place, so its directory may be read-only
        out_path = tmp_path / "p.csv"
        out_path.write_text("")
        access = os.access
        monkeypatch.setattr(os, "access", lambda target, mode: (
            access(target, mode) and str(target) != str(tmp_path)))
        code, _, _ = run(capsys, "analyze", "--limit", "2^14", "--workers",
                         "1", "--out", str(out_path))
        assert code == 0 and out_path.read_text().startswith("n,log2n,")

    @pytest.mark.parametrize("fit_from", ["2^20", "16000"])
    def test_empty_fit_window_rejected_before_sieving(self, capsys, tmp_path,
                                                      monkeypatch, fit_from):
        forbid_sieving(monkeypatch, "sieved before checking --fit-from")
        out_path = tmp_path / "p.csv"
        code, _, err = run(capsys, "analyze", "--limit", "2^14",
                           "--fit-from", fit_from, "--out", str(out_path))
        assert code == 2 and "error:" in err
        assert not out_path.exists()

    def test_huge_limit_rejected_before_sieving(self, capsys, tmp_path,
                                                monkeypatch):
        forbid_sieving(monkeypatch, "sieved before checking the grid")
        out_path = tmp_path / "p.csv"
        code, out, err = run(capsys, "analyze", "--limit", "10^400",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: geometric grid limit must be below")
        assert not out_path.exists()

    def test_grid_above_2_63_rejected_before_sieving(self, capsys, tmp_path,
                                                     monkeypatch):
        # At --limit 10^19 the grid still ends at 2^63 - 2^16, so it is
        # valid; at 2^64 it ends at 2^64 - 2^17.
        forbid_sieving(monkeypatch, "sieved before checking the grid")
        out_path = tmp_path / "p.csv"
        code, out, err = run(capsys, "analyze", "--limit", "2^64",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == "error: grid points must be at most 2^63\n"
        assert not out_path.exists()

    def test_negative_fit_exponent_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--limit", "2^12", "--fit-from", "2^-1",
                  "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2

    def test_fit_from_zero_fits_every_point(self, capsys, tmp_path):
        args = ("analyze", "--limit", "2^14", "--workers", "1",
                "--out", str(tmp_path / "p.csv"))
        _, default, _ = run(capsys, *args)
        code, everything, _ = run(capsys, *args, "--fit-from", "0")
        assert code == 0
        n_default = int(default.split("samples=")[1].split()[0])
        n_all = int(everything.split("samples=")[1].split()[0])
        assert n_default < n_all == len(analysis.geometric_grid(1 << 10,
                                                                 1 << 14))

    def test_profile_csv(self, capsys, tmp_path):
        out_path = tmp_path / "profile.csv"
        code, out, _ = run(capsys, "analyze", "--limit", "10^5",
                           "--alpha", "theoretical", "--out", str(out_path),
                           "--workers", "1")
        assert code == 0
        assert "alpha_hat=" in out
        rows = out_path.read_text().splitlines()
        assert rows[0] == "n,log2n,profile_value"
        first = rows[1].split(",")
        assert first[0] == "1024" and float(first[1]) == 10.0
        assert all(float(r.split(",")[2]) > 0 for r in rows[1:])


class TestProps:
    def test_gaps(self, capsys):
        code, out, _ = run(capsys, "props", "--suite", "gaps")
        assert code == 0 and "pass" in out

    def test_tuples(self, capsys):
        code, out, _ = run(capsys, "props", "--suite", "tuples")
        assert code == 0

    def test_mersenne(self, capsys):
        code, out, _ = run(capsys, "props", "--suite", "mersenne")
        assert code == 0

    def test_lemmas_reduced_cases(self, capsys):
        code, out, _ = run(capsys, "props", "--suite", "lemmas",
                           "--cases", "200")
        assert code == 0

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "props", "--suite", "nosuch")
        assert code == 2

    @pytest.mark.parametrize("suite, cases", [("all", "0"),
                                              ("lemmas", "-5")])
    def test_non_positive_cases_rejected(self, capsys, suite, cases):
        with pytest.raises(SystemExit) as exc:
            main(["props", "--suite", suite, "--cases", cases])
        assert exc.value.code == 2

    def test_failure_exits_1_with_fail_lines(self, capsys, monkeypatch):
        def broken(k):
            raise constructions.PostconditionError("injected")
        monkeypatch.setattr(constructions, "mersenne_member", broken)
        code, out, _ = run(capsys, "props", "--suite", "mersenne")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 29
        assert lines[0] == "FAIL mersenne_member(2): injected"
        assert all(line.startswith("FAIL ") for line in lines)
