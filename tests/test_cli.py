import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isosquare import analysis, constructions, enumeration
from isosquare.cli import build_parser, main, parse_limit

from conftest import oracle_members

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, _ = run(capsys, "check", "5", "--triple", "2,1")
        assert code == 2


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

    def test_torn_checkpoint_resumes(self, capsys, tmp_path):
        full = list(enumeration.sieve(5 * 10**6))
        done = sum(1 for m in full if m <= 1 << 22)
        path = tmp_path / "ck.txt"
        path.write_text(f"{1 << 22} {done}\n83")
        code, out, _ = run(capsys, "enumerate", "--limit", "5000000",
                           "--checkpoint", str(path), "--workers", "1")
        assert code == 0
        assert [int(x) for x in out.split()] == full[done:]
        assert path.read_text() == (f"{1 << 22} {done}\n"
                                    f"5000000 {len(full)}\n")

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
        rows = [tuple(map(int, line.split()))
                for line in path.read_text().splitlines()]
        assert len(rows) == 3 and rows[-1] == (10**7, lines)
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


class TestAnalyze:
    def test_small_limit_rejected(self, capsys):
        code, _, _ = run(capsys, "analyze", "--limit", "100")
        assert code == 2

    def test_unwritable_out_rejected_before_sieving(self, capsys,
                                                     monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sieved before checking --out")
        monkeypatch.setattr(enumeration, "sieve_chunks", fail)
        code, _, err = run(capsys, "analyze", "--limit", "10^8",
                           "--out", "/nonexistent/dir/profile.csv")
        assert code == 2 and "error:" in err and "--out" in err

    @pytest.mark.parametrize("fit_from", ["2^20", "16000"])
    def test_empty_fit_window_rejected_before_sieving(self, capsys, tmp_path,
                                                      monkeypatch, fit_from):
        def fail(*args, **kwargs):
            raise AssertionError("sieved before checking --fit-from")
        monkeypatch.setattr(enumeration, "sieve_chunks", fail)
        out_path = tmp_path / "p.csv"
        code, _, err = run(capsys, "analyze", "--limit", "2^14",
                           "--fit-from", fit_from, "--out", str(out_path))
        assert code == 2 and "error:" in err
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
