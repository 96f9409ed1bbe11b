import io
import json
import os
import re
import stat
import subprocess
import sys
import sysconfig
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from isosquare import analysis, cli, constructions, enumeration, membership
from isosquare.cli import build_parser, main, parse_limit
from isosquare.membership import is_isosquare, weight_profile

from conftest import (NON_CANONICAL, oracle_is_member, oracle_members,
                      refuse_open, short_kernel)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_sieving(monkeypatch, message):
    """Make each way into the sieve fail: the member stream, the chunk loop
    that it and counting share, the odd-count kernel and the compiled
    kernel under every one of them."""
    def fail(*args, **kwargs):
        raise AssertionError(message)
    for name in ("sieve_text_chunks", "_chunk_loop", "_odd_counts",
                 "_kernel"):
        monkeypatch.setattr(enumeration, name, fail)


def forbid_chunks(monkeypatch, message):
    """Make the member stream fail once it sieves a chunk: the chunk loop,
    which is made before the checkpoint is opened, when it first runs, and
    _odd_members when it is called.  The kernel still loads."""
    def loop(*args, **kwargs):
        raise AssertionError(message)
        yield

    def fail(*args, **kwargs):
        raise AssertionError(message)
    monkeypatch.setattr(enumeration, "_chunk_loop", loop)
    monkeypatch.setattr(enumeration, "_odd_members", fail)


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


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

    @pytest.mark.parametrize("argv, code, out, err", [
        (["316"], 0, "n={n} B(n)=5 B(n^2)=5 member=yes\n", ""),
        (["5"], 1, "n={n} B(n)=2 B(n^2)=3 member=no\n", ""),
        (["0"], 2, "", "error: n must be positive, got 0\n"),
        (["2^20000"], 0, "n={n} B(n)=1 B(n^2)=1 member=yes\n", ""),
        (["9", "--triple", "10,1,2"], 0,
         "n={n} base=10 digit_sum(n)=9 digit_sum(n^2)=9 member=yes\n", ""),
        (["2025", "--triple", "10,1,2"], 1,
         "n={n} base=10 digit_sum(n)=9 digit_sum(n^2)=18 member=no\n", ""),
    ], ids=["member", "non-member", "zero", "2^20000", "base-10-member",
            "base-10-non-member"])
    def test_exact_output(self, capsys, argv, code, out, err):
        with digit_cap(0):
            out = out.format(n=parse_limit(argv[0]))
        assert run(capsys, "check", *argv) == (code, out, err)

    @pytest.mark.parametrize("argv", [["316"], ["5"], ["2^20000"],
                                      ["7^120", "--triple", "10,1,2"]],
                             ids=["member", "non-member", "2^20000",
                                  "base-10"])
    def test_each_sum_computed_once(self, capsys, argv):
        # The verdict and the printout share the two digit sums.  Calls are
        # counted by digit_sum's code, whatever name they go through.
        calls, digit_sum_code = [], membership.digit_sum.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is digit_sum_code:
                calls.append(event)
        sys.setprofile(profile)
        try:
            code, _, _ = run(capsys, "check", *argv)
        finally:
            sys.setprofile(None)
        assert code in (0, 1) and len(calls) == 2


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
        code, out, err = run(capsys, "enumerate", "--limit", "10",
                             "--checkpoint", "/nonexistent/dir/ck.txt")
        assert (code, out) == (2, "")
        assert err == ("error: [Errno 2] No such file or directory: "
                       "'/nonexistent/dir/ck.txt'\n")

    def test_bad_limit_reported_before_checkpoint(self, capsys, tmp_path,
                                                  monkeypatch):
        # The arguments are checked before the checkpoint is opened, so a
        # bad limit is reported first, and the checkpoint is not created.
        path = tmp_path / "ck.txt"
        refuse_open(monkeypatch, path)
        code, out, err = run(capsys, "enumerate", "--limit", "0",
                             "--format", "csv", "--checkpoint", str(path))
        assert (code, out) == (2, "")
        assert err == "error: limit must be >= 1, got 0\n"
        assert not path.exists()

    @pytest.mark.parametrize("exists", [False, True])
    def test_unwritable_checkpoint_directory(self, capsys, tmp_path,
                                             monkeypatch, exists):
        # The record is written in place, so a read-only directory refuses
        # a checkpoint that does not exist yet and takes one that does.  As
        # root every write is allowed, so the open of the missing file is
        # refused as a read-only directory would refuse it.
        path = tmp_path / "ck.txt"
        if exists:
            path.write_text("100 5\n")
        else:
            refuse_open(monkeypatch, path)
            forbid_chunks(monkeypatch, "sieved with an unwritable checkpoint")
        mode = tmp_path.stat().st_mode
        tmp_path.chmod(0o555)
        try:
            code, out, err = run(capsys, "enumerate", "--limit", "10^6",
                                 "--format", "csv", "--checkpoint", str(path))
        finally:
            tmp_path.chmod(mode)
        if not exists:
            assert (code, out) == (2, "")
            assert err == f"error: [Errno 13] Permission denied: '{path}'\n"
            assert not path.exists()
            return
        rest = [m for m in enumeration.sieve(10**6) if m > 100]
        assert (code, err) == (0, "")
        assert out == "n\n" + "".join(f"{m}\n" for m in rest)
        assert path.read_text() == f"{10**6} {5 + len(rest)}\n"

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_link_into_missing_directory_refused(self, capsys, tmp_path,
                                                 monkeypatch, fmt):
        # The link's own directory exists; the checkpoint's does not.
        link = tmp_path / "ck"
        link.symlink_to("/nonexistent/dir/ck")
        forbid_chunks(monkeypatch, "sieved with a dangling checkpoint link")
        code, out, err = run(capsys, "enumerate", "--limit", "10^7",
                             "--workers", "1", "--format", fmt,
                             "--checkpoint", str(link))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{link}'\n"
        assert link.is_symlink() and not os.path.exists(link)

    @pytest.mark.parametrize("exists", [False, True])
    def test_link_records_in_its_target(self, capsys, tmp_path, exists):
        target, link = tmp_path / "runs" / "ck.txt", tmp_path / "ck"
        target.parent.mkdir()
        if exists:
            target.write_text("100 5\n")
        link.symlink_to(target)
        code, out, err = run(capsys, "enumerate", "--limit", "10^6",
                             "--checkpoint", str(link))
        rest = [m for m in enumeration.sieve(10**6) if m > 100 * exists]
        assert (code, err) == (0, "")
        assert out == "".join(f"{m}\n" for m in rest)
        assert link.is_symlink()
        assert target.read_text() == f"{10**6} {5 * exists + len(rest)}\n"

    def test_checkpoint_open_failure_prints_nothing(self, capsys, tmp_path,
                                                    monkeypatch):
        # the open comes at the call that makes the chunk stream, before
        # the first chunk is sieved and before the csv header is written
        path = tmp_path / "ck.txt"
        refuse_open(monkeypatch, path)
        forbid_chunks(monkeypatch, "sieved with a refused checkpoint")
        for fmt in ("plain", "csv"):
            code, out, err = run(capsys, "enumerate", "--limit", "10^6",
                                 "--format", fmt, "--checkpoint", str(path))
            assert (code, out) == (2, ""), fmt
            assert err == f"error: [Errno 13] Permission denied: '{path}'\n"
            assert not path.exists()

    def test_short_write_is_an_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "ck.txt"
        monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
        code, out, err = run(capsys, "enumerate", "--limit", "10^6",
                             "--workers", "1", "--checkpoint", str(path))
        assert code == 2
        assert out == "".join(f"{m}\n" for m in enumeration.sieve(10**6))
        assert err == f"error: checkpoint {path}: short write\n"
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("kind", ["directory", "read-only"])
    def test_path_tmp_left_untouched(self, capsys, tmp_path, monkeypatch,
                                     kind):
        # The record is written in place, so PATH.tmp, which earlier
        # versions wrote and renamed, is not used: a directory there or a
        # read-only file is left as it is.  As root every write is allowed,
        # so os.access is told that PATH.tmp is read-only.
        path, tmp = tmp_path / "ck.txt", tmp_path / "ck.txt.tmp"
        if kind == "directory":
            tmp.mkdir()
        else:
            tmp.write_bytes(b"4000 9")
            access = os.access
            monkeypatch.setattr(os, "access", lambda target, mode: (
                access(target, mode) and str(target) != str(tmp)))
        code, out, err = run(capsys, "enumerate", "--limit", "10^7",
                             "--checkpoint", str(path))
        lines = out.count("\n")
        assert (code, err) == (0, "")
        assert lines == len(list(enumeration.sieve(10**7)))
        assert path.read_text() == f"{10**7} {lines}\n"
        assert (tmp.is_dir() if kind == "directory"
                else tmp.read_bytes() == b"4000 9")

    def test_fifo_checkpoint_refused_before_printing(self, capsys, tmp_path):
        # An in-place write would block on a FIFO with no reader; a reader
        # is held open so that one would not hang here, but shows.
        path = tmp_path / "ck.fifo"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run(capsys, "enumerate", "--limit", "10^6",
                                 "--format", "csv", "--checkpoint", str(path))
            written = os.read(reader, 64)  # no writer: b"" at once
        finally:
            os.close(reader)
        assert code == 2 and out == "" and written == b""
        assert f"error: checkpoint {path}: not a regular file" in err
        assert stat.S_ISFIFO(os.stat(path).st_mode)

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    @pytest.mark.parametrize("content, message", [
        (b"5 x\n", "expected one line 'chunk_end count'"),
        (b"100 5\n50 7\n", "expected one line 'chunk_end count'"),
        (b"\xff\xfe 3\n", "expected one line 'chunk_end count'"),
        (b"10 50\n", "count 50 exceeds chunk_end 10"),
        *((record, "expected one line 'chunk_end count'")
          for record in NON_CANONICAL.values()),
    ], ids=["malformed", "two-records", "not-utf-8", "count-above-end",
            *NON_CANONICAL])
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


# What `import isosquare.cli`, `check` and `--help` must not load.
PACKAGE = {"isosquare.constructions", "isosquare.enumeration",
           "isosquare.analysis", "isosquare.checks"}
HEAVY = {"json"}
# What loading the sieve kernel imports (subprocess and sysconfig only to
# compile it).
KERNEL = {"isosquare._sieve", "subprocess", "sysconfig"}
# No command needs these: the chunk loop runs plain threads, the kernel is
# an extension module, its cache key is a crc32 and the exponent fit sums
# with math.fsum.
UNUSED = {"concurrent.futures", "logging", "ctypes", "hashlib", "statistics"}
# No command needs these: the package's records are NamedTuples.
RECORDS = {"dataclasses", "inspect"}
CLI = "from isosquare import cli; "


class TestModuleLoading:
    """Each command loads only the modules it runs, only the sieve loads
    its kernel, and nothing loads numpy; each case runs in a fresh
    interpreter."""

    @staticmethod
    def loaded(code):
        script = f"{code}\nimport sys\nprint(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        return set(proc.stdout.splitlines()[-1].split())

    @pytest.mark.parametrize("code, unloaded", [
        ("import isosquare",
         PACKAGE | HEAVY | KERNEL | RECORDS
         | {"isosquare.membership", "isosquare.cli"}),
        ("import isosquare.cli", PACKAGE | HEAVY | KERNEL | RECORDS),
        (CLI + "cli.main(['check', '316'])",
         PACKAGE | HEAVY | KERNEL | RECORDS),
        (CLI + "\ntry:\n    cli.main(['--help'])\n"
         "except SystemExit:\n    pass", PACKAGE | HEAVY | KERNEL | RECORDS),
        (CLI + "cli.main(['construct', '--seed', '5'])",
         PACKAGE - {"isosquare.constructions"} | HEAVY | KERNEL | RECORDS),
        (CLI + "cli.main(['props', '--suite', 'lemmas', '--cases', '50'])",
         {"isosquare.analysis", "isosquare.enumeration"} | KERNEL | RECORDS),
        (CLI + "cli.main(['enumerate', '--limit', '0'])", KERNEL),
        (CLI + "cli.main(['props', '--suite', 'gaps'])",
         {"isosquare.analysis", "isosquare.enumeration"} | KERNEL | RECORDS),
        (CLI + "cli.main(['props', '--suite', 'all', '--cases', '50'])",
         {"isosquare.analysis", "isosquare.enumeration"} | KERNEL | RECORDS),
        ("from isosquare.constructions import scan_gap; scan_gap(16)",
         {"isosquare.enumeration"} | KERNEL),
        # CountSample appears in analysis only in annotations
        ("import isosquare.analysis", {"isosquare.enumeration"} | KERNEL),
        # the sieve commands run no construction, fit or rational arithmetic
        (CLI + "cli.main(['count', '--limit', '10^3', '--grid', '1000'])",
         {"isosquare.constructions", "isosquare.checks", "fractions"}),
        (CLI + "cli.main(['enumerate', '--limit', '10^3'])",
         {"isosquare.constructions", "isosquare.checks",
          "isosquare.analysis"}),
        (CLI + "cli.main(['analyze', '--limit', '2^12', '--out', "
         "'/dev/null'])", {"isosquare.constructions", "isosquare.checks"}),
        # three chunks each, on two threads
        (CLI + "cli.main(['count', '--limit', '10^7', '--grid', '1000,10^7', "
         "'--workers', '2'])",
         {"isosquare.constructions", "isosquare.checks", "fractions"}),
        (CLI + "cli.main(['enumerate', '--limit', '10^7', '--workers', '2'])",
         {"isosquare.constructions", "isosquare.checks",
          "isosquare.analysis"}),
        (CLI + "cli.main(['analyze', '--limit', '10^7', '--workers', '2', "
         "'--out', '/dev/null'])",
         {"isosquare.constructions", "isosquare.checks"}),
    ], ids=["import", "import-cli", "check", "help", "construct",
            "props-lemmas", "enumerate-limit-0", "props-gaps", "props-all",
            "scan-gap-16", "import-analysis", "count", "enumerate", "analyze",
            "count-chunks", "enumerate-chunks", "analyze-chunks"])
    def test_not_loaded(self, code, unloaded):
        assert self.loaded(code) & (unloaded | UNUSED | {"numpy"}) == set()

    @pytest.mark.parametrize("argv", [
        ["count", "--limit", "10^3", "--grid", "1000"],
        ["enumerate", "--limit", "10^3"],
        ["analyze", "--limit", "2^12", "--out", "/dev/null"],
    ], ids=["count", "enumerate", "analyze"])
    def test_one_chunk_starts_no_thread(self, capsys, monkeypatch, argv):
        def start(thread):
            raise AssertionError("a range within one chunk started a thread")
        monkeypatch.setattr(threading.Thread, "start", start)
        assert main([*argv, "--workers", "2"]) == 0

    def test_loaded_by_sieve(self):
        # any window or sieve, however short, and a gap of BLOCK integers,
        # loads the kernel; once it is cached, without ctypes or sysconfig
        self.loaded("from isosquare import enumeration; enumeration._kernel()")
        for code in ("from isosquare.enumeration import members_in_range; "
                     "members_in_range(1, 10)",
                     "from isosquare.enumeration import sieve; "
                     "list(sieve(10))",
                     "from isosquare.constructions import scan_gap; "
                     "scan_gap(17)"):
            loaded = self.loaded(code)
            assert "isosquare._sieve" in loaded
            assert loaded & {"ctypes", "sysconfig", "subprocess", "hashlib",
                             "numpy"} == set()


class TestCount:
    def test_one_write(self, monkeypatch):
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["count", "--limit", "10^5",
                     "--grid", "geometric:1024:1.189"]) == 0
        assert out.writes == 1
        assert out.getvalue().count("\n") == 1 + 27

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

    @pytest.mark.parametrize("fmt", ["plain", "json-lines"])
    def test_one_write_per_chain(self, monkeypatch, fmt):
        # one write per block of chains, each write holding whole chains
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["construct", "--family", "41", "--format", fmt]) == 0
        assert out.writes == 1
        assert out.getvalue().count("\n") == 4 * 41
        writes = []
        monkeypatch.setattr(cli, "_CHAINS_PER_WRITE", 10)
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(["construct", "--family", "41", "--format", fmt]) == 0
        assert [text.count("\n") for text in writes] == [40, 40, 40, 40, 4]
        assert "".join(writes) == out.getvalue()

    @pytest.mark.parametrize("option, value", [("--family", "41"),
                                               ("--seed", "10^300")])
    def test_json_lines_are_canonical(self, capsys, option, value):
        # the records are formatted by hand; json.dumps would write these
        code, out, _ = run(capsys, "construct", option, value,
                           "--format", "json-lines")
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            assert line == json.dumps(record)
            with digit_cap(0):
                n = int(record["value"])
            profile = weight_profile(n)
            assert (record["bits"], record["weight"],
                    record["square_weight"]) == (
                n.bit_length(), profile.weight, profile.square_weight)

    def test_plain_lines_match_json_lines(self, capsys):
        _, plain, _ = run(capsys, "construct", "--family", "41")
        _, lines, _ = run(capsys, "construct", "--family", "41",
                          "--format", "json-lines")
        assert plain.splitlines() == [
            "{stage:>9}  value={value}  bits={bits}  weight={weight}  "
            "square_weight={square_weight}  rule={rule}".format(
                **json.loads(line)) for line in lines.splitlines()]

    def test_labels_and_rules_need_no_escaping(self):
        for trace in constructions.family_traces(41):
            for stage in trace.stages:
                assert re.fullmatch("[a-z-]+", stage.label)
                assert re.fullmatch("[a-z-]+", stage.rule)

    def test_closed_reader_ends_quietly(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "isosquare.cli", "construct", "--family",
             "4001", "--format", "json-lines"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b'{"stage": "seed"')
        proc.stdout.close()  # 16,004 lines overflow the pipe
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

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

    def test_link_into_missing_directory_refused(self, capsys, tmp_path,
                                                 monkeypatch):
        link = tmp_path / "p.csv"
        link.symlink_to("/nonexistent/dir/p.csv")
        forbid_sieving(monkeypatch, "sieved with a dangling --out link")
        code, out, err = run(capsys, "analyze", "--limit", "10^7",
                             "--workers", "1", "--out", str(link))
        assert (code, out) == (2, "")
        assert err == f"error: --out location not writable: {link}\n"

    def test_out_link_writes_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "out" / "p.csv", tmp_path / "p.csv"
        target.parent.mkdir()
        link.symlink_to(target)
        code, _, _ = run(capsys, "analyze", "--limit", "2^14", "--workers",
                         "1", "--out", str(link))
        assert code == 0 and link.is_symlink()
        assert target.read_text().startswith("n,log2n,profile_value\n")

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


class TestKernelBuild:
    SIEVING = pytest.mark.parametrize("argv", [
        ["enumerate", "--limit", "10^5", "--format", "csv",
         "--checkpoint", "ck.txt"],
        ["count", "--limit", "10^5", "--grid", "1000,10^5"],
        ["analyze", "--limit", "2^14", "--out", "profile.csv"],
    ], ids=["enumerate", "count", "analyze"])

    @SIEVING
    def test_compiler_failure_is_an_error(self, capsys, monkeypatch,
                                          tmp_path, fresh_kernel, argv):
        # The kernel is built before anything is written: no csv header,
        # no checkpoint, no profile, no library and no traceback.
        compiler = tmp_path / "cc"
        compiler.write_text("#!/bin/sh\necho 'cc: cannot build' >&2\n"
                            "exit 1\n")
        compiler.chmod(0o755)
        monkeypatch.setitem(sysconfig.get_config_vars(), "CC", str(compiler))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--workers", "2")
        assert (code, out) == (2, "")
        assert err == (f"error: cannot compile the sieve kernel: {compiler} "
                       f"-O3 -shared -fPIC -I{sysconfig.get_path('include')} "
                       "exited with 1: cc: cannot build\n")
        assert sorted(os.listdir(tmp_path)) == ["cc", fresh_kernel.name]
        assert os.listdir(fresh_kernel) == []

    @SIEVING
    def test_failed_load_check_is_an_error(self, capsys, monkeypatch,
                                           tmp_path, unloaded_kernel, argv):
        # The load checks the selected path against is_isosquare; a path
        # that disagrees, even in its text entry point alone, stops the
        # command before it writes anything, a checkpoint included.
        for fault in ("answers", "text"):
            if fault == "answers":
                monkeypatch.setattr(enumeration, "is_isosquare",
                                    lambda m: not is_isosquare(m))
            else:
                short_kernel(monkeypatch, fault)
            monkeypatch.chdir(tmp_path)
            code, out, err = run(capsys, *argv, "--workers", "2")
            assert (code, out) == (2, ""), fault
            assert re.fullmatch(r"error: the sieve kernel's (scalar|vector) "
                                r"path disagrees with is_isosquare on "
                                r"\[4294967251, 4294967340\]\n", err), fault
            assert os.listdir(tmp_path) == [], fault
            monkeypatch.undo()

    def test_output_same_on_both_paths(self, capsys, monkeypatch, tmp_path,
                                       kernel_paths):
        # stdout and the files written, at 10^6 and resumed from 300,000,
        # and over 3 chunks at 10^7 resumed from 5,000,000, inside the
        # second
        monkeypatch.chdir(tmp_path)
        runs = {}
        for path in kernel_paths():
            Path("ck.txt").write_text("300000 9\n")
            Path("ck7.txt").write_text("5000000 11\n")
            runs[path] = [run(capsys, *argv) for argv in (
                ["enumerate", "--limit", "10^6", "--format", "csv"],
                ["enumerate", "--limit", "10^6", "--checkpoint", "ck.txt"],
                ["enumerate", "--limit", "10^7", "--format", "csv",
                 "--checkpoint", "ck7.txt", "--workers", "2"],
                ["count", "--limit", "10^6", "--grid", "geometric:2:1.189"],
                ["analyze", "--limit", "10^6", "--out", "profile.csv"])]
            runs[path] += [Path(f).read_text()
                           for f in ("ck.txt", "ck7.txt", "profile.csv")]
        if len(runs) < 2:
            pytest.skip("the CPU has no AVX-512 VPOPCNTDQ: one path only")
        assert runs["scalar"] == runs["vector"]
        assert all(code == 0 for code, _, _ in runs["vector"][:5])
        members = enumeration.members_in_range(5_000_001, 10**7)
        assert runs["vector"][2][1] == "n\n" + "".join(f"{m}\n"
                                                       for m in members)
        assert runs["vector"][6] == f"{10**7} {11 + len(members)}\n"


def cli_process(argv, env=None, **kwargs):
    """Run `python -m isosquare.cli ARGV` on this checkout's src."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "isosquare.cli", *argv],
                          env=env, timeout=120, **kwargs)


class TestProcessEntry:
    """run() ends the process itself, after main() and a final flush."""

    @pytest.mark.parametrize("argv, code, files", [
        (["enumerate", "--limit", "10^5", "--workers", "2", "--format",
          "csv", "--checkpoint", "run.ckpt"], 0, ["run.ckpt"]),
        (["count", "--limit", "10^5", "--grid", "geometric:1024:2"], 0, []),
        (["analyze", "--limit", "2^16", "--out", "profile.csv"], 0,
         ["profile.csv"]),
        (["construct", "--family", "41", "--format", "json-lines"], 0, []),
        (["props", "--suite", "lemmas", "--cases", "50"], 0, []),
        (["check", "5"], 1, []),
        (["check", "ten"], 2, []),
    ], ids=["enumerate", "count", "analyze", "construct", "props", "check",
            "usage-error"])
    def test_same_as_main(self, capsys, monkeypatch, tmp_path, argv, code,
                          files):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
        for side in ("process", "main"):
            (tmp_path / side).mkdir()
        proc = cli_process(argv, cwd=tmp_path / "process",
                           capture_output=True)
        monkeypatch.chdir(tmp_path / "main")
        try:
            returned = main(argv)
        except SystemExit as exc:
            returned = exc.code
        out, err = capsys.readouterr()
        assert returned == code and proc.returncode == code
        assert proc.stdout == out.encode() and proc.stderr == err.encode()
        written = [{p.name: p.read_bytes()
                    for p in (tmp_path / side).iterdir()}
                   for side in ("process", "main")]
        assert written[0] == written[1] and sorted(written[0]) == files
        if files == ["run.ckpt"]:
            assert written[0]["run.ckpt"] == b"100000 %d\n" % len(
                out.splitlines()[1:])

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_final_flush_error_is_reported(self):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)  # the output waits for exit
        with open("/dev/full", "w") as full:
            proc = cli_process(["check", "316"], env=env, stdout=full,
                               stderr=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"

    def test_reader_closed_before_final_flush(self):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = cli_process(["check", "5"], env=env, stdout=write,
                               stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs Linux /proc")
    def test_sieve_command_ends_with_one_thread(self):
        # The grid's top point lies within the first chunk, so counting runs
        # in the calling thread and starts no thread.  The guarantee holds
        # only where the chunk loop starts no thread (one chunk or one
        # worker): after a run on threads, they are joined but the OS may
        # not yet have ended them at os._exit.
        script = (
            "import os, sys\n"
            "from isosquare import cli\n"
            "exit_ = os._exit\n"
            "def counted(code):\n"
            "    os.write(2, b'%d' % len(os.listdir('/proc/self/task')))\n"
            "    exit_(code)\n"
            "os._exit = counted\n"
            "sys.argv[1:] = ['count', '--limit', '10^6', '--grid', "
            "'1000,10^6', '--workers', '2']\n"
            "cli.run()\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"1")

    def test_main_leaves_environment_alone(self, capsys):
        before = dict(os.environ)
        assert main(["count", "--limit", "10^4", "--grid", "1000"]) == 0
        assert dict(os.environ) == before
