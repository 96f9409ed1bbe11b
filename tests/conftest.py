"""Shared oracles and checks for the test suite.

The oracle digit sum uses repeated division only, independent of the
popcount paths under test.
"""

from __future__ import annotations

import os
import re

import pytest


# Records that read as 100 and 5 but are not the canonical b"100 5\n" that
# a checkpoint holds, each refused, by test id.
NON_CANONICAL = {"leading-zero": b"0100 5\n", "plus-sign": b"+100 5\n",
                 "two-spaces": b"100  5\n", "tab": b"100\t5\n",
                 "crlf": b"100 5\r\n", "leading-space": b" 100 5\n"}


def oracle_digit_sum(n: int, base: int = 2) -> int:
    s = 0
    while n:
        n, r = divmod(n, base)
        s += r
    return s


def oracle_is_member(n: int) -> bool:
    return oracle_digit_sum(n) == oracle_digit_sum(n * n)


def oracle_members(limit: int) -> list[int]:
    return [m for m in range(1, limit + 1) if oracle_is_member(m)]


def check_record(cls: type, values: dict[str, object]) -> None:
    """What every record of the package keeps, whatever implements it: it
    builds by position and by keyword, two built from equal values are equal
    and hash equal, no attribute can be assigned and repr names each
    field."""
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert {f: getattr(by_keyword, f) for f in values} == values
    for field, value in values.items():
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, value)
    with pytest.raises(AttributeError):
        by_keyword.not_a_field = 0
    text = repr(by_keyword)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{field}=" in text for field in values)


def kernel_block() -> int:
    """_sieve.c's BLOCK, the integers the kernel lists at a time, read from
    the source the kernel is built from, the one place it is defined."""
    from isosquare.enumeration import _SOURCE
    with open(_SOURCE) as fh:
        return int(re.search(r"^#define BLOCK (\d+)\b", fh.read(), re.M)[1])


def short_kernel(monkeypatch, call: str) -> None:
    """Make each load of the sieve kernel check a kernel whose text entry
    point merge_text ("text") returns one byte fewer than it wrote, or
    whose listing entry point members ("list") or odd_members ("odd") one
    member fewer, the other entry points left sound."""
    from types import SimpleNamespace

    from isosquare import enumeration
    check = enumeration._check
    name, cut = {"text": ("merge_text", lambda r: (r[0][:-1], r[1])),
                 "list": ("members", lambda r: r[:-1]),
                 "odd": ("odd_members", lambda r: r[:-8])}[call]

    def short(lib):
        listed, kernel = getattr(lib, name), SimpleNamespace(**vars(lib))
        setattr(kernel, name, lambda *args: cut(listed(*args)))
        check(kernel)
    monkeypatch.setattr(enumeration, "_check", short)


def refuse_open(monkeypatch, path) -> None:
    """Make os.open fail with EACCES for path alone, as it does for a
    file that cannot be written."""
    real_open = os.open

    def refusing(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(os, "open", refusing)


@pytest.fixture(scope="session")
def members_16() -> list[int]:
    # frozen from the naive oracle over 1..16
    expected = [1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16]
    assert oracle_members(16) == expected
    return expected


@pytest.fixture
def unloaded_kernel():
    """The sieve kernel unloaded, so that the next kernel call loads,
    selects and checks it again; unloaded again after the test."""
    from isosquare import enumeration
    enumeration._load.cache_clear()
    yield
    enumeration._load.cache_clear()


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path, unloaded_kernel):
    """The sieve kernel unloaded, with its cache moved to an empty
    directory (the fixture's value, not yet created), so that the next
    kernel call compiles it."""
    from isosquare import enumeration
    cache = tmp_path / "kernel-cache"
    monkeypatch.setattr(enumeration, "_CACHE", str(cache))
    return cache


@pytest.fixture
def kernel_paths():
    """A function whose calls each iterate over the paths of the sieve
    kernel this CPU has, "scalar" then "vector", with each selected in
    turn; the loader's choice is selected again after the test."""
    from isosquare import enumeration
    kernel = enumeration._kernel()

    def each():
        for path, vector in (("scalar", 0), ("vector", 1)):
            if kernel.isq_select(vector) == vector:
                yield path
    yield each
    kernel.isq_select(1)
