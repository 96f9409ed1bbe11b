import ast
import importlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import isosquare
from isosquare import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Every public name of the package, by the module that defines it.
EXPORTS = {
    "membership": ["ISOSQUARE", "PropertyTriple", "WeightProfile",
                   "digit_sum", "is_isosquare", "satisfies",
                   "weight_profile"],
    "constructions": ["ConstructionStage", "ConstructionTrace",
                      "PostconditionError", "affix_one", "construct_family",
                      "construct_one", "family_traces", "finalize_member",
                      "four_tuple", "gap_interval", "gap_weight_identity",
                      "inflate", "mersenne_member", "mult_mersenne",
                      "near_power_witness", "normalize_defect", "scan_gap",
                      "subtract_compose", "subtract_mersenne"],
    "enumeration": ["CountSample", "RunRecord", "counting", "find_runs",
                    "members_in_range", "sieve"],
    "analysis": ["FitResult", "ProfilePoint", "alpha_limit",
                 "alpha_theoretical", "cross_binomial_sum", "fit_exponent",
                 "fluctuation_profile", "geometric_grid",
                 "model_probability"],
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names]


class TestLazyNamespace:
    def test_all_lists_every_public_name(self):
        assert sorted(isosquare.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_is_its_module_object(self, module, name):
        defined = getattr(importlib.import_module(f"isosquare.{module}"),
                          name)
        assert getattr(isosquare, name) is defined

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from isosquare import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(
                importlib.import_module(f"isosquare.{module}"), name)

    def test_modules_resolve_without_their_own_import(self):
        script = ("import isosquare\n"
                  f"for m in {list(EXPORTS)}:\n"
                  "    print(getattr(isosquare, m).__name__)")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.split() == [f"isosquare.{m}" for m in EXPORTS]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            isosquare.no_such_name
        assert not hasattr(isosquare, "DEFAULT_CHUNK")


def test_console_script_is_run():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["isosquare"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_kernel_source_is_package_data():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "_sieve.c" in data["isosquare"]
    assert (SRC / "isosquare" / "_sieve.c").is_file()


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish from optimized runs; every check raises explicitly instead.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "isosquare").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_threads_started_only_by_the_chunk_loop():
    # enumeration._chunk_loop binds each thread it starts to one allowed
    # CPU; a thread started anywhere else in src/ would run unbound.
    starters = {"Thread", "Timer", "start_new_thread", "ThreadPoolExecutor"}
    inside, outside = [], []
    for path in sorted((SRC / "isosquare").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loop = {id(node) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "_chunk_loop"
                for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None)
                         or getattr(node.func, "attr", None)) in starters):
                (inside if id(node) in loop else outside).append(
                    f"{path.name}:{node.lineno}")
    assert outside == []
    assert inside  # the check still sees the loop's own Thread call


def test_no_uncalled_public_definitions():
    # A public top-level def or class that the package does not export and
    # that src/ names nowhere else, as a name, an attribute or an import,
    # has no caller: delete it, or export it.
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "isosquare").glob("*.py"))}
    named = {name for tree in trees.values() for node in ast.walk(tree)
             for name in (getattr(node, "id", None),
                          getattr(node, "attr", None),
                          node.name if isinstance(node, ast.alias) else None)}
    uncalled = [f"{module}.{node.name}"
                for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in isosquare._MODULE_OF
                and node.name not in named]
    assert uncalled == []


@pytest.mark.parametrize("name, args, message", [
    pytest.param(name, args, message, id=name) for name, args, message in [
        ("cross_binomial_sum", (0,), "k must be >= 1, got 0"),
        ("alpha_limit", (0,), "k must be >= 1, got 0"),
        ("weight_profile", (0,), "n must be positive, got 0"),
        ("find_runs", (10, 1), "min_length must be >= 2, got 1"),
        ("mult_mersenne", (0, 3), "n must be >= 1, got 0"),
        ("affix_one", (0, 3), "n must be >= 1, got 0"),
        ("subtract_mersenne", (4, 3, 7), "n must be odd positive, got 4"),
        ("normalize_defect", (1,), "n must be odd and > 1, got 1"),
        ("construct_one", (1,), "seed must be > 1, got 1"),
    ]])
def test_input_checks_raise_their_message(name, args, message):
    # an input check that no other test reaches, one per function
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(isosquare, name)(*args)
