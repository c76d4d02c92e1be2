"""Checks on the package source itself."""

import argparse
import ast
import doctest
import importlib
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mzv"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariant checks must raise
    found = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports_in_package():
    # every name a module imports is read somewhere in it; __init__ re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            "%s:%d %s" % (path.name, node.lineno, name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0] for a in node.names)
            if name not in read
        ]
    assert found == []


def test_no_orphan_code_in_package():
    # every module-level function or class is read by some other top-level
    # statement of the package or exported by mzv/__init__.py; the exceptions
    # are the paper objects and oracles that only the tests read
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    exported = {a.asname or a.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    reads = [(top, {ref.id if isinstance(ref, ast.Name) else ref.attr for ref in ast.walk(top)
                    if isinstance(ref, (ast.Name, ast.Attribute))})
             for tree in trees.values() for top in tree.body]
    orphans = [
        "%s.%s" % (stem, node.name)
        for stem, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
        and not any(node.name in names for top, names in reads if top is not node)
    ]
    assert sorted(orphans) == [
        "harmonic.seq_A", "harmonic.seq_S", "harmonic.seq_a", "numeric._truncated",
        "ohno.ohno_bar_u_blocks", "ohno.ohno_ones_blocks", "ohno.ohno_u_blocks",
        "products.stuffle_bar_via_matrices", "products.stuffle_cache_clear",
        "relations.newton_series_coefficients",
    ]


def test_only_combination_stores_its_terms():
    # a combination may wrap a dict that others hold too (stuffle_rows hands out
    # the product memo's own), so only the class itself assigns its _terms
    found, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            stores = [node.lineno for node in ast.walk(top)
                      if isinstance(node, ast.Attribute) and node.attr == "_terms"
                      and isinstance(node.ctx, (ast.Store, ast.Del))
                      or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
                      and any(getattr(a, "value", None) == "_terms" for a in node.args)]
            if path.name == "indices.py" and getattr(top, "name", None) == "Combination":
                inside += len(stores)
            else:
                found += ["%s:%d" % (path.name, line) for line in stores]
    assert found == [] and inside > 0


def test_benchmark_self_check():
    # the benchmark's tracer hooks functions by name; its self-check fails on a
    # hook that no longer fires or a command whose output changed
    root = SRC.parents[1]
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--self-check"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check ok" in proc.stdout.splitlines()


def test_package_caches_are_bounded():
    # a long session must not grow a cache without end; the two products
    # caches are emptied by products.stuffle_cache_clear instead
    unbounded = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("mzv." + path.stem)
        unbounded += ["%s.%s" % (path.stem, name) for name, f in vars(module).items()
                      if callable(getattr(f, "cache_info", None))
                      and f.__module__ == module.__name__ and f.cache_info().maxsize is None]
    assert sorted(unbounded) == ["products._stuffle", "products._stuffle_bar"]


def test_every_command_runs_without_numpy():
    # numpy is a test dependency only: with its import blocked, the package
    # imports, a certified zeta_bar evaluates and every command runs, both rank
    # modes included
    code = """if True:
        import sys
        sys.modules["numpy"] = None
        import mzv
        from mzv import cli
        assert mzv.zeta_bar(mzv.idx(1, 2)).exact[1] < 1e-30
        for argv in (["dual", "(4,1,1)"], ["apply", "refine", "(1,3)"],
                     ["product", "*", "(1)", "(2,3)"],
                     ["rank-table", "--k-max", "6", "--exact-up-to", "5"],
                     ["verify", "identities", "--weight", "3"],
                     ["verify", "theorem310", "--weight", "3"],
                     ["verify", "duality", "--weight", "4"], ["verify", "ohno", "--weight", "4"],
                     ["verify", "numeric", "--pairs-up-to", "3"]):
            assert cli.main(argv) == 0, argv
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_command_line_imports_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 8 ms of every
    # command's start; modules the interpreter loaded before mzv do not count
    code = """if True:
        import sys
        before = set(sys.modules)
        import mzv.cli
        print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
    """
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_cli_option_is_read():
    # an option that no code reads is a knob that does nothing: every dest of
    # every subcommand is read in cli.py as args.<dest> or getattr(args, "<dest>", ...)
    from mzv import cli

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in [parser, *sub.choices.values()] for a in p._actions} - {"help"}
    tree = ast.parse((SRC / "cli.py").read_text())
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    } | {
        node.args[1].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
        and getattr(node.args[0], "id", None) == "args" and isinstance(node.args[1], ast.Constant)
    }
    assert sorted(dests - read) == []
    assert {"command", "output", "exact_up_to", "truncation"} <= dests


def test_readme_and_docstring_examples_run():
    # the README's quickstart, and the examples in the package's docstrings
    readme = doctest.testfile(str(SRC.parents[1] / "README.md"), module_relative=False)
    assert (readme.failed, readme.attempted) == (0, 12)
    attempted = 0
    for path in sorted(SRC.glob("*.py")):
        result = doctest.testmod(importlib.import_module("mzv." + path.stem))
        assert result.failed == 0, path.name
        attempted += result.attempted
    assert attempted == 6
