"""Checks on the package source itself."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mzv"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariant checks must raise
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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


def test_import_does_not_load_numpy():
    # numpy is imported inside the truncated numeric kernels only; `verify
    # numeric` runs the certified evaluator and `rank-table` the GF(2) rank,
    # both on pure Python integers
    for code in (
        "import sys, mzv, mzv.cli; assert 'numpy' not in sys.modules, sorted(sys.modules)",
        "import sys; from mzv import cli; assert cli.main(['verify', 'numeric', "
        "'--pairs-up-to', '3']) == 0; assert 'numpy' not in sys.modules, sorted(sys.modules)",
        "import sys; from mzv import cli; assert cli.main(['rank-table', '--k-max', '10']) == 0; "
        "assert 'numpy' not in sys.modules, sorted(sys.modules)",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
