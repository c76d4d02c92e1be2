"""The command line's bytes against outputs recorded before a refactor.

``golden/cli.json`` lists argument vectors with the exit code, stdout and
stderr that ``mzv.cli.main`` produced for them before the package's
duplicated code paths were folded together; refactors must keep them.  The
cases cover every ``apply`` operator and ``product`` kind on inputs with
fractional coefficients and phi (text and JSON), ``rank-table --k-max 7``,
the exact ``verify`` suites at small weights, and ``verify numeric`` as text.  The last two cases, ``rank-table --k-min 8
--k-max 9 --exact-up-to 8`` as text and JSON, were recorded while the table
still ranked the Kawashima rows; they pin both rank modes (exact at weight 8,
modular at weight 9) across the move to the raw stuffle rows.  The two
after them, ``rank-table --k-min 10 --k-max 10 --exact-up-to 10`` as text and
JSON, were recorded while exact ranks still came from the ``Fraction``
echelon; they pin the weight-10 exact ranks across the move to integer
arithmetic.  The case after those, ``verify numeric --pairs-up-to 4
--truncation 100003`` as JSON, was recorded while the chain sums still ran
over whole arrays and were totalled by ``math.fsum``; it pins every value and
error bar, to the last bit, across the move to blockwise sums (100003 is no
multiple of the block size).  The last two cases, ``rank-table --k-min 11
--k-max 11`` as text (modular) and with ``--exact-up-to 11`` as JSON (exact
838 and 830), were recorded while the modular rank still eliminated column
by column and ``rank-table`` took its rows in generation order; they pin
both rank modes at weight 11 across the move to a row-driven elimination of
rows sorted sparsest first.
"""

import json
from pathlib import Path

import pytest

from mzv import cli

CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_is_byte_identical(case, capsys):
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


def test_cases_cover_every_operator_and_product():
    seen = {(c["argv"][0], c["argv"][1]) for c in CASES}
    assert {("apply", op) for op in cli.OPS} <= seen
    assert {("product", kind) for kind in cli.PRODUCTS} <= seen
