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
--truncation 100003`` as JSON, is the one case re-recorded since: it held the
truncated sums' values and doubling bars until ``verify numeric`` moved to
the certified Hölder-convolution evaluator, and now holds its values and
proven bounds, with ``N`` the most terms of a 1/2-series (the flag is no
longer read).  The truncated oracle still prints the old recording byte for
byte, and every new value lies within the old value +- the old bar (the
last test below).  The last two cases, ``rank-table --k-min 11
--k-max 11`` as text (modular) and with ``--exact-up-to 11`` as JSON (exact
838 and 830), were recorded while the modular rank still eliminated column
by column and ``rank-table`` took its rows in generation order; they pin
both rank modes at weight 11 across the move to a row-driven elimination of
rows sorted sparsest first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mzv import cli
from mzv.indices import as_combination, raise_last
from mzv.numeric import _truncated
from mzv.relations import index_pairs, kawashima_relation, quadratic_relation

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


NUMERIC_JSON = ["verify", "numeric", "--pairs-up-to", "4", "--truncation", "100003",
                "--output", "json"]
#: sha-256 of the stdout recorded for NUMERIC_JSON while the suite ran the truncated sums
TRUNCATED_NUMERIC_SHA256 = "3505e04f8b1fe136c7d45e9789cb3a45a1147d297b67bddc8cefa40999574598"


def _truncated_numeric_stdout(N=100003):
    # the suite as it was: truncated sums, passing on max(tol, err) with tol 1e-6
    # at depth <= 2 and 1e-4 beyond, 1e-6 for euler and 1e-4 for the quadratic
    def check(name, value, err, tol, **extra):
        return {"name": name, "pass": abs(value) <= max(tol, err), "value": value, "err": err,
                **extra}

    checks = []
    for wa in range(1, 4):
        for wb in range(wa, 5 - wa):
            for mu, nu in index_pairs(wa, wb):
                rel = kawashima_relation(mu, nu)
                raised = raise_last(rel.element)
                tol = 1e-6 if max(map(len, raised.support()), default=0) <= 2 else 1e-4
                checks.append(check(rel.provenance, *_truncated(raised, N), tol, N=N))
    euler = raise_last(as_combination((2,)) - as_combination((1, 1)))
    checks.append(check("euler:(3)=(1,2)", *_truncated(euler, N), 1e-6))
    quad = quadratic_relation((1,), (1,), 2)
    total = err = 0
    for left, right in quad.factors:
        (av, ae), (bv, be) = _truncated(left, N), _truncated(right, N)
        total += av * bv
        err += abs(av) * be + abs(bv) * ae + ae * be
    rv, rerr = _truncated(quad.rhs, N)
    checks.append(check(quad.provenance, total - rv, err + rerr, 1e-4))
    payload = {"command": "verify", "suite": "numeric", "checks": checks,
               "pass": all(c["pass"] for c in checks)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_certified_numeric_values_lie_within_the_truncated_bars():
    # the truncated oracle still prints the old recording byte for byte, and
    # every certified value recorded since lies within its value +- err
    old = _truncated_numeric_stdout()
    assert hashlib.sha256(old.encode()).hexdigest() == TRUNCATED_NUMERIC_SHA256
    (case,) = [c for c in CASES if c["argv"] == NUMERIC_JSON]
    new = json.loads(case["stdout"])["checks"]
    old = json.loads(old)["checks"]
    assert [c["name"] for c in new] == [c["name"] for c in old]
    for before, after in zip(old, new):
        assert abs(after["value"] - before["value"]) <= before["err"], (before, after)
