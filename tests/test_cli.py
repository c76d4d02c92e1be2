import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mzv import cli, products
from mzv.harmonic import seq_s2
from mzv.indices import Combination, all_indices
from mzv.qlinalg import RelationMatrix
from mzv.relations import ohno_relations


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dual_text(capsys):
    code, out, err = run(["dual", "(4,1,1)"], capsys)
    assert code == 0
    assert out == "(1,1,1,3)\n"


def test_dual_json_is_byte_stable(capsys):
    code, out, _ = run(["dual", "(4,1,1)", "--output", "json"], capsys)
    assert code == 0
    assert out == '{"command":"dual","input":"(4,1,1)","result":"(1,1,1,3)"}\n'
    code2, out2, _ = run(["dual", "(4,1,1)", "--output", "json"], capsys)
    assert out2 == out


def test_apply_refine(capsys):
    code, out, _ = run(["apply", "u", "(2)"], capsys)
    assert code == 0
    assert out == "(1,1) + (2)\n"


def test_apply_reads_back_the_zero_it_prints(capsys):
    code, out, _ = run(["apply", "refine", "(1)-(1)"], capsys)
    assert (code, out) == (0, "0\n")
    code, out, err = run(["apply", "refine", "0"], capsys)
    assert (code, out, err) == (0, "0\n", "")


def test_apply_reverse_of_empty(capsys):
    code, out, _ = run(["apply", "tau", "phi"], capsys)
    assert code == 0
    assert out == "phi\n"


def test_apply_signed_json_terms(capsys):
    code, out, _ = run(["apply", "sigma", "(1,1) + (2)", "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "apply"
    assert payload["result"] == "(1,1) - (2)"
    assert payload["terms"] == [
        {"index": [1, 1], "num": 1, "den": 1},
        {"index": [2], "num": -1, "den": 1},
    ]


def test_product_five_terms(capsys):
    code, out, _ = run(["product", "*", "(1)", "(2,3)"], capsys)
    assert code == 0
    assert out == "(1,2,3) + (2,1,3) + (2,3,1) + (2,4) + (3,3)\n"


def test_product_signed_five_terms(capsys):
    code, out, _ = run(["product", "starbar", "(1)", "(2,3)"], capsys)
    assert code == 0
    assert out == "(1,2,3) + (2,1,3) + (2,3,1) - (2,4) - (3,3)\n"


def test_product_with_empty_factor(capsys):
    code, out, _ = run(["product", "*", "phi", "(2)"], capsys)
    assert code == 0
    assert out == "(2)\n"


def test_product_fuses_last_parts(capsys):
    code, out, _ = run(["product", "circ", "(2)", "(2)"], capsys)
    assert code == 0
    assert out == "(4)\n"


def test_rank_table_small(capsys):
    code, out, _ = run(
        ["rank-table", "--k-min", "2", "--k-max", "4", "--output", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["k"], r["zagier"], r["formula"], r["rank"], r["ohno_rank"]) for r in rows] == [
        (2, 1, 1, 1, 1),
        (3, 3, 2, 2, 2),
        (4, 6, 5, 5, 5),
    ]
    assert all(r["mode"] == "exact" for r in rows)


def test_rank_table_ranks_only_the_ohno_matrices(capsys, monkeypatch):
    # the exact main column is certified without elimination: no stuffle matrix is ranked;
    # the Ohno rows come latest leading column first, in generation order among ties
    seen, real = [], RelationMatrix.rank

    def spy(self):
        seen.append((self.weight, list(map(str, self.rows))))
        return real(self)

    monkeypatch.setattr(RelationMatrix, "rank", spy)
    code, _, _ = run(["rank-table", "--k-max", "9"], capsys)
    assert code == 0
    assert seen == [(k, _latest_leading_column_first(k)) for k in range(2, 10)]


def _latest_leading_column_first(k):
    # a row's leading column is the smallest position of its terms among the columns
    column = {mu: j for j, mu in enumerate(all_indices(k))}
    rows = [rel.element for rel in ohno_relations(k)]
    lead = [min(column[mu] for mu, _ in x) for x in rows]
    return [str(rows[i]) for i in sorted(range(len(rows)), key=lambda i: (-lead[i], i))]


def test_exact_ohno_rank_is_the_same_in_every_row_order():
    # generation order, densest first and rank-table's latest leading column first
    for k, want in zip(range(2, 11), [1, 2, 5, 10, 23, 46, 98, 199, 411]):
        rows = [rel.element for rel in ohno_relations(k)]
        for order in (rows, sorted(rows, key=len, reverse=True),
                      sorted(rows, key=lambda x: x.support()[0], reverse=True)):
            assert RelationMatrix(k, order).rank() == want, k


def test_rank_table_modular_mode(capsys):
    code, out, _ = run(
        ["rank-table", "--k-min", "5", "--k-max", "5", "--exact-up-to", "4",
         "--output", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["mode"] == "modular-lower-bound"
    assert rows[0]["rank"] == 10


def test_rank_table_text_header(capsys):
    code, out, _ = run(["rank-table", "--k-max", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "d_Z", "formula", "rank", "ohno-rank", "mode"]
    assert len(lines) == 3


def test_rank_table_bad_range(capsys):
    code, _, err = run(["rank-table", "--k-min", "5", "--k-max", "3"], capsys)
    assert code == 2
    assert "k-min" in err


def test_verify_identities(capsys):
    code, out, _ = run(["verify", "identities", "--weight", "4"], capsys)
    assert code == 0
    assert out.strip().endswith("all passed")
    assert "FAIL" not in out


def test_verify_theorem310(capsys):
    code, out, _ = run(
        ["verify", "theorem310", "--weight", "3", "--grid", "3", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_verify_duality(capsys):
    code, out, _ = run(["verify", "duality", "--weight", "5"], capsys)
    assert code == 0
    assert "all passed" in out


def test_verify_ohno(capsys):
    code, out, _ = run(["verify", "ohno", "--weight", "4"], capsys)
    assert code == 0
    assert "all passed" in out


def test_verify_numeric_small_truncation(capsys):
    code, out, _ = run(
        ["verify", "numeric", "--pairs-up-to", "3", "--truncation", "10000",
         "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "kawashima((1),(1))" in names
    assert "euler:(3)=(1,2)" in names
    assert any(n.startswith("quadratic(") for n in names)
    assert payload["pass"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.SUITES, "identities", lambda args: [{"name": "forced", "pass": False}]
    )
    code, out, _ = run(["verify", "identities"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_theorem310_fails_on_one_wrong_cell_of_the_two_chain_sums(capsys, monkeypatch):
    # the last cell of the last row: a walk that stopped short would miss it
    def planted(mu, nu, n, k):
        table = [list(row) for row in seq_s2(mu, nu, n, k)]
        if mu == (1, 2):
            table[3][3] += 1
        return table

    monkeypatch.setattr(cli, "seq_s2", planted)
    code, out, _ = run(["verify", "theorem310", "--weight", "3", "--grid", "3"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL difference table matches two-chain sums (weight <= 3)",
        "ok   binomial transform sends chains to dual chains",
        "2 checks, FAILURES",
    ]


def test_theorem310_reads_one_two_chain_table_per_index(capsys, monkeypatch):
    calls = []

    def recorded(mu, nu, n, k):
        calls.append((mu, n, k))
        return seq_s2(mu, nu, n, k)

    monkeypatch.setattr(cli, "seq_s2", recorded)
    code, out, _ = run(["verify", "theorem310", "--weight", "3", "--grid", "2"], capsys)
    assert code == 0 and out.splitlines()[-1] == "2 checks, all passed"
    indices = [mu for w in range(1, 4) for mu in all_indices(w)]
    assert calls == [(mu, 2, 2) for mu in indices]


def test_identities_fail_on_a_matrix_sum_missing_one_term(capsys, monkeypatch):
    matrix_sum = products.stuffle_via_matrices

    def planted(mu, nu):
        out = matrix_sum(mu, nu)
        if (mu, nu) == ((1, 1), (1, 1)):
            first = out.support()[0]
            out = out - Combination.term(first, out.coefficient(first))
        return out

    monkeypatch.setattr(products, "stuffle_via_matrices", planted)
    code, out, _ = run(["verify", "identities", "--weight", "4"], capsys)
    assert code == 1
    assert "FAIL stuffle recursion matches matrix sum (total <= 4)" in out.splitlines()
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 1


def test_parse_error_exit_code(capsys):
    code, _, err = run(["dual", "(1,2"], capsys)
    assert code == 2
    assert "mzv:" in err


def test_unknown_operator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["apply", "nosuch", "(2)"])
    assert exc.value.code == 2


def test_truncation_validation(capsys):
    code, _, err = run(
        ["verify", "numeric", "--truncation", "999"], capsys
    )
    assert code == 2
    assert "truncation" in err


def test_weight_cap(capsys):
    code, _, err = run(["verify", "duality", "--weight", "25"], capsys)
    assert code == 2
    assert "cap" in err


def test_pairs_up_to_cap(capsys, monkeypatch):
    def no_pairs(*args, **kwargs):
        raise AssertionError("a pair was built")

    monkeypatch.setattr(cli, "kawashima_relation", no_pairs)
    code, out, err = run(
        ["verify", "numeric", "--pairs-up-to", "30", "--truncation", "1000"], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("mzv: ") and "--pairs-up-to" in err and "cap" in err


def test_tol_option_is_gone(capsys):
    # verdicts rest on the proven bound alone, so there is no tolerance to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "numeric", "--tol", "0"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "duality", "--weight", "1"], "--weight"),
        (["verify", "ohno", "--weight", "-3"], "--weight"),
        (["verify", "ohno", "--weight", "2"], "--weight"),
        (["verify", "identities", "--weight", "0"], "--weight"),
        (["verify", "theorem310", "--weight", "0"], "--weight"),
        (["verify", "theorem310", "--grid", "-1"], "--grid"),
        (["verify", "theorem310", "--grid", "21"], "--grid"),
        (["verify", "numeric", "--pairs-up-to", "0"], "--pairs-up-to"),
        (["verify", "numeric", "--pairs-up-to", "1"], "--pairs-up-to"),
    ],
)
def test_vacuous_verify_options_are_usage_errors(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("mzv: ") and flag in err


def test_grid_at_the_hard_cap_still_runs(capsys):
    code, out, _ = run(["verify", "theorem310", "--weight", "1", "--grid", "20"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "2 checks, all passed")


@pytest.mark.parametrize("argv, message", [
    (["--weight", "18", "--grid", "0"],
     "--weight 18 with --grid 0 costs 2**18 * (1**2 * 8 + 700) = 185597952, above the limit"
     " 100000000"),
    (["--weight", "17", "--grid", "3"],
     "--weight 17 with --grid 3 costs 2**17 * (4**2 * 11 + 700) = 114819072, above the limit"
     " 100000000"),
    (["--weight", "14", "--grid", "16"],
     "--weight 14 with --grid 16 costs 2**14 * (17**2 * 24 + 700) = 125108224, above the limit"
     " 100000000"),
    (["--weight", "16", "--grid", "8"],
     "--weight 16 with --grid 8 costs 2**16 * (9**2 * 16 + 700) = 130809856, above the limit"
     " 100000000"),
    (["--weight", "20"],
     "--weight 20 with --grid 6 costs 2**20 * (7**2 * 14 + 700) = 1453326336, above the limit"
     " 100000000"),
])
def test_theorem310_refuses_a_weight_and_grid_it_cannot_finish_up_front(argv, message):
    # each of these ran past 65 s before the guard (--weight 20: --weight 17 --grid 5 did)
    proc = _run_with_timeout(["verify", "theorem310", *argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "mzv: verify theorem310: " + message + "\n"


@pytest.mark.parametrize("weight, grid", [(15, 0), (14, 4), (13, 8), (12, 12), (11, 20),
                                          (17, 1), (16, 6), (15, 10), (14, 14), (13, 18)])
def test_theorem310_admits_a_weight_and_grid_it_finished_within_a_minute(weight, grid, capsys,
                                                                         monkeypatch):
    # each of these finished within 60 s with the guard lifted, the last five as medians
    # of three nearest the limit; only the guard runs here, on no indices
    monkeypatch.setattr(cli, "all_indices", lambda w: [])
    code, out, _ = run(["verify", "theorem310", "--weight", str(weight), "--grid", str(grid)],
                       capsys)
    assert (code, out.splitlines()[-1]) == (0, "2 checks, all passed")


def test_theorem310_defaults_still_run(capsys):
    code, out, _ = run(["verify", "theorem310"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "2 checks, all passed")


@pytest.mark.parametrize("argv, message", [
    (["identities", "--weight", "13"], "--weight must be <= 12 for the identities suite"),
    (["duality", "--weight", "11"], "--weight must be <= 10 for the duality suite"),
    (["ohno", "--weight", "14"], "--weight must be <= 13 for the ohno suite"),
    (["numeric", "--pairs-up-to", "14"], "--pairs-up-to must be <= 13 for the numeric suite"),
])
def test_verify_refuses_a_weight_above_its_suite_limit_up_front(argv, message, capsys,
                                                                monkeypatch):
    # each of these ran past 60 s before the limit
    def no_work(args):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(cli.SUITES, argv[0], no_work)
    assert run(["verify", *argv], capsys) == (2, "", "mzv: " + message + "\n")


@pytest.mark.parametrize("argv", [
    ["identities", "--weight", "12"],
    ["duality", "--weight", "10"],
    ["ohno", "--weight", "13"],
    ["numeric", "--pairs-up-to", "13"],
    ["theorem310", "--weight", "13", "--grid", "0"],
])
def test_verify_admits_each_suite_limit(argv, capsys, monkeypatch):
    monkeypatch.setitem(cli.SUITES, argv[0], lambda args: [{"name": "stub", "pass": True}])
    assert run(["verify", *argv], capsys) == (0, "ok   stub\n1 checks, all passed\n", "")


@pytest.mark.parametrize("argv", [
    # the defaults (duality's and ohno's are the benchmark's weights, and
    # theorem310's have their own test), then the benchmark's other commands
    ["identities"], ["duality"], ["ohno"], ["numeric"],
    ["numeric", "--pairs-up-to", "5", "--truncation", "1000000"],
    ["identities", "--weight", "8"],
    ["theorem310", "--weight", "6"],
])
def test_verify_defaults_and_benchmark_commands_still_run(argv, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert (code, err) == (0, "")
    assert out.endswith(" checks, all passed\n")


def test_verify_least_weights_run_checks(capsys):
    for suite, weight in [("duality", 2), ("ohno", 3), ("identities", 2), ("theorem310", 1)]:
        code, out, _ = run(["verify", suite, "--weight", str(weight), "--grid", "0"], capsys)
        assert code == 0
        assert out.endswith("all passed\n")
        assert not out.startswith("0 checks")


def test_stray_environment_values_are_not_read(monkeypatch, capsys):
    # no option reads the environment, so junk there breaks no command
    monkeypatch.setenv("MZV_THREADS", "many")
    monkeypatch.setenv("MZV_TRUNCATION", "1e6")
    code, out, err = run(["dual", "(2)"], capsys)
    assert (code, out, err) == (0, "(1,1)\n", "")


def test_stray_environment_values_do_not_reach_rank_table(monkeypatch, capsys):
    monkeypatch.setenv("MZV_THREADS", "many")
    monkeypatch.setenv("MZV_TRUNCATION", "1e6")
    code, out, err = run(["rank-table", "--k-max", "3"], capsys)
    monkeypatch.delenv("MZV_THREADS")
    monkeypatch.delenv("MZV_TRUNCATION")
    assert (code, err) == (0, "")
    assert (code, out) == run(["rank-table", "--k-max", "3"], capsys)[:2]


def test_threads_option_is_gone(capsys):
    # nothing ran in parallel, so there is no --threads to parse
    with pytest.raises(SystemExit) as exc:
        cli.main(["dual", "(2)", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "refine", "(26)"],
        ["apply", "uinv", "(2,25)"],
        ["apply", "coarsen", "(" + ",".join(["1"] * 26) + ")"],
        ["apply", "dinv", "(" + ",".join(["1"] * 26) + ")"],
        ["product", "*", "(" + ",".join(["1"] * 12) + ")", "(" + ",".join(["1"] * 12) + ")"],
        ["product", "circ", "(" + ",".join(["1"] * 12) + ")", "(" + ",".join(["1"] * 12) + ")"],
    ],
)
def test_apply_and_product_refuse_huge_expansions_up_front(argv):
    proc = _run_with_timeout(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("mzv: ") and "terms, above the limit 524288" in proc.stderr


def _run_with_timeout(argv, timeout=10, flags=()):
    # in a subprocess with a timeout, so that a missing guard fails instead of hanging
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])] + sys.path))
    return subprocess.run(
        [sys.executable, *flags, "-m", "mzv.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize("k_min", ["17", "2"])
def test_rank_table_refuses_weight_17_up_front_with_its_estimate(k_min):
    # from --k-min 2 the refusal must come before any weight is ranked
    proc = _run_with_timeout(["rank-table", "--k-min", k_min, "--k-max", "17"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "mzv: rank-table: weight 17 builds an estimated 2366076478 bytes (Ohno rows 570288600,"
        " GF(2) pivots 536870912, product memo 1258916966), above the limit 1073741824\n")


def test_rank_table_still_refuses_an_exact_rank_at_weight_15_up_front():
    # the byte estimate admits weight 15; the exact limit still refuses it
    proc = _run_with_timeout(["rank-table", "--k-min", "15", "--k-max", "15",
                              "--exact-up-to", "15"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("mzv: rank-table: an exact rank at weight 15 is above the limit 13"
                           " (lower --exact-up-to)\n")


def test_rank_table_k_max_10_prints_the_acceptance_table_under_python_O():
    # the benchmark's own command, in a fresh process: ranks 1..413 and 1..411, exact through 9
    proc = _run_with_timeout(["rank-table", "--k-max", "10"], timeout=60, flags=["-O"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "  k      d_Z  formula     rank  ohno-rank  mode\n"
        "  2        1        1        1          1  exact\n"
        "  3        3        2        2          2  exact\n"
        "  4        6        5        5          5  exact\n"
        "  5       14       10       10         10  exact\n"
        "  6       29       23       23         23  exact\n"
        "  7       60       46       46         46  exact\n"
        "  8      123       98       98         98  exact\n"
        "  9      249      200      200        199  exact\n"
        " 10      503      413      413        411  modular-lower-bound\n")


# the benchmark's verify commands, each with the function of benchmarks/expected.py that
# writes its output and that function's argument
BENCHMARK_VERIFY = {
    "duality": (["--weight", "7"], 7),
    "ohno": (["--weight", "8"], 8),
    "numeric": (["--pairs-up-to", "5", "--truncation", "1000000"], 5),
    "identities": (["--weight", "8"], 8),
    "theorem310": (["--weight", "6"], 6),
}


@pytest.mark.parametrize("suite", BENCHMARK_VERIFY)
def test_benchmark_verify_commands_print_their_expected_output_under_python_O(suite):
    # in a fresh process, byte for byte against the benchmark's own expected output
    argv, n = BENCHMARK_VERIFY[suite]
    expected = runpy.run_path(str(Path(cli.__file__).resolve().parents[2] / "benchmarks"
                                  / "expected.py"))
    proc = _run_with_timeout(["verify", suite, *argv], timeout=60, flags=["-O"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (*expected[suite](n), "")


def test_rank_table_weight_12_headline_row():
    # the highest weight of the default mode that a test can afford
    proc = _run_with_timeout(["rank-table", "--k-min", "12", "--k-max", "12"], timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].split() == [
        "12", "2032", "1713", "1713", "1691", "modular-lower-bound"]


def test_the_byte_estimate_bounds_the_ohno_rows_and_admits_weight_16_only():
    for k in range(2, 13):
        ohno, pivots, _ = cli._rank_table_bytes(k)
        assert 100 * sum(len(rel.element) for rel in ohno_relations(k)) <= ohno
        assert pivots == 4 ** (k - 1) // 8  # ncols**2 bits
    assert sum(cli._rank_table_bytes(16)) <= cli.RANK_TABLE_BYTES < sum(cli._rank_table_bytes(17))


def test_cheap_applications_of_long_indices_still_run(capsys):
    code, out, _ = run(["apply", "dual", "(30)"], capsys)
    assert (code, out) == (0, "(" + ",".join(["1"] * 30) + ")\n")
    code, out, _ = run(["apply", "coarsen", "(30)"], capsys)
    assert (code, out) == (0, "(30)\n")
    code, out, _ = run(["product", "*", "(30)", "(1,1)"], capsys)
    assert code == 0 and out.count("+") == 4


def test_text_output_never_builds_json_terms(monkeypatch, capsys):
    calls = []
    real = cli.terms_json
    monkeypatch.setattr(cli, "terms_json", lambda x: calls.append(x) or real(x))
    for argv in (["apply", "refine", "(6)"], ["product", "*", "(1)", "(2,3)"]):
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.count("+") >= 4
    assert calls == []
    code, out, _ = run(["apply", "refine", "(6)", "--output", "json"], capsys)
    assert code == 0 and len(calls) == 1
    assert len(json.loads(out)["terms"]) == 32


def test_verify_numeric_runs_no_truncated_sums(monkeypatch, capsys):
    # the suite runs the certified evaluator; --truncation is validated but not read
    from mzv import numeric

    def no_sum(*args):
        raise AssertionError("a truncated chain sum ran")

    monkeypatch.setattr(numeric, "_exact_sum", no_sum)
    numeric._chain_partials.cache_clear()
    code, out, _ = run(["verify", "numeric", "--pairs-up-to", "5", "--truncation", "100003"], capsys)
    assert code == 0 and out.endswith("28 checks, all passed\n")
    assert numeric._chain_partials.cache_info().currsize == 0


@pytest.mark.parametrize("eps, value", [
    ("1/500", r"1\.423132e-03"),
    # under the 1e-30 floor that verdicts once passed on, but above the proven bound
    ("1/10000000000000000000000000000000", r"7\.150866e-32"),
])
def test_verify_numeric_reports_a_planted_false_relation(eps, value, monkeypatch, capsys):
    from fractions import Fraction

    from mzv.relations import LinearRelation

    real = cli.kawashima_relation

    def planted(mu, nu):
        rel = real(mu, nu)
        if (mu, nu) != ((1, 1), (1, 1)):
            return rel
        element = rel.element + Combination.term((3, 1), Fraction(eps))
        return LinearRelation(element, rel.provenance + "+%s*(3,1)" % eps, rel.weight)

    monkeypatch.setattr(cli, "kawashima_relation", planted)
    code, out, _ = run(["verify", "numeric", "--pairs-up-to", "4"], capsys)
    assert code == 1
    fails = [line for line in out.splitlines() if not line.startswith("ok  ")]
    assert fails[-1] == "12 checks, FAILURES"
    # the line names the relation, its value, its bound and the precision used
    assert re.fullmatch(r"FAIL kawashima\(\(1,1\),\(1,1\)\)\+%s\*\(3,1\): value %s, "
                        r"bound \d\.\d\de-\d\d \(120 bits, \d+ series terms\)"
                        % (re.escape(eps), value), fails[0]), fails
    assert len(fails) == 2
    code, out, _ = run(["verify", "numeric", "--pairs-up-to", "4", "--output", "json"], capsys)
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert code == 1 and [sorted(c) for c in failed] == [["N", "err", "name", "pass", "value"]]


def _off_by_1_500(rel):
    from fractions import Fraction

    from mzv.relations import LinearRelation

    first = rel.element.support()[0]
    element = rel.element + Combination.term(first, Fraction(1, 500))
    return LinearRelation(element, rel.provenance, rel.weight)


def test_verify_duality_names_the_first_element_outside_the_span(monkeypatch, capsys):
    real, seen = cli.duality_relation, []

    def planted(mu):
        seen.append(mu)
        rel = real(mu)
        return _off_by_1_500(rel) if mu == (2, 1, 1) else rel

    monkeypatch.setattr(cli, "duality_relation", planted)
    code, out, _ = run(["verify", "duality", "--weight", "5"], capsys)
    assert (code, out.splitlines()) == (1, [
        "ok   duality differences inside span at weight 2",
        "ok   duality differences inside span at weight 3",
        "FAIL duality differences inside span at weight 4: first outside duality((2,1,1))",
        "ok   duality differences inside span at weight 5",
        "4 checks, FAILURES",
    ])
    # the first failure ends its weight's check
    assert [mu for mu in seen if mu.weight == 4][-1] == (2, 1, 1)
    code, out, _ = run(["verify", "duality", "--weight", "5", "--output", "json"], capsys)
    checks = json.loads(out)["checks"]
    assert code == 1 and checks[2] == {
        "name": "duality differences inside span at weight 4", "pass": False}


def test_verify_ohno_names_the_first_element_outside_the_span(monkeypatch, capsys):
    real = cli.ohno_relations

    def planted(k, r_max=None):
        return [_off_by_1_500(rel) if rel.provenance == "ohno((2,3),0)" else rel
                for rel in real(k, r_max=r_max)]

    monkeypatch.setattr(cli, "ohno_relations", planted)
    code, out, _ = run(["verify", "ohno", "--weight", "5"], capsys)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL shifted duality inside span at weight 5: first outside ohno((2,3),0)"]


def test_verify_ohno_builds_no_relation_matrix(monkeypatch, capsys):
    # the certified stuffle-row kernel decides containment, with no echelon
    seen = []
    real = RelationMatrix.__init__

    def spy(self, weight, rows):
        seen.append(weight)
        real(self, weight, rows)

    monkeypatch.setattr(RelationMatrix, "__init__", spy)
    code, out, _ = run(["verify", "ohno", "--weight", "6"], capsys)
    assert (code, out.splitlines()[-1], seen) == (0, "6 checks, all passed", [])


@pytest.mark.parametrize("argv, weight", [
    (["--k-min", "14", "--k-max", "14", "--exact-up-to", "14"], 14),
    (["--k-min", "2", "--k-max", "14", "--exact-up-to", "20"], 14),
])
def test_rank_table_refuses_an_exact_rank_above_weight_13_up_front(argv, weight):
    # exact weight 12 alone took 6.3 s and weight 13 53 s (medians of three fresh runs)
    proc = _run_with_timeout(["rank-table", *argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("mzv: rank-table: an exact rank at weight %d is above the limit 13"
                           " (lower --exact-up-to)\n" % weight)


class Admitted(Exception):
    pass


def _admitted(k, r_max=None):
    # the Ohno rows are the first work at every weight
    raise Admitted


@pytest.mark.parametrize("argv", [
    ["--k-min", "12", "--k-max", "12", "--exact-up-to", "12"],
    ["--k-min", "13", "--k-max", "13", "--exact-up-to", "13"],
    ["--k-min", "14", "--k-max", "14", "--exact-up-to", "13"],
    # no weight in the range is ranked exactly
    ["--k-min", "15", "--k-max", "15", "--exact-up-to", "14"],
])
def test_rank_table_admits_exact_ranks_through_weight_13(argv, monkeypatch):
    monkeypatch.setattr(cli, "ohno_relations", _admitted)
    with pytest.raises(Admitted):
        cli.main(["rank-table", *argv])


def test_rank_table_admits_weight_16(monkeypatch):
    # weight 16 alone took 24 s and 457 MB; only the guard runs here
    monkeypatch.setattr(cli, "ohno_relations", _admitted)
    with pytest.raises(Admitted):
        cli.main(["rank-table", "--k-min", "16", "--k-max", "16"])
