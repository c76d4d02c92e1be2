"""Batch command-line front end.

Subcommands: ``dual``, ``apply``, ``product``, ``rank-table``, ``verify``.
Output is an aligned text table or canonical JSON (``--output json``; sorted
keys, fixed separators, one object per run, byte-stable for fixed inputs).
Exit status: 0 all good, 1 a verification failed, 2 usage or parse error.

``verify`` refuses up front a ``--grid`` above the hard cap 20, a ``--weight``
or ``--pairs-up-to`` above its suite's limit, and in ``theorem310`` a cost
``2**weight * ((grid + 1)**2 * (grid + 8) + 700)`` above ``THEOREM310_COST``.  ``rank-table``
refuses an exact rank above weight ``EXACT_WEIGHT_MAX`` and a highest weight
estimated above ``RANK_TABLE_BYTES``.  ``verify numeric`` decides on the
certified evaluator's proven bound alone; its ``--truncation`` (at least 1000)
is validated and not read, so that batch scripts that pass it keep working.
"""

from __future__ import annotations

import argparse
import sys
from math import comb

from . import lyndon
from .harmonic import seq_s, seq_s2
from .indices import (
    all_indices,
    as_combination,
    coarsen,
    coarsen_inv,
    dual,
    format_combination,
    format_index,
    parse_combination,
    parse_index,
    raise_last,
    refine,
    refine_inv,
    reverse,
    signed,
)
from .numeric import CERTIFIED_BITS, verify_linear, verify_quadratic
from .ohno import verify_alternating_shift_sum, verify_shift_factorization
from .products import circ, circ_bar, stuffle, stuffle_bar
from .qlinalg import RelationMatrix
from .relations import (
    duality_relation,
    index_pairs,
    kawashima_basis,
    kawashima_relation,
    ohno_relations,
    quadratic_relation,
    terms_json,
    verify_reversal_telescope,
)

HARD_WEIGHT_CAP = 20
#: ``--truncation``'s default; the flag is validated and not read
DEFAULT_TRUNCATION = 10**6
#: the highest weight ``rank-table`` ranks exactly: 13 alone took 13 s, 12 2.2 s (medians of 3)
EXACT_WEIGHT_MAX = 13
#: the most ``_rank_table_bytes`` ``rank-table`` admits: weight 16 took 21 s, 17 ran past 60 s
RANK_TABLE_BYTES = 2**30
#: the largest ``verify theorem310`` cost ``2**weight * ((grid + 1)**2 * (grid + 8) + 700)``
#: it takes on: every request of a weight x grid sweep that finished within 60 s, and none
#: that ran past
THEOREM310_COST = 10**8

OPS = {
    "tau": reverse,
    "reverse": reverse,
    "sigma": signed,
    "signed": signed,
    "u": refine,
    "refine": refine,
    "d": coarsen,
    "coarsen": coarsen,
    "uinv": refine_inv,
    "dinv": coarsen_inv,
    "dual": dual,
    "plus": raise_last,
}

#: Terms of one weight-m index with p parts: 2**(m-p) refinements, 2**(p-1) coarsenings.
EXPANSION = dict.fromkeys(("u", "refine", "uinv"), lambda mu: 2 ** (mu.weight - len(mu)))
EXPANSION.update(dict.fromkeys(("d", "coarsen", "dinv"), lambda mu: 2 ** max(len(mu) - 1, 0)))

PRODUCTS = {
    "*": stuffle,
    "stuffle": stuffle,
    "starbar": stuffle_bar,
    "circ": circ,
    "circbar": circ_bar,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")

    p = argparse.ArgumentParser(
        prog="mzv", description="exact toolkit for harmonic-product zeta relations"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dual", parents=[common], help="dual of one index")
    sp.add_argument("index")

    sp = sub.add_parser("apply", parents=[common], help="apply an operator to an expression")
    sp.add_argument("op", choices=sorted(OPS))
    sp.add_argument("expr")

    sp = sub.add_parser("product", parents=[common], help="multiply two expressions")
    sp.add_argument("kind", choices=sorted(PRODUCTS))
    sp.add_argument("a")
    sp.add_argument("b")

    sp = sub.add_parser("rank-table", parents=[common], help="dimension table of the relation span")
    sp.add_argument("--k-min", type=int, default=2)
    sp.add_argument("--k-max", type=int, default=9)
    sp.add_argument("--exact-up-to", type=int, default=9)

    sp = sub.add_parser("verify", parents=[common], help="run a property suite")
    sp.add_argument(
        "suite", choices=("identities", "theorem310", "duality", "ohno", "numeric")
    )
    sp.add_argument("--weight", type=int, default=None)
    sp.add_argument("--grid", type=int, default=6)
    sp.add_argument("--pairs-up-to", type=int, default=5)
    sp.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                    help="validated (>= 1000) and not read")
    return p


def _emit(payload: dict, text_lines, output: str) -> None:
    if output == "json":
        import json  # only here, so a text-mode launch never loads it
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def cmd_dual(args) -> int:
    mu = parse_index(args.index)
    result = dual(mu)
    _emit(
        {"command": "dual", "input": format_index(mu), "result": format_index(result)},
        [format_index(result)],
        args.output,
    )
    return 0


def _refuse_large(what: str, bound: int) -> None:
    """Refuse, before any work, a request that could produce too many terms."""
    if bound > 2 ** (HARD_WEIGHT_CAP - 1):
        raise ValueError("%s could produce up to %d terms, above the limit %d"
                         % (what, bound, 2 ** (HARD_WEIGHT_CAP - 1)))


def _emit_result(payload: dict, result, output: str) -> int:
    result = as_combination(result)
    payload["result"] = format_combination(result)
    if output == "json":
        payload["terms"] = terms_json(result)
    _emit(payload, [payload["result"]], output)
    return 0


def cmd_apply(args) -> int:
    x = parse_combination(args.expr)
    _refuse_large("apply " + args.op, sum(map(EXPANSION.get(args.op, lambda mu: 1), x.support())))
    payload = {"command": "apply", "op": args.op, "input": format_combination(x)}
    return _emit_result(payload, OPS[args.op](x), args.output)


def cmd_product(args) -> int:
    a = parse_combination(args.a)
    b = parse_combination(args.b)
    # a pair with p and q parts has at most the Delannoy number D(p, q) terms
    _refuse_large("product " + args.kind,
                  sum(_delannoy(len(mu), len(nu)) for mu in a.support() for nu in b.support()))
    payload = {"command": "product", "kind": args.kind, "a": format_combination(a),
               "b": format_combination(b)}
    return _emit_result(payload, PRODUCTS[args.kind](a, b), args.output)


def _delannoy(p: int, q: int) -> int:
    return sum(comb(p, i) * comb(q, i) * 2**i for i in range(min(p, q) + 1))


def _rank_table_bytes(k: int) -> tuple[int, int, int]:
    """Estimated bytes of weight ``k``: Ohno rows (at most ``C(r+q-1, r)`` entries of
    100 bytes per index of weight ``k-r`` with ``q`` parts), GF(2) pivots (``ncols**2``
    bits) and product memo (``0.42 * 2.8**k`` entries of 75 bytes, fitted on k = 12..15)."""
    ohno = sum(comb(k - r - 1, q - 1) * comb(r + q - 1, r)
               for r in range(k - 1) for q in range(1, k - r + 1))
    return 100 * ohno, 4 ** (k - 1) // 8, int(31.5 * 2.8**k)


def cmd_rank_table(args) -> int:
    if not 2 <= args.k_min <= args.k_max <= HARD_WEIGHT_CAP:
        print("mzv: need 2 <= k-min <= k-max <= %d" % HARD_WEIGHT_CAP, file=sys.stderr)
        return 2
    # the highest weight builds the most: Ohno rows, GF(2) pivots and product memo
    parts = _rank_table_bytes(args.k_max)
    if sum(parts) > RANK_TABLE_BYTES:
        raise ValueError("rank-table: weight %d builds an estimated %d bytes (Ohno rows %d,"
                         " GF(2) pivots %d, product memo %d), above the limit %d"
                         % (args.k_max, sum(parts), *parts, RANK_TABLE_BYTES))
    top = min(args.k_max, args.exact_up_to)
    if args.k_min <= top and top > EXACT_WEIGHT_MAX:
        raise ValueError("rank-table: an exact rank at weight %d is above the limit %d"
                         " (lower --exact-up-to)" % (top, EXACT_WEIGHT_MAX))
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        exact = k <= args.exact_up_to
        # the Ohno rows, freed before the main column fills the product memo with weight k;
        # the raw stuffle rows have the Kawashima rows' rank (g is one-to-one)
        ohno = [r.element for r in ohno_relations(k)]
        if exact:  # latest leading column (smallest term by parts) first shortens the echelon
            ohno.sort(key=lambda x: x.support()[0], reverse=True)
        span = RelationMatrix(k, ohno)
        ohno_rank = span.rank() if exact else span.modular_rank()
        del span, ohno
        rank = lyndon.certified_rank(k) if exact else lyndon.triangular_rank(k)
        rows.append({"k": k, "zagier": lyndon.zagier_dim(k), "formula": lyndon.dimension_formula(k),
                     "rank": rank, "ohno_rank": ohno_rank,
                     "mode": "exact" if exact else "modular-lower-bound"})
    header = "%3s %8s %8s %8s %10s  %s" % ("k", "d_Z", "formula", "rank", "ohno-rank", "mode")
    lines = [header] + [
        "%3d %8d %8d %8d %10d  %s"
        % (r["k"], r["zagier"], r["formula"], r["rank"], r["ohno_rank"], r["mode"])
        for r in rows
    ]
    _emit({"command": "rank-table", "rows": rows}, lines, args.output)
    return 0


def _check(name: str, ok: bool, details: dict | None = None) -> dict:
    entry = {"name": name, "pass": bool(ok)}
    if details:
        entry.update(details)
    return entry


def _suite_identities(args) -> list[dict]:
    from . import products
    from .indices import Combination

    cap = args.weight
    checks = []
    ok_inv = ok_conj = True
    for w in range(1, cap + 1):
        for mu in all_indices(w):
            x = Combination.term(mu)
            ok_inv &= refine_inv(refine(x)) == x and coarsen_inv(coarsen(x)) == x
            ok_conj &= coarsen(dual(coarsen_inv(x))) == -refine(signed(x))
    checks.append(_check("refine/coarsen inverses (weight <= %d)" % cap, ok_inv))
    checks.append(_check("dual conjugation identity (weight <= %d)" % cap, ok_conj))
    ok_rec = True
    for wa in range(1, cap):
        for wb in range(1, cap - wa + 1):
            for mu in all_indices(wa):
                for nu in all_indices(wb):
                    ok_rec &= products.stuffle(mu, nu) == products.stuffle_via_matrices(mu, nu)
    checks.append(_check("stuffle recursion matches matrix sum (total <= %d)" % cap, ok_rec))
    ok_tel = all(
        verify_reversal_telescope(mu)
        for w in range(1, cap + 1)
        for mu in all_indices(w)
    )
    checks.append(_check("reversal telescope vanishes (weight <= %d)" % cap, ok_tel))
    return checks


def _suite_theorem310(args) -> list[dict]:
    cap = args.weight
    grid = args.grid
    # per index, (grid+1)**2 cells whose integers grow with the grid, and grid-free work
    cost = 2**cap * ((grid + 1) ** 2 * (grid + 8) + 700)
    if cost > THEOREM310_COST:
        raise ValueError("verify theorem310: --weight %d with --grid %d costs"
                         " 2**%d * (%d**2 * %d + 700) = %d, above the limit %d"
                         % (cap, grid, cap, grid + 1, grid + 8, cost, THEOREM310_COST))
    checks = []
    ok = True
    for w in range(1, cap + 1):
        for mu in all_indices(w):
            d = seq_s(mu, grid + grid)
            table = seq_s2(mu, dual(mu), grid, grid)
            for k in range(grid + 1):
                for n in range(grid + 1):
                    if d[n] != table[n][k]:
                        ok = False
                if k < grid:  # row k + 1 of the difference table; none past the last
                    d = d.delta()
    checks.append(_check("difference table matches two-chain sums (weight <= %d)" % cap, ok))
    ok = True
    for w in range(1, cap + 2):
        for mu in all_indices(w):
            horizon = 12
            if seq_s(mu, horizon).nabla() != seq_s(dual(mu), horizon):
                ok = False
    checks.append(_check("binomial transform sends chains to dual chains", ok))
    return checks


def _inside_span(name: str, answers) -> dict:
    """Whether each ``(relation, inside)`` answer is inside; a failure names the first outside."""
    for rel, inside in answers:
        if not inside:
            return dict(_check(name, False), note=": first outside " + rel.provenance)
    return _check(name, True)


def _suite_duality(args) -> list[dict]:
    checks = []
    for k in range(2, args.weight + 1):  # by membership certificates over the Kawashima rows
        span = RelationMatrix.from_relations(kawashima_basis(k))
        checks.append(_inside_span("duality differences inside span at weight %d" % k,
                                   ((rel, span.member(rel.element) is not None)
                                    for rel in map(duality_relation, all_indices(k)))))
    return checks


def _suite_ohno(args) -> list[dict]:
    cap = args.weight
    checks = []
    for k in range(2, cap + 1):
        # Kawashima row i is g(stuffle row i), and g = refine . signed is an involution
        rels = ohno_relations(k, r_max=3)
        inside = lyndon.in_stuffle_span(k, [refine(signed(rel.element)) for rel in rels])
        checks.append(_inside_span("shifted duality inside span at weight %d" % k,
                                   zip(rels, inside)))
    ok = all(
        verify_shift_factorization(r, mu) and verify_alternating_shift_sum(r, mu)
        for r in range(0, 4)
        for w in range(1, min(cap, 6) - 2 + 1)
        for mu in all_indices(w)
    )
    checks.append(_check("shift factorizations agree", ok))
    return checks


def _numeric_check(name: str, rep: dict, keys) -> dict:
    check = _check(name, rep["pass"], {k: rep[k] for k in keys})
    if not rep["pass"]:  # text only: why it failed and at what precision
        check["note"] = ": value %.6e, bound %.2e (%d bits, %d series terms)" % (
            rep["value"], rep["err"], CERTIFIED_BITS, rep["N"])
    return check


def _suite_numeric(args) -> list[dict]:
    cap = args.pairs_up_to
    relations = [
        kawashima_relation(mu, nu)
        for wa in range(1, cap)
        for wb in range(wa, cap - wa + 1)
        for mu, nu in index_pairs(wa, wb)
    ]
    checks = [_numeric_check(rel.provenance, verify_linear(rel), ("value", "err", "N"))
              for rel in relations]
    # zeta((3)) = zeta((1,2)): the raised form of (2) - (1,1)
    euler = as_combination((2,)) - as_combination((1, 1))
    rep = verify_linear(euler)
    checks.append(_numeric_check("euler:(3)=(1,2)", rep, ("value", "err")))
    quad = quadratic_relation((1,), (1,), 2)
    rep = verify_quadratic(quad)
    checks.append(_numeric_check(quad.provenance, rep, ("value", "err")))
    return checks


SUITES = {
    "identities": _suite_identities,
    "theorem310": _suite_theorem310,
    "duality": _suite_duality,
    "ohno": _suite_ohno,
    "numeric": _suite_numeric,
}

#: Default, least and largest ``--weight`` of each suite that reads it: below the
#: least some check runs over nothing; the largest, like ``PAIRS_UP_TO_MAX``, is
#: the last that finished within 60 s (theorem310's cost guard bounds its own).
SUITE_WEIGHTS = {"identities": (6, 2, 12), "theorem310": (5, 1, HARD_WEIGHT_CAP),
                 "duality": (7, 2, 10), "ohno": (8, 3, 13)}
PAIRS_UP_TO_MAX = 13


def cmd_verify(args) -> int:
    default, least, most = SUITE_WEIGHTS.get(args.suite, (None, None, None))
    if args.weight is None:
        args.weight = default
    elif least is not None and args.weight < least:
        raise ValueError("--weight must be >= %d for the %s suite" % (least, args.suite))
    elif most is not None and args.weight > most:
        raise ValueError("--weight must be <= %d for the %s suite" % (most, args.suite))
    if args.grid < 0:
        raise ValueError("--grid must be >= 0")
    if args.pairs_up_to < 2:
        raise ValueError("--pairs-up-to must be >= 2")
    if args.pairs_up_to > PAIRS_UP_TO_MAX:
        raise ValueError("--pairs-up-to must be <= %d for the numeric suite" % PAIRS_UP_TO_MAX)
    checks = SUITES[args.suite](args)
    overall = all(c["pass"] for c in checks)
    lines = [
        "%s %s%s" % ("ok  " if c["pass"] else "FAIL", c["name"], c.get("note", "")) for c in checks
    ] + ["%d checks, %s" % (len(checks), "all passed" if overall else "FAILURES")]
    checks = [{k: v for k, v in c.items() if k != "note"} for c in checks]  # notes are text-only
    _emit(
        {"command": "verify", "suite": args.suite, "checks": checks, "pass": overall},
        lines,
        args.output,
    )
    return 0 if overall else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "truncation", DEFAULT_TRUNCATION) < 10**3:
        print("mzv: --truncation must be >= 1000", file=sys.stderr)
        return 2
    for flag in ("weight", "grid", "pairs_up_to"):
        if (getattr(args, flag, None) or 0) > HARD_WEIGHT_CAP:
            print("mzv: --%s exceeds the hard cap %d" % (flag.replace("_", "-"), HARD_WEIGHT_CAP),
                  file=sys.stderr)
            return 2
    handlers = {
        "dual": cmd_dual,
        "apply": cmd_apply,
        "product": cmd_product,
        "rank-table": cmd_rank_table,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print("mzv: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
