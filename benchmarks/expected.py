"""Expected text output of the benchmark's ``mzv`` commands.

Written from the paper and the package's documented guarantees, not captured
from the program (Kawashima, "A class of relations among multiple zeta
values", arXiv:math/0702824):

* the weight-k relation span has rank 1, 2, 5, 10, 23, 46, 98, 200, 413 at
  k = 2..10, which is 2**(k-1) minus the number of binary Lyndon words of
  length k;
* the shifted-duality span has rank 1, 2, 5, 10, 23, 46, 98, 199, 411;
* ranks are exact up to weight 9 and a modular lower bound above;
* the ``d_Z`` column is 2**(k-1) minus Zagier's d_k (d_1 = d_2 = d_3 = 1,
  d_k = d_(k-2) + d_(k-3));
* every line of every ``mzv verify`` suite reads ``ok``.

The text output holds no floating-point numbers, so the comparison is byte for
byte.  Each function returns ``(exit code, stdout)``.
"""

from __future__ import annotations

RANK = {2: 1, 3: 2, 4: 5, 5: 10, 6: 23, 7: 46, 8: 98, 9: 200, 10: 413}
SHIFTED_RANK = {2: 1, 3: 2, 4: 5, 5: 10, 6: 23, 7: 46, 8: 98, 9: 199, 10: 411}
EXACT_UP_TO = 9


def _zagier(k: int) -> int:
    d = [None, 1, 1, 1]
    for n in range(4, k + 1):
        d.append(d[n - 2] + d[n - 3])
    return d[k]


def _lyndon_words(n: int) -> int:
    """Binary Lyndon words of length n: (1/n) sum over d | n of mu(n/d) 2**d."""

    def mobius(m: int) -> int:
        out, p = 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out

    return sum(mobius(n // d) * 2**d for d in range(1, n + 1) if n % d == 0) // n


def compositions(w: int) -> list[tuple]:
    """All tuples of positive integers summing to ``w``, in tuple order."""
    if w == 0:
        return [()]
    return [(first,) + rest for first in range(1, w + 1) for rest in compositions(w - first)]


def _fmt(mu) -> str:
    return "(%s)" % ",".join(str(p) for p in mu)


def rank_table(k_max: int, exact_up_to: int = EXACT_UP_TO) -> tuple[int, str]:
    lines = ["%3s %8s %8s %8s %10s  %s" % ("k", "d_Z", "formula", "rank", "ohno-rank", "mode")]
    for k in range(2, k_max + 1):
        formula = 2 ** (k - 1) - _lyndon_words(k)
        if formula != RANK[k]:
            raise ValueError("rank table and closed form disagree at weight %d" % k)
        lines.append(
            "%3d %8d %8d %8d %10d  %s"
            % (k, 2 ** (k - 1) - _zagier(k), formula, RANK[k], SHIFTED_RANK[k],
               "exact" if k <= exact_up_to else "modular-lower-bound")
        )
    return 0, "".join(line + "\n" for line in lines)


def _suite(names) -> tuple[int, str]:
    lines = ["ok   " + name for name in names]
    lines.append("%d checks, all passed" % len(names))
    return 0, "".join(line + "\n" for line in lines)


def duality(weight: int):
    return _suite(["duality differences inside span at weight %d" % k for k in range(2, weight + 1)])


def ohno(weight: int):
    names = ["shifted duality inside span at weight %d" % k for k in range(2, weight + 1)]
    return _suite(names + ["shift factorizations agree"])


def numeric(pairs_up_to: int):
    names = []
    for wa in range(1, pairs_up_to):
        for wb in range(wa, pairs_up_to - wa + 1):
            for mu in compositions(wa):
                for nu in compositions(wb):
                    if wa == wb and nu < mu:
                        continue
                    names.append("kawashima(%s,%s)" % (_fmt(mu), _fmt(nu)))
    return _suite(names + ["euler:(3)=(1,2)", "quadratic((1)|(1)|2)"])


def identities(weight: int):
    return _suite([
        "refine/coarsen inverses (weight <= %d)" % weight,
        "dual conjugation identity (weight <= %d)" % weight,
        "stuffle recursion matches matrix sum (total <= %d)" % weight,
        "reversal telescope vanishes (weight <= %d)" % weight,
    ])


def theorem310(weight: int):
    return _suite([
        "difference table matches two-chain sums (weight <= %d)" % weight,
        "binomial transform sends chains to dual chains",
    ])


def dual_411() -> tuple[int, str]:
    """``mzv dual "(4,1,1)"``: marks {4, 5} of weight 6 complement to {1, 2, 3}."""
    return 0, "(1,1,1,3)\n"
