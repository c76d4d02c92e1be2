"""Lyndon multi-indices and the dimension bookkeeping built on them.

Order indices by their part tuples (a proper prefix precedes its extensions).
An index is Lyndon when it strictly precedes each of its proper right
factors.  Weight-``m`` indices are in bijection with binary necklace cuttings,
so for ``m >= 2`` the number of weight-``m`` Lyndon indices equals the number
of binary Lyndon words of length ``m``; Moebius inversion of
``2**n = sum(d * count(d) for d | n)`` computes it.  Every index is the
concatenation of its non-increasing Lyndon factors ``l1.l2...ln`` (Duval, J.
Algorithms 4 (1983)); for ``n > 1``, ``stuffle(l1, l2...ln)`` has the index
as its largest term, longest first and then by parts (Hoffman, 2000).  These
triangular rows bound the stuffle rows' rank below.  Solved through them, one
integer kernel vector per Lyndon index, each checked on every stuffle row,
bounds it above (Kaltofen, Nehring and Saunders, ISSAC 2011).  The bounds meet,
so a combination lies in the rows' span exactly when the kernel annihilates it.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .indices import MultiIndex, _index, _key, all_indices, as_index, format_index
from .products import _stuffle_keys
from .relations import _pairs, stuffle_rows


def moebius(n: int) -> int:
    """The Moebius function, by trial factorisation."""
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def binary_lyndon_count(n: int) -> int:
    """Number of binary Lyndon words of length ``n`` (2, 1, 2, 3, 6, ..)."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    total = sum(moebius(n // d) * 2**d for d in range(1, n + 1) if n % d == 0)
    count, rest = divmod(total, n)
    if rest:
        raise ArithmeticError("necklace sum %d is not divisible by %d" % (total, n))
    return count


def psi2(m: int) -> int:
    """Number of weight-``m`` Lyndon multi-indices, for ``m >= 2``.

    At weight 1 the word/index bijection breaks down (there is a single
    weight-1 index but two binary Lyndon words), so the domain starts at 2.
    """
    if m < 2:
        raise ValueError("psi2 is defined for weight >= 2")
    return binary_lyndon_count(m)


def is_lyndon(mu) -> bool:
    """True when ``mu`` strictly precedes all its proper right factors."""
    mu = as_index(mu)
    if not mu:
        return False
    t = tuple(mu)
    return all(t < t[i:] for i in range(1, len(t)))


def lyndon_factors(mu) -> list[MultiIndex]:
    """The Lyndon factors of ``mu``, non-increasing, whose concatenation is ``mu`` (Duval)."""
    t, factors, i = as_index(mu), [], 0
    while i < len(t):
        j, k = i + 1, i
        while j < len(t) and t[k] <= t[j]:
            k, j = k + 1 if t[k] == t[j] else i, j + 1
        while i <= k:
            factors.append(MultiIndex(t[i:i + j - k]))
            i += j - k
    return factors


def _triangular(k: int) -> tuple[dict, list]:
    """Each non-Lyndon weight-``k`` key, fewest marks first and then by parts, mapped to its
    Lyndon factor pair and their stuffle row, checked to lead with it; and the Lyndon keys."""
    rows, lyndon = {}, []
    for mu in sorted(all_indices(k), key=len):
        cut, w = lyndon_factors(mu)[0].weight, _key(mu)
        if cut == k:  # mu is Lyndon
            lyndon.append(w)
            continue
        pair = w & (1 << cut) - 1, w >> cut
        row, n = _stuffle_keys(*pair), w.bit_count()
        # a same-length term precedes w by parts when it holds their lowest differing mark
        if row.get(w, 0) <= 0 or any(t.bit_count() > n or t.bit_count() == n and t != w
                                     and not t & (t ^ w) & -(t ^ w) for t in row):
            raise ArithmeticError("the stuffle row of the Lyndon factors of %s does not"
                                  " lead with it" % format_index(mu))
        rows[w] = pair, row
    return rows, lyndon


def triangular_rank(k: int) -> int:
    """The number of triangular rows: a lower bound over Q for the stuffle rows' rank."""
    return len(_triangular(k)[0])


def _kernel(rows: dict, lyndon: list, checked: list) -> tuple[dict, dict, int]:
    """Kernel vectors, ``D`` at their own Lyndon key and 0 at the others, solved through the
    triangular ``rows`` in order; an int per key, a ``width``-bit slot per vector, each slot
    in ``[-2**bound[key], 2**bound[key])``."""
    den, bound = dict.fromkeys(lyndon, 1), dict.fromkeys(lyndon, 0)
    for w, (_, row) in rows.items():  # den[w] clears v[w]'s denominator; |v[w]| <= 2**bound[w]
        den[w] = row[w] * lcm(*(den[t] for t in row if t != w))
        bound[w] = (sum(abs(c) << bound[t] for t, c in row.items() if t != w)
                    // row[w]).bit_length()
    d = lcm(*den.values())
    bound = {t: b + d.bit_length() for t, b in bound.items()}
    width = 2 + max(sum(abs(c) << bound[t] for t, c in row.items()) for row in checked).bit_length()
    vec = {t: d << width * j for j, t in enumerate(lyndon)}
    for w, (_, row) in rows.items():
        vec[w], rest = divmod(-sum(c * vec[t] for t, c in row.items() if t != w), row[w])
        if rest:
            raise ArithmeticError("the kernel entry at %s is not an integer" % (_index(w),))
    return vec, bound, width


def _certified_kernel(k: int, queries=()) -> tuple[int, tuple[dict, dict, int]]:
    """The rank over Q of the weight-``k`` stuffle rows, no elimination: the triangular rows
    bound it below, ``psi2(k)`` kernel vectors above, so these span the rows' annihilator; and
    that kernel ``(vec, bound, width)``, its slots wide enough for the integer ``queries``."""
    rows, lyndon = _triangular(k)
    pairs = [(_key(mu), _key(nu)) for mu, nu in _pairs(k)]
    checked = [row._terms for row in stuffle_rows(k)]  # the rows of pairs, in order
    ranked = set(map(frozenset, pairs))
    for w, (pair, _) in rows.items():
        if frozenset(pair) not in ranked:
            raise ArithmeticError("the stuffle row of the Lyndon factors of %s is not among"
                                  " the rows ranked" % (_index(w),))
    vec, bound, width = _kernel(rows, lyndon, checked + list(queries))
    d, one = vec[lyndon[0]], ((1 << width * len(lyndon)) - 1) // ((1 << width) - 1)
    own = {t: d << width * j for j, t in enumerate(lyndon)}  # D > 0 in its own slot only
    for t, x in vec.items():
        y = x + (one << bound[t])  # within its bound when every slot is in [0, 2**(b + 1))
        if y < 0 or y & ~((one << bound[t] + 1) - one) or own.get(t, x) != x or d <= 0:
            raise ArithmeticError("the kernel entry at %s is off its bound or slot" % (_index(t),))
    # each row's bound below 2**(width - 2) makes a zero packed sum zero in every slot
    for (a, b), row in zip(pairs, checked, strict=True):
        if sum(abs(c) << bound[t] for t, c in row.items()) >> width - 2 or sum(
                c * vec[t] for t, c in row.items()):
            raise ArithmeticError("the kernel does not annihilate stuffle(%s, %s)"
                                  % (_index(a), _index(b)))
    return len(rows), (vec, bound, width)


def certified_rank(k: int) -> int:
    """The rank over Q of the weight-``k`` stuffle rows, certified by :func:`_certified_kernel`."""
    return _certified_kernel(k)[0]


def in_stuffle_span(k: int, combinations) -> list[bool]:
    """Whether each weight-``k`` combination lies in the span over Q of the stuffle rows: whether
    the certified kernel annihilates it, one packed sum each.  A failed check raises."""
    queries = [(x * lcm(*(c.denominator for c in x._terms.values())))._terms  # in integers
               for x in combinations]
    _, (vec, bound, width) = _certified_kernel(k, queries)
    inside = []
    for i, query in enumerate(queries):
        if sum(abs(c) << bound[t] for t, c in query.items()) >> width - 2:
            raise ArithmeticError("query %d does not fit the kernel's slots" % i)
        inside.append(not sum(c * vec[t] for t, c in query.items()))
    return inside


def enumerate_lyndon(m: int) -> list[MultiIndex]:
    """All weight-``m`` Lyndon indices, sorted by parts."""
    if m < 1:
        raise ValueError("weight must be >= 1")
    return [mu for mu in all_indices(m) if is_lyndon(mu)]


def dimension_formula(k: int) -> int:
    """Dimension of the weight-``k`` harmonic relation space: 2**(k-1) - psi2(k)."""
    if k < 2:
        raise ValueError("weight must be >= 2")
    return 2 ** (k - 1) - psi2(k)


@lru_cache(maxsize=1 << 7)
def _zagier(k: int) -> int:
    if k <= 3:
        return 1
    return _zagier(k - 2) + _zagier(k - 3)


def zagier_dim(k: int) -> int:
    """Conjectural dimension count for the space of weight-``k`` relations.

    ``z(1) = z(2) = z(3) = 1`` and ``z(k) = z(k-2) + z(k-3)`` counts the
    conjecturally independent zeta values; the relations then number
    ``2**(k-1) - z(k)``.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    return 2 ** (k - 1) - _zagier(k)
