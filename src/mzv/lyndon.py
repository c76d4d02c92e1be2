"""Lyndon multi-indices and the dimension bookkeeping built on them.

Order indices by their part tuples (a proper prefix precedes its extensions).
An index is Lyndon when it strictly precedes each of its proper right
factors.  Weight-``m`` indices are in bijection with binary necklace cuttings,
so for ``m >= 2`` the number of weight-``m`` Lyndon indices equals the number
of binary Lyndon words of length ``m``; Moebius inversion of
``2**n = sum(d * count(d) for d | n)`` computes it.  Every index is the
concatenation of its non-increasing Lyndon factors ``l1.l2...ln`` (Duval, J.
Algorithms 4 (1983)); for ``n > 1``, ``stuffle(l1, l2...ln)`` has the index
as its largest term, longest first and then by parts (Hoffman, 2000).
"""

from __future__ import annotations

from functools import lru_cache

from .indices import MultiIndex, _key, all_indices, as_index, format_index
from .products import _stuffle_keys


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


def triangular_rank(k: int) -> int:
    """The number of non-Lyndon weight-``k`` indices, each checked to lead its stuffle
    row (or this raises): a lower bound over Q for the stuffle rows' rank, no elimination."""
    count = 0
    for mu in all_indices(k):
        cut, w = lyndon_factors(mu)[0].weight, _key(mu)
        if cut == k:  # mu is Lyndon
            continue
        row, n = _stuffle_keys(w & (1 << cut) - 1, w >> cut), w.bit_count()
        # a same-length term precedes w by parts when it holds their lowest differing mark
        if row.get(w, 0) <= 0 or any(t.bit_count() > n or t.bit_count() == n and t != w
                                     and not t & (t ^ w) & -(t ^ w) for t in row):
            raise ArithmeticError("the stuffle row of the Lyndon factors of %s does not"
                                  " lead with it" % format_index(mu))
        count += 1
    return count


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
