"""Certified evaluation of zeta values, and verdicts on relations.

The evaluator is the Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst
and Lisoněk, "Special values of multiple polylogarithms", Trans. Amer. Math.
Soc. 353 (2001) 907-941).  Cut at any position, the x0/x1 word of an index
(x1 at position 1 and after each mark of its mark key) splits into the
word of an index, nearer 0, and that of another, nearer 1 once reversed with
x0 and x1 swapped; ``zeta(mu)`` is the sum over the cuts of the products of
their ``Li(1/2) = sum over n_1 < .. < n_r of 2**-n_r / prod n_j**part_j``.
These series run in fixed point, ``2**-bits`` units in Python integers,
memoised per index: each floor division adds a unit to a counted error, and
the tail past ``M`` terms is bounded (:func:`_half_series`).  The evaluator
reads the mark keys as stored, in any order: values and bounds add up
exactly, and a relation passes when ``|value| <= bound`` on those exact
numbers.  ``err`` is the bound plus the float rounding of ``value``, rounded up.
Both memos hold a whole request: ``verify numeric --pairs-up-to n`` reads ``2**n - 1``
:func:`_holder` sums and ``1.5 * 2**n`` series, and a smaller cache thrashes.

A weak chain sum is the strict sum over the coarsenings of its index, so
:func:`zeta_bar` is :func:`zeta_strict` of :func:`~mzv.indices.coarsen`.

:func:`_truncated`, blockwise double-precision chain sums with a doubling
heuristic for an error bar, is kept for the tests as an oracle.

Only indices whose last part is at least 2 converge; anything else raises.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .indices import (MultiIndex, _index, _key, _mirror, as_combination, coarsen, format_index,
                      raise_last)

#: Fixed-point bits of the certified 1/2-series.
CERTIFIED_BITS = 120


class MzvEstimate(NamedTuple):
    """A value, its proven error after ``truncation`` series terms, and the exact
    ``(value, bound)`` in ``exact``."""

    value: float
    err: float
    truncation: int
    exact: tuple

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return "MzvEstimate(value=%r, err=%r, truncation=%r)" % self[:3]


#: Chain positions per block of the dynamic program.
_BLOCK = 1 << 13
#: Exact sums are integers in units of the smallest subnormal, 2**-_UNIT.
_UNIT = 1074


def _exact_sum(t) -> int:
    """Exact sum of at most ``2**15`` doubles, in units of ``2**-_UNIT``.

    Repeated ExtractVector (Rump, Ogita and Oishi, Lemma 3.3): with
    ``max|t| < 2**e`` and ``sigma = 2**(e+16)``, each ``q = (t+sigma)-sigma``
    is a multiple of ``2**-53 * sigma`` and at most ``2**15`` of them stay
    below ``sigma``, so ``np.sum(q)`` is exact; ``t - q`` is exact too and
    at least 36 bits smaller, and the loop ends when it is zero.
    """
    import numpy as np

    if len(t) > 1 << 15:
        raise ValueError("an exact block sum takes at most 2**15 terms")
    top = float(np.abs(t).max(initial=0.0))
    if not top < 2.0**942:
        raise ValueError("chain terms must be finite and below 2**942 to be summed exactly")
    total = 0
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + 16)
        q = (t + sigma) - sigma
        n, d = float(np.sum(q)).as_integer_ratio()
        total += n << (_UNIT + 1 - d.bit_length())
        t = t - q
        top = float(np.abs(t).max())
    return total


@lru_cache(maxsize=256)
def _chain_partials(mu: MultiIndex, N: int) -> tuple:
    """The strict chain sums of a bare index over the positions ``1..N+1`` and
    ``1..N//2+1``, block by block: one position past ``N`` and ``N // 2``.

    A level per part: its terms are ``x**-part`` times the running sum of the
    level below over the positions strictly before, carried across blocks.
    The half cut is a block boundary; each block's last level is summed once.
    """
    import numpy as np

    carry = [0.0] * (len(mu) - 1)
    cut = N // 2 + 1
    bounds = sorted({*range(0, N + 1, _BLOCK), cut, N + 1})
    full = half = 0
    for start, stop in zip(bounds, bounds[1:]):
        x = np.arange(start + 1.0, stop + 1.0)
        power = {part: x ** float(-part) for part in set(mu)}
        t = power[mu[0]]
        for level, part in enumerate(mu[1:]):
            shifted = np.cumsum(np.concatenate(([carry[level]], t[:-1])))
            carry[level] = shifted[-1] + t[-1]
            t = shifted * power[part]
        if start == cut:
            half = full
        full += _exact_sum(t)
    # int / int true division rounds correctly, half to even
    return full / (1 << _UNIT), half / (1 << _UNIT)


def _convergent(k: int) -> int:
    """The key ``k``, unless phi or a last part 1 (bit ``m-2`` of weight ``m``) diverges."""
    if k < 2 or k >> k.bit_length() - 2 & 1:
        raise ValueError("divergent index %s (last part must be >= 2)" % format_index(_index(k)))
    return k


def _truncated(x, N: int) -> tuple:
    """``(value, err)``: the strict chain sums of a combination truncated at ``N``
    (in fact over the positions ``1..N+1``, and ``1..N//2+1`` for the half sums),
    with the heuristic bar ``2 |value(N) - value(N // 2)|``, floored at a few
    machine epsilons of the accumulated magnitude."""
    if N < 2:
        raise ValueError("the truncation bound must be >= 2")
    full = half = scale = 0.0
    for mu, c in as_combination(x).terms():
        _convergent(_key(mu))
        f, h = _chain_partials(mu, N)
        full += float(c) * f
        half += float(c) * h
        scale += abs(float(c)) * abs(f)
    noise = 4.0 * sys.float_info.epsilon * scale
    return full, max(2.0 * abs(full - half), noise)


@lru_cache(maxsize=1 << 14)
def _half_series(nu: MultiIndex, bits: int) -> tuple:
    """``(v, e, M)`` with ``0 <= 2**bits * Li_nu(1/2) - v <= e``, from ``M`` terms.

    ``s[j]`` floors ``2**bits`` times the sum over the first ``j`` parts, and
    ``e[j]`` bounds what its floors lost.  The term at ``n`` is at most
    ``t(n) = 2**-n * H(n-1)**(r-1) / n``, and ``t(n+1) / t(n) < 0.65`` for
    ``n > 4 (r-1)``, so the tail past ``M >= max(8, 4r)`` terms is below
    ``2**-M * H(M)**(r-1)``, where ``H(M) < M.bit_length()``.
    """
    r = len(nu)
    if not r:
        return 1 << bits, 0, 0
    M = max(8, 4 * r)
    while M.bit_length() ** (r - 1) << bits > 1 << M:
        M += 1
    s, e = [1 << bits] + [0] * (r - 1), [0] * r
    v, lost = 0, 1  # the tail
    for n in range(1, M + 1):
        d = n ** nu[-1] << n
        v += s[-1] // d
        lost += -(-e[-1] // d) + 1
        for j in range(r - 1, 0, -1):
            q = n ** nu[j - 1]
            s[j] += s[j - 1] // q
            e[j] += -(-e[j - 1] // q) + 1
    return v, lost, M


@lru_cache(maxsize=1 << 14)
def _holder(k: int, bits: int) -> tuple:
    """``(V, E, M)`` with ``|4**bits * zeta(mu) - V| <= E`` for the index ``mu`` of
    mark key ``k``: a sum over the cuts of its word."""
    m = k.bit_length()
    word = (k << 1 | 1) ^ 1 << m  # bit i: the letter i + 1 from 0, x1 when set
    V = E = M = 0
    for cut in range(m + 1):
        # the letters above the cut, reversed and complemented, and those below; the
        # marks of a weight-n word are its bits 1..n-1, and its key adds bit n-1
        top = m - cut
        dual = _mirror(word >> cut, top) ^ ((1 << top) - 1)
        a, ea, ma = _half_series(_index(dual >> 1 | 1 << top >> 1), bits)
        b, eb, mb = _half_series(_index((word & (1 << cut) - 1) >> 1 | 1 << cut >> 1), bits)
        V, E, M = V + a * b, E + a * eb + b * ea + ea * eb, max(M, ma, mb)
    return V, E, M


def _certified(x, bits: int) -> MzvEstimate:
    V = E = M = 0
    for k, c in as_combination(x)._terms.items():
        v, e, m = _holder(_convergent(k), bits)
        V, E, M = V + c * v, E + abs(c) * e, max(M, m)
    return _rounded(Fraction(V, 1 << 2 * bits), Fraction(E, 1 << 2 * bits), M)


def _rounded(value: Fraction, bound: Fraction, terms: int) -> MzvEstimate:
    f = float(value)
    err = bound + abs(value - Fraction(f))  # float() rounds to nearest: round err up
    up = float(err)
    return MzvEstimate(f, up if up >= err else math.nextafter(up, math.inf), terms, (value, bound))


def zeta_strict(x) -> MzvEstimate:
    """Strict-chain zeta of a combination (the plain MZV), with a proven bound."""
    return _certified(x, CERTIFIED_BITS)


def zeta_bar(x) -> MzvEstimate:
    """Weak-chain zeta (chains may repeat): the strict zeta of the sum of all coarsenings."""
    return zeta_strict(coarsen(x))


def zeta_plus(x) -> MzvEstimate:
    """Raise the last part of every term, then evaluate strictly."""
    return zeta_strict(raise_last(as_combination(x)))


def verify_linear(relation) -> dict:
    """Evaluate a linear relation's element under the raised functional.

    Accepts a relation object (with ``element`` and ``provenance``) or a bare
    combination.  It passes when ``abs(value) <= bound`` on the exact numbers.
    """
    element = getattr(relation, "element", relation)
    tag = getattr(relation, "provenance", "element")
    return _report(tag, zeta_plus(element))


def verify_quadratic(relation) -> dict:
    """Evaluate a product relation: sum of zeta*zeta factors minus the rhs.

    Bounds propagate exactly through the products (``|a| eb + |b| ea + ea eb``
    per factor pair) and add up.  Degree-1 inputs (linear relations) are
    routed through :func:`verify_linear`.
    """
    if hasattr(relation, "element"):
        return verify_linear(relation)
    total = err = terms = 0
    for left, right in relation.factors:
        a, b = zeta_strict(left), zeta_strict(right)
        (av, ae), (bv, be) = a.exact, b.exact
        total += av * bv
        err += abs(av) * be + abs(bv) * ae + ae * be
        terms = max(terms, a.truncation, b.truncation)
    rhs = zeta_strict(relation.rhs)
    (rv, rerr), terms = rhs.exact, max(terms, rhs.truncation)
    return _report(relation.provenance, _rounded(total - rv, err + rerr, terms))


def _report(tag, est: MzvEstimate) -> dict:
    value, bound = est.exact
    return {"relation": tag, "N": est.truncation, "value": est.value, "err": est.err,
            "pass": abs(value) <= bound}
