"""Floating-point evaluation of zeta values by truncated chain sums.

Each index is evaluated by a vectorised dynamic program over the chain
variables up to a truncation bound ``N`` (default one million): level ``j``
multiplies the running prefix sums of level ``j-1`` by ``1/(n+1)**part_j``,
strictly or weakly depending on the sum type.  It runs over blocks of
``2**13`` values of ``n`` with one running sum per level, so its memory does
not grow with ``N``, and totals the final level with exact block sums,
rounded once to the nearest float (ties to even).  Estimates carry a doubling
error bar, ``err = 2 * |estimate(N) - estimate(N // 2)|``, which is what the
relation verdicts compare against: a relation passes when the accumulated
value does not exceed ``max(tol, err)``.

The error bar is floored at a few machine epsilons of the accumulated
magnitude: a truncated double-precision sum is never accurate beyond that, so
reporting a smaller bar (down to 0.0 when the two partial sums round to the
same float) would overstate what the evaluation knows.

Only indices whose last part is at least 2 converge; anything else raises.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .indices import Combination, MultiIndex, as_combination, format_index, raise_last

DEFAULT_TRUNCATION = 10**6


@dataclass(frozen=True)
class MzvEstimate:
    """A truncated evaluation with its doubling error bar."""

    value: float
    err: float
    truncation: int

    def __float__(self) -> float:
        return self.value


#: Chain positions per block of the dynamic program.
_BLOCK = 1 << 13
#: Multiplying by 2**_LIFT is exact and lifts every subnormal into the normal
#: range, where the split below is exact; sums are integers in units of 2**-_UNIT.
_LIFT = 54
_UNIT = 1074 + _LIFT


def _exact_sum(t) -> int:
    """Exact sum of at most ``2**15`` doubles, in units of ``2**-_UNIT``.

    A Veltkamp split writes each lifted term of biased exponent ``e`` as
    ``hi + lo``, where ``hi`` is a multiple of ``2**(e-1048)`` and ``lo`` of
    ``2**(e-1075)``, each at most ``2**26`` such steps.  Per exponent, at most
    ``2**15`` of them total at most ``2**41`` steps, so ``np.bincount`` adds
    them exactly in float64; the bucket totals are then added as integers.
    """
    if len(t) > 1 << 15:
        raise ValueError("an exact block sum takes at most 2**15 terms")
    u = t * 2.0**_LIFT
    exponent = (u.view(np.int64) >> 52) & 0x7FF
    # beyond biased exponent 2018 (|t| >= 2**942) the split could overflow
    if exponent.max(initial=0) > 2018:
        raise ValueError("chain terms must be finite and below 2**942 to be summed exactly")
    c = u * 134217729.0
    hi = c - (c - u)
    total = 0
    for piece, step in ((hi, 1048), (u - hi, 1075)):
        sums = np.bincount(exponent, piece)
        e = np.flatnonzero(sums)
        steps = np.ldexp(sums[e], step - e).astype(np.int64)
        total += sum(n << k for n, k in zip(steps.tolist(), (e + 1074 - step).tolist()))
    return total


@lru_cache(maxsize=256)
def _chain_partials(mu: MultiIndex, N: int, strict: bool) -> tuple:
    """(sum to N, sum to N//2) of the chain terms of a bare index."""
    carry = [0.0] * (len(mu) - 1)
    cut = N // 2 + 1
    full = half = 0
    for start in range(0, N + 1, _BLOCK):
        x = np.arange(start + 1.0, min(start + _BLOCK, N + 1) + 1.0)
        t = x ** float(-mu[0])
        for j, part in enumerate(mu[1:]):
            before = carry[j]
            t[0] += before  # so that the prefix sums continue bit for bit
            prefix = np.cumsum(t)
            carry[j] = prefix[-1]
            if strict:
                prefix = np.concatenate(([before], prefix[:-1]))
            t = prefix * x ** float(-part)
        if start < cut <= start + len(t):
            half = full + _exact_sum(t[: cut - start])
        full += _exact_sum(t)
    # int / int true division rounds correctly, half to even
    return (full / (1 << _UNIT), half / (1 << _UNIT))


def _evaluate(x, N: int, strict: bool) -> MzvEstimate:
    x = as_combination(x)
    if N < 2:
        raise ValueError("the truncation bound must be >= 2")
    full = 0.0
    half = 0.0
    scale = 0.0
    for mu, c in x.terms():
        if not mu or mu[-1] < 2:
            raise ValueError("divergent index %s (last part must be >= 2)" % format_index(mu))
        f, h = _chain_partials(mu, N, strict)
        full += float(c) * f
        half += float(c) * h
        scale += abs(float(c)) * abs(f)
    noise = 4.0 * sys.float_info.epsilon * scale
    return MzvEstimate(full, max(2.0 * abs(full - half), noise), N)


def zeta_strict(x, N: int = DEFAULT_TRUNCATION) -> MzvEstimate:
    """Truncated strict-chain zeta of a combination (the plain MZV)."""
    return _evaluate(x, N, strict=True)


def zeta_bar(x, N: int = DEFAULT_TRUNCATION) -> MzvEstimate:
    """Truncated weak-chain variant (chains may repeat)."""
    return _evaluate(x, N, strict=False)


def zeta_plus(x, N: int = DEFAULT_TRUNCATION) -> MzvEstimate:
    """Raise the last part of every term, then evaluate strictly."""
    return zeta_strict(raise_last(as_combination(x)), N)


def default_tolerance(max_length: int) -> float:
    """1e-6 for short indices (length <= 2), 1e-4 beyond."""
    return 1e-6 if max_length <= 2 else 1e-4


def verify_linear(relation, N: int = DEFAULT_TRUNCATION, tol: float | None = None) -> dict:
    """Evaluate a linear relation's element under the raised functional.

    Accepts a relation object (with ``element`` and ``provenance``) or a bare
    combination.  The verdict is ``abs(value) <= max(tol, err)``.
    """
    element = getattr(relation, "element", relation)
    tag = getattr(relation, "provenance", "element")
    raised = raise_last(as_combination(element))
    if tol is None:
        tol = default_tolerance(raised.max_length())
    est = zeta_strict(raised, N) if raised else MzvEstimate(0.0, 0.0, N)
    return {
        "relation": tag,
        "N": N,
        "value": est.value,
        "err": est.err,
        "tol": tol,
        "pass": abs(est.value) <= max(tol, est.err),
    }


def verify_quadratic(relation, N: int = DEFAULT_TRUNCATION, tol: float = 1e-4) -> dict:
    """Evaluate a product relation: sum of zeta*zeta factors minus the rhs.

    Error bars propagate through the products
    (``|a| eb + |b| ea + ea eb`` per factor pair) and add up.  Degenerate
    degree-1 inputs (linear relations, no factor pairs) are routed through
    :func:`verify_linear`.
    """
    if hasattr(relation, "element"):
        return verify_linear(relation, N, tol)
    total = 0.0
    err = 0.0
    for left, right in relation.factors:
        a = zeta_strict(left, N)
        b = zeta_strict(right, N)
        total += a.value * b.value
        err += abs(a.value) * b.err + abs(b.value) * a.err + a.err * b.err
    rhs = zeta_strict(relation.rhs, N)
    total -= rhs.value
    err += rhs.err
    return {
        "relation": relation.provenance,
        "N": N,
        "value": total,
        "err": err,
        "tol": tol,
        "pass": abs(total) <= max(tol, err),
    }
