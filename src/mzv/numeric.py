"""Floating-point evaluation of zeta values by truncated chain sums.

Each index is evaluated by a vectorised dynamic program over the chain
variables up to a truncation bound ``N`` (default one million): level ``j``
multiplies the running prefix sums of level ``j-1`` by ``1/(n+1)**part_j``,
strictly or weakly depending on the sum type.  One pass over blocks of
``2**13`` values of ``n``, whose memory does not grow with ``N``, evaluates
a set of indices: per block it computes each distinct part's power once and
walks the trie of the indices' prefixes depth first, so each prefix's level
is computed once.  Final levels are totalled exactly by ExtractVector (Rump,
Ogita and Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
Comput. 31 (2008) 189-224) and rounded once, ties to even.  Estimates carry
a doubling error bar, ``err = 2 * |estimate(N) - estimate(N // 2)|``, which
is what the relation verdicts compare against: a relation passes when the
accumulated value does not exceed ``max(tol, err)``.

The error bar is floored at a few machine epsilons of the accumulated
magnitude: a truncated double-precision sum is never accurate beyond that, so
reporting a smaller bar (down to 0.0 when the two partial sums round to the
same float) would overstate what the evaluation knows.

Only indices whose last part is at least 2 converge; anything else raises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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


def _chain_pass(indices, N: int, strict: bool) -> dict:
    """``{index: (sum to N, sum to N//2)}`` for bare indices, in one pass.

    The indices share a trie of their prefixes.  Each block computes the
    power ``x**-p`` once per distinct part and walks the trie depth first, so
    every prefix's terms, running sum and carry are computed once per block.
    """
    import numpy as np

    root = [{}, None, 0.0]  # a trie node: children by part, index ending here, carry
    for mu in indices:
        node = root
        for part in mu:
            node = node[0].setdefault(part, [{}, None, 0.0])
        node[1] = mu
    parts = {part for mu in indices for part in mu}
    sums = {mu: [0, 0] for mu in indices}
    cut = N // 2 + 1
    for start in range(0, N + 1, _BLOCK):
        x = np.arange(start + 1.0, min(start + _BLOCK, N + 1) + 1.0)
        power = {part: x ** float(-part) for part in parts}
        stack = [(child, None, part) for part, child in root[0].items()]
        while stack:
            node, prefix, part = stack.pop()
            t = power[part] if prefix is None else prefix * power[part]
            children, mu, before = node
            if mu is not None:
                s = sums[mu]
                if start < cut <= start + len(t):
                    s[1] = s[0] + _exact_sum(t[: cut - start])
                s[0] += _exact_sum(t)
            if children:
                first = t[0]
                t[0] += before  # so that the prefix sums continue bit for bit
                prefix = np.cumsum(t)
                t[0] = first
                node[2] = prefix[-1]
                if strict:
                    prefix = np.concatenate(([before], prefix[:-1]))
                stack.extend((child, prefix, p) for p, child in children.items())
    # int / int true division rounds correctly, half to even
    return {mu: (f / (1 << _UNIT), h / (1 << _UNIT)) for mu, (f, h) in sums.items()}


#: ``{(N, strict): {index: None, or its partials once the shared pass ran}}``
_ahead: dict = {}


def expect_linear(relations, N: int = DEFAULT_TRUNCATION) -> None:
    """Hand in the relations :func:`verify_linear` is about to check.

    The first chain sum one of their indices needs evaluates all of them in
    one shared pass; the later ones read its results.  A new hand-in drops
    what an earlier one left unread.
    """
    _ahead.clear()
    ahead = _ahead[N, True] = {}
    for relation in relations:
        for mu, _ in raise_last(as_combination(getattr(relation, "element", relation))).terms():
            if mu[-1] >= 2:  # phi raises to the divergent (1), refused when evaluated
                ahead.setdefault(mu, None)


@lru_cache(maxsize=256)
def _chain_partials(mu: MultiIndex, N: int, strict: bool) -> tuple:
    """(sum to N, sum to N//2) of a bare index, from the shared pass if handed in."""
    ahead = _ahead.get((N, strict), {})
    if mu not in ahead:
        return _chain_pass([mu], N, strict)[mu]
    if ahead[mu] is None:
        ahead.update(_chain_pass([m for m, v in ahead.items() if v is None], N, strict))
    return ahead.pop(mu)


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
    return _report(tag, N, est.value, est.err, tol)


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
    return _report(relation.provenance, N, total, err + rhs.err, tol)


def _report(tag, N: int, value: float, err: float, tol: float) -> dict:
    return {"relation": tag, "N": N, "value": value, "err": err, "tol": tol,
            "pass": abs(value) <= max(tol, err)}
