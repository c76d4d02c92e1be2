"""Generators of the relation space, with provenance tags.

The central family: for non-empty indices ``mu``, ``nu`` the combination
``refine(signed(stuffle(mu, nu)))`` annihilates the raised zeta functional.
:func:`kawashima_basis` collects one such row per unordered pair of a fixed
total weight.  Since ``g = refine . signed`` is an involution of each weight
space, hence a linear bijection, the raw products :func:`stuffle_rows` span
a space of the same dimension, which ``mzv rank-table`` certifies from them.

Reversal--dual differences (:func:`duality_relation`) and their images under
the shift operators (:func:`ohno_relations`, one per sign pair) land inside
the span of :func:`kawashima_basis`: ``verify duality`` shows it by membership
certificates, ``verify ohno`` by :func:`mzv.lyndon.in_stuffle_span` of ``g(x)``.

Quadratic counterparts pair two raised evaluations against one: see
:func:`quadratic_relation`, whose terms come from fusing with all-ones tails,
and :func:`newton_series_coefficients` for the underlying one-variable
expansion coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .indices import (
    Combination,
    _accumulate,
    _key,
    _mirror,
    all_indices,
    as_combination,
    as_index,
    coarsen,
    dual,
    format_combination,
    format_index,
    ones,
    refine,
    signed,
)
from .ohno import _shifts, ohno_u
from .products import _stuffle_keys, circ, stuffle


def terms_json(x) -> list[dict]:
    """The terms of a combination as JSON objects ``{index, num, den}``, sorted."""
    return [
        {"index": list(mu), "num": Fraction(c).numerator, "den": Fraction(c).denominator}
        for mu, c in as_combination(x).terms()
    ]


class LinearRelation(NamedTuple):
    """A combination annihilated by the raised zeta functional."""

    element: Combination
    provenance: str
    weight: int

    def __str__(self) -> str:
        return "%s: %s" % (self.provenance, format_combination(self.element))


class QuadraticRelation(NamedTuple):
    """sum of zeta(left)*zeta(right) over ``factors`` equals zeta(rhs).

    All three combination slots hold arguments for the plain (un-raised)
    strict evaluation; they are already fused with the all-ones tails.
    """

    factors: tuple
    rhs: Combination
    provenance: str
    weight: int

    def __str__(self) -> str:
        lhs = " + ".join(
            "[%s]*[%s]" % (format_combination(a), format_combination(b))
            for a, b in self.factors
        )
        return "%s: %s = %s" % (self.provenance, lhs, format_combination(self.rhs))


def kawashima_element(mu, nu) -> Combination:
    """``refine(signed(stuffle(mu, nu)))`` for non-empty ``mu``, ``nu``."""
    mu, nu = as_index(mu), as_index(nu)
    if not mu or not nu:
        raise ValueError("both indices must be non-empty")
    return refine(signed(stuffle(mu, nu)))


def kawashima_relation(mu, nu) -> LinearRelation:
    mu, nu = as_index(mu), as_index(nu)
    element = kawashima_element(mu, nu)
    tag = "kawashima(%s,%s)" % (format_index(mu), format_index(nu))
    return LinearRelation(element, tag, mu.weight + nu.weight)


def index_pairs(a: int, b: int):
    """Pairs ``(mu, nu)`` with ``mu`` of weight ``a`` and ``nu`` of weight ``b``.

    Ordered by parts; when ``a == b`` only ``mu <= nu`` is kept, so each
    unordered pair comes once.
    """
    for mu in all_indices(a):
        for nu in all_indices(b):
            if a == b and nu < mu:
                continue
            yield mu, nu


def _pairs(weight: int):
    """Unordered pairs ``(mu, nu)`` of non-empty indices of total ``weight``.

    Ordered by the weight of ``mu`` (at most half), then by parts.
    """
    if weight < 2:
        raise ValueError("weight must be >= 2")
    for a in range(1, weight // 2 + 1):
        yield from index_pairs(a, weight - a)


def kawashima_basis(weight: int) -> list[LinearRelation]:
    """One relation per unordered pair of non-empty indices of total ``weight``."""
    return [kawashima_relation(mu, nu) for mu, nu in _pairs(weight)]


def stuffle_rows(weight: int) -> list[Combination]:
    """``stuffle(mu, nu)`` for the pairs of :func:`kawashima_basis`, in its order.

    Row ``i`` is mapped to the element of relation ``i`` by the involution
    ``g = refine . signed``, so both lists span spaces of the same dimension.
    Each row wraps the product memo's own dict, so the rows are read-only.
    """
    return [Combination._of(_stuffle_keys(_key(mu), _key(nu))) for mu, nu in _pairs(weight)]


def _reverse_dual(k: int) -> tuple[int, int]:
    """The keys of ``reverse`` and ``dual`` of the non-empty index with key ``k``."""
    top = 1 << k.bit_length() - 1  # reverse mirrors the marks below it, dual complements them
    return top | _mirror(k ^ top, k.bit_length() - 1), k ^ top - 1


def duality_element(mu) -> Combination:
    """``reverse(mu) - dual(mu)``."""
    mu = as_index(mu)
    if not mu:
        raise ValueError("the index must be non-empty")
    return Combination._of(_accumulate({}, zip(_reverse_dual(_key(mu)), (1, -1))))


def duality_relation(mu) -> LinearRelation:
    mu = as_index(mu)
    return LinearRelation(duality_element(mu), "duality(%s)" % format_index(mu), mu.weight)


def verify_reversal_telescope(mu) -> bool:
    """The alternating split sum behind the duality containment.

    Splitting ``mu`` after position h, reversing the head, multiplying by
    the coarsening sum of the tail and alternating signs telescopes to zero.
    The products add up on mark keys in one dict.
    """
    mu = as_index(mu)
    if not mu:
        raise ValueError("the index must be non-empty")
    total = {}
    for h in range(len(mu) + 1):
        head = _key(reversed(mu[:h]))
        for tail, c in coarsen(mu[h:])._terms.items():
            _accumulate(total, _stuffle_keys(head, tail).items(), -c if h & 1 else c)
    return not total


def ohno_relations(weight: int, r_max: int | None = None) -> list[LinearRelation]:
    """Shifted reversal--dual differences of total ``weight``, one per sign pair.

    For each shift ``r`` and each index ``mu`` of weight ``weight - r``, the
    element is the shift of :func:`duality_element`, built on keys; ``mu`` is
    skipped when ``D(mu) = 0`` or ``tau(mu)`` has the smaller key: the shift
    is linear and ``D(tau(mu)) = -D(mu)``.  ``r_max`` defaults to ``weight - 2``
    (beyond that the base index has weight < 2 and everything vanishes).
    """
    if weight < 2:
        raise ValueError("weight must be >= 2")
    if r_max is None:
        r_max = weight - 2
    out = []
    for r in range(0, min(r_max, weight - 2) + 1):
        top = 1 << weight - r - 1
        for mu in all_indices(weight - r):
            rev, dual_key = _reverse_dual(k := _key(mu))
            if rev ^ top - 1 < k or rev == dual_key:  # tau(mu) first, or D(mu) = 0
                continue
            # ohno_u(r, nu)'s smallest term by parts gives nu back, so this is not 0
            element = ohno_u(r, Combination._of({rev: 1, dual_key: -1}))
            out.append(LinearRelation(element, "ohno(%s,%d)" % (format_index(mu), r), weight))
    _shifts.cache_clear()  # kept for the next weight, the shifts would raise the peak memory
    return out


def quadratic_relation(v, w, m: int) -> QuadraticRelation | LinearRelation:
    """The degree-``m`` product identity between raised evaluations.

    For combinations ``v``, ``w`` (non-empty support) and ``m >= 2``::

        sum_{k+l=m, k,l>=1} zeta(g(v) . ones(k)) * zeta(g(w) . ones(l))
            = zeta(g(stuffle(v, w)) . ones(m))

    where ``g = refine . signed`` and ``.`` fuses with the all-ones tail
    (:func:`~mzv.products.circ`).

    At ``m = 1`` the left side is an empty sum and fusing with a single one
    is just the last-part raise, so the statement collapses to the linear
    kernel statement; a :class:`LinearRelation` is returned instead.
    """
    if m < 1:
        raise ValueError("the degree m must be >= 1")
    v, w = as_combination(v), as_combination(w)
    if m == 1:
        element = refine(signed(stuffle(v, w)))
        tag = "quadratic(%s|%s|1)" % (format_combination(v), format_combination(w))
        return LinearRelation(element, tag, v.homogeneous_weight() + w.homogeneous_weight())
    gv = refine(signed(v))
    gw = refine(signed(w))
    factors = tuple(
        (circ(gv, Combination.term(ones(k))), circ(gw, Combination.term(ones(m - k))))
        for k in range(1, m)
    )
    rhs = circ(refine(signed(stuffle(v, w))), Combination.term(ones(m)))
    tag = "quadratic(%s|%s|%d)" % (format_combination(v), format_combination(w), m)
    weight = v.homogeneous_weight() + w.homogeneous_weight() + m
    return QuadraticRelation(factors, rhs, tag, weight)


def newton_series_coefficients(v, m_max: int) -> list[Combination]:
    """Zeta arguments of the interpolation expansion of the running sums.

    Entry ``m-1`` (for ``m = 1..m_max``) is the combination whose strict
    evaluation is the ``z**m`` coefficient: ``(-1)**(m-1)`` times the
    coarsening sum of the dual fused with ``ones(m)``.
    """
    v = as_combination(v)
    if not v:
        raise ValueError("the combination must be non-zero")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    base = coarsen(dual(v))
    return [
        (-1) ** (m - 1) * circ(base, Combination.term(ones(m)))
        for m in range(1, m_max + 1)
    ]
