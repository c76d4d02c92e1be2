"""Weight-raising shift operators on multi-index combinations.

For a label ``mu`` with ``p`` parts and an argument ``nu`` with ``q`` parts,
``ohno_apply(mu, nu)`` sums, over all ways to pick ``p`` of the ``q``
positions in increasing order, the index obtained by adding ``mu_1, .., mu_p``
to the chosen parts.  The empty label acts as the identity, any non-empty
label annihilates phi, and everything is extended bilinearly.  Composing two
of these operators multiplies their labels harmonically.

``ohno_bar_apply`` is the same operator conjugated by ``dual``.  The label
``refine((r,))``, every composition of ``r``, adds each weak composition of
``r`` into ``len(nu)`` parts to ``nu`` once (:func:`ohno_u`).  On mark keys it
recurses on the last part, which takes ``e`` of ``r`` while the head is shifted
by ``r - e``: every term is a distinct key of multiplicity 1, and a bounded
cache, emptied by ``relations.ohno_relations``, holds the shifts.  For this
label both operators admit closed block-splitting formulas -- sums over
decompositions of the argument into consecutive blocks -- which are
implemented separately (`ohno_ones_blocks`, `ohno_u_blocks`, and the
weight-split sums `ohno_bar_u_blocks`/`shifted_block_sum`, which differ only
in the allowed cut positions) and used to cross-check the generic path.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .indices import (
    PHI,
    Combination,
    MultiIndex,
    _accumulate,
    _bilinear,
    _index,
    _key,
    as_combination,
    as_index,
    concat,
    dual,
    idx,
    merge_concat,
    ones,
    partition,
    raise_last,
    refine,
    refine_inv,
)
from .products import stuffle


@lru_cache(maxsize=1 << 12)
def _ohno_pair(label: int, key: int) -> dict:
    """The shift of the index with mark key ``key`` by the label with key ``label``."""
    parts, nu = _index(label), _index(key)
    out = {}
    for positions in itertools.combinations(range(len(nu)), len(parts)):
        shifted = list(nu)
        for part, pos in zip(parts, positions):
            shifted[pos] += part
        k = _key(shifted)
        out[k] = out.get(k, 0) + 1
    return out


def ohno_apply(label, x) -> Combination:
    """Add the label's parts at increasing positions, all ways; bilinear."""
    return _bilinear(_ohno_pair, label, x)


def ohno_bar_apply(label, x) -> Combination:
    """The shift operator conjugated by ``dual`` (label untouched)."""
    return dual(ohno_apply(label, dual(x)))


@lru_cache(maxsize=1 << 12)
def _shifts(key: int, r: int) -> list[int]:
    """The keys of ``ohno_u(r, key)``, each of multiplicity 1: the head takes ``s`` of ``r``
    and the last part the rest, so every key ends at the bit of the shifted weight."""
    if not key:
        return [] if r else [0]
    head, top = key ^ 1 << key.bit_length() - 1, 1 << key.bit_length() + r - 1
    return [t | top for s in range(r + 1) for t in _shifts(head, s)]


def ohno_u(r: int, x) -> Combination:
    """Apply the operator labelled by all refinements of the one-part index (r)."""
    if r < 0:
        raise ValueError("the shift amount must be >= 0")
    data = {}
    for k, c in as_combination(x)._terms.items():
        _accumulate(data, zip(_shifts(k, r), itertools.repeat(c)))
    return Combination._of(data)


def ohno_bar_u(r: int, x) -> Combination:
    """Dual-conjugated :func:`ohno_u`."""
    return dual(ohno_u(r, dual(x)))


# ---------------------------------------------------------------------------
# block-splitting formulas
#
# Splitting an index into r+1 consecutive blocks comes in two flavours.
# List splits cut only between parts; they realise plain concatenation.
# Weight splits may also cut inside a part (the two halves are then fused by
# merge_concat when reassembling); a block may be empty.  Each formula below
# prescribes which blocks may be empty and how the blocks are reassembled.


def ohno_ones_blocks(r: int, mu) -> Combination:
    """Block formula for the label ``ones(r)``.

    Cut the part list into blocks ``b0 # b1 # .. # br`` with ``b0..b(r-1)``
    non-empty; each term glues ``b0, (1)#b1, .., (1)#br`` by merge_concat.
    """
    return _list_split_sum(
        r, mu, lambda q: itertools.combinations(range(1, q + 1), r),
        lambda blocks: [blocks[0]] + [concat(idx(1), block) for block in blocks[1:]])


def ohno_u_blocks(r: int, mu) -> Combination:
    """Block formula for the label ``refine((r,))``.

    Cut the part list into blocks, the first ``r`` possibly empty and the
    last non-empty; each term glues ``b0#(1), .., b(r-1)#(1), br`` by
    merge_concat.
    """
    return _list_split_sum(
        r, mu, lambda q: itertools.combinations_with_replacement(range(q), r),
        lambda blocks: [concat(block, idx(1)) for block in blocks[:-1]] + [blocks[-1]])


def _list_split_sum(r: int, mu, splits, pieces):
    """Sum over the cuts ``splits(len(mu))`` of ``mu`` into r+1 blocks of
    ``pieces(blocks)`` glued by merge_concat."""
    mu = as_index(mu)
    if r < 0:
        raise ValueError("the shift amount must be >= 0")
    if not mu:
        return Combination.zero() if r else Combination.term(PHI)
    q = len(mu)
    out = Combination.zero()
    for cuts in splits(q):
        bounds = (0,) + cuts + (q,)
        term = Combination.term(PHI)
        for piece in pieces([MultiIndex(mu[a:b]) for a, b in zip(bounds, bounds[1:])]):
            term = merge_concat(term, piece)
        out = out + term
    return out


def _nonboundary_cut_positions(mu: MultiIndex) -> list[int]:
    """0 and the weight positions strictly inside a part of ``mu``."""
    key = _key(mu)
    return [0] + [c for c in range(1, mu.weight) if not key >> (c - 1) & 1]


def _weight_split_sum(r: int, mu, cut_positions) -> Combination:
    """Sum over ``r`` weight cuts of ``mu``, taken with repeats from
    ``cut_positions(mu)``, of the blocks joined by plain concatenation after
    raising the last part of every block but the final one."""
    mu = as_index(mu)
    if r < 0:
        raise ValueError("the shift amount must be >= 0")
    if not mu:
        return Combination.zero() if r else Combination.term(PHI)

    def term(cuts) -> MultiIndex:
        bounds = (0,) + cuts + (mu.weight,)
        *blocks, last = partition(mu, [b - a for a, b in zip(bounds, bounds[1:])])
        return MultiIndex(sum(map(raise_last, blocks), ()) + last)

    cuts = itertools.combinations_with_replacement(cut_positions(mu), r)
    return Combination((term(c), 1) for c in cuts)


def ohno_bar_u_blocks(r: int, mu) -> Combination:
    """Dual-side block formula for the label ``refine((r,))``.

    Cut the weight at positions away from the part boundaries (repeats give
    empty blocks), keep the final block non-empty, raise the last part of
    every other block, and concatenate.
    """
    return _weight_split_sum(r, mu, _nonboundary_cut_positions)


def shifted_block_sum(r: int, mu) -> Combination:
    """Weight-split formula for ``refine_inv . mult(ones(r)) . refine``.

    Like :func:`ohno_bar_u_blocks` but the weight may be cut anywhere
    (including part boundaries and the very end, so the final block may be
    empty too).
    """
    return _weight_split_sum(r, mu, lambda mu: range(mu.weight + 1))


def conjugated_ones_multiplier(r: int, x) -> Combination:
    """``refine_inv(stuffle(ones(r), refine(x)))``, the operator the block
    sums above decompose."""
    if r < 0:
        raise ValueError("the shift amount must be >= 0")
    return refine_inv(stuffle(Combination.term(ones(r)), refine(x)))


def verify_shift_factorization(r: int, mu) -> bool:
    """Check the three faces of the shifted-multiplication identity.

    The conjugated multiplier, its expansion through the shift operators,
    and the direct weight-split sum must agree.
    """
    mu = as_index(mu)
    lhs = conjugated_ones_multiplier(r, mu)
    middle = Combination.zero()
    for k in range(r + 1):
        middle = middle + ohno_bar_u(r - k, ohno_apply(Combination.term(ones(k)), mu))
    rhs = shifted_block_sum(r, mu)
    return lhs == middle == rhs


def verify_alternating_shift_sum(r: int, mu) -> bool:
    """Check the alternating resummation of the conjugated multipliers.

    ``sum((-1)**k * conjugated_ones_multiplier(r-k, ohno_u(k, mu)))`` must
    equal ``ohno_bar_u(r, mu)``.
    """
    mu = as_index(mu)
    total = Combination.zero()
    for k in range(r + 1):
        total = total + (-1) ** k * conjugated_ones_multiplier(r - k, ohno_u(k, mu))
    return total == ohno_bar_u(r, mu)
