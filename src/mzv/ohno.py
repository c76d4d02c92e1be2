"""Weight-raising shift operators on multi-index combinations.

For a label ``mu`` with ``p`` parts and an argument ``nu`` with ``q`` parts,
``ohno_apply(mu, nu)`` sums, over all ways to pick ``p`` of the ``q``
positions in increasing order, the index obtained by adding ``mu_1, .., mu_p``
to the chosen parts.  The empty label acts as the identity, any non-empty
label annihilates phi, and everything is extended bilinearly.  Composing two
of these operators multiplies their labels harmonically.  On mark keys the
last part of ``nu`` takes the label's last part or nothing, recursively.

``ohno_bar_apply`` is the same operator conjugated by ``dual``.  The label
``refine((r,))``, every composition of ``r``, adds each weak composition of
``r`` into ``len(nu)`` parts to ``nu`` once (:func:`ohno_u`).  On mark keys it
recurses on the last part, which takes ``e`` of ``r`` while the head is shifted
by ``r - e``: every term is a distinct key of multiplicity 1, and a bounded
cache, emptied by ``relations.ohno_relations``, holds the shifts.  For the
labels ``ones(r)`` and ``refine((r,))`` both operators admit closed
block-splitting formulas -- sums over the cuts of the argument into
consecutive blocks, each a set of positions where one unit of weight goes into
the mark key -- which cross-check the generic path.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement as multisets, repeat

from .indices import (
    Combination,
    _accumulate,
    _bilinear,
    _key,
    as_combination,
    as_index,
    dual,
    ones,
    refine,
    refine_inv,
)
from .products import stuffle


@lru_cache(maxsize=1 << 12)
def _ohno_pair(label: int, key: int) -> dict:
    """The shift of the index with mark key ``key`` by the label with key ``label``: the
    last part takes the label's last part, or nothing, and the head takes the rest."""
    if not label or not key:
        return {} if label else {key: 1}
    head, top = key ^ 1 << key.bit_length() - 1, 1 << label.bit_length() + key.bit_length() - 1
    # the two branches' heads differ in weight, so no key comes from both
    out = {k | top: c for k, c in _ohno_pair(label ^ 1 << label.bit_length() - 1, head).items()}
    out.update((k | top, c) for k, c in _ohno_pair(label, head).items())
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
        _accumulate(data, zip(_shifts(k, r), repeat(c)))
    return Combination._of(data)


def ohno_bar_u(r: int, x) -> Combination:
    """Dual-conjugated :func:`ohno_u`."""
    return dual(ohno_u(r, dual(x)))


# ---------------------------------------------------------------------------
# block-splitting formulas
#
# r cuts of the weight, repeats allowed, split an index into r+1 blocks: a cut
# at a mark falls between two parts, any other cut divides a part.  Each formula
# glues the blocks back with one unit of weight at each cut, which goes into the
# key after the cut's position c.  Where the unit ends a part, the mark at c
# moves onto it, raising the last part of the block before the cut (phi becomes
# (1)); otherwise the unit fuses into the first part of the block after it.


def _split_sum(r: int, mu, cuts, ends: bool) -> Combination:
    """Sum over the cut sets ``cuts(key)`` of ``mu``'s mark key of the key with one unit of
    weight inserted after every cut; with ``ends`` the unit ends a part.  The cuts go in right
    to left, since a unit moves only the marks above its cut."""
    if r < 0:
        raise ValueError("the shift amount must be >= 0")
    key = _key(as_index(mu))
    if not key:
        return Combination._of({} if r else {0: 1})
    out = {}
    for cut in cuts(key):
        k = key
        for c in reversed(cut):
            k = k & (1 << c) - 1 >> ends | ends << c | k >> c << c + 1
        out[k] = out.get(k, 0) + 1
    return Combination._of(out)


def _inner(key: int, marked: bool) -> list[int]:
    """The weight positions strictly inside ``key``'s weight that are marks, or are not."""
    return [c for c in range(1, key.bit_length()) if (key >> c - 1 & 1) == marked]


def ohno_ones_blocks(r: int, mu) -> Combination:
    """Block formula for the label ``ones(r)``.

    Cut the part list into blocks ``b0 # b1 # .. # br`` with ``b0..b(r-1)``
    non-empty; each term glues ``b0, (1)#b1, .., (1)#br`` by merge_concat.
    The cuts are ``r`` distinct marks, the top one included.
    """
    return _split_sum(r, mu, lambda k: combinations(_inner(k, True) + [k.bit_length()], r), True)


def ohno_u_blocks(r: int, mu) -> Combination:
    """Block formula for the label ``refine((r,))``.

    Cut the part list into blocks, the first ``r`` possibly empty and the
    last non-empty; each term glues ``b0#(1), .., b(r-1)#(1), br`` by
    merge_concat.  The cuts are ``r`` of 0 and the marks below the top, with repeats.
    """
    return _split_sum(r, mu, lambda k: multisets([0] + _inner(k, True), r), False)


def ohno_bar_u_blocks(r: int, mu) -> Combination:
    """Dual-side block formula for the label ``refine((r,))``.

    Cut the weight at 0 or inside a part (repeats give empty blocks), keep the
    final block non-empty, raise the last part of every other block, and
    concatenate.
    """
    return _split_sum(r, mu, lambda k: multisets([0] + _inner(k, False), r), True)


def shifted_block_sum(r: int, mu) -> Combination:
    """Weight-split formula for ``refine_inv . mult(ones(r)) . refine``.

    Like :func:`ohno_bar_u_blocks` but the weight may be cut anywhere
    (including part boundaries and the very end, so the final block may be
    empty too).

    >>> shifted_block_sum(1, (2, 1))
    (1,2,1) + (2,1,1) + (2,2) + (3,1)
    """
    return _split_sum(r, mu, lambda k: multisets(range(k.bit_length() + 1), r), True)


def conjugated_ones_multiplier(r: int, x) -> Combination:
    """``refine_inv(stuffle(ones(r), refine(x)))``, the operator the block
    sums above decompose."""
    if r < 0:
        raise ValueError("the shift amount must be >= 0")
    return refine_inv(stuffle(Combination.term(ones(r)), refine(x)))


def verify_shift_factorization(r: int, mu) -> bool:
    """Check the three faces of the shifted-multiplication identity.

    The conjugated multiplier, its expansion through the shift operators,
    and the direct weight-split sum must agree.  ``mu`` must be non-empty: the
    shift operators send phi to 0 but the multiplier sends it to ``ones(r)``.
    """
    mu = as_index(mu)
    if not mu:
        raise ValueError("the index must be non-empty")
    lhs = conjugated_ones_multiplier(r, mu)
    middle = Combination.zero()
    for k in range(r + 1):
        middle = middle + ohno_bar_u(r - k, ohno_apply(Combination.term(ones(k)), mu))
    rhs = shifted_block_sum(r, mu)
    return lhs == middle == rhs


def verify_alternating_shift_sum(r: int, mu) -> bool:
    """Check the alternating resummation of the conjugated multipliers.

    ``sum((-1)**k * conjugated_ones_multiplier(r-k, ohno_u(k, mu)))`` must
    equal ``ohno_bar_u(r, mu)``.  ``mu`` must be non-empty, as above.
    """
    mu = as_index(mu)
    if not mu:
        raise ValueError("the index must be non-empty")
    total = Combination.zero()
    for k in range(r + 1):
        total = total + (-1) ** k * conjugated_ones_multiplier(r - k, ohno_u(k, mu))
    return total == ohno_bar_u(r, mu)
