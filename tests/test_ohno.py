import itertools
from fractions import Fraction
from operator import add

import pytest

from mzv.indices import (
    PHI,
    Combination,
    MultiIndex,
    _accumulate,
    _index,
    _key,
    all_indices,
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
    reverse,
    signed,
)
from mzv.ohno import (
    _ohno_pair,
    conjugated_ones_multiplier,
    ohno_apply,
    ohno_bar_apply,
    ohno_bar_u,
    ohno_bar_u_blocks,
    ohno_ones_blocks,
    ohno_u,
    ohno_u_blocks,
    shifted_block_sum,
    verify_alternating_shift_sum,
    verify_shift_factorization,
)
from mzv.products import stuffle


def term(*parts):
    return Combination.term(idx(*parts))


def test_empty_label_is_identity_and_empty_argument_dies():
    for w in range(0, 5):
        for mu in all_indices(w):
            assert ohno_apply(PHI, mu) == Combination.term(mu)
            assert ohno_bar_apply(PHI, mu) == Combination.term(mu)
    assert ohno_apply(idx(1), PHI) == Combination.zero()
    assert ohno_apply(idx(2, 1), PHI) == Combination.zero()


def test_single_increment_examples():
    assert ohno_apply(idx(1), idx(2, 1)) == term(3, 1) + term(2, 2)
    assert ohno_apply(idx(1, 1), idx(2, 1)) == term(3, 2)
    assert ohno_apply(idx(1), idx(2)) == term(3)
    assert ohno_apply(idx(2), idx(1, 1)) == term(3, 1) + term(1, 3)
    # label longer than the argument annihilates it
    assert ohno_apply(idx(1, 1, 1), idx(2, 1)) == Combination.zero()


def test_application_is_bilinear():
    label = Combination([((1,), 2), ((2,), 1)])
    arg = Combination([((2, 1), 1), ((3,), -1)])
    expected = (
        2 * ohno_apply(idx(1), idx(2, 1))
        - 2 * ohno_apply(idx(1), idx(3))
        + ohno_apply(idx(2), idx(2, 1))
        - ohno_apply(idx(2), idx(3))
    )
    assert ohno_apply(label, arg) == expected


def test_bar_variant_is_dual_conjugate():
    for wl in range(1, 4):
        for wa in range(1, 5):
            for label in all_indices(wl):
                for mu in all_indices(wa):
                    lhs = ohno_bar_apply(label, mu)
                    rhs = dual(ohno_apply(label, dual(mu)))
                    assert lhs == rhs


def test_bar_example():
    assert ohno_bar_apply(idx(1), idx(2)) == term(1, 2) + term(2, 1)


def test_label_composition_is_harmonic_product():
    # applying with v then w equals applying with v * w
    small = [idx(1), idx(2), idx(1, 1)]
    for v in small:
        for w in small:
            for wa in range(1, 5):
                for mu in all_indices(wa):
                    twice = ohno_apply(v, ohno_apply(w, mu))
                    assert twice == ohno_apply(stuffle(v, w), mu)


def test_label_composition_example():
    lhs = ohno_apply(idx(1), ohno_apply(idx(1), idx(2, 1)))
    assert lhs == term(4, 1) + term(2, 3) + 2 * term(3, 2)
    assert lhs == ohno_apply(idx(2), idx(2, 1)) + 2 * ohno_apply(idx(1, 1), idx(2, 1))


def test_commutes_with_sign():
    for wl in range(1, 3):
        for wa in range(1, 6):
            for label in all_indices(wl):
                for mu in all_indices(wa):
                    x = Combination.term(mu)
                    assert ohno_apply(label, signed(x)) == signed(ohno_apply(label, x))
                    lhs = ohno_bar_apply(label, signed(x))
                    rhs = (-1) ** label.weight * signed(ohno_bar_apply(label, x))
                    assert lhs == rhs


def test_reversal_transposes_label():
    for wl in range(1, 4):
        for wa in range(1, 6):
            for label in all_indices(wl):
                for mu in all_indices(wa):
                    x = Combination.term(mu)
                    lhs = ohno_apply(label, reverse(x))
                    rhs = reverse(ohno_apply(reverse(label), x))
                    assert lhs == rhs


def test_refined_label_operator():
    assert ohno_u(0, idx(2, 1)) == term(2, 1)
    assert ohno_u(1, idx(2)) == term(3)
    assert ohno_u(2, idx(1)) == term(3)
    assert ohno_u(1, idx(2, 1)) == term(3, 1) + term(2, 2)
    # the label is the full refinement class of the one-part index: each
    # weak composition of r is one term; phi included
    label = {r: refine(idx(r)) if r else Combination.term(PHI) for r in range(5)}
    for r in range(5):
        for wa in range(0, 8):
            for mu in all_indices(wa):
                assert ohno_u(r, mu) == ohno_apply(label[r], mu), (r, mu)
    half = Combination([((2, 1), Fraction(1, 2)), ((1, 2), -3), (PHI, Fraction(-5, 3))])
    cancelling = term(1, 2) - term(2, 1) + term(3) - term(1, 1, 1)
    for x in (half, cancelling, Combination.zero()):
        for r in range(5):
            assert ohno_u(r, x) == ohno_apply(label[r], x), (r, x)
    assert ohno_u(1, term(1, 2) - term(2, 1)) == term(1, 3) - term(3, 1)
    assert ohno_u(2, half) == ohno_apply(label[2], half) != 0


def _ohno_u_by_weak_compositions(r, x):
    """ohno_u as it was first computed on keys: every index decoded, each weak composition
    of r into its parts added to it, and each term keyed again."""
    data = {}
    for k, c in as_combination(x)._terms.items():
        nu = _index(k)
        picks = itertools.combinations_with_replacement(range(len(nu)), r)
        _accumulate(data, ((_key(map(add, nu, map(p.count, range(len(nu))))), c) for p in picks))
    return Combination._of(data)


def test_key_shift_matches_the_weak_compositions():
    half = Combination([((2, 1), Fraction(1, 2)), ((1, 2), -3), (PHI, Fraction(-5, 3))])
    cancelling = term(1, 2) - term(2, 1) + term(3) - term(1, 1, 1)
    for r in range(7):
        for w in range(10):
            for mu in all_indices(w):
                assert ohno_u(r, mu) == _ohno_u_by_weak_compositions(r, mu), (r, mu)
        for x in (half, cancelling, Combination.zero()):
            assert ohno_u(r, x) == _ohno_u_by_weak_compositions(r, x), (r, x)


def _ohno_pair_by_positions(label, key):
    """_ohno_pair as it was first computed on keys: both indices decoded, the label's parts
    added at every increasing choice of positions, and each term keyed again."""
    parts, nu = _index(label), _index(key)
    out = {}
    for positions in itertools.combinations(range(len(nu)), len(parts)):
        shifted = list(nu)
        for part, pos in zip(parts, positions):
            shifted[pos] += part
        k = _key(shifted)
        out[k] = out.get(k, 0) + 1
    return out


def test_key_pair_shift_matches_the_position_choices():
    for wl in range(5):
        for label in all_indices(wl):
            for w in range(8):
                for mu in all_indices(w):
                    want = _ohno_pair_by_positions(_key(label), _key(mu))
                    assert _ohno_pair(_key(label), _key(mu)) == want, (label, mu)
                    assert ohno_apply(label, mu) == Combination._of(want), (label, mu)
    x = Combination([((2, 1), Fraction(1, 2)), ((1, 2), -3), (PHI, Fraction(-5, 3))])
    label = Combination([((1,), 2), ((1, 1), -1), (PHI, 1)])
    want = Combination.zero()
    for (l, c), (k, d) in itertools.product(label._terms.items(), x._terms.items()):
        want = want + c * d * Combination._of(_ohno_pair_by_positions(l, k))
    assert ohno_apply(label, x) == want != 0


def _list_split_sum(r, mu, splits, pieces):
    """The list-split block sums as first computed on tuples: the cuts ``splits(len(mu))``
    of the part list into r+1 blocks, ``pieces(blocks)`` glued by merge_concat."""
    mu = as_index(mu)
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


def _weight_split_sum(r, mu, cut_positions):
    """The weight-split block sums as first computed on tuples: ``r`` cuts, repeats allowed,
    from ``cut_positions(mu)``, the blocks split by ``partition`` and concatenated after
    raising the last part of every block but the final one."""
    mu = as_index(mu)
    if not mu:
        return Combination.zero() if r else Combination.term(PHI)

    def term(cuts):
        bounds = (0,) + cuts + (mu.weight,)
        *blocks, last = partition(mu, [b - a for a, b in zip(bounds, bounds[1:])])
        return MultiIndex(sum(map(raise_last, blocks), ()) + last)

    cuts = itertools.combinations_with_replacement(cut_positions(mu), r)
    return Combination((term(c), 1) for c in cuts)


TUPLE_BLOCKS = {
    ohno_ones_blocks: lambda r, mu: _list_split_sum(
        r, mu, lambda q: itertools.combinations(range(1, q + 1), r),
        lambda blocks: [blocks[0]] + [concat(idx(1), block) for block in blocks[1:]]),
    ohno_u_blocks: lambda r, mu: _list_split_sum(
        r, mu, lambda q: itertools.combinations_with_replacement(range(q), r),
        lambda blocks: [concat(block, idx(1)) for block in blocks[:-1]] + [blocks[-1]]),
    ohno_bar_u_blocks: lambda r, mu: _weight_split_sum(
        r, mu, lambda mu: [0] + [c for c in range(1, mu.weight) if not _key(mu) >> c - 1 & 1]),
    shifted_block_sum: lambda r, mu: _weight_split_sum(r, mu, lambda mu: range(mu.weight + 1)),
}


@pytest.mark.parametrize("formula", TUPLE_BLOCKS, ids=lambda f: f.__name__)
def test_key_block_formulas_match_the_tuple_splits(formula):
    for w in range(9):
        for mu in all_indices(w):
            for r in range(5):
                assert formula(r, mu) == TUPLE_BLOCKS[formula](r, mu), (r, mu)
    with pytest.raises(ValueError, match="^the shift amount must be >= 0$"):
        formula(-1, idx(2, 1))


def test_bar_refined_label_is_dual_conjugate():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                assert ohno_bar_u(r, mu) == dual(ohno_u(r, dual(mu)))
    assert ohno_bar_u(1, idx(2, 1)) == term(1, 2, 1) + term(2, 1, 1)


def test_ones_label_block_formula():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                direct = ohno_apply(ones(r), mu)
                assert ohno_ones_blocks(r, mu) == direct


def test_refined_label_block_formula():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                assert ohno_u_blocks(r, mu) == ohno_u(r, mu)


def test_bar_refined_label_block_formula():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                assert ohno_bar_u_blocks(r, mu) == ohno_bar_u(r, mu)


def test_refined_label_distributes_over_concat():
    for r in range(0, 4):
        for mu, nu in itertools.product(all_indices(2) + all_indices(3), repeat=2):
            lhs = ohno_u(r, concat(mu, nu))
            rhs = Combination.zero()
            for k in range(r + 1):
                rhs = rhs + concat(ohno_u(k, mu), ohno_u(r - k, nu))
            assert lhs == rhs


def test_bar_refined_label_distributes_over_merge():
    for r in range(0, 4):
        for mu, nu in itertools.product(all_indices(2) + all_indices(3), repeat=2):
            lhs = ohno_bar_u(r, merge_concat(mu, nu))
            rhs = Combination.zero()
            for k in range(r + 1):
                rhs = rhs + merge_concat(ohno_bar_u(k, mu), ohno_bar_u(r - k, nu))
            assert lhs == rhs


def test_leading_one_passes_through():
    for wl in range(1, 4):
        for wa in range(1, 5):
            for label in all_indices(wl):
                for mu in all_indices(wa):
                    lhs = ohno_apply(label, merge_concat(idx(1), mu))
                    rhs = merge_concat(idx(1), ohno_apply(label, mu))
                    assert lhs == rhs
                    lhs = ohno_bar_apply(label, concat(idx(1), mu))
                    rhs = concat(idx(1), ohno_bar_apply(label, mu))
                    assert lhs == rhs


def test_shifted_block_sum_small_case():
    # weight splits of (2,1) into two blocks: (2)|(1), (1)|(1,1),
    # (2,1)|phi and phi|(2,1); the first block gets its last part raised
    expected = term(3, 1) + term(2, 1, 1) + term(2, 2) + term(1, 2, 1)
    assert shifted_block_sum(1, idx(2, 1)) == expected
    assert signed(expected) == term(3, 1) - term(2, 1, 1) + term(2, 2) - term(1, 2, 1)


def test_shifted_block_sum_equals_conjugated_multiplier():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                assert shifted_block_sum(r, mu) == conjugated_ones_multiplier(r, mu)


def test_conjugated_multiplier_expands_into_operator_chain():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                assert verify_shift_factorization(r, mu)


@pytest.mark.parametrize("check", [verify_shift_factorization, verify_alternating_shift_sum])
def test_shift_identity_checks_refuse_phi(check):
    # the shift operators send phi to 0 but the conjugated multiplier to ones(r)
    for r in range(4):
        with pytest.raises(ValueError, match="non-empty"):
            check(r, PHI)


def test_operator_chain_three_way_identity_explicit():
    # the same element three ways: conjugated multiplication, the
    # operator sum, and the raised block sum
    for r in range(0, 3):
        for wa in range(1, 5):
            for mu in all_indices(wa):
                conj = refine_inv(stuffle(ones(r), refine(Combination.term(mu))))
                opsum = Combination.zero()
                for k in range(r + 1):
                    opsum = opsum + ohno_bar_u(r - k, ohno_apply(ones(k), mu))
                blocks = shifted_block_sum(r, mu)
                assert conj == opsum == blocks


def test_alternating_operator_sum_collapses():
    for r in range(0, 4):
        for wa in range(1, 6):
            for mu in all_indices(wa):
                assert verify_alternating_shift_sum(r, mu)


def test_alternating_sum_explicit():
    # sum_k (-1)^k (conjugated multiplier at r-k) after the refined-label
    # operator at k telescopes to the bar refined-label operator
    for r in range(0, 3):
        for wa in range(1, 5):
            for mu in all_indices(wa):
                total = Combination.zero()
                for k in range(r + 1):
                    inner = ohno_u(k, mu)
                    total = total + (-1) ** k * conjugated_ones_multiplier(r - k, inner)
                assert total == ohno_bar_u(r, mu)
