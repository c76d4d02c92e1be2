import math
from functools import lru_cache

import pytest

from mzv import products
from mzv.indices import (
    PHI,
    Combination,
    MultiIndex,
    all_indices,
    as_combination,
    coarsen,
    concat,
    idx,
    merge_concat,
    raise_last,
    refine,
    signed,
)
from mzv.products import (
    circ,
    circ_bar,
    enumerate_stuffle,
    stuffle,
    stuffle_bar,
    stuffle_bar_via_matrices,
    stuffle_via_matrices,
)


def _pairs(total_weight):
    for wa in range(1, total_weight):
        for wb in range(1, total_weight - wa + 1):
            for mu in all_indices(wa):
                for nu in all_indices(wb):
                    yield mu, nu


def test_stuffle_matrix_enumeration_count():
    mats = enumerate_stuffle(idx(1), idx(2, 3))
    assert len(mats) == 5
    assert sorted(tuple(a + b for a, b in cols) for cols in mats) == [
        (1, 2, 3),
        (2, 1, 3),
        (2, 3, 1),
        (2, 4),
        (3, 3),
    ]
    widths = sorted(len(cols) for cols in mats)
    assert widths == [2, 2, 3, 3, 3]


def test_enumerated_matrices_recover_both_factors():
    # every pair of total weight <= 7, phi on either side included
    for w in range(8):
        for a in range(w + 1):
            for mu in all_indices(a):
                for nu in all_indices(w - a):
                    mats = enumerate_stuffle(mu, nu)
                    p, q = len(mu), len(nu)
                    delannoy = sum(math.comb(p, i) * math.comb(q, i) * 2**i
                                   for i in range(min(p, q) + 1))
                    assert len(set(mats)) == len(mats) == delannoy, (mu, nu)
                    for cols in mats:
                        assert (0, 0) not in cols, (mu, nu, cols)
                        assert tuple(t for t, _ in cols if t) == mu
                        assert tuple(b for _, b in cols if b) == nu


def test_signed_matrix_sum_is_the_sign_twist_of_the_product():
    for mu, nu in _pairs(7):
        assert stuffle_bar_via_matrices(mu, nu) == signed(stuffle(signed(mu), signed(nu)))


def test_stuffle_examples():
    assert stuffle(idx(1), idx(1)) == Combination([((1, 1), 2), ((2,), 1)])
    assert stuffle(idx(1), idx(2, 3)) == Combination(
        [((1, 2, 3), 1), ((2, 1, 3), 1), ((2, 3, 1), 1), ((3, 3), 1), ((2, 4), 1)]
    )
    assert stuffle(idx(2), idx(2)) == Combination([((2, 2), 2), ((4,), 1)])
    assert stuffle(PHI, idx(2, 1)) == Combination.term((2, 1))
    assert stuffle(idx(2, 1), PHI) == Combination.term((2, 1))


def test_stuffle_bar_examples():
    assert stuffle_bar(idx(1), idx(1)) == Combination([((1, 1), 2), ((2,), -1)])
    assert stuffle_bar(idx(1), idx(2, 3)) == Combination(
        [((1, 2, 3), 1), ((2, 1, 3), 1), ((2, 3, 1), 1), ((3, 3), -1), ((2, 4), -1)]
    )
    assert stuffle_bar(PHI, idx(2)) == Combination.term((2,))


@lru_cache(maxsize=None)
def _tuple_stuffle(mu, nu):
    # the last-part recursion on index tuples: an oracle for the mark-key kernel
    if not mu:
        return Combination.term(nu)
    if not nu:
        return Combination.term(mu)
    a, b = mu[-1], nu[-1]
    mu0, nu0 = MultiIndex(mu[:-1]), MultiIndex(nu[:-1])
    return (concat(_tuple_stuffle(mu0, nu), idx(a)) + concat(_tuple_stuffle(mu, nu0), idx(b))
            + concat(_tuple_stuffle(mu0, nu0), idx(a + b)))


def test_recursion_agrees_with_matrix_enumeration():
    # every pair of total weight <= 10, phi on either side included
    for w in range(11):
        for a in range(w + 1):
            for mu in all_indices(a):
                for nu in all_indices(w - a):
                    expected = stuffle_via_matrices(mu, nu)
                    assert stuffle(mu, nu) == _tuple_stuffle(mu, nu) == expected, (mu, nu)
    for mu, nu in _pairs(7):
        assert stuffle_bar(mu, nu) == stuffle_bar_via_matrices(mu, nu)


def _tuple_matrix_sum(mu, nu, merged):
    """The matrix sums as they were first computed: each matrix a tuple of
    columns, its term decoded from the column sums."""
    out = Combination()
    for cols in enumerate_stuffle(mu, nu):
        merges = sum(1 for a, b in cols if a and b)
        out = out + Combination.term(tuple(a + b for a, b in cols), merged**merges)
    return out


def test_matrix_sums_on_keys_match_the_tuple_enumeration():
    # every pair of total weight <= 8, phi on either side included
    for w in range(9):
        for a in range(w + 1):
            for mu in all_indices(a):
                for nu in all_indices(w - a):
                    assert stuffle_via_matrices(mu, nu) == _tuple_matrix_sum(mu, nu, 1), (mu, nu)
                    assert stuffle_bar_via_matrices(mu, nu) == _tuple_matrix_sum(mu, nu, -1)


def test_reversal_telescope_fails_on_a_planted_wrong_product(monkeypatch):
    from mzv import relations

    keys = relations._stuffle_keys
    assert relations.verify_reversal_telescope(idx(2, 1, 3))

    def planted(k, l):
        out = keys(k, l)
        if (k, l) == (0b1, 0b10010):  # the head (1) times the tail (2,3)
            out = dict(out)  # the memo's own dict stays as it is
            out[0b1000] = out.get(0b1000, 0) + 1
        return out

    monkeypatch.setattr(relations, "_stuffle_keys", planted)
    assert not relations.verify_reversal_telescope(idx(1, 2, 3))
    assert relations.verify_reversal_telescope(idx(2, 1, 3))  # never multiplies that pair
    monkeypatch.undo()
    assert relations.verify_reversal_telescope(idx(1, 2, 3))


def test_stuffle_cache_clear_empties_every_products_cache():
    from mzv.relations import stuffle_rows

    stuffle_rows(10)
    circ_bar(idx(1, 2), idx(2))
    caches = [f for f in vars(products).values()
              if hasattr(f, "cache_info") and f.__module__ == products.__name__]
    assert {f.__name__ for f in caches} == {"_stuffle", "_stuffle_bar"}
    assert all(f.cache_info().currsize for f in caches)
    products.stuffle_cache_clear()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)


def test_stuffle_commutative_and_associative():
    for mu, nu in _pairs(6):
        assert stuffle(mu, nu) == stuffle(nu, mu)
        assert stuffle_bar(mu, nu) == stuffle_bar(nu, mu)
    for mu in all_indices(2):
        for nu in all_indices(2):
            for la in all_indices(2):
                assert stuffle(stuffle(mu, nu), la) == stuffle(mu, stuffle(nu, la))
                assert stuffle_bar(stuffle_bar(mu, nu), la) == stuffle_bar(
                    mu, stuffle_bar(nu, la)
                )


def test_stuffle_term_count():
    # interleavings of p and q slots with j of them merged
    def expected(p, q):
        return sum(
            math.factorial(p + q - j)
            // (math.factorial(p - j) * math.factorial(q - j) * math.factorial(j))
            for j in range(min(p, q) + 1)
        )

    for mu, nu in _pairs(7):
        total = sum(len(enumerate_stuffle(mu, nu)) for _ in [0])
        assert total == expected(mu.length, nu.length)
        with_multiplicity = sum(c for _, c in stuffle(mu, nu).terms())
        assert with_multiplicity == total


def test_coarsen_turns_signed_product_into_plain_product():
    for mu, nu in _pairs(7):
        assert coarsen(stuffle_bar(mu, nu)) == stuffle(coarsen(mu), coarsen(nu))


def test_refine_coarsen_against_concat_products():
    for mu, nu in _pairs(7):
        assert refine(concat(mu, nu)) == concat(refine(mu), refine(nu))
        assert refine(merge_concat(mu, nu)) == concat(refine(mu), refine(nu)) + merge_concat(
            refine(mu), refine(nu)
        )
        assert coarsen(merge_concat(mu, nu)) == merge_concat(coarsen(mu), coarsen(nu))
        assert coarsen(concat(mu, nu)) == concat(coarsen(mu), coarsen(nu)) + merge_concat(
            coarsen(mu), coarsen(nu)
        )


def test_drop_last_part_recursion():
    # the product satisfies the standard last-part recursion
    for mu, nu in _pairs(7):
        head_mu = MultiIndex(mu[:-1])
        head_nu = MultiIndex(nu[:-1])
        expanded = (
            concat(stuffle(head_mu, as_combination(nu)), idx(mu[-1]))
            + concat(stuffle(as_combination(mu), head_nu), idx(nu[-1]))
            + concat(stuffle(head_mu, head_nu), idx(mu[-1] + nu[-1]))
        )
        assert stuffle(mu, nu) == expanded


def test_coarsen_expansion_by_tail_sums():
    for w in range(1, 8):
        for mu in all_indices(w):
            expected = Combination.zero()
            for i in range(mu.length):
                head = coarsen(idx(*mu[:i]))
                expected = expected + concat(head, idx(sum(mu[i:])))
            assert coarsen(mu) == expected


def test_product_of_coarsenings_expands_by_tail_sums():
    for mu, nu in _pairs(6):
        p, q = mu.length, nu.length
        total = Combination.zero()
        for i in range(p):
            total = total + concat(
                stuffle(coarsen(idx(*mu[:i])), coarsen(nu)), idx(sum(mu[i:]))
            )
        for j in range(q):
            total = total + concat(
                stuffle(coarsen(mu), coarsen(idx(*nu[:j]))), idx(sum(nu[j:]))
            )
        for i in range(p):
            for j in range(q):
                total = total + concat(
                    stuffle(coarsen(idx(*mu[:i])), coarsen(idx(*nu[:j]))),
                    idx(sum(mu[i:]) + sum(nu[j:])),
                )
        assert stuffle(coarsen(mu), coarsen(nu)) == total


def test_circ_examples():
    assert circ(idx(2), idx(2)) == Combination.term((4,))
    assert circ(idx(1), idx(1)) == Combination.term((2,))
    assert circ(idx(1), idx(1, 1)) == Combination.term((1, 2))
    assert circ(idx(2, 1), idx(1)) == Combination.term((2, 2))
    assert circ(idx(1, 1), idx(1, 1)) == Combination(
        [((1, 1, 2), 2), ((2, 2), 1)]
    )
    assert circ_bar(idx(1, 1), idx(1, 1)) == Combination(
        [((1, 1, 2), 2), ((2, 2), -1)]
    )


def test_circ_fuses_last_parts():
    # mu (*) nu = (mu' * nu') # (mu_p + nu_q), and the signed variant
    for mu, nu in _pairs(7):
        fused = idx(mu[-1] + nu[-1])
        head_mu, head_nu = MultiIndex(mu[:-1]), MultiIndex(nu[:-1])
        assert circ(mu, nu) == concat(stuffle(head_mu, head_nu), fused)
        assert circ_bar(mu, nu) == concat(stuffle_bar(head_mu, head_nu), fused)


def test_circ_on_keys_matches_the_tuple_definition():
    # every non-empty pair of total weight <= 8: the matrix-sum product of the
    # heads, each term with the fused last part appended
    pool = [mu for w in range(1, 8) for mu in all_indices(w)]
    for mu in pool:
        for nu in pool:
            if mu.weight + nu.weight > 8:
                continue
            fused = (mu[-1] + nu[-1],)
            for product, head in (circ, stuffle_via_matrices), (circ_bar, stuffle_bar_via_matrices):
                want = Combination((term + fused, c) for term, c in head(mu[:-1], nu[:-1]).terms())
                assert product(mu, nu) == want, (product.__name__, mu, nu)


def test_circ_with_single_one_raises_last():
    for w in range(1, 7):
        for mu in all_indices(w):
            assert circ(mu, idx(1)) == Combination.term(raise_last(mu))


def test_circ_rejects_empty():
    with pytest.raises(ValueError):
        circ(PHI, idx(1))
    with pytest.raises(ValueError):
        circ_bar(idx(1), PHI)


def test_coarsen_turns_signed_circ_into_plain_circ():
    for mu, nu in _pairs(7):
        assert coarsen(circ_bar(mu, nu)) == circ(coarsen(mu), coarsen(nu))


def test_products_are_bilinear():
    x = Combination([((1,), 2), ((2,), -1)])
    y = Combination([((1, 1), 1), ((3,), 3)])
    expected = Combination.zero()
    for mu, a in x.terms():
        for nu, b in y.terms():
            expected = expected + a * b * stuffle(mu, nu)
    assert stuffle(x, y) == expected
    assert circ(x, y) == sum(
        (a * b * circ(mu, nu) for mu, a in x.terms() for nu, b in y.terms()),
        Combination.zero(),
    )
