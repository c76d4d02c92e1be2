import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mzv import lyndon
from mzv.indices import Combination, _index, _key, all_indices, refine, signed
from mzv.lyndon import (
    binary_lyndon_count,
    certified_rank,
    dimension_formula,
    enumerate_lyndon,
    in_stuffle_span,
    is_lyndon,
    lyndon_factors,
    moebius,
    psi2,
    triangular_rank,
    zagier_dim,
)
from mzv.products import _stuffle_keys
from mzv.qlinalg import RelationMatrix
from mzv.relations import duality_element, kawashima_basis, ohno_relations, stuffle_rows


def test_moebius_values():
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
    assert [moebius(n) for n in range(1, 17)] == expected
    with pytest.raises(ValueError):
        moebius(0)


def test_moebius_sum_over_divisors():
    # sum of moebius(d) over divisors d of n is 1 only at n = 1
    for n in range(1, 200):
        total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_binary_lyndon_count_small():
    assert [binary_lyndon_count(n) for n in range(1, 11)] == [
        2, 1, 2, 3, 6, 9, 18, 30, 56, 99,
    ]


def test_psi2_table():
    assert [psi2(m) for m in range(2, 16)] == [
        1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182,
    ]
    with pytest.raises(ValueError):
        psi2(1)


def test_psi2_matches_aperiodic_word_count():
    for m in range(2, 16):
        assert psi2(m) == binary_lyndon_count(m)


def test_necklace_identity():
    # binary words of length n factor uniquely into aperiodic necklaces:
    # sum over divisors d of n of d * (number of binary Lyndon words of
    # length d) equals 2^n
    for n in range(1, 16):
        total = sum(
            d * binary_lyndon_count(d) for d in range(1, n + 1) if n % d == 0
        )
        assert total == 2 ** n


def test_is_lyndon():
    assert is_lyndon((1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert is_lyndon((5,))
    assert not is_lyndon(())
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((1, 2, 1))


def test_enumerate_lyndon_small():
    assert enumerate_lyndon(2) == [(2,)]
    assert enumerate_lyndon(3) == [(1, 2), (3,)]
    assert enumerate_lyndon(4) == [(1, 1, 2), (1, 3), (4,)]
    assert enumerate_lyndon(5) == [
        (1, 1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 4), (2, 3), (5,),
    ]


def test_enumerate_lyndon_counts():
    for m in range(2, 16):
        words = enumerate_lyndon(m)
        assert len(words) == psi2(m)
        assert words == sorted(words)
        assert all(is_lyndon(w) for w in words)
        assert all(sum(w) == m for w in words)


def test_dimension_formula():
    assert [dimension_formula(k) for k in range(2, 12)] == [
        1, 2, 5, 10, 23, 46, 98, 200, 413, 838,
    ]


def test_zagier_dim():
    assert [zagier_dim(k) for k in range(1, 12)] == [
        0, 1, 3, 6, 14, 29, 60, 123, 249, 503, 1012,
    ]
    with pytest.raises(ValueError):
        zagier_dim(0)


def test_dimension_formula_complements_lyndon_count():
    for k in range(2, 16):
        assert dimension_formula(k) == 2 ** (k - 1) - psi2(k)
        # this relation count never exceeds the conjectured one
        assert dimension_formula(k) <= zagier_dim(k)


def test_lyndon_factors_are_non_increasing_lyndon_words_that_rebuild_the_index():
    assert lyndon_factors((1, 2, 1, 2)) == [(1, 2), (1, 2)]
    assert lyndon_factors((2, 1, 2)) == [(2,), (1, 2)]
    assert lyndon_factors(()) == []
    for k in range(1, 11):
        for mu in all_indices(k):
            factors = lyndon_factors(mu)
            assert all(map(is_lyndon, factors)), mu
            assert all(a >= b for a, b in zip(factors, factors[1:])), mu
            assert sum(factors, ()) == mu
            assert (len(factors) == 1) == is_lyndon(mu)


def test_triangular_rank_is_the_modular_rank_of_the_stuffle_rows():
    # the GF(2) elimination it replaced, kept as the oracle
    for k in range(2, 13):
        assert triangular_rank(k) == RelationMatrix(k, stuffle_rows(k)).modular_rank(), k


def test_triangular_rows_lead_with_their_index():
    # the bit test in triangular_rank against the largest decoded term by length, then parts
    for k in range(2, 11):
        for mu in all_indices(k):
            head, *rest = lyndon_factors(mu)
            if rest:
                row = _stuffle_keys(_key(head), _key(sum(rest, ())))
                assert max(map(_index, row), key=lambda nu: (len(nu), nu)) == mu, mu
                assert row[_key(mu)] > 0, mu


def test_triangular_rank_reaches_the_dimension_formula():
    for k in range(2, 15):
        assert triangular_rank(k) == dimension_formula(k), k


# rows of stuffle((2), (1,2)), whose leading term must be (2,1,2), planted wrong
PLANTED = {
    "dropped": "row.pop(w)",
    "negated": "row[w] = -row[w]",
    "longer": "row[_key((1, 1, 1, 1, 1))] = 1",
    "larger by parts": "row[_key((2, 2, 1))] = 1",
}
PLANT = """if True:
    from mzv import lyndon
    from mzv.indices import _key
    real = lyndon._stuffle_keys

    def planted(a, b):
        row, w = dict(real(a, b)), _key((2, 1, 2))
        if (a, b) == (_key((2,)), _key((1, 2))):
            %s
        return row

    lyndon._stuffle_keys = planted
    try:
        lyndon.triangular_rank(5)
    except ArithmeticError as exc:
        print(exc)
"""


@pytest.mark.parametrize("plant", sorted(PLANTED))
def test_a_planted_wrong_leading_term_raises_also_under_python_O(plant):
    message = "the stuffle row of the Lyndon factors of (2,1,2) does not lead with it\n"
    src = Path(lyndon.__file__).resolve().parents[1]
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", PLANT % PLANTED[plant]], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, message, ""), flags


def test_certified_rank_is_the_exact_rank_of_the_stuffle_rows():
    # the fraction-free elimination it replaced, kept as the oracle
    for k in range(2, 11):
        rank = RelationMatrix(k, stuffle_rows(k)).rank()
        assert certified_rank(k) == rank == dimension_formula(k), k


def _g(x):
    return refine(signed(x))


def test_in_stuffle_span_agrees_with_membership_certificates():
    # member() on the stuffle rows (queried with g(x)) and on the Kawashima rows (with x),
    # kept as the oracles: every Ohno and duality element, each also planted outside
    for k in range(2, 9):
        stuffle, kawashima = (RelationMatrix(k, stuffle_rows(k)),
                              RelationMatrix.from_relations(kawashima_basis(k)))
        lyndon_keys = [_key(mu) for mu in enumerate_lyndon(k)]
        elements = [rel.element for rel in ohno_relations(k)]
        elements += [duality_element(mu) for mu in all_indices(k)]
        queries = [_g(x) for x in elements]
        # one more term at a Lyndon index, where only its own kernel vector is non-zero
        outside = [y + Combination.term(_index(lyndon_keys[i % len(lyndon_keys)]))
                   for i, y in enumerate(queries)]
        # one coefficient of the element off by 1/500 (a self-dual reversal gives 0)
        off = [_g(x + Combination.term(x.support()[0], Fraction(1, 500))) for x in elements if x]
        inside = in_stuffle_span(k, queries + outside + off)
        assert inside == [stuffle.member(y) is not None for y in queries + outside + off], k
        assert inside == [kawashima.member(_g(y)) is not None
                          for y in queries + outside + off], k
        assert inside[:len(queries)] == [True] * len(queries), k
        assert inside[len(queries):] == [False] * (len(outside) + len(off)), k


def test_in_stuffle_span_refuses_a_query_wider_than_the_kernel_slots(monkeypatch):
    real = lyndon._kernel

    def planted(rows, keys, checked):  # slots sized for the stuffle rows alone
        return real(rows, keys, checked[:len(stuffle_rows(5))])

    monkeypatch.setattr(lyndon, "_kernel", planted)
    row = stuffle_rows(5)[0]
    assert in_stuffle_span(5, [row]) == [True]
    with pytest.raises(ArithmeticError, match="^query 1 does not fit the kernel's slots$"):
        in_stuffle_span(5, [row, row * 2**400])


# faults planted into the certified rank at weight 5, each with the message it must raise
PLANTED_KERNEL = {
    "row": ("""
    real = lyndon.stuffle_rows

    def planted(k):
        rows = real(k)
        i = list(relations._pairs(k)).index(((1,), (1, 2, 1)))
        terms = dict(rows[i]._terms)
        terms[_key((1, 1, 2, 1))] += 1
        rows[i] = Combination._of(terms)
        return rows

    lyndon.stuffle_rows = planted
""", "the kernel does not annihilate stuffle((1), (1,2,1))"),
    "unranked": ("""
    real = relations._pairs

    def planted(k):
        return [pair for pair in real(k) if pair != ((2,), (1, 2))]

    relations._pairs = lyndon._pairs = planted
""", "the stuffle row of the Lyndon factors of (2,1,2) is not among the rows ranked"),
    "slot": ("""
    real = lyndon._kernel

    def planted(rows, keys, checked):
        vec, bound, width = real(rows, keys, checked)
        vec[_key((2, 1, 2))] += 1 << width * 2
        return vec, bound, width

    lyndon._kernel = planted
""", "the kernel does not annihilate stuffle((1), (1,1,2))"),
    "bound": ("""
    real = lyndon._kernel

    def planted(rows, keys, checked):
        vec, bound, width = real(rows, keys, checked)
        bound[keys[0]] -= 1
        return vec, bound, width

    lyndon._kernel = planted
""", "the kernel entry at (5) is off its bound or slot"),
}
PLANT_KERNEL = """if True:
    from mzv import lyndon, relations
    from mzv.indices import Combination, _key, refine, signed
%s
    queries = [refine(signed(rel.element)) for rel in relations.ohno_relations(5)]
    for run in (lambda: lyndon.certified_rank(5), lambda: lyndon.in_stuffle_span(5, queries)):
        try:
            print(run())
        except ArithmeticError as exc:
            print(exc)
"""


@pytest.mark.parametrize("plant", sorted(PLANTED_KERNEL))
def test_a_planted_kernel_fault_raises_also_under_python_O(plant):
    code, message = PLANTED_KERNEL[plant]
    src = Path(lyndon.__file__).resolve().parents[1]
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", PLANT_KERNEL % code], cwd=src,
                              capture_output=True, text=True, timeout=60)
        # each raises before it answers, for the rank and for the containment query alike
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "%s\n" % message * 2, ""), flags
