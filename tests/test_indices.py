import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

from mzv.indices import (
    PHI,
    Combination,
    MultiIndex,
    _index,
    _key,
    all_indices,
    as_combination,
    coarsen,
    coarsen_inv,
    concat,
    dual,
    format_combination,
    format_index,
    idx,
    merge_concat,
    ones,
    parse_combination,
    parse_index,
    partition,
    raise_last,
    refine,
    refine_inv,
    reverse,
    signed,
)
from mzv.products import stuffle
from mzv.relations import _pairs, kawashima_basis


def test_multiindex_basics():
    mu = idx(1, 2, 3)
    assert mu.weight == 6
    assert mu.length == 3
    assert PHI.weight == 0 and PHI.length == 0
    assert MultiIndex([2, 2]) == (2, 2)
    assert ones(3) == (1, 1, 1)
    assert ones(0) == PHI


def test_multiindex_rejects_bad_parts():
    for bad in [(0,), (-1,), (1.5,), (True,), ("2",)]:
        with pytest.raises((ValueError, TypeError)):
            MultiIndex(bad)


def test_all_indices_counts_and_order():
    assert all_indices(0) == [PHI]
    assert all_indices(1) == [(1,)]
    assert all_indices(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for w in range(1, 10):
        xs = all_indices(w)
        assert len(xs) == 2 ** (w - 1)
        assert xs == sorted(xs)
        assert all(mu.weight == w for mu in xs)


def test_dual_examples():
    assert dual(idx(1, 2, 3)) == (2, 2, 1, 1)
    assert dual(idx(2, 2, 2)) == (1, 2, 2, 1)
    assert dual(idx(4, 1, 1)) == (1, 1, 1, 3)
    assert dual(idx(2)) == (1, 1)
    assert dual(idx(3)) == (1, 1, 1)
    assert dual(idx(1, 2)) == (2, 1)
    assert dual(PHI) == PHI


def test_dual_involution_and_length():
    # length of an index plus length of its dual is weight + 1
    for w in range(1, 9):
        for mu in all_indices(w):
            assert dual(dual(mu)) == mu
            assert mu.length + dual(mu).length == w + 1


def test_refines():
    # mu refines nu exactly when mu is a term of refine(nu), and then nu is a
    # term of coarsen(mu)
    def refines(mu, nu):
        fine = mu in refine(nu).support()
        assert fine == (nu in coarsen(mu).support())
        return fine

    assert refines(idx(1, 1, 1), idx(3))
    assert refines(idx(1, 2), idx(3))
    assert not refines(idx(3), idx(1, 2))
    assert refines(idx(2, 1), idx(2, 1))
    assert not refines(idx(2, 1), idx(1, 2))
    assert not refines(idx(2), idx(3))  # weight mismatch
    assert refines(PHI, PHI)


def test_combination_arithmetic():
    x = Combination.term((2,), 2) + Combination.term((1, 1), Fraction(1, 2))
    y = x - Combination.term((2,), 2)
    assert y.coefficient((1, 1)) == Fraction(1, 2)
    assert y.coefficient((2,)) == 0
    assert (0 * x).is_zero()
    assert x == x + Combination.zero()
    assert -(-x) == x
    assert (Fraction(2) * x).coefficient((1, 1)) == 1
    assert x.homogeneous_weight() == 2
    with pytest.raises(ValueError):
        (x + Combination.term((3,))).homogeneous_weight()


def test_scalar_multiples_take_only_exact_scalars():
    x = Combination.term((1,))
    assert format_combination(3 * x) == "3*(1)"
    assert format_combination(x * Fraction(1, 3)) == "1/3*(1)"
    assert type((Fraction(4, 2) * x).coefficient((1,))) is int
    # the constructor and term() reject a float, and so does a product
    for product in (lambda: 0.1 * x, lambda: x * 0.5, lambda: True * x):
        with pytest.raises(TypeError):
            product()


def test_combination_terms_sorted_canonically():
    x = Combination([((2,), 1), ((1, 1), 1), ((1, 1, 1), 1)])
    assert [mu for mu, _ in x.terms()] == [(1, 1), (1, 1, 1), (2,)]


def test_refine_coarsen_examples():
    assert refine(idx(3)) == Combination(
        [((3,), 1), ((1, 2), 1), ((2, 1), 1), ((1, 1, 1), 1)]
    )
    assert refine(idx(1, 1)) == Combination.term((1, 1))
    assert coarsen(idx(1, 1)) == Combination([((1, 1), 1), ((2,), 1)])
    assert coarsen(idx(3)) == Combination.term((3,))
    assert refine(PHI) == Combination.term(PHI)


def test_signed_conjugation_inverts_refine_and_coarsen():
    for w in range(1, 8):
        for mu in all_indices(w):
            x = Combination.term(mu)
            assert refine_inv(refine(x)) == x
            assert refine(refine_inv(x)) == x
            assert coarsen_inv(coarsen(x)) == x
            assert coarsen(coarsen_inv(x)) == x


def test_operator_interplay_with_dual():
    # conjugating coarsen by dual gives refine, and the signed variants
    for w in range(1, 8):
        for mu in all_indices(w):
            x = Combination.term(mu)
            assert dual(coarsen(dual(x))) == refine(x)
            assert coarsen(dual(coarsen_inv(x))) == -refine(signed(x))
            assert refine_inv(dual(refine(x))) == -signed(coarsen(x))


def test_operators_commute_with_reverse():
    for w in range(1, 8):
        for mu in all_indices(w):
            x = Combination.term(mu)
            assert dual(reverse(x)) == reverse(dual(x))
            assert signed(reverse(x)) == reverse(signed(x))
            assert refine(reverse(x)) == reverse(refine(x))
            assert coarsen(reverse(x)) == reverse(coarsen(x))


def test_reverse():
    assert reverse(idx(1, 2, 3)) == (3, 2, 1)
    assert reverse(PHI) == PHI
    x = Combination([((1, 2), 1), ((3,), 2)])
    assert reverse(x) == Combination([((2, 1), 1), ((3,), 2)])


def test_concat_and_merge():
    assert concat(idx(1, 2), idx(3)) == Combination.term((1, 2, 3))
    assert concat(PHI, idx(3)) == Combination.term((3,))
    assert merge_concat(idx(1, 2), idx(3)) == Combination.term((1, 5))
    assert merge_concat(idx(2), PHI) == Combination.term((2,))
    assert merge_concat(PHI, idx(2)) == Combination.term((2,))


def test_dual_swaps_concat_and_merge():
    for wa in range(1, 5):
        for wb in range(1, 5):
            for mu in all_indices(wa):
                for nu in all_indices(wb):
                    lhs = dual(concat(mu, nu))
                    rhs = merge_concat(dual(mu), dual(nu))
                    assert lhs == rhs


def test_raise_last():
    assert raise_last(idx(2, 1)) == (2, 2)
    assert raise_last(PHI) == (1,)
    x = Combination([((1, 1), 1), ((2,), -1)])
    assert raise_last(x) == Combination([((1, 2), 1), ((3,), -1)])


def test_partition_examples():
    assert partition((2, 2, 2), [2, 1, 3]) == ((2,), (1,), (1, 2))
    assert partition((2, 2, 2), [3, 0, 3]) == ((2, 1), PHI, (1, 2))
    assert partition((5,), [1, 1, 3]) == ((1,), (1,), (3,))
    assert partition(PHI, [0, 0]) == (PHI, PHI)
    with pytest.raises(ValueError):
        partition((2, 2), [1, 2])
    with pytest.raises(ValueError):
        partition((2, 2), [5, -1])


def _assemble(mu, blocks):
    # rejoin the partition blocks of mu, fusing the parts that a cut split
    key = _key(mu)
    out, pos = PHI, 0
    for block in blocks:
        # a cut at 0 or at a partial sum of mu falls between parts
        joined = concat(out, block) if not pos or key >> pos - 1 & 1 else merge_concat(out, block)
        (out,) = joined.support()
        pos += block.weight
    return out


def test_partition_assemble_roundtrip():
    for w in range(1, 7):
        for mu in all_indices(w):
            for r in range(1, 4):
                for sizes in itertools.product(range(w + 1), repeat=r):
                    if sum(sizes) != w:
                        continue
                    blocks = partition(mu, sizes)
                    assert _assemble(mu, blocks) == mu


def test_format_and_parse_index():
    assert format_index(idx(1, 2, 3)) == "(1,2,3)"
    assert format_index(PHI) == "phi"
    assert parse_index("(1,2,3)") == (1, 2, 3)
    assert parse_index("  phi ") == PHI
    assert parse_index("( 4 , 1 )") == (4, 1)
    for bad in ["", "()", "(1,2", "1,2", "(0)", "(1,,2)", "phi phi"]:
        with pytest.raises(ValueError):
            parse_index(bad)


def test_format_and_parse_combination():
    x = Combination([((1, 2), Fraction(3, 2)), ((2, 1), -1), (PHI, 1)])
    s = format_combination(x)
    assert s == "phi + 3/2*(1,2) - (2,1)"
    assert parse_combination(s) == x
    assert format_combination(Combination.zero()) == "0"
    assert parse_combination("(2)") == Combination.term((2,))
    assert parse_combination("2(1,1)") == Combination.term((1, 1), 2)
    assert parse_combination("-(2) + (1,1)") == Combination(
        [((2,), -1), ((1, 1), 1)]
    )
    assert parse_combination("1/3 * phi") == Combination.term(PHI, Fraction(1, 3))
    for bad in ["", "+", "(1) (2)", "1/0*(2)", "x+(2)"]:
        with pytest.raises(ValueError):
            parse_combination(bad)


def test_parse_format_roundtrip_is_canonical():
    for w in range(1, 6):
        for mu in all_indices(w):
            x = Combination.term(mu, Fraction(-7, 3)) + Combination.term(ones(w), 5)
            assert parse_combination(format_combination(x)) == x
    # the zero combination prints as 0 and reads back
    assert parse_combination(format_combination(Combination.zero())) == Combination.zero()
    assert parse_combination(" 0\n") == Combination.zero()


# -- the term-by-term parser that the one-pass parser replaced, as an oracle --

_ORACLE_COEFF_RE = re.compile(r"(\d+)\s*(?:/\s*(\d+))?")
_ORACLE_INDEX_RE = re.compile(r"\(\s*\d+\s*(?:,\s*\d+\s*)*\)")


def _oracle_parse_combination(text):
    if text.strip() == "0":
        return Combination()
    s = text
    pos = 0
    n = len(s)
    out = Combination()
    first = True

    def skip_ws(p):
        while p < n and s[p].isspace():
            p += 1
        return p

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            if first:
                raise ValueError("empty expression")
            break
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ValueError("expected '+' or '-' at position %d in %r" % (pos, text))
        coeff = Fraction(sign)
        m = _ORACLE_COEFF_RE.match(s, pos)
        if m:
            num, den = m.group(1), m.group(2)
            if den is not None and int(den) == 0:
                raise ValueError("zero denominator at position %d in %r" % (pos, text))
            coeff *= Fraction(int(num), int(den) if den else 1)
            pos = skip_ws(m.end())
            if pos < n and s[pos] == "*":
                pos = skip_ws(pos + 1)
        if pos < n and s.startswith("phi", pos):
            mu = PHI
            pos += 3
        else:
            m = _ORACLE_INDEX_RE.match(s, pos)
            if not m:
                raise ValueError("expected an index at position %d in %r" % (pos, text))
            mu = MultiIndex(int(p) for p in m.group(0)[1:-1].split(","))
            pos = m.end()
        out = out + Combination.term(mu, coeff)
        first = False
    return out


def _stored(x):
    # the stored terms with their coefficients' types: 1 and Fraction(1) must not merge
    return {k: (type(c), c) for k, c in x._terms.items()}


def _golden_expressions():
    cases = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json").read_text())
    spans = {"apply": slice(2, 3), "product": slice(2, 4)}
    return sorted({e for c in cases for e in c["argv"][spans.get(c["argv"][0], slice(0))]})


def _parser_corpus():
    exprs = _golden_expressions()
    coeffs = (Fraction(-7, 3), 5, Fraction(1, 2))
    for w in range(7):
        for mu in all_indices(w):
            exprs += [format_combination(Combination.term(mu, c)) for c in coeffs]
        # and every index of the weight in one expression, the coefficients in turn
        exprs.append(format_combination(Combination(zip(all_indices(w), itertools.cycle(coeffs)))))
    return exprs + ["0", " 0\n", "(1)-(1)", "0*(2)", "3phi", "2(1,1)", "1/3 * phi",
                    "1/2*(1) + 1/2*(1)", "- 3 / 4 * ( 1 , 2 )\t+2 phi", "-0*(1) + (1)"]


def test_one_pass_parser_stores_the_terms_of_the_term_by_term_parser():
    corpus = _parser_corpus()
    assert len(_golden_expressions()) >= 4
    for text in corpus:
        assert _stored(parse_combination(text)) == _stored(_oracle_parse_combination(text)), text
    # a sum that reaches an integer keeps it as a Fraction, as adding terms did
    assert _stored(parse_combination("1/2*(1) + 1/2*(1)")) == {1: (Fraction, 1)}


@pytest.mark.parametrize("bad", ["", "  ", "+", "(1) (2)", "(1,2", "(0)", "1/0*(2)", "x+(2)",
                                 "(1) +", "2/3", "phix"])
def test_one_pass_parser_rejects_what_the_term_by_term_parser_rejects(bad):
    with pytest.raises(ValueError):
        _oracle_parse_combination(bad)
    with pytest.raises(ValueError):
        parse_combination(bad)


def test_parse_combination_builds_no_intermediate_combination(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a combination was added while parsing")

    monkeypatch.setattr(Combination, "__add__", refuse)
    x = parse_combination("3/2*(1,2) - (2,1) + phi")
    assert x._terms == {_key((1, 2)): Fraction(3, 2), _key((2, 1)): -1, 0: 1}


def test_parse_combination_reads_back_a_long_combination():
    x = refine((16,))
    assert len(x) == 1 << 15
    assert parse_combination(format_combination(x)) == x


# -- the frozenset operators that the mark masks replaced, as oracles --------


def _encode_subset(mu):
    # the weight and the frozenset of the proper partial sums
    return mu.weight, frozenset(itertools.accumulate(mu[:-1]))


def _decode_subset(m, marks):
    cuts = [0] + sorted(marks) + [m]
    return MultiIndex(b - a for a, b in zip(cuts, cuts[1:]))


def test_subset_code_examples():
    # the paper codes an index of weight m by its proper partial sums
    assert _encode_subset(idx(2, 2, 1)) == (5, frozenset({2, 4}))
    assert _encode_subset(idx(1, 1, 3)) == (5, frozenset({1, 2}))
    assert _encode_subset(idx(4)) == (4, frozenset())
    assert _decode_subset(5, {2, 4}) == (2, 2, 1)
    with pytest.raises(ValueError):
        _decode_subset(3, {3})


def test_subset_code_roundtrip():
    # the frozenset coding round-trips, and the mark key holds the same marks
    # as bits under the top bit of the weight
    for w in range(1, 8):
        for mu in all_indices(w):
            m, marks = _encode_subset(mu)
            assert _decode_subset(m, marks) == mu
            assert _key(mu) == 1 << m - 1 | sum(1 << s - 1 for s in marks)


def _oracle_refinements(mu):
    if not mu:
        return Combination.term(PHI)
    m, marks = _encode_subset(mu)
    free = sorted(frozenset(range(1, m)) - marks)
    out = Combination()
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            nu = _decode_subset(m, marks | frozenset(extra))
            out += Combination.term(nu)
    return out


def _oracle_coarsenings(mu):
    if not mu:
        return Combination.term(PHI)
    m, marks = _encode_subset(mu)
    marks = sorted(marks)
    out = Combination()
    for r in range(len(marks) + 1):
        for kept in itertools.combinations(marks, r):
            nu = _decode_subset(m, kept)
            out += Combination.term(nu)
    return out


def _oracle_dual_index(mu):
    if not mu:
        return PHI
    m, marks = _encode_subset(mu)
    return _decode_subset(m, frozenset(range(1, m)) - marks)


def _termwise(x, f):
    # the linear extension of f (index -> index or Combination), decoding every term
    out = Combination()
    for mu, c in x.terms():
        out += c * as_combination(f(mu))
    return out


def _oracle_signed(x):
    return Combination((mu, (-1) ** len(mu) * c) for mu, c in x.terms())


def _oracle_refine(x):
    return _termwise(x, _oracle_refinements)


def _oracle_coarsen(x):
    return _termwise(x, _oracle_coarsenings)


def _oracle_reverse_index(mu):
    # the partial sum s becomes m - s
    if not mu:
        return PHI
    m, marks = _encode_subset(mu)
    return _decode_subset(m, frozenset(m - s for s in marks))


def _oracle_all_indices(weight):
    if weight == 0:
        return [PHI]
    out = [
        _decode_subset(weight, marks)
        for r in range(weight)
        for marks in itertools.combinations(range(1, weight), r)
    ]
    return sorted(out)


def test_mark_mask_operators_match_the_frozenset_oracle():
    for w in range(0, 11):
        indices = all_indices(w)
        assert indices == _oracle_all_indices(w)
        assert all(type(mu) is MultiIndex for mu in indices)
        for mu in indices:
            x = Combination.term(mu, Fraction(-3, 2))
            assert refine(mu) == _oracle_refinements(mu)
            assert coarsen(mu) == _oracle_coarsenings(mu)
            assert refine(x) == _oracle_refine(x)
            assert coarsen(x) == _oracle_coarsen(x)
            assert refine_inv(x) == _oracle_signed(_oracle_refine(_oracle_signed(x)))
            assert coarsen_inv(x) == _oracle_signed(_oracle_coarsen(_oracle_signed(x)))
            assert signed(x) == _oracle_signed(x)
            assert dual(mu) == _oracle_dual_index(mu)
            assert type(dual(mu)) is MultiIndex
            assert dual(x) == _termwise(x, _oracle_dual_index)
            assert reverse(mu) == _oracle_reverse_index(mu)
            assert type(reverse(mu)) is MultiIndex
            assert reverse(x) == _termwise(x, _oracle_reverse_index)


def test_mark_mask_operators_on_mixed_combinations():
    # terms of several weights (phi included) whose images overlap and cancel
    rng = random.Random(5)
    pool = [mu for w in range(0, 8) for mu in all_indices(w)]
    for _ in range(60):
        x = Combination(
            (rng.choice(pool), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 12))
        )
        assert refine(x) == _oracle_refine(x)
        assert coarsen(x) == _oracle_coarsen(x)
        assert refine_inv(x) == _oracle_signed(_oracle_refine(_oracle_signed(x)))
        assert coarsen_inv(x) == _oracle_signed(_oracle_coarsen(_oracle_signed(x)))
        assert dual(x) == _termwise(x, _oracle_dual_index)
        assert reverse(x) == _termwise(x, _oracle_reverse_index)
        assert 0 not in refine(x)._terms.values()
    # the shared refinement (1,1,1) cancels and leaves no zero term behind
    assert refine(Combination.term((1, 2)) + Combination.term((1, 1, 1), -1)) == Combination(
        [((1, 2), 1)]
    )


# -- the mark keys that combinations store ------------------------------------


def _weighted_pairs(total):
    # every pair of indices, phi on either side included, of total weight <= total
    pool = [mu for w in range(total + 1) for mu in all_indices(w)]
    return [(mu, nu) for mu in pool for nu in pool if mu.weight + nu.weight <= total]


def test_mark_keys_decode_and_read_weight_and_length():
    for w in range(0, 13):
        for mu in all_indices(w):
            k = _key(mu)
            assert _index(k) == mu and type(_index(k)) is MultiIndex
            assert (k.bit_length(), k.bit_count()) == (w, len(mu))


def test_concatenations_on_keys_match_the_tuple_definitions():
    for mu, nu in _weighted_pairs(8):
        fused = mu[:-1] + (mu[-1] + nu[0],) + nu[1:] if mu and nu else mu + nu
        assert concat(mu, nu) == Combination.term(mu + nu), (mu, nu)
        assert merge_concat(mu, nu) == Combination.term(fused), (mu, nu)


def test_key_operators_on_a_mixed_combination_match_the_termwise_index_operators():
    rng = random.Random(14)
    pool = [mu for w in range(1, 8) for mu in all_indices(w)]
    for _ in range(60):
        x = Combination([(PHI, Fraction(5, 7))] + [
            (rng.choice(pool), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 12))
        ])
        terms = x.terms()
        assert terms[0] == (PHI, Fraction(5, 7))

        def termwise(f):
            return Combination((f(mu), c) for mu, c in terms)

        assert raise_last(x) == termwise(lambda mu: mu[:-1] + (mu[-1] + 1,) if mu else (1,))
        assert dual(x) == termwise(_oracle_dual_index)
        assert reverse(x) == termwise(lambda mu: mu[::-1])
        assert signed(x) == Combination((mu, (-1) ** len(mu) * c) for mu, c in terms)


def test_kawashima_basis_matches_the_oracle_built_rows():
    for k in range(2, 8):
        got = kawashima_basis(k)
        want = [_oracle_refine(_oracle_signed(stuffle(mu, nu))) for mu, nu in _pairs(k)]
        assert [rel.element for rel in got] == want
