import json
import tracemalloc
from fractions import Fraction

import pytest

from mzv import products
from mzv.indices import (
    Combination,
    _key,
    all_indices,
    coarsen,
    dual,
    format_index,
    idx,
    ones,
    refine,
    reverse,
    signed,
)
from mzv.ohno import ohno_u
from mzv.products import circ, stuffle
from mzv.qlinalg import RelationMatrix
from mzv.relations import (
    LinearRelation,
    QuadraticRelation,
    _pairs,
    duality_element,
    duality_relation,
    index_pairs,
    kawashima_basis,
    kawashima_element,
    kawashima_relation,
    newton_series_coefficients,
    ohno_relations,
    quadratic_relation,
    stuffle_rows,
    terms_json,
    verify_reversal_telescope,
)


def term(*parts):
    return Combination.term(idx(*parts))


def test_kawashima_element_small():
    assert kawashima_element(idx(1), idx(1)) == term(1, 1) - term(2)
    # matches the definition applied step by step
    for wa in range(1, 4):
        for wb in range(1, 4):
            for mu in all_indices(wa):
                for nu in all_indices(wb):
                    assert kawashima_element(mu, nu) == refine(
                        signed(stuffle(mu, nu))
                    )
    with pytest.raises(ValueError):
        kawashima_element(idx(1), ())


def test_kawashima_relation_metadata():
    rel = kawashima_relation(idx(1), idx(2, 3))
    assert rel.weight == 6
    assert rel.provenance == "kawashima((1),(2,3))"
    assert rel.element.homogeneous_weight() == 6
    assert str(rel).startswith("kawashima((1),(2,3)): ")


def test_kawashima_basis_sizes():
    assert [len(kawashima_basis(k)) for k in range(2, 8)] == [1, 2, 7, 16, 42, 96]
    with pytest.raises(ValueError):
        kawashima_basis(1)


def test_kawashima_basis_has_no_swapped_duplicates():
    for k in range(2, 7):
        tags = [r.provenance for r in kawashima_basis(k)]
        assert len(tags) == len(set(tags))
        assert "kawashima((1),(%d))" % (k - 1) in tags


def test_index_pairs_split_the_unordered_pairs_by_weight():
    assert list(index_pairs(1, 2)) == [(idx(1), idx(1, 1)), (idx(1), idx(2))]
    assert list(index_pairs(2, 2)) == [
        (idx(1, 1), idx(1, 1)), (idx(1, 1), idx(2)), (idx(2), idx(2))
    ]
    for k in range(2, 8):
        chained = [p for a in range(1, k // 2 + 1) for p in index_pairs(a, k - a)]
        assert [kawashima_relation(mu, nu) for mu, nu in chained] == kawashima_basis(k)


def test_stuffle_rows_are_the_unrefined_kawashima_rows():
    # the fast rank-table path against the Kawashima rows it replaces:
    # row by row (k <= 7), exact rank (k <= 8) and modular rank (k = 9)
    for k in range(2, 10):
        rows = stuffle_rows(k)
        basis = kawashima_basis(k)
        assert len(rows) == len(basis)
        if k <= 7:
            assert [refine(signed(row)) for row in rows] == [rel.element for rel in basis]
        fast = RelationMatrix(k, rows)
        slow = RelationMatrix.from_relations(basis)
        if k <= 8:
            assert fast.rank() == slow.rank()
        else:
            assert fast.modular_rank() == slow.modular_rank() == 200


def test_stuffle_rows_hold_no_copy_of_the_product_memo():
    # with the memo warm, a second stuffle_rows(10) allocates a few bytes per
    # row entry: a copy of every memo dict costs about 41
    stuffle_rows(10)
    tracemalloc.start()
    try:
        rows = stuffle_rows(10)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size <= 8 * sum(map(len, rows))


def test_stuffle_rows_share_the_memo_and_nothing_changes_it():
    rows = stuffle_rows(8)
    assert all(row._terms is products._stuffle_keys(_key(mu), _key(nu))
               for row, (mu, nu) in zip(rows, _pairs(8), strict=True))
    # every memo entry of total weight <= 8, which holds all the rows read
    memo = {(k, l): products._stuffle(k, l) for l in range(1 << 8) for k in range(l + 1)
            if k.bit_length() + l.bit_length() <= 8}
    snapshot = {pair: dict(d) for pair, d in memo.items()}
    span = RelationMatrix(8, rows)
    assert span.rank() >= span.modular_rank() > 0
    for mu in all_indices(8):
        # g = refine . signed is an involution, so g maps the Kawashima span to the rows' span
        element = duality_relation(mu).element
        span.member(element)
        assert span.member(refine(signed(element))) is not None
    for row in rows:
        for op in (lambda x: x + x, lambda x: x - x, lambda x: 3 * x, lambda x: -x, signed,
                   refine, coarsen, dual, reverse, lambda x: stuffle(x, idx(1)),
                   lambda x: stuffle(idx(1, 2), x)):
            op(row)
    assert all(products._stuffle(*pair) is d for pair, d in memo.items())
    assert {pair: dict(d) for pair, d in memo.items()} == snapshot


def test_exact_ranks_at_weight_ten():
    # the table's weight-10 row, exact rather than a modular lower bound
    span = RelationMatrix(10, stuffle_rows(10))
    assert span.rank() == 413 == span.modular_rank()
    assert RelationMatrix.from_relations(ohno_relations(10)).rank() == 411


def test_duality_element():
    assert duality_element(idx(2)) == term(2) - term(1, 1)
    assert duality_element(idx(1, 2)) == Combination.zero()
    assert duality_element(idx(1, 1, 1)) == term(1, 1, 1) - term(3)
    rel = duality_relation(idx(4, 1, 1))
    assert rel.provenance == "duality((4,1,1))"
    assert rel.element == term(1, 1, 4) - term(1, 1, 1, 3)
    with pytest.raises(ValueError):
        duality_element(())


def test_reversal_telescope():
    for w in range(1, 8):
        for mu in all_indices(w):
            assert verify_reversal_telescope(mu)
    with pytest.raises(ValueError):
        verify_reversal_telescope(())


def test_duality_is_in_the_kawashima_span_small():
    for k in range(2, 6):
        matrix = RelationMatrix.from_relations(kawashima_basis(k))
        for mu in all_indices(k):
            cert = matrix.member(duality_element(mu))
            assert cert is not None


def test_ohno_relations_enumeration():
    # (1,1,1) = tau((3)) gives the negative of ohno((3),0); (1,2) and (2,1) are fixed by tau
    rels = ohno_relations(3, 0)
    assert [r.provenance for r in rels] == ["ohno((3),0)"]
    rels4 = ohno_relations(4, 2)
    assert all(r.weight == 4 for r in rels4)
    assert all(not r.element.is_zero() for r in rels4)
    assert any(r.provenance == "ohno((3),1)" for r in rels4)
    # r defaults to everything useful
    assert len(ohno_relations(4)) == len(ohno_relations(4, 99))
    with pytest.raises(ValueError):
        ohno_relations(1)


def _every_ohno_element(k):
    # the enumeration with both members of each sign pair: every shift of every index
    return [(ohno_u(r, duality_element(mu)), "ohno((%s),%d)" % (",".join(map(str, mu)), r))
            for r in range(k - 1) for mu in all_indices(k - r)]


def test_ohno_relations_keep_one_element_of_each_sign_pair():
    for k in range(2, 10):
        kept = {rel.provenance: rel.element for rel in ohno_relations(k)}
        elements = set(kept.values())
        every = [(x, tag) for x, tag in _every_ohno_element(k) if not x.is_zero()]
        for x, tag in every:
            assert tag in kept and kept[tag] == x or -x in elements, tag
        # tau pairs off the non-zero elements, and no two kept ones are equal up to sign
        assert 2 * len(kept) == len(every) and all(-x not in elements for x in elements), k


def test_one_element_per_sign_pair_keeps_both_ranks():
    for k in range(2, 13):
        kept = RelationMatrix.from_relations(ohno_relations(k))
        every = RelationMatrix(k, [x for x, _ in _every_ohno_element(k)])
        assert kept.nrows < every.nrows
        assert kept.modular_rank() == every.modular_rank(), k
        if k <= 9:
            assert kept.rank() == every.rank(), k


def _ohno_oracle(k):
    # the Combination path: tau = dual . reverse by the operators, zero elements dropped
    return [LinearRelation(element, "ohno(%s,%d)" % (format_index(mu), r), k)
            for r in range(k - 1) for mu in all_indices(k - r)
            if _key(dual(reverse(mu))) >= _key(mu)
            and not (element := ohno_u(r, duality_element(mu))).is_zero()]


def test_keyed_ohno_rows_match_the_combination_path():
    for k in range(2, 12):
        oracle = _ohno_oracle(k)
        for r_max in (None, 0, 3):
            shift = k - 2 if r_max is None else r_max
            expected = [rel for rel in oracle if int(rel.provenance[:-1].rsplit(",", 1)[1]) <= shift]
            assert ohno_relations(k, r_max) == expected, (k, r_max)


def test_ohno_relations_match_operator_application():
    for k in range(3, 6):
        for rel in ohno_relations(k, 2):
            inner = rel.provenance[len("ohno(") : -1]
            mu_text, r_text = inner.rsplit(",", 1)
            r = int(r_text)
            base = tuple(
                int(s) for s in mu_text.strip("()").split(",") if s
            )
            assert rel.element == ohno_u(r, duality_element(base))


def test_linear_relation_json_roundtrip():
    # a relation's element survives a JSON pass through terms_json
    rel = duality_relation(idx(2))
    data = terms_json(rel.element)
    assert data == [
        {"index": [1, 1], "num": -1, "den": 1},
        {"index": [2], "num": 1, "den": 1},
    ]
    again = json.loads(json.dumps(data))
    rebuilt = Combination([(tuple(t["index"]), Fraction(t["num"], t["den"])) for t in again])
    assert rebuilt == rel.element


def test_json_keeps_exact_fractions():
    rel = LinearRelation(
        Combination.term((2,), Fraction(22, 7)), "synthetic", 2
    )
    data = terms_json(rel.element)
    assert data == [{"index": [2], "num": 22, "den": 7}]
    assert type(data[0]["num"]) is int and type(data[0]["den"]) is int


def test_quadratic_relation_structure():
    rel = quadratic_relation(idx(1), idx(1), 2)
    assert rel.weight == 4
    assert rel.provenance == "quadratic((1)|(1)|2)"
    assert rel.factors == ((-term(2), -term(2)),)
    assert rel.rhs == 2 * term(1, 1, 2) + term(2, 2) - term(1, 3)
    assert "[- (2)]" in str(rel) or "[-(2)]" in str(rel)
    with pytest.raises(ValueError):
        quadratic_relation(idx(1), idx(1), 0)


def test_quadratic_relation_degree_one_is_linear():
    # the k+l=1 split is empty, so the statement is the linear one
    rel = quadratic_relation(idx(1), idx(1), 1)
    assert isinstance(rel, LinearRelation)
    assert rel.element == kawashima_element(idx(1), idx(1))
    assert rel.provenance == "quadratic((1)|(1)|1)"
    assert rel.weight == 2


def test_quadratic_relation_m3_splits():
    rel = quadratic_relation(idx(1), idx(2), 3)
    assert rel.weight == 6
    assert len(rel.factors) == 2
    gv = refine(signed(Combination.term(idx(1))))
    gw = refine(signed(Combination.term(idx(2))))
    assert rel.factors[0] == (
        circ(gv, Combination.term(ones(1))),
        circ(gw, Combination.term(ones(2))),
    )
    assert rel.factors[1] == (
        circ(gv, Combination.term(ones(2))),
        circ(gw, Combination.term(ones(1))),
    )
    assert rel.rhs == circ(
        refine(signed(stuffle(idx(1), idx(2)))), Combination.term(ones(3))
    )


def test_newton_series_coefficients():
    coeffs = newton_series_coefficients(idx(2), 2)
    assert coeffs[0] == term(1, 2) + term(3)
    assert coeffs[1] == -(2 * term(1, 1, 2) + term(2, 2) + term(1, 3))
    # the m-th entry always carries weight |v| + m
    for m, c in enumerate(newton_series_coefficients(idx(2, 1), 3), start=1):
        assert c.homogeneous_weight() == 3 + m
    with pytest.raises(ValueError):
        newton_series_coefficients(Combination.zero(), 2)
    with pytest.raises(ValueError):
        newton_series_coefficients(idx(2), 0)


def test_newton_series_alternates_coarsened_dual():
    for w in range(1, 5):
        for mu in all_indices(w):
            base = coarsen(dual(mu))
            coeffs = newton_series_coefficients(mu, 3)
            for m in (1, 2, 3):
                expected = (-1) ** (m - 1) * circ(
                    base, Combination.term(ones(m))
                )
                assert coeffs[m - 1] == expected
