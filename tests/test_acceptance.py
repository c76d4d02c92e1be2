"""End-to-end checks of the shipped guarantees, one test per guarantee.

Covers the rank table of the generated relation space (exact and modular),
its closed-form count, the Lyndon index bookkeeping, duality and shifted
duality membership certificates, the exact difference-table and identity
suites, and the numeric verdicts on proven error bounds.  Shared
matrices are memoized at module level so the tests stay independent without
recomputing them.
"""

from fractions import Fraction
from functools import lru_cache

from mzv import numeric

from mzv.harmonic import RationalSequence, seq_A, seq_S, seq_a, seq_s, seq_s2
from mzv.indices import (
    Combination,
    MultiIndex,
    all_indices,
    coarsen,
    coarsen_inv,
    concat,
    dual,
    idx,
    merge_concat,
    ones,
    raise_last,
    refine,
    refine_inv,
    reverse,
    signed,
)
from mzv.lyndon import binary_lyndon_count, enumerate_lyndon, psi2, triangular_rank
from mzv.numeric import verify_linear, verify_quadratic, zeta_strict
from mzv.ohno import (
    ohno_apply,
    ohno_bar_apply,
    ohno_bar_u,
    ohno_bar_u_blocks,
    ohno_u,
    verify_alternating_shift_sum,
    verify_shift_factorization,
)
from mzv.products import circ, circ_bar, stuffle, stuffle_bar, stuffle_via_matrices
from mzv.qlinalg import RelationMatrix
from mzv.relations import (
    duality_element,
    kawashima_basis,
    kawashima_relation,
    ohno_relations,
    quadratic_relation,
)

term = Combination.term


@lru_cache(maxsize=None)
def _basis(weight):
    return tuple(kawashima_basis(weight))


@lru_cache(maxsize=None)
def _matrix(weight):
    return RelationMatrix.from_relations(_basis(weight))


def _index_pairs(total):
    """All ordered pairs of non-empty indices with combined weight <= total."""
    for a in range(1, total):
        for b in range(1, total - a + 1):
            for mu in all_indices(a):
                for nu in all_indices(b):
                    yield mu, nu


def test_01_relation_space_rank_table():
    expected = {2: 1, 3: 2, 4: 5, 5: 10, 6: 23, 7: 46, 8: 98, 9: 200}
    for weight, want in expected.items():
        assert _matrix(weight).rank() == want, weight
    # beyond the exact range: certified lower bounds over GF(2), and over Q by
    # the Lyndon-triangular rows, already reach the same table values
    for weight, want in {10: 413, 11: 838}.items():
        matrix = RelationMatrix.from_relations(kawashima_basis(weight))
        assert matrix.modular_rank() == want == triangular_rank(weight), weight


def test_02_rank_matches_closed_form():
    for weight in range(2, 10):
        assert _matrix(weight).rank() == 2 ** (weight - 1) - psi2(weight)


def test_03_lyndon_counts_and_necklace_identity():
    for m in range(2, 16):
        words = enumerate_lyndon(m)
        assert len(words) == psi2(m), m
        assert psi2(m) == binary_lyndon_count(m)
    for n in range(1, 16):
        total = sum(d * binary_lyndon_count(d) for d in range(1, n + 1) if n % d == 0)
        assert total == 2**n, n


def test_04_duality_membership_certificates():
    # weight 1: reversal and complement coincide, nothing to certify
    assert duality_element(idx(1)).is_zero()
    for weight in range(2, 8):
        relations = _basis(weight)
        matrix = _matrix(weight)
        for mu in all_indices(weight):
            element = duality_element(mu)
            cert = matrix.member(element)
            assert cert is not None, mu
            rebuilt = Combination.zero()
            for coeff, relation in zip(cert, relations):
                if coeff:
                    rebuilt = rebuilt + coeff * relation.element
            assert rebuilt == element, mu


def test_05_shifted_duality_certificates_and_span_rank():
    for weight in range(2, 9):
        matrix = _matrix(weight)
        for r in range(0, min(3, weight - 1) + 1):
            for mu in all_indices(weight - r):
                element = ohno_u(r, duality_element(mu))
                assert matrix.member(element) is not None, (mu, r)
    expected = {2: 1, 3: 2, 4: 5, 5: 10, 6: 23, 7: 46, 8: 98, 9: 199}
    for weight, want in expected.items():
        span = RelationMatrix.from_relations(ohno_relations(weight))
        assert span.rank() == want, weight


def test_06_difference_table_equals_two_parameter_sums():
    for weight in range(1, 6):
        for mu in all_indices(weight):
            s = seq_s(mu, 12)
            table = seq_s2(mu, dual(mu), 6, 6)
            for k in range(0, 7):
                diffed = s.delta(k)
                for n in range(0, 7):
                    assert diffed[n] == table[n][k], (mu, n, k)
    # inversion carries the weak chain sums to their complement-dual
    for weight in range(1, 7):
        for mu in all_indices(weight):
            assert seq_s(mu, 12).nabla() == seq_s(dual(mu), 12), mu


def test_07_product_identity_suite():
    # the five conjugation identities, all indices of weight <= 7
    for weight in range(1, 8):
        for mu in all_indices(weight):
            x = term(mu)
            assert dual(coarsen(dual(x))) == refine(x)
            assert coarsen(signed(coarsen(signed(x)))) == x
            assert refine(signed(refine(signed(x)))) == x
            assert coarsen(dual(coarsen_inv(x))) == -refine(signed(x))
            assert refine_inv(dual(refine(x))) == -signed(coarsen(x))
    for mu, nu in _index_pairs(7):
        x, y = term(mu), term(nu)
        # coarsening exchanges the signed and plain products
        assert coarsen(stuffle_bar(x, y)) == stuffle(coarsen(x), coarsen(y))
        # complement-dual swaps plain and fused concatenation
        assert term(dual(MultiIndex(mu + nu))) == merge_concat(dual(x), dual(y))
        # refine/coarsen against the two concatenations
        rx, ry = refine(x), refine(y)
        assert refine(concat(x, y)) == concat(rx, ry)
        assert refine(merge_concat(x, y)) == concat(rx, ry) + merge_concat(rx, ry)
        cx, cy = coarsen(x), coarsen(y)
        assert coarsen(merge_concat(x, y)) == merge_concat(cx, cy)
        assert coarsen(concat(x, y)) == concat(cx, cy) + merge_concat(cx, cy)
        # last-part recursion, checked against the matrix enumeration
        head_mu, head_nu = term(mu[:-1]), term(nu[:-1])
        assert stuffle_via_matrices(mu, nu) == (
            concat(stuffle(head_mu, y), term((mu[-1],)))
            + concat(stuffle(x, head_nu), term((nu[-1],)))
            + concat(stuffle(head_mu, head_nu), term((mu[-1] + nu[-1],)))
        )
        # coarsening exchanges the fused-last products
        assert coarsen(circ_bar(x, y)) == circ(cx, cy)
        # triple tail-split of the product of two coarsening sums
        total = Combination.zero()
        for i in range(1, len(mu) + 1):
            total = total + concat(
                stuffle(coarsen(mu[: i - 1]), cy), term((sum(mu[i - 1 :]),))
            )
        for j in range(1, len(nu) + 1):
            total = total + concat(
                stuffle(cx, coarsen(nu[: j - 1])), term((sum(nu[j - 1 :]),))
            )
        for i in range(1, len(mu) + 1):
            for j in range(1, len(nu) + 1):
                total = total + concat(
                    stuffle(coarsen(mu[: i - 1]), coarsen(nu[: j - 1])),
                    term((sum(mu[i - 1 :]) + sum(nu[j - 1 :]),)),
                )
        assert stuffle(cx, cy) == total
    # the four pointwise sequence product identities
    for a in range(1, 6):
        for b in range(a, 7 - a):
            for mu in all_indices(a):
                for nu in all_indices(b):
                    if a == b and nu < mu:
                        continue
                    for fn, product in ((seq_A, stuffle), (seq_S, stuffle_bar),
                                        (seq_a, circ), (seq_s, circ_bar)):
                        pointwise = (x * y for x, y in zip(fn(mu, 20).values, fn(nu, 20).values))
                        assert fn(product(mu, nu), 20) == RationalSequence(pointwise)


def test_08_shift_operator_suite():
    # sign and reversal conjugation
    for v, x in _index_pairs(6):
        lv, cx = term(v), term(x)
        assert ohno_apply(lv, signed(cx)) == signed(ohno_apply(lv, cx))
        assert ohno_bar_apply(lv, signed(cx)) == (-1) ** v.weight * signed(
            ohno_bar_apply(lv, cx)
        )
        assert ohno_apply(lv, reverse(cx)) == reverse(ohno_apply(term(reverse(v)), cx))
    # composition multiplies the labels
    for a in range(1, 5):
        for b in range(1, 6 - a):
            for c in range(1, 7 - a - b):
                for v in all_indices(a):
                    for w in all_indices(b):
                        for x in all_indices(c):
                            assert ohno_apply(
                                term(v), ohno_apply(term(w), term(x))
                            ) == ohno_apply(stuffle(v, w), term(x))
    # Leibniz splits over the two concatenations for ones-refinement labels
    for r in range(0, 4):
        for mu, nu in _index_pairs(6 - r):
            x, y = term(mu), term(nu)
            split = Combination.zero()
            bar_split = Combination.zero()
            for k in range(r + 1):
                split = split + concat(ohno_u(k, x), ohno_u(r - k, y))
                bar_split = bar_split + merge_concat(
                    ohno_bar_u(k, x), ohno_bar_u(r - k, y)
                )
            assert ohno_u(r, concat(x, y)) == split, (r, mu, nu)
            assert ohno_bar_u(r, merge_concat(x, y)) == bar_split, (r, mu, nu)
    # a leading one passes through untouched
    for v, nu in _index_pairs(5):
        lv, y, one = term(v), term(nu), term(ones(1))
        assert ohno_apply(lv, merge_concat(one, y)) == merge_concat(
            one, ohno_apply(lv, y)
        )
        assert ohno_bar_apply(lv, concat(one, y)) == concat(one, ohno_bar_apply(lv, y))
    # block expansion, factorization and alternating resummation
    for r in range(0, 4):
        for weight in range(1, 7 - r):
            for mu in all_indices(weight):
                assert ohno_bar_u(r, term(mu)) == ohno_bar_u_blocks(r, mu), (r, mu)
                assert verify_shift_factorization(r, mu), (r, mu)
                assert verify_alternating_shift_sum(r, mu), (r, mu)


def test_09_numeric_kernel_verdicts():
    # each relation is zero within its proven bound, and the bound shrinks
    # as the fixed-point precision grows
    for weight in range(2, 6):
        for relation in _basis(weight):
            report = verify_linear(relation)
            assert report["pass"] is True, report
            coarse = numeric._certified(raise_last(relation.element), 40)
            assert report["err"] < coarse.err, (report, coarse)
    euler = verify_linear(kawashima_relation(idx(1), idx(1)))
    assert euler["pass"] is True, euler
    quadratic = verify_quadratic(quadratic_relation(idx(1), idx(1), 2))
    assert quadratic["pass"] is True, quadratic


#: pi to 50 decimals, so within 1e-50
PI = Fraction("3.14159265358979323846264338327950288419716939937510")


def test_10_classical_constants_within_error():
    for parts, power, scale in [((2,), 2, 6), ((4,), 4, 90)]:
        est = zeta_strict(term(parts))
        exact, slack = PI**power / scale, Fraction(1, 10**45)
        value, bound = est.exact
        assert abs(value - exact) <= bound + slack, parts
        residual = abs(Fraction(est.value) - exact)
        assert residual <= Fraction(est.err) + slack, (parts, residual, est.err)
