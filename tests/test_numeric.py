import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mzv.indices import Combination, as_combination, coarsen, idx
from mzv import numeric
from mzv.indices import raise_last
from mzv.numeric import (
    _BLOCK,
    _UNIT,
    _chain_partials,
    _exact_sum,
    _truncated,
    verify_linear,
    verify_quadratic,
    zeta_bar,
    zeta_plus,
    zeta_strict,
)
from mzv.relations import (
    duality_relation,
    index_pairs,
    kawashima_relation,
    quadratic_relation,
)


# The truncated oracle: (value, err) of double-precision chain sums.


def test_classical_constants():
    value, err = _truncated(idx(2), 10**5)
    assert abs(value - math.pi**2 / 6) < 2e-5
    assert abs(value - math.pi**2 / 6) <= max(err, 2e-5)
    value4, _ = _truncated(idx(4), 10**4)
    assert abs(value4 - math.pi**4 / 90) < 1e-8


def test_double_zeta_values():
    # zeta over increasing chains: the last slot carries the largest index
    # of summation, so (1,2) is the classical sum with outer exponent 2
    value, _ = _truncated(idx(1, 2), 10**5)
    zeta3 = sum(1.0 / n**3 for n in range(1, 2000))
    # the tail of this double sum only decays like log(N)/N
    assert abs(value - zeta3) < 5e-4
    value22, _ = _truncated(idx(2, 2), 10**4)
    # zeta(2)^2 = 2 zeta(2,2) + zeta(4); the truncated pair sum still
    # carries a tail of order 1/N
    lhs = (math.pi**2 / 6) ** 2
    assert abs(2 * value22 + math.pi**4 / 90 - lhs) < 1e-3


def test_weak_chain_variant():
    # weak chains factor: zbar(1,2) = sum over m<=n of 1/(m n^2)
    weak, _ = _truncated(coarsen(idx(2)), 10**4)
    strict, _ = _truncated(idx(2), 10**4)
    assert abs(weak - strict) < 1e-12
    weak_pair, _ = _truncated(coarsen(idx(2, 2)), 100)
    brute = sum(
        1.0 / (m**2 * n**2) for n in range(1, 102) for m in range(1, n + 1)
    )
    assert abs(weak_pair - brute) < 1e-12


def test_divergent_index_rejected():
    with pytest.raises(ValueError):
        _truncated(idx(2, 1), 1000)
    with pytest.raises(ValueError):
        _truncated(Combination.term(()), 1000)
    with pytest.raises(ValueError):
        _truncated(idx(2), 1)


def test_error_bar_shrinks_with_truncation():
    rough = _truncated(idx(2), 10**3)
    fine = _truncated(idx(2), 10**4)
    assert fine[1] < rough[1]
    assert abs(fine[0] - math.pi**2 / 6) < abs(rough[0] - math.pi**2 / 6)


# The public API: certified estimates and verdicts on the proven bound.


def test_raised_functional():
    # raising turns (1,1) into (1,2) before evaluating
    assert zeta_plus(idx(1, 1)) == zeta_strict(idx(1, 2))


def test_estimate_is_float_like():
    est = zeta_strict(idx(2))
    assert float(est) == est.value
    assert est.truncation > 0
    assert est.err >= 0.0


def test_verify_linear_report():
    rel = kawashima_relation(idx(1), idx(2))
    report = verify_linear(rel)
    assert set(report) == {"relation", "N", "value", "err", "pass"}
    assert report["relation"] == "kawashima((1),(2))"
    assert report["N"] == zeta_plus(rel.element).truncation
    assert report["pass"] is True
    assert abs(report["value"]) <= report["err"]


def test_verify_linear_accepts_bare_combinations():
    # the element (2) - (1,1) encodes the classical zeta(3) = zeta(1,2)
    # equality once the last parts are raised
    element = as_combination((2,)) - as_combination((1, 1))
    report = verify_linear(element)
    assert report["relation"] == "element"
    assert report["pass"] is True


def test_verify_linear_flags_non_relations():
    report = verify_linear(as_combination((2,)))
    assert report["pass"] is False


def test_verify_linear_duality():
    for mu in [idx(2), idx(3), idx(2, 1), idx(1, 1, 2)]:
        report = verify_linear(duality_relation(mu))
        assert report["pass"] is True, report


def test_verify_quadratic_report():
    rel = quadratic_relation(idx(1), idx(1), 2)
    report = verify_quadratic(rel)
    assert report["relation"] == "quadratic((1)|(1)|2)"
    assert report["pass"] is True
    assert report["err"] > 0.0
    assert abs(report["value"]) <= report["err"]


def test_verify_quadratic_degree_one_routes_to_linear():
    rel = quadratic_relation(idx(1), idx(1), 1)
    report = verify_quadratic(rel)
    assert report == verify_linear(rel)
    assert report["relation"] == "quadratic((1)|(1)|1)"
    assert report["pass"] is True


def _whole_array_partials(mu, N, strict):
    # the whole-array dynamic program with math.fsum that the blockwise one replaced
    x = np.arange(1.0, N + 2.0)
    t = x ** float(-mu[0])
    for part in mu[1:]:
        prefix = np.cumsum(t)
        if strict:
            prefix = np.concatenate(([0.0], prefix[:-1]))
        t = prefix * x ** float(-part)
    return (math.fsum(t), math.fsum(t[: N // 2 + 1]))


CHAIN_INDICES = [(2,), (1, 3), (3, 1, 2), (1, 1, 1, 2), (2, 1, 3, 1, 2)]
# 2 * _BLOCK - 2 puts the half cut N // 2 + 1 exactly on the first block boundary
CHAIN_TRUNCATIONS = [1000, 1001, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 2,
                     2 * _BLOCK, 3 * _BLOCK + 7]


@pytest.mark.parametrize("N", CHAIN_TRUNCATIONS)
def test_blockwise_partials_match_the_whole_array_oracle(N):
    for mu in CHAIN_INDICES:
        got = _chain_partials.__wrapped__(mu, N)
        assert got == _whole_array_partials(mu, N, True), (mu, N)


@pytest.mark.parametrize("N", CHAIN_TRUNCATIONS)
def test_truncated_zeta_bar_matches_the_weak_whole_array_oracle(N):
    # the strict sums over the coarsenings add up to the weak chain sum, to
    # within the rounding of the float terms
    for mu in CHAIN_INDICES:
        full, half = _whole_array_partials(mu, N, False)
        value, err = _truncated(coarsen(_term(mu)), N)
        assert abs(value - full) <= 4 * math.ulp(full), (mu, N, value, full)
        assert abs(err - 2 * abs(full - half)) <= 8 * math.ulp(full), (mu, N)


def test_exact_sum_rounds_like_fsum():
    rng = np.random.default_rng(20070225)
    for case in range(200):
        n = int(rng.integers(0, _BLOCK + 1)) if case % 10 else 1 << 15
        low = -1074 if case % 2 else int(rng.integers(-1074, 800))
        t = np.ldexp(rng.standard_normal(n), rng.integers(low, 891, n))
        if case % 3 == 0:
            t[::5] = 0.0
        if case % 4 == 0:
            # cancellation: the negated first half, with a few terms nudged
            t[n // 2 :] = -t[: n - n // 2]
            t[n // 2 :: 97] *= 1.0 + 2.0**-52
        if case % 7 == 0:
            t[::3] = np.ldexp(rng.standard_normal(len(t[::3])), -1074 + 52)  # subnormals
        got = _exact_sum(t) / (1 << _UNIT)
        want = math.fsum(t)
        assert got.hex() == want.hex(), (case, got, want)
    # 2**15 - 1 of the largest subnormal and one of the smallest: split halves
    # of subnormals share no grid unless they are lifted into the normal range
    t = np.full(1 << 15, (2**52 - 1) * 5e-324)
    t[0] = 5e-324
    assert _exact_sum(t) == ((2**15 - 1) * (2**52 - 1) + 1) << (_UNIT - 1074)


def test_exact_sum_refuses_what_it_cannot_sum_exactly():
    for bad in (math.inf, -math.inf, math.nan, 2.0**942, -(2.0**1000)):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            _exact_sum(np.array([1.0, bad]))
    assert _exact_sum(np.array([2.0**941 * 1.5, -(2.0**941)])) == 2**940 << _UNIT
    with pytest.raises(ValueError):
        _exact_sum(np.ones((1 << 15) + 1))


def test_chain_partials_memory_does_not_grow_with_truncation():
    tracemalloc.start()
    try:
        _chain_partials.__wrapped__((1, 2, 1, 2), 4 * 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole-array program held about 160 MB of live arrays at this N
    assert peak < 4 * 2**20, peak


# The bincount exact sum and the per-index blockwise program that ExtractVector
# and the shifted running sums replaced, kept as oracles.
_ORACLE_LIFT = 54
_ORACLE_UNIT = 1074 + _ORACLE_LIFT


def _bincount_exact_sum(t):
    # Veltkamp halves of the lifted terms added per biased exponent by
    # np.bincount (exact: at most 2**15 of them need 41 bits), in units of
    # 2**-_ORACLE_UNIT
    if len(t) > 1 << 15:
        raise ValueError("an exact block sum takes at most 2**15 terms")
    u = t * 2.0**_ORACLE_LIFT
    exponent = (u.view(np.int64) >> 52) & 0x7FF
    if exponent.max(initial=0) > 2018:
        raise ValueError("chain terms must be finite and below 2**942 to be summed exactly")
    c = u * 134217729.0
    hi = c - (c - u)
    total = 0
    for piece, step in ((hi, 1048), (u - hi, 1075)):
        sums = np.bincount(exponent, piece)
        e = np.flatnonzero(sums)
        steps = np.ldexp(sums[e], step - e).astype(np.int64)
        total += sum(n << k for n, k in zip(steps.tolist(), (e + 1074 - step).tolist()))
    return total


def _per_index_partials(mu, N, strict=True):
    carry = [0.0] * (len(mu) - 1)
    cut = N // 2 + 1
    full = half = 0
    for start in range(0, N + 1, _BLOCK):
        x = np.arange(start + 1.0, min(start + _BLOCK, N + 1) + 1.0)
        t = x ** float(-mu[0])
        for j, part in enumerate(mu[1:]):
            before = carry[j]
            t[0] += before
            prefix = np.cumsum(t)
            carry[j] = prefix[-1]
            if strict:
                prefix = np.concatenate(([before], prefix[:-1]))
            t = prefix * x ** float(-part)
        if start < cut <= start + len(t):
            half = full + _bincount_exact_sum(t[: cut - start])
        full += _bincount_exact_sum(t)
    return (full / (1 << _ORACLE_UNIT), half / (1 << _ORACLE_UNIT))


def _numeric_suite_relations(cap):
    # what `mzv verify numeric --pairs-up-to cap` hands to verify_linear
    relations = [
        kawashima_relation(mu, nu)
        for wa in range(1, cap)
        for wb in range(wa, cap - wa + 1)
        for mu, nu in index_pairs(wa, wb)
    ]
    return relations + [as_combination((2,)) - as_combination((1, 1))]


def _numeric_suite_indices(cap):
    combos = [raise_last(getattr(r, "element", r)) for r in _numeric_suite_relations(cap)]
    quad = quadratic_relation((1,), (1,), 2)
    combos += [c for pair in quad.factors for c in pair] + [quad.rhs]
    return sorted({mu for c in combos for mu, _ in c.terms()})


NUMERIC_INDICES = _numeric_suite_indices(5)
# indices that share prefixes, one that repeats a part (2,2,2), and the longest
# (1,1,1,1,2), on top of the suite's
PREFIX_SETS = [
    [(2,), (2, 3), (2, 3, 2), (2, 3, 3), (2, 2, 2), (1, 2), (1, 1, 2), (3, 1, 2)],
    [(1, 1, 1, 1, 2), (1, 1, 1, 2), (1, 1, 2), (1, 2)],
    [(5,)],
]
PASS_TRUNCATIONS = [1000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 2, 3 * _BLOCK + 7, 100003]


def test_the_numeric_suite_has_31_distinct_indices():
    assert len(NUMERIC_INDICES) == 31


@pytest.mark.parametrize("N", PASS_TRUNCATIONS)
def test_partials_match_the_per_index_oracle(N):
    for indices in [NUMERIC_INDICES] + PREFIX_SETS:
        for mu in indices:
            assert _chain_partials.__wrapped__(mu, N) == _per_index_partials(mu, N), (mu, N)


@pytest.mark.parametrize("N", PASS_TRUNCATIONS)
def test_truncated_zeta_bar_matches_the_weak_per_index_oracle(N):
    # the coarsening sum against the blockwise weak program, to within the
    # rounding of the float terms
    for indices in [NUMERIC_INDICES] + PREFIX_SETS:
        for mu in indices:
            full, half = _per_index_partials(mu, N, strict=False)
            value, err = _truncated(coarsen(_term(mu)), N)
            assert abs(value - full) <= 4 * math.ulp(full), (mu, N, value, full)
            assert abs(err - 2 * abs(full - half)) <= 8 * math.ulp(full), (mu, N)


def _adversarial_arrays():
    # the generator of test_exact_sum_rounds_like_fsum
    rng = np.random.default_rng(20070225)
    for case in range(200):
        n = int(rng.integers(0, _BLOCK + 1)) if case % 10 else 1 << 15
        low = -1074 if case % 2 else int(rng.integers(-1074, 800))
        t = np.ldexp(rng.standard_normal(n), rng.integers(low, 891, n))
        if case % 3 == 0:
            t[::5] = 0.0
        if case % 4 == 0:
            t[n // 2 :] = -t[: n - n // 2]
            t[n // 2 :: 97] *= 1.0 + 2.0**-52
        if case % 7 == 0:
            t[::3] = np.ldexp(rng.standard_normal(len(t[::3])), -1074 + 52)
        yield t
    t = np.full(1 << 15, (2**52 - 1) * 5e-324)
    t[0] = 5e-324
    yield t  # mixed subnormals: 2**15 - 1 of the largest, one of the smallest
    yield -t
    yield np.array([2.0**941 * 1.5, 2.0**941 * 1.25, -(2.0**-1074), 2.0**-1022])
    yield np.ldexp(np.ones(1 << 15), np.arange(1 << 15) % 2016 - 1074)


def test_extract_vector_matches_the_bincount_oracle():
    for case, t in enumerate(_adversarial_arrays()):
        got, want = _exact_sum(t), _bincount_exact_sum(t)
        assert got << _ORACLE_UNIT == want << _UNIT, case
        assert got / (1 << _UNIT) == math.fsum(t), case


# The certified path: the Hölder convolution at 1/2 in fixed point.


def _term(mu, c=1):
    return Combination.term(mu, c)


def test_true_relations_pass_with_a_proven_bound_below_1e_30():
    for rel in _numeric_suite_relations(5):
        report = verify_linear(rel)
        assert report["pass"] is True, report
        assert 0.0 < report["err"] <= 1e-30, report
    report = verify_quadratic(quadratic_relation((1,), (1,), 2))
    assert report["pass"] is True and 0.0 < report["err"] <= 1e-30, report


def test_planted_false_relations_fail():
    # the doubling bar accepted the 1/500 plant at N = 10**6: 8.45e-4 against 8.48e-4
    element = kawashima_relation(idx(1, 1), idx(1, 1)).element
    for eps in (Fraction(1, 500), Fraction(1, 10**20)):
        report = verify_linear(element + _term((3, 1), eps))
        assert report["pass"] is False, report
        # the value is eps * zeta(3,2), and the bound is far below it
        assert abs(report["value"] - float(eps) * 0.7115661975505724) < 1e-9 * float(eps)
        assert report["err"] < 1e-6 * abs(report["value"]), report


def test_a_plant_below_the_old_tolerance_floor_fails():
    # verdicts once passed on max(1e-30, bound); this plant's value, 7.2e-32,
    # is under that floor but above its proven bound, 4.9e-33
    element = kawashima_relation(idx(1, 1), idx(1, 1)).element
    report = verify_linear(element + _term((3, 1), Fraction(1, 10**31)))
    assert report["pass"] is False, report
    assert 7.1e-32 < abs(report["value"]) < 7.2e-32 and report["err"] < 1e-32, report


@pytest.mark.parametrize("mu", NUMERIC_INDICES)
def test_certified_values_lie_within_the_truncated_oracle(mu):
    certified = zeta_strict(_term(mu))
    value, err = _truncated(_term(mu), 10**4)
    assert abs(certified.value - value) <= certified.err + err, mu


def _machin_pi(bits):
    """``(p, e)`` with ``|2**bits * pi - p| <= e``, by Machin's formula in integers."""
    p = e = 0
    for scale, x in ((16, 5), (-4, 239)):
        k = 0
        while (term := (1 << bits) // ((2 * k + 1) * x ** (2 * k + 1))):
            p += scale * (-1) ** k * term
            k += 1
        # each floor loses less than a unit, and so does the alternating tail
        e += abs(scale) * (k + 1)
    return p, e


def test_zeta_2_and_4_against_machin_pi_to_110_bits():
    p, e = _machin_pi(256)
    pi, d = Fraction(p, 1 << 256), Fraction(e, 1 << 256)
    for mu, power, scale in (((2,), 2, 6), ((4,), 4, 90)):
        est = zeta_strict(_term(mu))
        value, bound = est.exact
        exact = pi**power / scale
        slack = ((pi + d) ** power - pi**power) / scale
        assert abs(value - exact) <= bound + slack, mu
        assert bound + slack <= Fraction(1, 2**110), mu
        # err is a true bound for the rounded float too
        assert abs(Fraction(est.value) - exact) <= Fraction(est.err) + slack, mu


def test_known_identities_within_the_summed_bounds():
    # zeta(3) = zeta(1,2) (Euler) and zeta(4) = 4 zeta(1,3)
    for left, right, c in (((3,), (1, 2), 1), ((4,), (1, 3), 4)):
        (a, ea), (b, eb) = zeta_strict(_term(left)).exact, zeta_strict(_term(right)).exact
        assert abs(a - c * b) <= ea + c * eb, (left, right)
        assert ea + c * eb < Fraction(1, 2**105)


def test_a_40_bit_value_and_bound_contain_the_120_bit_value():
    for mu in NUMERIC_INDICES:
        rough, fine = numeric._certified(_term(mu), 40), numeric._certified(_term(mu), 120)
        assert abs(rough.exact[0] - fine.exact[0]) <= rough.exact[1], mu
        assert rough.truncation < fine.truncation
        assert fine.exact[1] < rough.exact[1] < Fraction(1, 2**30), mu


def test_certified_estimates_refuse_divergent_indices():
    for bad in (_term((2, 1)), _term(()), _term((2,)) + _term((1,))):
        with pytest.raises(ValueError):
            zeta_strict(bad)
    # (2,1) is among its own coarsenings (2,1) and (3), certified and truncated
    with pytest.raises(ValueError):
        zeta_bar(_term((2, 1)))
    with pytest.raises(ValueError):
        _truncated(coarsen(_term((2, 1))), 1000)


def test_certified_zeta_bar_of_1_2_is_twice_zeta_3():
    # zeta*(1,2) = zeta(1,2) + zeta(3) = 2 zeta(3)
    star = zeta_bar(_term((1, 2)))
    (a, ea), (b, eb) = star.exact, zeta_strict(_term((3,))).exact
    assert abs(a - 2 * b) <= ea + 2 * eb
    assert ea + 2 * eb < Fraction(1, 2**105)
    assert abs(star.value - 2 * 1.2020569031595942) < 1e-15
