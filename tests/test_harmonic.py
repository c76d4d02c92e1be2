import itertools
import math
import random
from fractions import Fraction
from operator import sub

import pytest

from mzv.harmonic import (
    RationalSequence,
    seq_A,
    seq_S,
    seq_a,
    seq_s,
    seq_s2,
)
from mzv.indices import (PHI, Combination, all_indices, as_combination, coarsen, coarsen_inv, dual,
                         idx)
from mzv.products import circ, circ_bar, stuffle, stuffle_bar


def brute_s(mu, n):
    # weak chain with the last variable pinned to n
    p = len(mu)
    total = Fraction(0)
    for head in itertools.combinations_with_replacement(range(n + 1), p - 1):
        chain = head + (n,)
        if any(a > b for a, b in zip(chain, chain[1:])):
            continue
        term = Fraction(1)
        for var, exp in zip(chain, mu):
            term /= (var + 1) ** exp
        total += term
    return total


def brute_a(mu, n):
    p = len(mu)
    total = Fraction(0)
    for head in itertools.combinations(range(n), p - 1):
        chain = head + (n,)
        term = Fraction(1)
        for var, exp in zip(chain, mu):
            term /= (var + 1) ** exp
        total += term
    return total


def brute_S(mu, n):
    if not mu:
        return Fraction(1)
    return sum(
        (brute_s(mu, j) for j in range(n)),
        Fraction(0),
    )


def brute_A(mu, n):
    if not mu:
        return Fraction(1)
    total = Fraction(0)
    for chain in itertools.combinations(range(n), len(mu)):
        term = Fraction(1)
        for var, exp in zip(chain, mu):
            term /= (var + 1) ** exp
        total += term
    return total


def brute_s2(mu, nu, n, k):
    ilab = [i for i, exp in enumerate(mu) for _ in range(exp)]
    jlab = [j for j, exp in enumerate(nu) for _ in range(exp)]
    total = Fraction(0)
    for nc in itertools.combinations_with_replacement(range(n + 1), len(mu) - 1):
        nchain = nc + (n,)
        if any(a > b for a, b in zip(nchain, nchain[1:])):
            continue
        for kc in itertools.combinations_with_replacement(range(k + 1), len(nu) - 1):
            kchain = kc + (k,)
            if any(a > b for a, b in zip(kchain, kchain[1:])):
                continue
            term = Fraction(1)
            for i, j in zip(ilab, jlab):
                term /= nchain[i] + kchain[j] + 1
            total += term
    return total / math.comb(n + k, n)


def test_sequences_match_brute_force():
    for w in range(1, 5):
        for mu in all_indices(w):
            s = seq_s(mu, 6)
            a = seq_a(mu, 6)
            S = seq_S(mu, 6)
            A = seq_A(mu, 6)
            for n in range(7):
                assert s[n] == brute_s(mu, n)
                assert a[n] == brute_a(mu, n)
                assert S[n] == brute_S(mu, n)
                assert A[n] == brute_A(mu, n)


def test_frozen_small_values():
    assert seq_s(idx(1), 3).values == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    )
    # s_(1,1)(n) = (h_n-ish chain): at n=1, pairs (0,1),(1,1) -> 1/2 + 1/4
    assert seq_s(idx(1, 1), 2)[1] == Fraction(3, 4)
    assert seq_s(idx(1, 1), 2)[2] == Fraction(1, 3) * (1 + Fraction(1, 2) + Fraction(1, 3))
    assert seq_a(idx(2), 2).values == (Fraction(1), Fraction(1, 4), Fraction(1, 9))
    assert seq_a(idx(1, 1), 2)[1] == Fraction(1, 2)
    # A sums strictly below n, so A(0) = 0 and A(1) = first term
    assert seq_A(idx(2), 3).values == (
        Fraction(0),
        Fraction(1),
        Fraction(5, 4),
        Fraction(49, 36),
    )
    assert seq_S(PHI, 2).values == (1, 1, 1)
    assert seq_A(PHI, 2).values == (1, 1, 1)
    assert seq_s(PHI, 2).values == (1, 1, 1)
    assert seq_a(PHI, 2).values == (1, 1, 1)


def test_sequences_are_linear_in_the_combination():
    x = Combination([((1, 1), 2), ((2,), -3)])
    for fn in (seq_s, seq_a, seq_S, seq_A):
        rhs = [2 * a - 3 * b for a, b in zip(fn(idx(1, 1), 5).values, fn(idx(2), 5).values)]
        assert list(fn(x, 5).values) == rhs


def test_rational_sequence_ops():
    a = RationalSequence([1, 2, 4, 8])
    assert a.values == (1, 2, 4, 8) and all(type(v) is Fraction for v in a.values)
    with pytest.raises(TypeError):  # a sequence has no pointwise arithmetic
        2 * a
    assert a.delta().values == (-1, -2, -4)
    assert a.delta(2).values == (1, 2)
    assert a.horizon == 3
    with pytest.raises(ValueError):
        a.delta(5)


def test_difference_and_inversion_basics():
    a = RationalSequence([Fraction(1), Fraction(5), Fraction(2), Fraction(7), Fraction(3)])
    # (delta a)(n) = a(n) - a(n+1)
    assert a.delta().values == (-4, 3, -5, 4)
    # (nabla a)(n) = (delta^n a)(0), computed against the binomial formula
    nab = a.nabla()
    for k in range(5):
        expected = sum(
            (-1) ** i * math.comb(k, i) * a[i] for i in range(k + 1)
        )
        assert nab[k] == expected
    # inversion is an involution
    assert a.nabla().nabla().values == a.values


def _binomial_transform(values):
    # the signed binomial sums nabla was once computed by, kept as its reference
    return [sum((-1) ** k * math.comb(n, k) * values[k] for k in range(n + 1))
            for n in range(len(values))]


def test_nabla_matches_the_binomial_formula_on_random_sequences():
    rng = random.Random(310)
    for length in range(1, 16):
        for _ in range(4):
            a = RationalSequence(Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                                 for _ in range(length))
            assert list(a.nabla().values) == _binomial_transform(a.values), a
            assert a.nabla().nabla() == a


def test_inversion_swaps_difference_directions():
    # (delta^k (nabla a))(n) = (delta^n a)(k)
    a = RationalSequence([Fraction(v) for v in (3, 1, 4, 1, 5, 9, 2, 6)])
    for n in range(4):
        for k in range(4):
            assert a.nabla().delta(k)[n] == a.delta(n)[k]


def test_delta_matches_binomial_expansion():
    for w in range(1, 5):
        for mu in all_indices(w):
            s = seq_s(mu, 8)
            for k in range(4):
                d = s.delta(k)
                for n in range(4):
                    expected = sum(
                        (-1) ** i * math.comb(k, i) * s[n + i] for i in range(k + 1)
                    )
                    assert d[n] == expected


def test_running_sum_difference_recovers_summand():
    for w in range(1, 5):
        for mu in all_indices(w):
            assert [-v for v in seq_S(mu, 7).delta().values] == list(seq_s(mu, 6).values)
            assert [-v for v in seq_A(mu, 7).delta().values] == list(seq_a(mu, 6).values)


def test_pinned_last_variable_factors_out():
    for w in range(1, 5):
        for mu in all_indices(w):
            head = idx(*mu[:-1])
            for n in range(6):
                assert seq_s(mu, 6)[n] == seq_S(head, 7)[n + 1] / Fraction(n + 1) ** mu[-1]
                assert seq_a(mu, 6)[n] == seq_A(head, 6)[n] / Fraction(n + 1) ** mu[-1]


def test_coarsening_exchanges_weak_and_strict():
    for w in range(1, 6):
        for mu in all_indices(w):
            x = Combination.term(mu)
            assert seq_s(x, 6).values == seq_a(coarsen(x), 6).values
            assert seq_S(x, 6).values == seq_A(coarsen(x), 6).values
            assert seq_a(x, 6).values == seq_s(coarsen_inv(x), 6).values
            assert seq_A(x, 6).values == seq_S(coarsen_inv(x), 6).values


def test_products_of_sequences():
    pairs = []
    for wa in range(1, 4):
        for wb in range(1, 4):
            for mu in all_indices(wa):
                for nu in all_indices(wb):
                    pairs.append((mu, nu))
    for mu, nu in pairs:
        for fn, product in ((seq_A, stuffle), (seq_S, stuffle_bar), (seq_a, circ),
                            (seq_s, circ_bar)):
            pointwise = tuple(a * b for a, b in zip(fn(mu, 6).values, fn(nu, 6).values))
            assert pointwise == fn(product(mu, nu), 6).values, fn.__name__


def test_two_parameter_sum_matches_brute_force():
    for m in range(1, 4):
        for mu in all_indices(m):
            for nu in all_indices(m):
                table = seq_s2(mu, nu, 2, 2)
                for n in range(3):
                    for k in range(3):
                        assert table[n][k] == brute_s2(mu, nu, n, k)


def test_two_parameter_sum_boundary():
    for m in range(1, 5):
        for mu in all_indices(m):
            for nu in all_indices(m):
                assert seq_s2(mu, nu, 3, 0)[3][0] == seq_s(mu, 4)[3]
                assert seq_s2(mu, nu, 0, 4)[0][4] == seq_s(nu, 5)[4]


def test_two_parameter_sum_lowering_recurrence():
    for m in range(2, 5):
        for mu in all_indices(m):
            for nu in all_indices(m):
                if mu[-1] > 1 and nu[-1] == 1:
                    lowered = (idx(*mu[:-1], mu[-1] - 1), idx(*nu[:-1]))
                elif mu[-1] == 1 and nu[-1] > 1:
                    lowered = (idx(*mu[:-1]), idx(*nu[:-1], nu[-1] - 1))
                else:
                    continue
                lower = seq_s2(*lowered, 3, 3)
                full = seq_s2(mu, nu, 3, 3)
                for n in range(4):
                    for k in range(4):
                        rhs = (n + k + 1) * full[n][k]
                        if mu[-1] > 1:
                            if k > 0:
                                rhs -= k * full[n][k - 1]
                        else:
                            if n > 0:
                                rhs -= n * full[n - 1][k]
                        assert lower[n][k] == rhs


def test_difference_table_is_two_parameter_sum_at_dual():
    for w in range(1, 5):
        for mu in all_indices(w):
            s = seq_s(mu, 10)
            table = seq_s2(mu, dual(mu), 4, 4)
            for k in range(5):
                d = s.delta(k)
                for n in range(5):
                    assert d[n] == table[n][k]


def test_inversion_of_pinned_sum_is_dual_pinned_sum():
    for w in range(1, 6):
        for mu in all_indices(w):
            assert seq_s(mu, 8).nabla().values == seq_s(dual(mu), 8).values


def test_inversion_of_running_sum():
    # (nabla S_mu)(0) = 0 and (nabla S_mu)(n) = -s_{mu*}(n-1) for n >= 1
    for w in range(1, 5):
        for mu in all_indices(w):
            nab = seq_S(mu, 7).nabla()
            assert nab[0] == 0
            tail = seq_s(dual(mu), 6)
            for n in range(1, 7):
                assert nab[n] == -tail[n - 1]


def test_seq_s2_validates_arguments():
    with pytest.raises(ValueError):
        seq_s2(PHI, PHI, 1, 1)
    with pytest.raises(ValueError):
        seq_s2(idx(2), idx(1), 1, 1)
    with pytest.raises(ValueError):
        seq_s2(idx(2), idx(1, 1), -1, 0)


def test_lower_bound_on_pinned_sum():
    # the single chain (n, .., n) contributes 1/(n+1)^{weight}
    for w in range(1, 5):
        for mu in all_indices(w):
            s = seq_s(mu, 6)
            for n in range(7):
                assert s[n] >= Fraction(1, (n + 1) ** mu.weight)


def _oracle_seq_s2(mu, nu, n, k):
    """The per-value DP that seq_s2's one table replaced: one grid per (n, k)."""
    left = [i for i, part in enumerate(mu) for _ in range(part)]
    right = [j for j, part in enumerate(nu) for _ in range(part)]
    grid = [[Fraction(1, a + b + 1) for b in range(k + 1)] for a in range(n + 1)]
    for t in range(1, sum(mu)):
        if left[t] != left[t - 1]:
            for b in range(k + 1):
                acc = Fraction(0)
                for a in range(n + 1):
                    acc += grid[a][b]
                    grid[a][b] = acc
        if right[t] != right[t - 1]:
            for a in range(n + 1):
                acc = Fraction(0)
                row = grid[a]
                for b in range(k + 1):
                    acc += row[b]
                    row[b] = acc
        for a in range(n + 1):
            row = grid[a]
            for b in range(k + 1):
                row[b] /= a + b + 1
    return grid[n][k] / math.comb(n + k, n)


def test_two_parameter_table_matches_the_per_call_dp():
    for m in range(1, 5):
        for mu in all_indices(m):
            for nu in all_indices(m):
                table = seq_s2(mu, nu, 6, 6)
                assert len(table) == 7 and all(len(row) == 7 for row in table)
                for a in range(7):
                    for b in range(7):
                        assert table[a][b] == _oracle_seq_s2(mu, nu, a, b), (mu, nu, a, b)
    # grids that are not square, and a single cell
    assert seq_s2(idx(2, 1), idx(1, 2), 2, 9)[2] == tuple(
        _oracle_seq_s2(idx(2, 1), idx(1, 2), 2, b) for b in range(10)
    )
    assert seq_s2(idx(2, 1), idx(1, 2), 0, 0) == ((_oracle_seq_s2(idx(2, 1), idx(1, 2), 0, 0),),)
    assert seq_s2(idx(3), idx(1, 2), 11, 3)[11][3] == _oracle_seq_s2(idx(3), idx(1, 2), 11, 3)
    with pytest.raises(ValueError):
        seq_s2(idx(2), idx(1, 1), 1, -1)


# ---------------------------------------------------------------------------
# the Fraction kernels that the integer ones replaced, kept as oracles


class _FractionSequence:
    """``RationalSequence`` as it was: one ``Fraction`` per value."""

    def __init__(self, values):
        self.values = tuple(Fraction(v) for v in values)

    def __eq__(self, other):
        return self.values == other.values

    def _rows(self):
        row = self.values
        while row:
            yield row
            row = tuple(map(sub, row, row[1:]))

    def delta(self, k=1):
        return _FractionSequence(next(itertools.islice(self._rows(), k, None)))

    def nabla(self):
        return _FractionSequence(row[0] for row in self._rows())


def _fraction_chain_values(mu, horizon, strict):
    if not mu:
        return (Fraction(1),) * (horizon + 1)
    level = [Fraction(1, (i + 1) ** mu[0]) for i in range(horizon + 1)]
    for part in mu[1:]:
        sums = (itertools.accumulate(level[:-1], initial=Fraction(0)) if strict
                else itertools.accumulate(level))
        level = [acc / (i + 1) ** part for i, acc in enumerate(sums)]
    return tuple(level)


def _fraction_chain_sequence(x, horizon, strict, running):
    totals = [Fraction(0)] * (horizon + 1)
    for mu, c in as_combination(x).terms():
        vals = _fraction_chain_values(mu, horizon, strict)
        if running and mu:
            vals = tuple(itertools.accumulate(vals[:-1], initial=Fraction(0)))
        for i in range(horizon + 1):
            totals[i] += c * vals[i]
    return totals


def _fraction_seq_s2(mu, nu, n, k):
    left = [i for i, part in enumerate(mu) for _ in range(part)]
    right = [j for j, part in enumerate(nu) for _ in range(part)]
    grid = [[Fraction(1, a + b + 1) for b in range(k + 1)] for a in range(n + 1)]
    for t in range(1, sum(mu)):
        if left[t] != left[t - 1]:
            for b in range(k + 1):
                acc = Fraction(0)
                for a in range(n + 1):
                    acc += grid[a][b]
                    grid[a][b] = acc
        if right[t] != right[t - 1]:
            for a in range(n + 1):
                acc = Fraction(0)
                row = grid[a]
                for b in range(k + 1):
                    acc += row[b]
                    row[b] = acc
        for a in range(n + 1):
            row = grid[a]
            for b in range(k + 1):
                row[b] /= a + b + 1
    return tuple(tuple(v / math.comb(a + b, a) for b, v in enumerate(row))
                 for a, row in enumerate(grid))


_KINDS = [(seq_s, False, False), (seq_a, True, False), (seq_S, False, True), (seq_A, True, True)]


def test_integer_chain_sums_match_the_fraction_kernel():
    for w in range(7):
        for mu in all_indices(w):
            for fn, strict, running in _KINDS:
                want = _fraction_chain_sequence(mu, 9, strict, running)
                got = fn(mu, 9)
                assert got.values == tuple(want) and [got[n] for n in range(10)] == want
                assert all(type(v) is Fraction for v in got.values), (fn.__name__, mu)


def test_integer_chain_sums_of_combinations_match_the_fraction_kernel():
    # Fraction coefficients, mixed weights, phi, a zero combination and horizon 0
    combos = [
        Combination([((1, 2), Fraction(3, 4)), ((2,), Fraction(-5, 6)), ((), 7)]),
        Combination([((3, 1, 1), Fraction(1, 9)), ((1,), -2), ((2, 2), Fraction(4, 15))]),
        Combination([((), Fraction(1, 2))]),
        Combination(),
        Combination([((1, 1), 1), ((1, 1, 2), -1), ((4,), Fraction(22, 7))]),
    ]
    for x in combos:
        for horizon in (0, 1, 6, 11):
            for fn, strict, running in _KINDS:
                want = _fraction_chain_sequence(x, horizon, strict, running)
                got = fn(x, horizon)
                assert got.values == tuple(want), (fn.__name__, x, horizon)
                assert got == RationalSequence(want) and hash(got) == hash(RationalSequence(want))


def test_delta_nabla_and_equality_match_the_fraction_kernel():
    rng = random.Random(2007)
    for length in range(1, 14):
        for _ in range(6):
            values = [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(length)]
            a, oracle = RationalSequence(values), _FractionSequence(values)
            assert a.values == oracle.values
            assert a.nabla().values == oracle.nabla().values
            for k in range(length):
                assert a.delta(k).values == oracle.delta(k).values
            # equal values over different denominators, and unequal ones
            scaled = RationalSequence._of(tuple(3 * v for v in a._nums), 3 * a._den)
            assert a == scaled == a.nabla().nabla() and scaled.values == a.values
            assert hash(a) == hash(scaled) and repr(a) == repr(scaled)
            other = values[:-1] + [values[-1] + Fraction(1, rng.randint(1, 9))]
            assert a != RationalSequence(other)
            assert a != RationalSequence(values + [0]) and a != oracle


def test_two_chain_sums_match_the_fraction_kernel_on_grids_that_are_not_square():
    for m in range(1, 6):
        for mu in all_indices(m):
            for nu in all_indices(m):
                for n, k in ((3, 5), (5, 2), (0, 4)):
                    assert seq_s2(mu, nu, n, k) == _fraction_seq_s2(mu, nu, n, k), (mu, nu, n, k)


def test_rational_sequence_rejects_floats_and_bools():
    # as a Combination's coefficients do: 0.1 is not the rational 1/10
    for values in ([0.1, 1], [True, 2], [1, False], [Fraction(1, 3), 2.0], ["1/2"]):
        with pytest.raises(TypeError):
            RationalSequence(values)
    assert RationalSequence([Fraction(1, 10), 1]).values == (Fraction(1, 10), 1)
