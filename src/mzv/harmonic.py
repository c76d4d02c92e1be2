"""Exact finite harmonic sums and their difference calculus.

For a multi-index ``mu = (mu_1, .., mu_p)`` the building blocks are

* ``seq_s``: chains ``0 <= n_1 <= .. <= n_p = n``, factor ``1/(n_i+1)**mu_i``,
* ``seq_a``: the same with strict inequalities ``n_1 < .. < n_p = n``,
* ``seq_S`` / ``seq_A``: their running sums over ``n' < n`` (1 for phi),

all exact on ``0..horizon`` and extended linearly to combinations.  The
arithmetic runs on integers: with ``L = lcm(1, .., horizon+1)`` each factor
``1/(i+1)**part`` is the integer ``(L // (i+1))**part`` over ``L**part``, so
a chain sum of an index of weight ``w`` is an integer over ``L**w`` and sums
and differences never take a gcd.  :class:`RationalSequence` holds such
integer numerators over one positive denominator and hands out ``Fraction``
values only at its edge (indexing, ``values``, ``repr``).  It carries the
finite-difference toolkit: ``delta`` (forward difference ``a(n) - a(n+1)``)
and the binomial transform ``nabla``.  Both read the difference table, row
``k`` being ``delta**k a``: ``nabla`` is its top edge
``(nabla a)(n) = (delta**n a)(0)``, an involution interchanging the table's
rows and columns.

``seq_s2`` evaluates the two-parameter normalised sum attached to a pair of
equal-weight indices: both chains are run simultaneously, each of the
``m = |mu| = |nu|`` factors couples one entry of the first chain with one of
the second (entry ``i`` is used ``mu_i`` times, entry ``j`` is used ``nu_j``
times, both in increasing order), and the total is divided by the binomial
coefficient ``C(n+k, n)``.  Specialising either argument to 0 recovers
``seq_s`` of the other index.  One call returns the values at every
``a <= n``, ``b <= k`` from the one DP that the corner value needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from math import comb, lcm
from operator import add, mul, sub

from .indices import MultiIndex, _coeff, as_combination, as_index


class RationalSequence:
    """Exact values ``a(0), .., a(horizon)``: integer numerators over one
    positive denominator."""

    __slots__ = ("_nums", "_den")

    def __init__(self, values):
        values = [_coeff(v) for v in values]  # ints and Fractions only, as in a Combination
        if not values:
            raise ValueError("a sequence needs at least the value at 0")
        den = lcm(*(v.denominator for v in values))
        self._nums = tuple(v.numerator * (den // v.denominator) for v in values)
        self._den = den

    @classmethod
    def _of(cls, nums: tuple, den: int) -> "RationalSequence":
        out = object.__new__(cls)
        out._nums, out._den = nums, den
        return out

    @property
    def values(self) -> tuple:
        return tuple(Fraction(v, self._den) for v in self._nums)

    @property
    def horizon(self) -> int:
        return len(self._nums) - 1

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self._nums[n], self._den)

    def __len__(self) -> int:
        return len(self._nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalSequence) and len(self) == len(other)
                and all(a * other._den == b * self._den for a, b in zip(self._nums, other._nums)))

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        shown = ", ".join(str(Fraction(v, self._den)) for v in self._nums[:6])
        more = ", .." if len(self._nums) > 6 else ""
        return "RationalSequence([%s%s])" % (shown, more)

    def _rows(self):
        """The numerators of the difference table's rows: ``a``, ``delta a``, .."""
        row = self._nums
        while row:
            yield row
            row = tuple(map(sub, row, row[1:]))

    def delta(self, k: int = 1) -> "RationalSequence":
        """The k-fold difference n -> a(n) - a(n+1); horizon shrinks by k."""
        if k < 0 or k > self.horizon:
            raise ValueError("cannot difference past the horizon")
        return RationalSequence._of(next(islice(self._rows(), k, None)), self._den)

    def nabla(self) -> "RationalSequence":
        """Binomial transform n -> (delta**n a)(0), the top edge of the difference table."""
        return RationalSequence._of(tuple(row[0] for row in self._rows()), self._den)


@lru_cache(maxsize=1 << 15)
def _chain_values(mu: MultiIndex, horizon: int, strict: bool) -> tuple:
    """The chain sums of a bare index on 0..horizon times ``L**weight``, with
    ``L = lcm(1, .., horizon+1)``: integers."""
    L = lcm(*range(1, horizon + 2))
    scale = [L // (i + 1) for i in range(horizon + 1)]
    level = [1] * (horizon + 1)
    for t, part in enumerate(mu):
        if t:  # the earlier entry runs over i' < i (strict) or i' <= i (weak)
            level = accumulate(level[:-1], initial=0) if strict else accumulate(level)
        level = [acc * q**part for acc, q in zip(level, scale)]
    return tuple(level)


def _chain_sequence(x, horizon: int, strict: bool, running: bool) -> RationalSequence:
    """Chain sums of ``x`` on ``0..horizon``, or their running sums over
    ``n' < n`` when ``running`` (phi stays the constant 1 either way), over
    the denominator ``lcm(coefficient denominators) * L**(largest weight)``."""
    terms = as_combination(x).terms()
    top = max((mu.weight for mu, _ in terms), default=0)
    cden = lcm(*(c.denominator for _, c in terms))
    L = lcm(*range(1, horizon + 2))
    totals = [0] * (horizon + 1)
    for mu, c in terms:
        vals = _chain_values(mu, horizon, strict)
        if running and mu:
            vals = accumulate(vals[:-1], initial=0)
        scale = c.numerator * (cden // c.denominator) * L ** (top - mu.weight)
        totals = [t + scale * v for t, v in zip(totals, vals)]
    return RationalSequence._of(tuple(totals), cden * L**top)


def seq_s(x, horizon: int) -> RationalSequence:
    """Weak-chain sums on ``0..horizon``, linear in ``x``; 1 for phi."""
    return _chain_sequence(x, horizon, strict=False, running=False)


def seq_a(x, horizon: int) -> RationalSequence:
    """Strict-chain sums on ``0..horizon``, linear in ``x``; 1 for phi."""
    return _chain_sequence(x, horizon, strict=True, running=False)


def seq_S(x, horizon: int) -> RationalSequence:
    """Running sums ``n -> sum(seq_s(x)(i), i < n)``; constant 1 for phi."""
    return _chain_sequence(x, horizon, strict=False, running=True)


def seq_A(x, horizon: int) -> RationalSequence:
    """Running sums ``n -> sum(seq_a(x)(i), i < n)``; constant 1 for phi."""
    return _chain_sequence(x, horizon, strict=True, running=True)


# ---------------------------------------------------------------------------
# the two-parameter sums


def _step_labels(mu: MultiIndex) -> list[int]:
    return [i for i, part in enumerate(mu) for _ in range(part)]


def seq_s2(mu, nu, n: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """The normalised two-chain sums of equal-weight indices ``mu``, ``nu`` at
    every ``a <= n``, ``b <= k``, as rows by ``a``: entry ``[a][b]`` is the
    value at ``(a, b)``.

    Runs a joint chain DP on integers: state (a, b) holds the current entries
    of the two chains, each factor contributes 1/(a+b+1), which is the exact
    ``D // (a+b+1)`` over ``D = lcm(1, .., n+k+1)``, and a chain entry advances
    exactly where its index prescribes.  Entry (a, b) of the grid reads only
    entries with a' <= a and b' <= b, so the corner's DP gives them all; each
    is a ``Fraction`` only at the end, over ``D**m * C(a+b, a)``.
    """
    mu, nu = as_index(mu), as_index(nu)
    if not mu or not nu:
        raise ValueError("the two-parameter sum needs non-empty indices")
    if mu.weight != nu.weight:
        raise ValueError("indices must have equal weight")
    if n < 0 or k < 0:
        raise ValueError("arguments must be non-negative")
    left = _step_labels(mu)
    right = _step_labels(nu)
    m = mu.weight
    D = lcm(*range(1, n + k + 2))
    scale = [[D // (a + b + 1) for b in range(k + 1)] for a in range(n + 1)]
    # grid[a][b]: the sum over admissible earlier chain entries of the factors
    # consumed so far, each factor times D
    grid = scale
    for t in range(1, m):
        if left[t] != left[t - 1]:  # sums down each column
            grid = accumulate(grid, lambda above, row: list(map(add, above, row)))
        if right[t] != right[t - 1]:  # sums along each row
            grid = map(accumulate, grid)
        grid = [list(map(mul, row, factors)) for row, factors in zip(grid, scale)]
    return tuple(
        tuple(Fraction(v, D**m * comb(a + b, a)) for b, v in enumerate(row))
        for a, row in enumerate(grid)
    )
