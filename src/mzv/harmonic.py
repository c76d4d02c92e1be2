"""Exact finite harmonic sums and their difference calculus.

For a multi-index ``mu = (mu_1, .., mu_p)`` the building blocks are

* ``seq_s``: chains ``0 <= n_1 <= .. <= n_p = n``, factor ``1/(n_i+1)**mu_i``,
* ``seq_a``: the same with strict inequalities ``n_1 < .. < n_p = n``,
* ``seq_S`` / ``seq_A``: their running sums over ``n' < n`` (1 for phi),

all with exact ``Fraction`` values on ``0..horizon`` and extended linearly to
combinations.  :class:`RationalSequence` carries the finite-difference
toolkit: ``delta`` (forward difference ``a(n) - a(n+1)``) and the binomial
transform ``nabla``.  Both read the difference table, row ``k`` being
``delta**k a``: ``nabla`` is its top edge ``(nabla a)(n) = (delta**n a)(0)``,
an involution interchanging the table's rows and columns.

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
from math import comb
from operator import sub

from .indices import MultiIndex, as_combination, as_index

ZERO = Fraction(0)
ONE = Fraction(1)


class RationalSequence:
    """Exact values ``a(0), .., a(horizon)``."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        if not self.values:
            raise ValueError("a sequence needs at least the value at 0")

    @property
    def horizon(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalSequence) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        shown = ", ".join(str(v) for v in self.values[:6])
        more = ", .." if len(self.values) > 6 else ""
        return "RationalSequence([%s%s])" % (shown, more)

    def _rows(self):
        """The rows of the difference table: ``a``, ``delta a``, ``delta**2 a``, .."""
        row = self.values
        while row:
            yield row
            row = tuple(map(sub, row, row[1:]))

    def delta(self, k: int = 1) -> "RationalSequence":
        """The k-fold difference n -> a(n) - a(n+1); horizon shrinks by k."""
        if k < 0 or k > self.horizon:
            raise ValueError("cannot difference past the horizon")
        return RationalSequence(next(islice(self._rows(), k, None)))

    def nabla(self) -> "RationalSequence":
        """Binomial transform n -> (delta**n a)(0), the top edge of the difference table."""
        return RationalSequence(row[0] for row in self._rows())


@lru_cache(maxsize=1 << 15)
def _chain_values(mu: MultiIndex, horizon: int, strict: bool) -> tuple:
    """Values of the chain sum for a bare index on 0..horizon."""
    if not mu:
        return (ONE,) * (horizon + 1)
    level = [Fraction(1, (i + 1) ** mu[0]) for i in range(horizon + 1)]
    for part in mu[1:]:
        # the earlier entry runs over i' < i (strict) or i' <= i (weak)
        sums = accumulate(level[:-1], initial=ZERO) if strict else accumulate(level)
        level = [acc / (i + 1) ** part for i, acc in enumerate(sums)]
    return tuple(level)


def _chain_sequence(x, horizon: int, strict: bool, running: bool) -> RationalSequence:
    """Chain sums of ``x`` on ``0..horizon``, or their running sums over
    ``n' < n`` when ``running`` (phi stays the constant 1 either way)."""
    x = as_combination(x)
    totals = [ZERO] * (horizon + 1)
    for mu, c in x.terms():
        vals = _chain_values(mu, horizon, strict)
        if running and mu:
            vals = tuple(accumulate(vals[:-1], initial=ZERO))
        for i in range(horizon + 1):
            totals[i] += c * vals[i]
    return RationalSequence(totals)


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
    out = []
    for i, part in enumerate(mu):
        out.extend([i] * part)
    return out


def seq_s2(mu, nu, n: int, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """The normalised two-chain sums of equal-weight indices ``mu``, ``nu`` at
    every ``a <= n``, ``b <= k``, as rows by ``a``: entry ``[a][b]`` is the
    value at ``(a, b)``.

    Runs a joint chain DP: state (a, b) holds the current entries of the two
    chains, each factor contributes 1/(a+b+1), and a chain entry advances
    exactly where its index prescribes.  Entry (a, b) of the grid reads only
    entries with a' <= a and b' <= b, so the corner's DP gives them all.
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
    # grid[a][b]: sum over admissible earlier chain entries, factors consumed
    grid = [[Fraction(1, a + b + 1) for b in range(k + 1)] for a in range(n + 1)]
    for t in range(1, m):
        advance_left = left[t] != left[t - 1]
        advance_right = right[t] != right[t - 1]
        if advance_left:
            for b in range(k + 1):
                acc = ZERO
                for a in range(n + 1):
                    acc += grid[a][b]
                    grid[a][b] = acc
        if advance_right:
            for a in range(n + 1):
                acc = ZERO
                row = grid[a]
                for b in range(k + 1):
                    acc += row[b]
                    row[b] = acc
        for a in range(n + 1):
            row = grid[a]
            for b in range(k + 1):
                row[b] /= a + b + 1
    return tuple(
        tuple(v / comb(a + b, a) for b, v in enumerate(row)) for a, row in enumerate(grid)
    )
