"""Exact rational linear algebra for spans of homogeneous combinations.

A :class:`RelationMatrix` stores a list of weight-``k`` combinations as rows
over the column basis of all weight-``k`` indices (sorted by parts).  Each row
is stored once, as the given combination.  Both eliminations below read it as
a sparse integer row ``den * row`` over column positions, with ``den`` the lcm
of its denominators, made one row at a time as the elimination reaches it.

Both follow one pivot rule: the rows are taken in input order, each is
reduced against the pivot rows before it, and a row that stays non-zero
becomes a pivot row on its smallest non-zero column.  No row is swapped and
no column is scanned for a pivot, so the cost follows the row order while the
rank does not; sparsest first keeps the stuffle rows' fill-in and integer
entries small.  Membership certificates depend on the order, so nothing here
reorders rows.

Over the integers the elimination is fraction-free and serves both exact
questions.  The rank is the number of echelon rows.  Echelon row ``t`` keeps
its reduced integer row ``r_t``, its source row, the integer multiples
``M_t`` of earlier echelon rows subtracted from it and a positive scale
``D_t``, with the invariant

    D_t * den * source = r_t + sum(M_t[s] * r_s)

and the common content of ``r_t``, ``M_t`` and ``D_t`` divided out.  A
membership query reduces ``den_x * x`` the same way and rebuilds integer
coefficients over the source rows by back-substitution; every positive answer
is re-checked by multiplication before being returned.

``modular_rank`` is the fast certified-lower-bound path: one elimination
over GF(2) with the same pivot rule.  Each integer row is divided by its
content and its odd entries are packed into a Python int, column ``j`` at bit
``ncols - 1 - j``, so the smallest non-zero column is the highest set bit,
read by ``bit_length()`` without a big-int operation; each pivot row is keyed
by it, and each row operation is one XOR.  An integer matrix's rank mod 2
never exceeds its rank over Q, so it is a true lower bound, but only a lower
bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .indices import Combination, _accumulate, _key, all_indices, as_combination


class RelationMatrix:
    """Rows spanning a subspace of the weight-``k`` combination space."""

    def __init__(self, weight: int, rows):
        self.weight = int(weight)
        self.columns = all_indices(self.weight)
        self._colpos = {_key(mu): j for j, mu in enumerate(self.columns)}
        self.rows: list[Combination] = []
        for row in rows:
            row = as_combination(row)
            if not row._terms.keys() <= self._colpos.keys():
                raise ValueError("row has the wrong weight for this matrix")
            self.rows.append(row)
        self._echelon = None

    @classmethod
    def from_relations(cls, relations) -> "RelationMatrix":
        relations = list(relations)
        if not relations:
            raise ValueError("cannot infer the weight of an empty relation list")
        return cls(relations[0].weight, [r.element for r in relations])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def rank(self) -> int:
        return len(self._echelon_form())

    def _integer_row(self, x: Combination) -> tuple[dict, int]:
        """``den * x`` as an integer dict over column positions, and ``den``."""
        colpos = self._colpos
        if all(type(c) is int for c in x._terms.values()):
            return {colpos[k]: c for k, c in x._terms.items()}, 1
        den = lcm(*(c.denominator for c in x._terms.values()))
        return {colpos[k]: c.numerator * (den // c.denominator) for k, c in x._terms.items()}, den

    # -- elimination and membership ------------------------------------------

    def _echelon_form(self):
        """Echelon rows as (pivot col, reduced integer row r, source row,
        integer multiples M of earlier echelon rows, D * den)."""
        if self._echelon is None:
            ech = []
            for i, (row, den) in enumerate(map(self._integer_row, self.rows)):
                vec, multiples, scale = _reduce(row, ech)
                if vec:
                    ech.append((min(vec), vec, i, multiples, scale * den))
            self._echelon = ech
        return self._echelon

    def member(self, x) -> list[Fraction] | None:
        """Coefficients writing ``x`` as a combination of the rows, or None.

        ``None`` also answers an ``x`` with a term of another weight.  A
        returned certificate ``coeffs`` always satisfies
        ``sum(c * row for c, row in zip(coeffs, rows)) == x``; this is
        re-verified before returning.
        """
        x = as_combination(x)
        if not x._terms.keys() <= self._colpos.keys():
            return None
        echelon = self._echelon_form()
        vec, den = self._integer_row(x)
        vec, multiples, scale = _reduce(vec, echelon)
        if vec:
            return None
        # total * x is the sum of multiples[t] * r_t, and r_t is D_t * den_t
        # times its source row minus its own multiples of earlier echelon
        # rows: unfold from the last echelon row down, all in integers, into
        # numerators[i] = total * coefficient of row i, and re-verify against
        # the rows themselves (not their integer forms) before dividing
        total = scale * den
        numerators = {}
        check = {}
        for t in range(len(echelon) - 1, -1, -1):
            c = multiples.pop(t, 0)
            if c:
                _, _, source, earlier, source_scale = echelon[t]
                numerators[source] = n = c * source_scale
                _accumulate(check, self.rows[source]._terms.items(), n)
                _accumulate(multiples, earlier.items(), -c)
        if check != {k: total * c for k, c in x._terms.items()}:
            raise AssertionError("membership certificate failed re-verification")
        coeffs = [Fraction(0)] * self.nrows
        for i, n in numerators.items():
            coeffs[i] = Fraction(n, total)
        return coeffs

    # -- modular lower bound -------------------------------------------------

    def modular_rank(self) -> int:
        """Rank over GF(2) of the primitive integer rows: a lower bound for rank().

        It can fall short: ``(2) + (1,1)`` and ``(2) - (1,1)`` have rank 2 over
        Q but are the same row mod 2, so ``modular_rank()`` is 1 there.  A row
        such as ``2*(2)`` still counts, because its content is divided out first.
        """
        top = self.ncols - 1
        pivots = {}
        for row, _ in map(self._integer_row, self.rows):
            g = gcd(*row.values())
            v = sum(1 << top - j for j, c in row.items() if c // g & 1)
            while v:
                pivot = pivots.get(v.bit_length())
                if pivot is None:
                    pivots[v.bit_length()] = v
                    break
                v ^= pivot
        return len(pivots)


def _reduce(vec, echelon):
    """Reduce a copy of the integer row ``vec`` against the echelon rows.

    Returns ``(r, M, D)`` with ``D > 0`` and ``D * vec = r + sum(M[t] * r_t)``
    over the echelon rows ``r_t``, the common content of ``r``, ``M`` and
    ``D`` divided out.
    """
    vec = dict(vec)
    multiples = {}
    scale = 1
    for t, (pc, row, _, _, _) in enumerate(echelon):
        a = vec.get(pc)
        if a:
            b = row[pc]
            g = gcd(a, b)
            f, e = b // g, a // g
            if f < 0:
                f, e = -f, -e
            if f != 1:
                vec = {j: f * c for j, c in vec.items()}
                multiples = {s: f * c for s, c in multiples.items()}
                scale *= f
            _accumulate(vec, row.items(), -e)
            multiples[t] = e
    g = gcd(scale, *vec.values(), *multiples.values())
    if g != 1:
        vec = {j: c // g for j, c in vec.items()}
        multiples = {s: c // g for s, c in multiples.items()}
        scale //= g
    return vec, multiples, scale
