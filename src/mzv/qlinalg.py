"""Exact rational linear algebra for spans of homogeneous combinations.

A :class:`RelationMatrix` stores a list of weight-``k`` combinations as rows
over the column basis of all weight-``k`` indices (sorted by parts).  Ranks
are computed fraction-free (Bareiss elimination on integer-cleared rows, with
a sparsity-guided pivot choice); membership queries run over ``Fraction``
against a cached row echelon form that carries combination history, so every
positive answer comes with coefficients that are re-checked by
multiplication before being returned.

``modular_rank`` is the fast certified-lower-bound path: eliminate modulo a
few fixed 31-bit primes with vectorised integer arithmetic (all intermediate
products stay below 2**62) and return the best rank seen.  Ranks mod p never
exceed the rational rank, so the maximum over primes is a true lower bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .indices import Combination, _accumulate, all_indices, as_combination

#: Three fixed 31-bit primes (each exceeds 2**20, as the certificates require).
MODULAR_PRIMES = (2147483647, 2147483629, 2147483587)


def _integer_rows(rows):
    """Clear denominators and content from each row; returns dicts col -> int."""
    out = []
    for row in rows:
        if not row:
            continue
        denom = 1
        for c in row.values():
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = {j: int(c * denom) for j, c in row.items()}
        content = 0
        for v in ints.values():
            content = gcd(content, v)
        out.append({j: v // content for j, v in ints.items()})
    return out


_INEXACT = "inexact division in fraction-free elimination"


def _bareiss_rank(rows) -> int:
    """Fraction-free elimination; `rows` is a list of dicts col -> int."""
    active = _integer_rows(rows)
    rank = 0
    prev = 1
    while active:
        counts: dict[int, int] = {}
        for row in active:
            for j in row:
                counts[j] = counts.get(j, 0) + 1
        if not counts:
            break
        # Markowitz-style pivot: fewest fill candidates, then smallest column.
        best = None
        for i, row in enumerate(active):
            r = len(row) - 1
            for j in row:
                score = r * (counts[j] - 1)
                key = (score, j, i)
                if best is None or key < best:
                    best = key
        _, pc, pi = best
        pivot_row = active.pop(pi)
        p = pivot_row[pc]
        rank += 1
        nxt = []
        for row in active:
            f = row.pop(pc, 0)
            new = {}
            if f:
                for j in set(row) | set(pivot_row):
                    if j == pc:
                        continue
                    q, r = divmod(p * row.get(j, 0) - f * pivot_row.get(j, 0), prev)
                    if r:
                        raise ArithmeticError(_INEXACT)
                    if q:
                        new[j] = q
            else:
                for j, v in row.items():
                    q, r = divmod(p * v, prev)
                    if r:
                        raise ArithmeticError(_INEXACT)
                    new[j] = q
            if new:
                nxt.append(new)
        active = nxt
        prev = p
    return rank


class RelationMatrix:
    """Rows spanning a subspace of the weight-``k`` combination space."""

    def __init__(self, weight: int, rows):
        self.weight = int(weight)
        self.columns = all_indices(self.weight)
        self._colpos = {mu: j for j, mu in enumerate(self.columns)}
        self.rows: list[Combination] = []
        self._sparse: list[dict] = []
        for row in rows:
            row = as_combination(row)
            if row and row.homogeneous_weight() != self.weight:
                raise ValueError("row has the wrong weight for this matrix")
            self.rows.append(row)
            self._sparse.append({self._colpos[mu]: c for mu, c in row._terms.items()})
        self._rank = None
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
        if self._rank is None:
            self._rank = _bareiss_rank(self._sparse)
        return self._rank

    # -- membership ---------------------------------------------------------

    def _echelon_form(self):
        """Echelon rows as (pivot col, row dict, history dict), over Fraction."""
        if self._echelon is None:
            ech = []
            for i, row in enumerate(self._sparse):
                vec = {j: Fraction(c) for j, c in row.items()}
                hist = {i: Fraction(1)}
                vec, hist = _reduce(vec, hist, ech)
                if vec:
                    pc = min(vec)
                    inv = 1 / vec[pc]
                    vec = {j: c * inv for j, c in vec.items()}
                    hist = {j: c * inv for j, c in hist.items()}
                    ech.append((pc, vec, hist))
            self._echelon = ech
        return self._echelon

    def member(self, x) -> list[Fraction] | None:
        """Coefficients writing ``x`` as a combination of the rows, or None.

        A returned certificate ``coeffs`` always satisfies
        ``sum(c * row for c, row in zip(coeffs, rows)) == x``; this is
        re-verified before returning.
        """
        x = as_combination(x)
        if x and x.homogeneous_weight() != self.weight:
            return None
        vec = {self._colpos[mu]: Fraction(c) for mu, c in x._terms.items()}
        vec, hist = _reduce(vec, {}, self._echelon_form())
        if vec:
            return None
        # _reduce subtracts echelon rows, so the history carries the negative
        # of the sought combination
        coeffs = [-hist.get(i, Fraction(0)) for i in range(self.nrows)]
        check = Combination()
        for c, row in zip(coeffs, self.rows):
            if c:
                # c * row stores whole coefficients as int, keeping these sums in int arithmetic
                _accumulate(check._terms, (c * row)._terms.items())
        if check != x:
            raise AssertionError("membership certificate failed re-verification")
        return coeffs

    # -- modular lower bound -------------------------------------------------

    def modular_rank(self, primes=MODULAR_PRIMES) -> int:
        """max over ``primes`` of the rank mod p: a lower bound for rank()."""
        best = 0
        for p in primes:
            if not (2**20 < p < 2**31):
                raise ValueError("modular primes must lie strictly between 2**20 and 2**31")
            best = max(best, self._rank_mod(p))
        return best

    def _rank_mod(self, p: int) -> int:
        m = np.zeros((self.nrows, self.ncols), dtype=np.int64)
        for i, row in enumerate(self._sparse):
            for j, c in row.items():
                if isinstance(c, Fraction):
                    v = c.numerator * pow(c.denominator, -1, p) % p
                else:
                    v = c % p
                m[i, j] = v
        rank = 0
        for col in range(self.ncols):
            if rank == self.nrows:
                break
            hits = np.nonzero(m[rank:, col])[0]
            if hits.size == 0:
                continue
            pivot = rank + int(hits[0])
            if pivot != rank:
                m[[rank, pivot]] = m[[pivot, rank]]
            inv = pow(int(m[rank, col]), -1, p)
            m[rank] = m[rank] * inv % p
            below = m[rank + 1 :, col].copy()
            mask = below != 0
            if mask.any():
                m[rank + 1 :][mask] = (
                    m[rank + 1 :][mask] - below[mask, None] * m[rank][None, :]
                ) % p
            rank += 1
        return rank


def _reduce(vec, hist, echelon):
    """Reduce ``vec`` (and its history) against echelon rows; returns copies."""
    vec = dict(vec)
    hist = dict(hist)
    for pc, row, rhist in echelon:
        c = vec.get(pc)
        if c:
            _accumulate(vec, row.items(), -c)
            _accumulate(hist, rhist.items(), -c)
    return vec, hist
