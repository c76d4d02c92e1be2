"""Exact rational linear algebra for spans of homogeneous combinations.

A :class:`RelationMatrix` stores a list of weight-``k`` combinations as rows
over the column basis of all weight-``k`` indices (sorted by parts).  One
exact elimination over ``Fraction`` serves both questions: the rows are
reduced in input order, each against the echelon rows before it, with the
smallest remaining column as pivot.  The rank is the number of echelon rows.
An echelon row remembers its source row and the multiples of earlier echelon
rows subtracted from it, so a membership query reduces ``x`` and rebuilds
coefficients over the source rows by back-substitution; every positive
answer is re-checked by multiplication before being returned.

``modular_rank`` is the fast certified-lower-bound path: eliminate modulo a
few fixed 31-bit primes with vectorised integer arithmetic (all intermediate
products stay below 2**62) and return the best rank seen.  Ranks mod p never
exceed the rational rank, so the maximum over primes is a true lower bound.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .indices import Combination, _accumulate, all_indices, as_combination

#: Three fixed 31-bit primes (each exceeds 2**20, as the certificates require).
MODULAR_PRIMES = (2147483647, 2147483629, 2147483587)


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

    # -- elimination and membership ------------------------------------------

    def _echelon_form(self):
        """Echelon rows as (pivot col, row dict with pivot 1, source row,
        multiples of earlier echelon rows subtracted, 1 / pivot)."""
        if self._echelon is None:
            ech = []
            for i, row in enumerate(self._sparse):
                vec, multiples = _reduce(row, ech)
                if vec:
                    pc = min(vec)
                    inv = 1 / vec[pc]
                    ech.append((pc, {j: c * inv for j, c in vec.items()}, i, multiples, inv))
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
        if any(mu not in self._colpos for mu in x._terms):
            return None
        echelon = self._echelon_form()
        vec, multiples = _reduce({self._colpos[mu]: c for mu, c in x._terms.items()}, echelon)
        if vec:
            return None
        # x is the sum of multiples[t] * echelon row t, and echelon row t is
        # 1 / pivot times its source row minus its own multiples of earlier
        # echelon rows: unfold from the last echelon row down
        coeffs = [Fraction(0)] * self.nrows
        for t in range(len(echelon) - 1, -1, -1):
            c = multiples.pop(t, 0)
            if c:
                _, _, source, earlier, inv = echelon[t]
                coeffs[source] = c = c * inv
                _accumulate(multiples, earlier.items(), -c)
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


def _reduce(vec, echelon):
    """Reduce a copy of ``vec`` over ``Fraction`` against the echelon rows.

    Returns the remainder and the multiples ``{echelon position: c}`` of the
    echelon rows subtracted from it.
    """
    vec = {j: Fraction(c) for j, c in vec.items()}
    multiples = {}
    for t, (pc, row, _, _, _) in enumerate(echelon):
        c = vec.get(pc)
        if c:
            _accumulate(vec, row.items(), -c)
            multiples[t] = c
    return vec, multiples
