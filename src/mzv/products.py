"""The harmonic product of multi-indices and its relatives.

``stuffle(x, y)`` is the commutative product obtained by interleaving the two
part lists while optionally adding one part of each side.  Every product here
works on the mark keys of :mod:`mzv.indices` (bit ``s-1`` for each partial
sum ``s``; phi is 0) through its one bilinear helper, so a product is never
decoded.  ``_stuffle`` recurses on the last parts: dropping the last part
clears the top bit, and appending the part that makes weight ``w`` sets bit
``w-1``.  Its three branches merge into one dict, one ``get`` per term; no
multiplicity is negative (Hoffman), so none cancels.  It and ``_stuffle_bar``
keep every key-pair product they meet until :func:`stuffle_cache_clear`;
``relations.stuffle_rows`` hands out ``_stuffle``'s own dicts as rows, so
nothing may change a memoised dict.  The slow oracle is Hoffman's
definition: :func:`enumerate_stuffle` lists the two-row matrices as tuples
of ``(top, bottom)`` columns, and the ``*_via_matrices`` sums walk the same
matrices column by column on mark keys, one term per matrix, without the
memo.

``stuffle_bar`` is not a second product but the length-sign twist of the
first: ``stuffle_bar(x, y) = signed(stuffle(signed(x), signed(y)))``, so every
term carries the sign ``(-1)**(len(mu) + len(nu) - len(term))`` and merged
parts flip sign (Hoffman, "Quasi-shuffle products", 2000).

``circ``/``circ_bar`` fuse the last parts after multiplying the rest:
``circ(mu, nu) = concat(stuffle(mu', nu'), (a+b,))`` where ``a``, ``b`` are
the last parts and the primes drop them: on keys, a head is the key without
its top bit, and the fused part sets the bit of the total weight.
``circ_bar`` uses ``stuffle_bar`` for the head, so it is the sign twist
``circ_bar(x, y) = -signed(circ(signed(x), signed(y)))``.  These are the
products satisfied by the single-step tails of the finite harmonic sums,
hence their role next to the full products of the running sums.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .indices import Combination, _bilinear, as_index


def enumerate_stuffle(mu, nu) -> list[tuple[tuple[int, int], ...]]:
    """All interleaving matrices with top row ``mu`` and bottom row ``nu``.

    Each is a tuple of ``(top, bottom)`` columns, none ``(0, 0)``: the non-zero
    tops read ``mu``, the non-zero bottoms ``nu``, and the column sums are the
    product term.  There are D(len(mu), len(nu)) of them (Delannoy).
    """
    mu, nu = as_index(mu), as_index(nu)

    def rec(i, j):
        # matrices using mu[:i] and nu[:j], built right-to-left
        if i == 0 and j == 0:
            return [()]
        out = []
        if i > 0:
            out += [cols + ((mu[i - 1], 0),) for cols in rec(i - 1, j)]
        if j > 0:
            out += [cols + ((0, nu[j - 1]),) for cols in rec(i, j - 1)]
        if i > 0 and j > 0:
            out += [cols + ((mu[i - 1], nu[j - 1]),) for cols in rec(i - 1, j - 1)]
        return out

    return rec(len(mu), len(nu))


def _matrix_sum(mu, nu, merged: int) -> Combination:
    """The sum over the matrices of ``merged**(merged columns)`` at the key of the
    column sums.

    Each matrix is walked column by column: the column that ends having used
    ``mu[:i]`` and ``nu[:j]`` sets the bit of the partial sum ``|mu[:i]| + |nu[:j]|``.
    A key fixes the number of columns, hence of merged ones, so no term cancels.
    """
    mu, nu = as_index(mu), as_index(nu)
    p, q = len(mu), len(nu)
    bit = [[1 << a + b >> 1 for b in accumulate(nu, initial=0)] for a in accumulate(mu, initial=0)]
    out = {}

    def walk(i, j, key, c):
        if i < p:
            walk(i + 1, j, key | bit[i + 1][j], c)
        if j < q:
            walk(i, j + 1, key | bit[i][j + 1], c)
            if i < p:
                walk(i + 1, j + 1, key | bit[i + 1][j + 1], c * merged)
        elif i == p:
            out[key] = out.get(key, 0) + c

    walk(0, 0, 0, 1)
    return Combination._of(out)


def stuffle_via_matrices(mu, nu) -> Combination:
    """Reference implementation of :func:`stuffle` on two bare indices."""
    return _matrix_sum(mu, nu, 1)


def stuffle_bar_via_matrices(mu, nu) -> Combination:
    """Reference implementation of :func:`stuffle_bar` on two bare indices: each
    merged column is a sign."""
    return _matrix_sum(mu, nu, -1)


@lru_cache(maxsize=None)
def _stuffle(k: int, l: int) -> dict:
    """The product of the mark keys ``k <= l``, as a dict key -> multiplicity."""
    if not k:
        return {l: 1}
    tk, tl = 1 << k.bit_length() - 1, 1 << l.bit_length() - 1
    k0, l0, top = k ^ tk, l ^ tl, tk << l.bit_length()
    out = {key | top: c for key, c in _stuffle(k0, l).items()}
    get = out.get
    for part in _stuffle_keys(k, l0), _stuffle_keys(k0, l0):
        for key, c in part.items():
            key |= top
            out[key] = get(key, 0) + c
    return out


def _stuffle_keys(k: int, l: int) -> dict:
    """The product of the mark keys ``k`` and ``l`` in either order."""
    return _stuffle(k, l) if k <= l else _stuffle(l, k)


@lru_cache(maxsize=None)
def _stuffle_bar(k: int, l: int) -> dict:
    """The signed product of the keys: each term of ``_stuffle_keys(k, l)`` times
    ``(-1)**(len(mu) + len(nu) - len(term))``."""
    parity = k.bit_count() + l.bit_count()
    return {key: -c if key.bit_count() + parity & 1 else c
            for key, c in _stuffle_keys(k, l).items()}


def stuffle(x, y) -> Combination:
    """The harmonic product, extended bilinearly; phi is the unit.

    >>> stuffle((1,), (1,))
    2*(1,1) + (2)
    """
    return _bilinear(_stuffle_keys, x, y)


def stuffle_bar(x, y) -> Combination:
    """The signed harmonic product (merged parts count negatively).

    >>> stuffle_bar((1,), (1,))
    2*(1,1) - (2)
    """
    return _bilinear(_stuffle_bar, x, y)


def _circ(name: str, head, x, y) -> Combination:
    """Bilinear 'multiply the heads with ``head``, then fuse the last parts'."""

    def pair(k: int, l: int) -> dict:
        if not k or not l:
            raise ValueError("%s requires non-empty indices" % name)
        # a head key is k without its top bit; the fused part ends at the total weight
        top = 1 << k.bit_length() + l.bit_length() - 1
        heads = head(k ^ 1 << k.bit_length() - 1, l ^ 1 << l.bit_length() - 1)
        return {key | top: c for key, c in heads.items()}

    return _bilinear(pair, x, y)


def circ(x, y) -> Combination:
    """Multiply all but the last parts, then fuse the last parts.

    Every index in the support of both arguments must be non-empty.

    >>> circ((2,), (2,))
    (4)
    >>> circ((1,), (1, 1))
    (1,2)
    """
    return _circ("circ", _stuffle_keys, x, y)


def circ_bar(x, y) -> Combination:
    """Signed variant of :func:`circ`, built on :func:`stuffle_bar`."""
    return _circ("circ_bar", _stuffle_bar, x, y)


def stuffle_cache_clear() -> None:
    """Drop the memoised pair products.

    Both pair caches are unbounded, so this is what empties them in a long
    session."""
    _stuffle.cache_clear()
    _stuffle_bar.cache_clear()
