"""Multi-indices and the basic operators acting on them.

A multi-index is a finite tuple of positive integers, e.g. ``(1,2,3)``; the
empty index is written ``phi``.  Weight-``m`` indices correspond one-to-one
with subsets of ``{1, .., m-1}`` by recording the proper partial sums of the
parts ("marks").  Under this coding, reading the complement of the marks gives
the dual index, and containment of mark sets gives the refinement order:
``mu`` refines ``nu`` when both have the same weight and every mark of ``nu``
is a mark of ``mu``.

A :class:`Combination` stores every index as its mark key (:func:`_key`), the
integer with bit ``s-1`` set for each partial sum ``s``, the weight included:
phi is 0, ``bit_length()`` is the weight and ``bit_count()`` the length.
Indices appear only where terms come in or go out, decoded once per key by
the cached :func:`_index`.  On keys the operators are bit operations:

* ``reverse``      -- mirror the marks below the top bit,
* ``signed``       -- multiply each term by (-1)**length, the parity of ``bit_count()``,
* ``dual``         -- complement the marks: XOR the bits below the top bit,
* ``refine``       -- sum over the supersets of the marks below the top bit,
* ``coarsen``      -- sum over the subsets of the marks,
* ``raise_last``   -- ``k + top``, the top bit moved up one; phi becomes (1),
* ``concat``       -- ``k | l << weight(k)``,
* ``merge_concat`` -- the same after clearing ``k``'s top bit (unless ``l`` is phi),

with weight-block splitting (``partition``, a shifted window of the key).
``refine_inv``/``coarsen_inv`` invert ``refine``/``coarsen``; conjugating by
``signed`` does the trick, which is verified exhaustively in the tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Union


class MultiIndex(tuple):
    """An immutable sequence of parts, each a positive integer."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError("multi-index parts must be integers >= 1, got %r" % (p,))
        return tuple.__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return format_index(self)


#: The empty multi-index.
PHI = MultiIndex()

IndexLike = Union[MultiIndex, tuple, list]


def idx(*parts: int) -> MultiIndex:
    """Shorthand constructor: ``idx(1, 2, 3) == MultiIndex((1, 2, 3))``."""
    return MultiIndex(parts)


def as_index(mu: IndexLike) -> MultiIndex:
    if isinstance(mu, MultiIndex):
        return mu
    if isinstance(mu, (tuple, list)):
        return MultiIndex(mu)
    raise TypeError("expected a multi-index, got %r" % (mu,))


def ones(r: int) -> MultiIndex:
    """The index (1, .., 1) with ``r`` parts; ``ones(0)`` is phi."""
    if r < 0:
        raise ValueError("length must be >= 0")
    return MultiIndex((1,) * r)


def _key(mu) -> int:
    """The mark key of the parts ``mu``: bit ``s-1`` for every partial sum ``s``."""
    return sum(1 << s - 1 for s in accumulate(mu))


@lru_cache(maxsize=1 << 15)
def _index(key: int) -> MultiIndex:
    """The index whose mark key is ``key``."""
    parts, last = [], 0
    while key:
        s = (key & -key).bit_length()
        parts.append(s - last)
        last, key = s, key & key - 1
    # differences of increasing partial sums are positive: no validation needed
    return tuple.__new__(MultiIndex, parts)


def all_indices(weight: int) -> list[MultiIndex]:
    """All multi-indices of the given weight, sorted by parts.

    There are ``2**(weight-1)`` of them; ``all_indices(0)`` is ``[phi]``.
    """
    if weight < 0:
        raise ValueError("weight must be >= 0")
    return sorted(map(_index, range(1 << weight >> 1, 1 << weight)))


# ---------------------------------------------------------------------------
# rational combinations

Coeff = Union[int, Fraction]


def _coeff(c) -> Coeff:
    if isinstance(c, bool):
        raise TypeError("coefficient must be rational, got bool")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        # keep plain ints where possible; arithmetic on them is much cheaper
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficient must be an int or Fraction, got %r" % (c,))


def _accumulate(data: dict, items, scale=1) -> dict:
    """Add ``scale * c`` into ``data[key]`` for every ``(key, c)`` of ``items``.

    Keys whose sum reaches zero are dropped, so ``data`` stays a sparse
    vector.  Sums are stored as computed: a ``Fraction`` with denominator 1
    stays a ``Fraction``, which keeps exact division exact for callers that
    divide by the stored values.
    """
    get = data.get
    for key, c in items:
        c = get(key, 0) + scale * c
        if c:
            data[key] = c
        elif key in data:
            del data[key]
    return data


class Combination:
    """A finitely supported rational linear combination of multi-indices.

    Terms are stored by mark key.  Supports ``+``, ``-``, scalar ``*`` and
    ``==``; iteration over ``terms()`` is sorted by index, so string forms
    are canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms: dict[int, Coeff] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            _accumulate(self._terms, ((_key(as_index(mu)), _coeff(c)) for mu, c in items))

    @classmethod
    def _of(cls, terms: dict) -> "Combination":
        """Wrap the key dict ``terms`` without copying it.  No combination's dict changes
        after it is built: ``__hash__`` hashes it, and ``stuffle_rows`` shares the memo's."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def term(cls, mu: IndexLike, coeff: Coeff = 1) -> "Combination":
        coeff = _coeff(coeff)
        return cls._of({_key(as_index(mu)): coeff} if coeff else {})

    @classmethod
    def zero(cls) -> "Combination":
        return cls()

    def terms(self) -> list[tuple[MultiIndex, Coeff]]:
        return sorted((_index(k), c) for k, c in self._terms.items())

    def support(self) -> list[MultiIndex]:
        return sorted(map(_index, self._terms))

    def coefficient(self, mu: IndexLike) -> Coeff:
        return self._terms.get(_key(as_index(mu)), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[MultiIndex, Coeff]]:
        return iter(self.terms())

    def __eq__(self, other) -> bool:
        if isinstance(other, Combination):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "Combination":
        return Combination._of(_accumulate(dict(self._terms), as_combination(other)._terms.items()))

    def __sub__(self, other) -> "Combination":
        return Combination._of(
            _accumulate(dict(self._terms), as_combination(other)._terms.items(), -1))

    def __neg__(self) -> "Combination":
        return (-1) * self

    def __mul__(self, scalar) -> "Combination":
        scalar = _coeff(scalar)
        return Combination._of({k: _coeff(scalar * c) for k, c in self._terms.items()}
                               if scalar else {})

    __rmul__ = __mul__

    def homogeneous_weight(self) -> int:
        """The common weight of all terms; raises if mixed or zero."""
        weights = {k.bit_length() for k in self._terms}
        if len(weights) != 1:
            raise ValueError("combination is not homogeneous of a single weight")
        return weights.pop()

    def __repr__(self) -> str:
        return format_combination(self)


def as_combination(x) -> Combination:
    if isinstance(x, Combination):
        return x
    if isinstance(x, (MultiIndex, tuple, list)):
        return Combination.term(x)
    raise TypeError("expected an index or combination, got %r" % (x,))


# ---------------------------------------------------------------------------
# the index operators


def _mirror(bits: int, width: int) -> int:
    """The ``width`` low bits of ``bits`` in reverse order; ``bits`` has no higher bit."""
    return int(format(bits, "b").zfill(width)[::-1], 2)


def reverse(x):
    """Reverse the parts of every index (an involution)."""
    # the partial sum s of a weight-m index becomes m - s: the marks below the top mirror
    return _rekey(x, lambda k: k and (top := 1 << k.bit_length() - 1)
                  | _mirror(k ^ top, k.bit_length() - 1))


def signed(x) -> Combination:
    """Multiply every index by (-1)**length."""
    return Combination._of({k: -c if k.bit_count() & 1 else c
                            for k, c in as_combination(x)._terms.items()})


def _rekey(x, f):
    """Send the key ``k`` of an index, or of every term, to ``f(k)``; ``f`` is one-to-one."""
    if isinstance(x, (MultiIndex, tuple, list)):
        return _index(f(_key(as_index(x))))
    return Combination._of({f(k): c for k, c in as_combination(x)._terms.items()})


def dual(x):
    """Complement the mark set of every index; phi is self-dual."""
    return _rekey(x, lambda k: k and k ^ (1 << k.bit_length() - 1) - 1)


def refine(x) -> Combination:
    """Sum of all refinements of every index (the mark supersets)."""
    return _submask_sum(x, refining=True)


def coarsen(x) -> Combination:
    """Sum of all coarsenings of every index (the mark subsets)."""
    return _submask_sum(x, refining=False)


def _submask_sum(x, refining: bool) -> Combination:
    """Replace each key by the keys ``fixed | sub`` for every ``sub`` of
    ``free``: refining fixes the key and frees the other bits below its top,
    coarsening fixes the top bit and frees the marks."""
    acc = {}
    get = acc.get
    for k, c in as_combination(x)._terms.items():
        top = 1 << k.bit_length() >> 1
        fixed, free = (k, max(top - 1, 0) & ~k) if refining else (top, k ^ top)
        sub = free
        while True:
            key = fixed | sub
            acc[key] = get(key, 0) + c
            if not sub:
                break
            sub = (sub - 1) & free
    return Combination._of({k: c for k, c in acc.items() if c})


def refine_inv(x) -> Combination:
    """Inverse of :func:`refine`; equals signed-conjugated refine."""
    return signed(refine(signed(x)))


def coarsen_inv(x) -> Combination:
    """Inverse of :func:`coarsen`; equals signed-conjugated coarsen."""
    return signed(coarsen(signed(x)))


# ---------------------------------------------------------------------------
# concatenation family


def _bilinear(pair, x, y) -> Combination:
    """The bilinear extension of ``pair``, which maps two keys to a dict over keys."""
    right = as_combination(y)._terms.items()
    data = {}
    for k, c in as_combination(x)._terms.items():
        for l, d in right:
            _accumulate(data, pair(k, l).items(), c * d)
    return Combination._of(data)


def concat(x, y) -> Combination:
    """Concatenation, extended bilinearly; phi is the unit."""
    return _bilinear(lambda k, l: {k | l << k.bit_length(): 1}, x, y)


def merge_concat(x, y) -> Combination:
    """Concatenation fusing the adjacent parts, extended bilinearly.

    ``(a,..,b) merged with (c,..,d)`` is ``(a,..,b+c,..,d)``; phi acts as the
    unit here as well.
    """
    # the top bit of k marks the end of its last part, which l's first part continues
    return _bilinear(lambda k, l: {(k ^ 1 << k.bit_length() >> 1 if l else k)
                                   | l << k.bit_length(): 1}, x, y)


def raise_last(x):
    """Add 1 to the last part of every index; phi becomes (1)."""
    return _rekey(x, lambda k: k + (1 << k.bit_length() >> 1) or 1)


# ---------------------------------------------------------------------------
# weight-block splitting


def partition(mu: IndexLike, sizes: Iterable[int]) -> tuple[MultiIndex, ...]:
    """Split ``mu`` into consecutive blocks of the given weights.

    A part lying across a block boundary is divided; zero-size blocks give
    phi.  The block weights must be non-negative and sum to the weight of
    ``mu``.

    >>> partition((2, 2, 2), [2, 1, 3])
    ((2), (1), (1,2))
    >>> partition((2, 2, 2), [3, 0, 3])
    ((2,1), phi, (1,2))
    """
    mu = as_index(mu)
    sizes = list(sizes)
    if any(not isinstance(s, int) or s < 0 for s in sizes):
        raise ValueError("block weights must be non-negative integers")
    if sum(sizes) != mu.weight:
        raise ValueError(
            "block weights sum to %d but the index has weight %d" % (sum(sizes), mu.weight)
        )
    # a block's key: the marks strictly inside it, shifted down by its start, and its top bit
    key = _key(mu)
    blocks = []
    pos = 0
    for s in sizes:
        blocks.append(_index((key >> pos | 1 << s >> 1) & (1 << s) - 1))
        pos += s
    return tuple(blocks)


# ---------------------------------------------------------------------------
# text form: "(1,2,3)", "phi", "3/2*(1,2) - (2,1) + phi"


def format_index(mu: IndexLike) -> str:
    mu = as_index(mu)
    return "(" + ",".join(str(p) for p in mu) + ")" if mu else "phi"


def format_combination(x) -> str:
    x = as_combination(x)
    if x.is_zero():
        return "0"
    pieces = []
    for i, (mu, c) in enumerate(x.terms()):
        neg = c < 0
        mag = -c if neg else c
        body = format_index(mu) if mag == 1 else "%s*%s" % (mag, format_index(mu))
        if i == 0:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


_INDEX_RE = re.compile(r"\(\s*\d+\s*(?:,\s*\d+\s*)*\)")
#: One term: a sign (required after the first), an optional ``p/q`` and ``*``, an index.
_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*(?:/\s*(\d+))?\s*\*?\s*)?(phi|%s)"
                      % _INDEX_RE.pattern)


def parse_index(text: str) -> MultiIndex:
    """Parse a single index literal: ``(1,2,3)`` or ``phi``."""
    s = text.strip()
    if s == "phi":
        return PHI
    if _INDEX_RE.fullmatch(s):
        return MultiIndex(int(p) for p in s[1:-1].split(","))
    raise ValueError("cannot parse %r as a multi-index (expected e.g. (1,2,3) or phi)" % text)


def parse_combination(text: str) -> Combination:
    """Parse ``c1*(..) + c2*(..)`` with integer or p/q coefficients.

    The star after a coefficient is optional, indices are parenthesised part
    lists, and ``phi`` denotes the empty index.  ``0`` is the zero
    combination, as :func:`format_combination` prints it.
    """
    if text.strip() == "0":
        return Combination()
    terms, pos, end = {}, 0, len(text.rstrip())
    while not pos or pos < end:  # one term at least
        m = _TERM_RE.match(text, pos)
        if not m or pos and not m[1] or m[3] and not int(m[3]):
            raise ValueError("expected a term like - 2/3*(1,2) at position %d in %r" % (pos, text))
        c = Fraction(int(m[2] or 1), int(m[3] or 1))
        _accumulate(terms, [(_key(parse_index(m[4])), _coeff(-c if m[1] == "-" else c))])
        pos = m.end()
    return Combination._of(terms)
