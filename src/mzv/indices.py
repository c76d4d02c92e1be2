"""Multi-indices and the basic operators acting on them.

A multi-index is a finite tuple of positive integers, e.g. ``(1,2,3)``; the
empty index is written ``phi``.  Weight-``m`` indices correspond one-to-one
with subsets of ``{1, .., m-1}`` by recording the proper partial sums of the
parts ("marks").  Under this coding, reading the complement of the marks gives
the dual index, and containment of mark sets gives the refinement order:
``mu`` refines ``nu`` when both have the same weight and every mark of ``nu``
is a mark of ``mu``.

The operators read the marks as an integer mask, bit ``s-1`` for mark ``s``:
``dual`` XORs it with all ones, ``refine``/``coarsen`` sum over the submasks
of the free bits, and each resulting mask is decoded to an index once.

On formal rational combinations of indices we provide the linear operators

* ``reverse``   -- reverse the parts of every index,
* ``signed``    -- multiply each index by (-1)**length,
* ``refine``    -- replace each index by the sum of all its refinements,
* ``coarsen``   -- replace each index by the sum of all its coarsenings,
* ``dual``      -- complement the mark set,

together with the concatenation family (``concat``, ``merge_concat``,
``raise_last``, ``lower_last``) and weight-block splitting (``partition``).
``refine_inv``/``coarsen_inv`` invert ``refine``/``coarsen``; conjugating by
``signed`` does the trick, which is verified exhaustively in the tests.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Union


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


# ---------------------------------------------------------------------------
# subset coding


class SubsetCode(NamedTuple):
    """A weight together with the set of marked positions in {1, .., weight-1}."""

    weight: int
    marks: frozenset


def encode_subset(mu: IndexLike) -> SubsetCode:
    """Mark the proper partial sums of ``mu``.

    >>> encode_subset((2, 2, 1))
    SubsetCode(weight=5, marks=frozenset({2, 4}))
    """
    mu = as_index(mu)
    if not mu:
        raise ValueError("phi has no subset code")
    return SubsetCode(mu.weight, frozenset(accumulate(mu[:-1])))


def decode_subset(code: SubsetCode) -> MultiIndex:
    """Inverse of :func:`encode_subset`."""
    m, marks = code
    if m < 1:
        raise ValueError("weight must be >= 1")
    if not all(1 <= s < m for s in marks):
        raise ValueError("marks must lie in {1, .., weight-1}")
    cuts = [0] + sorted(marks) + [m]
    return MultiIndex(b - a for a, b in zip(cuts, cuts[1:]))


def _mask(mu: MultiIndex) -> int:
    """The marks of ``mu`` as an integer: bit ``s-1`` for mark ``s``."""
    return sum(1 << (s - 1) for s in accumulate(mu[:-1]))


def _key(mu: MultiIndex) -> int:
    """``1 << (weight-1) | marks``: phi is 0, and a key's bit length is its weight."""
    return _mask(mu) | 1 << sum(mu) >> 1


@lru_cache(maxsize=1 << 15)
def _unmask(m: int, mask: int) -> MultiIndex:
    """The weight-``m`` index with the marks of ``mask``; phi for ``m = 0``."""
    cuts = [0] + [s for s in range(1, m) if mask >> (s - 1) & 1] + [m]
    # differences of increasing cuts are positive: no validation needed
    return tuple.__new__(MultiIndex, [b - a for a, b in zip(cuts, cuts[1:])]) if m else PHI


def all_indices(weight: int) -> list[MultiIndex]:
    """All multi-indices of the given weight, sorted by parts.

    There are ``2**(weight-1)`` of them; ``all_indices(0)`` is ``[phi]``.
    """
    if weight < 0:
        raise ValueError("weight must be >= 0")
    if weight == 0:
        return [PHI]
    return sorted(_unmask(weight, mask) for mask in range(1 << (weight - 1)))


def refines(mu: IndexLike, nu: IndexLike) -> bool:
    """True when ``mu`` is a refinement of ``nu`` (same weight, finer cuts)."""
    mu, nu = as_index(mu), as_index(nu)
    if mu.weight != nu.weight:
        return False
    return not mu or _mask(nu) & ~_mask(mu) == 0


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

    Supports ``+``, ``-``, scalar ``*`` and ``==``; iteration over
    ``terms()`` is sorted by index, so string forms are canonical.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms: dict[MultiIndex, Coeff] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            _accumulate(self._terms, ((as_index(mu), _coeff(c)) for mu, c in items))

    @classmethod
    def term(cls, mu: IndexLike, coeff: Coeff = 1) -> "Combination":
        out = cls()
        coeff = _coeff(coeff)
        if coeff:
            out._terms[as_index(mu)] = coeff
        return out

    @classmethod
    def zero(cls) -> "Combination":
        return cls()

    def terms(self) -> list[tuple[MultiIndex, Coeff]]:
        return sorted(self._terms.items())

    def support(self) -> list[MultiIndex]:
        return sorted(self._terms)

    def coefficient(self, mu: IndexLike) -> Coeff:
        return self._terms.get(as_index(mu), 0)

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
        out = Combination()
        out._terms = _accumulate(dict(self._terms), as_combination(other)._terms.items())
        return out

    def __sub__(self, other) -> "Combination":
        return self + (-1) * as_combination(other)

    def __neg__(self) -> "Combination":
        return (-1) * self

    def __mul__(self, scalar) -> "Combination":
        scalar = _coeff(Fraction(scalar) if not isinstance(scalar, (int, Fraction)) else scalar)
        out = Combination()
        if scalar:
            out._terms = {mu: _coeff(scalar * c) for mu, c in self._terms.items()}
        return out

    __rmul__ = __mul__

    def map_terms(self, f) -> "Combination":
        """Linear extension: apply ``f`` (index -> index or Combination) termwise."""
        out = Combination()
        data = out._terms
        for mu, c in self._terms.items():
            image = f(mu)
            if isinstance(image, Combination):
                _accumulate(data, image._terms.items(), c)
            else:
                _accumulate(data, ((as_index(image), c),))
        return out

    def homogeneous_weight(self) -> int:
        """The common weight of all terms; raises if mixed or zero."""
        weights = set(map(sum, self._terms))
        if len(weights) != 1:
            raise ValueError("combination is not homogeneous of a single weight")
        return weights.pop()

    def max_length(self) -> int:
        """The largest number of parts over the support (0 for the zero element)."""
        return max((len(mu) for mu in self._terms), default=0)

    def __repr__(self) -> str:
        return format_combination(self)


def as_combination(x) -> Combination:
    if isinstance(x, Combination):
        return x
    if isinstance(x, (MultiIndex, tuple, list)):
        return Combination.term(x)
    raise TypeError("expected an index or combination, got %r" % (x,))


def _lift(x, f) -> Combination:
    return as_combination(x).map_terms(f)


# ---------------------------------------------------------------------------
# the index operators


def reverse(x):
    """Reverse the parts of every index (an involution)."""
    if isinstance(x, (MultiIndex, tuple, list)):
        return MultiIndex(reversed(as_index(x)))
    return _lift(x, lambda mu: MultiIndex(reversed(mu)))


def signed(x) -> Combination:
    """Multiply every index by (-1)**length."""
    out = Combination()
    out._terms = {mu: -c if len(mu) & 1 else c for mu, c in as_combination(x)._terms.items()}
    return out


def dual(x):
    """Complement the mark set of every index; phi is self-dual."""
    if isinstance(x, (MultiIndex, tuple, list)):
        return _dual_index(as_index(x))
    return _lift(x, _dual_index)


def _dual_index(mu: MultiIndex) -> MultiIndex:
    m = mu.weight
    return _unmask(m, _mask(mu) ^ (1 << max(m - 1, 0)) - 1)


def refine(x) -> Combination:
    """Sum of all refinements of every index (the mark supersets)."""
    return _submask_sum(x, refining=True)


def coarsen(x) -> Combination:
    """Sum of all coarsenings of every index (the mark subsets)."""
    return _submask_sum(x, refining=False)


def _submask_sum(x, refining: bool) -> Combination:
    """Replace each index by the indices with marks ``fixed | sub`` for every
    ``sub`` of ``free``: refining fixes the marks and frees the other bits,
    coarsening fixes nothing and frees the marks; the sums are kept on
    :func:`_key` keys."""
    acc = {}
    get = acc.get
    for mu, c in as_combination(x)._terms.items():
        top = 1 << mu.weight >> 1
        mask = _mask(mu)
        fixed, free = (top | mask, max(top - 1, 0) & ~mask) if refining else (top, mask)
        sub = free
        while True:
            key = fixed | sub
            acc[key] = get(key, 0) + c
            if not sub:
                break
            sub = (sub - 1) & free
    return _from_keys(acc)


def _from_keys(acc: dict) -> Combination:
    """The non-zero terms of ``acc``, a dict over :func:`_key` keys, decoded once."""
    out = Combination()
    out._terms = {_unmask(k.bit_length(), k ^ 1 << k.bit_length() >> 1): c
                  for k, c in acc.items() if c}
    return out


def refine_inv(x) -> Combination:
    """Inverse of :func:`refine`; equals signed-conjugated refine."""
    return signed(refine(signed(x)))


def coarsen_inv(x) -> Combination:
    """Inverse of :func:`coarsen`; equals signed-conjugated coarsen."""
    return signed(coarsen(signed(x)))


# ---------------------------------------------------------------------------
# concatenation family


def concat(x, y) -> Combination:
    """Concatenation, extended bilinearly; phi is the unit."""
    return _join(x, y, lambda mu, nu: MultiIndex(mu + nu))


def merge_concat(x, y) -> Combination:
    """Concatenation fusing the adjacent parts, extended bilinearly.

    ``(a,..,b) merged with (c,..,d)`` is ``(a,..,b+c,..,d)``; phi acts as the
    unit here as well.
    """
    return _join(x, y, _fuse)


def _join(x, y, pair) -> Combination:
    x, y = as_combination(x), as_combination(y)
    out = Combination()
    for mu, c in x._terms.items():
        _accumulate(out._terms, ((pair(mu, nu), d) for nu, d in y._terms.items()), c)
    return out


def _fuse(mu: MultiIndex, nu: MultiIndex) -> MultiIndex:
    if not mu:
        return nu
    if not nu:
        return mu
    return MultiIndex(mu[:-1] + (mu[-1] + nu[0],) + nu[1:])


def raise_last(x):
    """Add 1 to the last part of every index; phi becomes (1)."""
    if isinstance(x, (MultiIndex, tuple, list)):
        mu = as_index(x)
        return MultiIndex(mu[:-1] + (mu[-1] + 1,)) if mu else idx(1)
    return _lift(x, raise_last)


def lower_last(mu: IndexLike) -> MultiIndex:
    """Subtract 1 from the last part, dropping it when it reaches 0.

    Defined for indices of weight >= 1; inverse to :func:`raise_last` on the
    image of indices whose last part exceeds 1 -- and ``lower_last((1,))`` is
    phi.
    """
    mu = as_index(mu)
    if not mu:
        raise ValueError("lower_last is undefined for phi")
    if mu[-1] > 1:
        return MultiIndex(mu[:-1] + (mu[-1] - 1,))
    return MultiIndex(mu[:-1])


def drop_last(mu: IndexLike) -> MultiIndex:
    """Remove the last part entirely (the weight drops by that part)."""
    mu = as_index(mu)
    if not mu:
        raise ValueError("drop_last is undefined for phi")
    return MultiIndex(mu[:-1])


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
    # a block's marks are the marks strictly inside it, shifted down by its start
    mask = _mask(mu)
    blocks = []
    pos = 0
    for s in sizes:
        blocks.append(_unmask(s, mask >> pos & (1 << max(s - 1, 0)) - 1))
        pos += s
    return tuple(blocks)


def assemble(mu: IndexLike, blocks: Iterable[IndexLike]) -> MultiIndex:
    """Rejoin :func:`partition` blocks of ``mu``, fusing parts split by cuts."""
    mu = as_index(mu)
    boundary = encode_subset(mu).marks | {0, mu.weight} if mu else {0}
    out = PHI
    pos = 0
    for block in blocks:
        block = as_index(block)
        joined = concat(out, block) if pos in boundary else merge_concat(out, block)
        (out,) = joined.support()
        pos += block.weight
    return out


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
_COEFF_RE = re.compile(r"(\d+)\s*(?:/\s*(\d+))?")


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
    lists, and ``phi`` denotes the empty index.
    """
    s = text
    pos = 0
    n = len(s)
    out = Combination()
    first = True

    def skip_ws(p):
        while p < n and s[p].isspace():
            p += 1
        return p

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            if first:
                raise ValueError("empty expression")
            break
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ValueError("expected '+' or '-' at position %d in %r" % (pos, text))
        coeff = Fraction(sign)
        m = _COEFF_RE.match(s, pos)
        if m:
            num, den = m.group(1), m.group(2)
            if den is not None and int(den) == 0:
                raise ValueError("zero denominator at position %d in %r" % (pos, text))
            coeff *= Fraction(int(num), int(den) if den else 1)
            pos = skip_ws(m.end())
            if pos < n and s[pos] == "*":
                pos = skip_ws(pos + 1)
        if pos < n and s.startswith("phi", pos):
            mu = PHI
            pos += 3
        else:
            m = _INDEX_RE.match(s, pos)
            if not m:
                raise ValueError("expected an index at position %d in %r" % (pos, text))
            mu = MultiIndex(int(p) for p in m.group(0)[1:-1].split(","))
            pos = m.end()
        out = out + Combination.term(mu, coeff)
        first = False
    return out
