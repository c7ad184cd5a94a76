"""Monomial-ideal combinatorics.

The radical of the jets of a monomial ideal has a closed form (Goward
and Smith, Comm. Algebra 2006): the radical of the s-jets of (x^e) is
generated by the products x_{1,a_1}...x_{r,a_r} with sum e_i a_i <= s.
Each such product is the support of a term of the t^j coefficient of the
expansion, j = sum e_i a_i; and in any term of that coefficient the
smallest orders m_i of the x_i have sum e_i m_i <= j, so its support
contains one of the products.  No series is expanded.

Minimal primes of a squarefree monomial ideal are the minimal vertex
covers of the hypergraph of generator supports: `minimal_transversals`
runs Berge on bitmasks, sweeping the edges by their largest vertex and
testing a grown cover only against the old covers through its new
vertex.  `_minimal_masks` minimalizes generators and hyperedges; a
monomial is written in unary by rank (exponent e of variable i fills as
many bits as e's rank among the distinct exponents of the generators, in
a field as wide as their number), so divisibility becomes mask inclusion.
The supports of `jets_radical` are squarefree, so their masks are just
their jet indices.  Masks of one popcount never nest, so `_minimal_masks`
compares each mask only with the kept masks of smaller popcount.

Combinatorial results stay int masks until they are output.  `_by_size`
sorts them in (size, members) order on the masks themselves and decodes
each one once, through its fixed-width binary string read lowest bit
first and `itertools.compress`.
"""

from fractions import Fraction
from itertools import compress, groupby

from .poly import Ideal, Monomial, Poly, monomial_str, term_key
from .jets import jet_ring


class MonomialIdeal:
    """An ideal generated by monomials, kept minimal.

    Generators that duplicate or are divisible by another generator are
    dropped; the order of the surviving generators is preserved.  As in
    `Poly`, the indices are checked and `Monomial` normalizes each monomial.
    """

    __slots__ = ("ring", "generators", "squarefree")

    def __init__(self, ring, generators):
        self.ring = ring
        generators = tuple(generators)
        if any(not 0 <= i < len(ring.variables) for m in generators for i, _ in m):
            raise ValueError("monomial uses a variable outside the ring")
        generators = tuple(map(Monomial, generators))
        # exponent e is written in unary by its rank among the distinct
        # exponents, a strictly increasing map that fixes 0 and keeps divisibility
        distinct = sorted({e for m in generators for _, e in m})
        rank = {e: r for r, e in enumerate(distinct, 1)}
        w = len(rank)
        masks = [sum(((1 << rank[e]) - 1) << (i * w) for i, e in m) for m in generators]
        kept = set(_minimal_masks(masks))
        self.generators = tuple(dict.fromkeys(
            m for m, mask in zip(generators, masks) if mask in kept))
        self.squarefree = all(e == 1 for m in self.generators for _, e in m)

    @classmethod
    def _trusted(cls, ring, generators):
        """An ideal on `generators`, a tuple of distinct squarefree monomials
        of `ring` none of which divides another; it is adopted as it is, not
        checked."""
        I = object.__new__(cls)
        I.ring = ring
        I.generators = generators
        I.squarefree = True
        return I

    def to_ideal(self):
        return Ideal(self.ring, [Poly(self.ring, {m: Fraction(1)})
                                 for m in self.generators])

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.ring == other.ring
                and self.generators == other.generators)

    def __len__(self):
        return len(self.generators)

    def __str__(self):
        return "ideal(" + ",".join(monomial_str(self.ring, m)
                                   for m in self.generators) + ")"

    def __repr__(self):
        return f"MonomialIdeal({self})"


def _minimal_masks(masks):
    """The inclusion-minimal ones among some int bitmasks, duplicates dropped,
    by popcount.  A proper subset of a mask has a smaller popcount, and two
    distinct masks of one popcount never nest, so a mask is kept iff no kept
    mask of a smaller popcount is a subset of it: each is compared only with
    those."""
    kept = []
    for _, group in groupby(sorted(set(masks), key=int.bit_count), int.bit_count):
        smaller = kept[:]
        for m in group:
            for k in smaller:
                if k & m == k:
                    break
            else:
                kept.append(m)
    return kept


_BITS = bytes.maketrans(b"01", b"\0\1")


def _rows(masks, width):
    """The `width` lowest bits of each int bitmask as bytes 0 and 1, lowest
    first: `compress(items, row)` yields the members of its mask."""
    fmt = f"0{width}b"
    return [format(m, fmt)[::-1].encode().translate(_BITS) for m in masks]


def minimalize(ring, gens):
    """Minimal generators, sorted in canonical term order, largest first."""
    ordered = sorted(set(gens), key=lambda m: term_key(ring, m), reverse=True)
    return list(MonomialIdeal(ring, ordered).generators)


def is_monomial_ideal(I):
    """True iff every generator is a single term (the zero ideal counts)."""
    return all(f.is_term() for f in I.generators)


def _jet_supports(exps, s, n):
    """The order vectors a with sum e_i a_i <= s of the monomial with
    sparse exponents `exps`, each as the sorted tuple of its jet indices
    a_i*n + i."""
    partial = [((), s)]   # (jet indices so far, weight left)
    for i, e in exps:
        partial = [(idx + (a * n + i,), left - a * e)
                   for idx, left in partial for a in range(left // e + 1)]
    return [tuple(sorted(idx)) for idx, _ in partial]


def jets_radical(s, I):
    """Radical of the ideal of s-jets of a monomial ideal, by the closed
    form of the module docstring, in canonical term order, largest first.

    Each support is keyed by its mask of jet indices; it is squarefree, so
    one divides another iff its mask is inside the other's.  The masks are
    minimalized once, and only the kept ones are decoded into monomials."""
    if isinstance(I, MonomialIdeal):
        monomials = I.generators
    elif is_monomial_ideal(I):
        monomials = [m for f in I.generators for m in f._terms]
    else:
        raise ValueError("jets_radical needs a monomial ideal")
    ring = jet_ring(I.ring, s)
    n = len(I.ring.variables)
    supports = {sum([1 << k for k in idx]): idx for m in monomials
                for idx in _jet_supports(m, s, n)}
    kept = [tuple([(k, 1) for k in supports[mask]])
            for mask in _minimal_masks(supports)]
    kept.sort(key=lambda m: term_key(ring, m), reverse=True)
    return MonomialIdeal._trusted(ring, tuple(kept))


def minimal_transversals(edges):
    """All inclusion-minimal hitting sets of a family of index sets.

    Berge, on bitmasks: of the minimal transversals of the edges so far,
    those that hit the next edge F stay, and each c that misses F grows
    to c|b for every b in F.  A transversal inside c|b meets F only at b,
    and a grown c'|b inside it has c' = c, so c|b is minimal iff no old
    transversal h through b has h - b inside c.

    The edges are swept by their largest vertex (in ascending order of
    their masks, duplicates dropped), so once the edges inside the vertices
    0..k are in, the transversals so far are the minimal covers of those
    edges; the families stay smaller than in the order given.  Returns
    frozensets in (size, sorted members) order.
    """
    edges = [tuple(e) for e in edges]
    width = 1 + max((v for e in edges for v in e), default=-1)
    return [frozenset(c) for c in _transversals(edges, range(width))]


def _transversals(edges, items):
    """The minimal transversals of `minimal_transversals`, on edges of
    indices into `items`, each as the tuple of its items, in (size,
    members) order.  Each edge keeps the set of its vertex bits, so the
    sweep reads them without decoding its mask."""
    bits = {sum(vs): vs for vs in ({1 << v for v in e} for e in edges)}
    covers = [0]
    for edge in sorted(bits):
        hitting = [c for c in covers if c & edge]
        missing = [c for c in covers if not c & edge]
        grown = []
        for b in bits[edge]:
            rest = [h ^ b for h in hitting if h & b]
            for c in missing:
                for r in rest:
                    if r | c == c:
                        break
                else:
                    grown.append(c | b)
        covers = hitting + grown
    return _by_size(covers, items)


def _by_size(masks, items):
    """The members of each mask, as a tuple of `items` (bit i stands for
    items[i]), in (size, members) order.

    The masks themselves are sorted, on their popcount, ascending, and then
    on their row, the fixed-width binary string read lowest bit first
    (`_rows`), descending: of two masks of one size, the one holding the
    lowest bit where they differ has the smaller members and the larger
    row.  Each row is then decoded once, by `compress` over `items`."""
    rows = sorted(zip([-m.bit_count() for m in masks], _rows(masks, len(items))),
                  reverse=True)
    return [tuple(compress(items, row)) for _, row in rows]


def minimal_primes_squarefree(I):
    """Minimal primes of a squarefree monomial ideal.

    Each minimal prime is generated by the variables of a minimal vertex
    cover of the hypergraph of generator supports.  Returned as tuples of
    variables, ordered by size and then by variable indices.
    """
    if not I.squarefree:
        raise ValueError("minimal primes require a squarefree monomial ideal")
    return _transversals(([i for i, _ in m] for m in I.generators), I.ring.variables)
