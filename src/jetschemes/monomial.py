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
monomial is written in unary (exponent e of variable i fills e bits of a
field as wide as the largest exponent), so divisibility becomes mask
inclusion.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Ideal, Monomial, Poly, monomial_str, term_key
from .jets import jet_ring


class MonomialIdeal:
    """An ideal generated by monomials, kept minimal.

    Generators that duplicate or are divisible by another generator are
    dropped; the order of the surviving generators is preserved.
    """

    __slots__ = ("ring", "generators", "squarefree")

    def __init__(self, ring, generators):
        self.ring = ring
        generators = tuple(generators)
        if any(m.exps and m.exps[-1][0] >= len(ring.variables) for m in generators):
            raise ValueError("monomial uses a variable outside the ring")
        w = max((e for m in generators for _, e in m.exps), default=1)
        masks = [sum(((1 << e) - 1) << (i * w) for i, e in m.exps) for m in generators]
        kept = set(_minimal_masks(masks))
        self.generators = tuple(dict.fromkeys(
            m for m, mask in zip(generators, masks) if mask in kept))
        self.squarefree = all(m.is_squarefree() for m in self.generators)

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
    """The inclusion-minimal ones among some int bitmasks, duplicates dropped:
    visiting them by popcount puts every proper subset of a mask before it,
    so a mask is kept iff no kept mask is a subset of it."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def _members(mask):
    """The set bit positions of an int bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    form of the module docstring, in canonical term order, largest first."""
    if isinstance(I, MonomialIdeal):
        I = I.to_ideal()
    if not is_monomial_ideal(I):
        raise ValueError("jets_radical needs a monomial ideal")
    ring = jet_ring(I.ring, s).ring
    n = len(I.ring.variables)
    supports = {Monomial._trusted(tuple((k, 1) for k in idx)) for f in I.generators
                for m in f._terms for idx in _jet_supports(m.exps, s, n)}
    return MonomialIdeal(ring, sorted(supports, key=lambda m: term_key(ring, m),
                                      reverse=True))


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
    return [frozenset(c) for c in _transversals(edges)]


def _transversals(edges):
    """The minimal transversals of `minimal_transversals`, each as the
    ascending list of its members, in (size, members) order."""
    covers = [0]
    for edge in sorted({sum({1 << v for v in e}) for e in edges}):
        hitting = [c for c in covers if c & edge]
        missing = [c for c in covers if not c & edge]
        grown = []
        for v in _members(edge):
            b = 1 << v
            rest = [h ^ b for h in hitting if h & b]
            for c in missing:
                for r in rest:
                    if r | c == c:
                        break
                else:
                    grown.append(c | b)
        covers = hitting + grown
    return sorted(map(_members, covers), key=lambda c: (len(c), c))


def minimal_primes_squarefree(I):
    """Minimal primes of a squarefree monomial ideal.

    Each minimal prime is generated by the variables of a minimal vertex
    cover of the hypergraph of generator supports.  Returned as tuples of
    Variables, ordered by size and then by variable indices.
    """
    if not I.squarefree:
        raise ValueError("minimal primes require a squarefree monomial ideal")
    variables = I.ring.variables
    return [tuple(variables[i] for i in c)
            for c in _transversals(m.support() for m in I.generators)]
