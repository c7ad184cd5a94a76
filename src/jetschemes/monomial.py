"""Monomial-ideal combinatorics.

The radical of the jets of a monomial ideal has a closed form (Goward
and Smith, Comm. Algebra 2006): the radical of the s-jets of (x^e) is
generated by the products x_{1,a_1}...x_{r,a_r} with sum e_i a_i <= s.
Each such product is the support of a term of the t^j coefficient of the
expansion, j = sum e_i a_i; and in any term of that coefficient the
smallest orders m_i of the x_i have sum e_i m_i <= j, so its support
contains one of the products.  No series is expanded.  Minimal primes
of a squarefree monomial ideal are read off as minimal vertex covers of
the hypergraph of generator supports.

Monomials and index sets are minimalized as int bitmasks by a single
kernel, `_minimal_masks`.  A monomial is written in unary: exponent e of
variable i fills e bits of a field of width w, the largest exponent in
the input, so divisibility becomes mask inclusion (a squarefree monomial
is just its support mask).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Ideal, Monomial, Poly, term_key
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
        nvars = len(ring.variables)
        for m in generators:
            if m.exps and m.exps[-1][0] >= nvars:
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
        from .poly import monomial_str
        return "ideal(" + ",".join(monomial_str(self.ring, m)
                                   for m in self.generators) + ")"

    def __repr__(self):
        return f"MonomialIdeal({self})"


def _minimal_masks(masks, minimal=()):
    """The inclusion-minimal ones among some int bitmasks, duplicates dropped.

    Visiting the distinct masks by popcount puts every proper subset of a
    mask before it, so a mask is kept iff no kept mask is a subset of it.
    `minimal` seeds the kept list with distinct masks already known to be
    minimal among them and `masks` together; they are kept as given, and
    only `masks` is scanned.
    """
    kept = list(minimal)
    for m in sorted(set(masks), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


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

    Incremental, on bitmasks (Berge): extend the minimal transversals of
    the first k edges that miss edge k+1 by each of its vertices, and
    re-minimalize.  The transversals that already hit edge k+1 all stay
    minimal (a grown set inside one would contain a smaller transversal
    of the first k edges), so only the grown sets are checked.  Returns
    frozensets in a deterministic (size, sorted members) order.
    """
    covers = [0]
    for edge in edges:
        bits = {1 << v for v in edge}
        mask = sum(bits)
        hitting = [c for c in covers if c & mask]
        grown = [c | b for c in covers if not c & mask for b in bits]
        covers = _minimal_masks(grown, hitting)
    members = [[i for i in range(c.bit_length()) if c >> i & 1] for c in covers]
    return [frozenset(c) for c in sorted(members, key=lambda c: (len(c), c))]


def minimal_primes_squarefree(I):
    """Minimal primes of a squarefree monomial ideal.

    Each minimal prime is generated by the variables of a minimal vertex
    cover of the hypergraph of generator supports.  Returned as tuples of
    Variables, ordered by size and then by variable indices.
    """
    if not I.squarefree:
        raise ValueError("minimal primes require a squarefree monomial ideal")
    covers = minimal_transversals(m.support() for m in I.generators)
    return [tuple(I.ring.variables[i] for i in sorted(c)) for c in covers]
