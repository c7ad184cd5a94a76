"""Jets of rings, ideals, and ring maps.

The order-s jet ring of QQ[x_1..x_n] adjoins one variable per original
variable and per order 0..s, arranged in blocks of increasing order.
Substituting each variable by its truncated Taylor expansion
x_k -> x_{k,0} + x_{k,1} t + ... + x_{k,s} t^s and reading off the
coefficients of t^0..t^s turns a polynomial into an order-s truncated
series; the jets of an ideal are generated by those coefficients.

The expansion needs no polynomial arithmetic.  Mapping each jet
variable x_{k,a} back to x_k sends every term of the expansion of a
monomial m of f back to m, so different monomials of f never share a
jet monomial; and the variables of m expand into disjoint sets of jet
variables, so terms can only combine inside one power
(x_{k,0} + x_{k,1} t + ... + x_{k,s} t^s)^e.  That power is an integer
table, the same for every variable up to relabeling: for each t-degree
j <= s, the multisets of orders summing to j with their multinomial
counts.  Each term of f is then a truncated convolution of the tables of
its variables, scaled once by its rational coefficient, and every jet
monomial it yields is distinct, so the coefficients of t^0..t^s are
exactly those of the full expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .poly import Ideal, Monomial, Poly, PolyRing, Variable


@dataclass(eq=True)
class JetRing:
    """The jet ring of a base ring: (s+1) blocks of relabeled variables.

    `ring` is the flattened polynomial ring; block j holds the order-j jet
    of every base variable, in base order, and carries weight j.
    """

    base: PolyRing
    order: int
    ring: PolyRing
    jet_vars: dict

    def jet_var(self, v, j):
        """The order-j jet variable of base variable `v`, as a polynomial."""
        return self.ring.var(self.jet_vars[v][j])

    def __str__(self):
        return str(self.ring)


def jet_ring(base, s):
    """Build the order-s jet ring of a plain (single block, untagged) ring."""
    if s < 0:
        raise ValueError("jet order must be a natural number")
    if any(tag is not None for tag, _ in base.blocks):
        raise ValueError("ring already has jet blocks; iterated jets are not supported")
    if any(v.jet_order is not None for v in base.variables):
        raise ValueError("ring already has jet variables; iterated jets are not supported")
    n = len(base.variables)
    # the base variables were checked, so their jets are too; each jet name
    # is the base name with the order spliced in after the base ("x_(1)" -> "x2_(1)")
    variables = [Variable._trusted(v.base, v.subscripts, j,
                                   v.base + str(j) + v.name[len(v.base):])
                 for j in range(s + 1) for v in base.variables]
    blocks = tuple((j, n) for j in range(s + 1))
    weights = tuple(j for j in range(s + 1) for _ in range(n))
    ring = PolyRing(variables, blocks, weights)
    jet_vars = {v: ring.variables[k::n] for k, v in enumerate(base.variables)}
    return JetRing(base, s, ring, jet_vars)


@dataclass(eq=True)
class TruncatedSeries:
    """Coefficients c_0..c_s of a polynomial in t modulo t^(s+1)."""

    ring: JetRing
    coeffs: tuple

    def __post_init__(self):
        self.coeffs = tuple(self.coeffs)
        if len(self.coeffs) != self.ring.order + 1:
            raise ValueError("series needs exactly order+1 coefficients")

    def __str__(self):
        return " + ".join(f"({c})*t^{j}" for j, c in enumerate(self.coeffs))


def _power_table(e, s):
    """(y_0 + y_1 t + ... + y_s t^s)^e modulo t^(s+1), on integers.

    Entry d lists the terms of t^d as (((order, mult), ...), count): the
    orders ascend, the mults sum to e, and count is the multinomial
    e! / prod(mult!).  Orders s..1 are placed first; order 0 takes what
    is left of e.
    """
    partial = [((), e, 0, 1)]   # (pattern, multiplicity left, t-degree, count)
    for o in range(s, 0, -1):
        grown = []
        for pattern, left, d, count in partial:
            grown.append((pattern, left, d, count))
            for m in range(1, min(left, (s - d) // o) + 1):
                grown.append((((o, m),) + pattern, left - m, d + m * o,
                              count * comb(left, m)))
        partial = grown
    table = [[] for _ in range(s + 1)]
    for pattern, left, d, count in partial:
        table[d].append((((0, left),) + pattern if left else pattern, count))
    return table


def series_substitute(f, jets):
    """Expand f at the truncated Taylor substitution of its variables.

    Returns the TruncatedSeries whose j-th coefficient is the t^j part of
    f(sum_j x_{1,j} t^j, ..., sum_j x_{n,j} t^j), for j = 0..s.

    Since no two terms of the expansion share a jet monomial (see the
    module docstring), each term c*m of f contributes the t-degree
    convolution, truncated at s, of the power tables of its variables,
    scaled by c.  One table is built per exponent and relabeled once per
    (variable, exponent), order o of variable k going to jet index
    o*n + k; both live for this call only.  Each coefficient is built
    once, as a Poly on normalized terms.
    """
    if f.ring != jets.base:
        raise ValueError("polynomial does not live in the base ring")
    s = jets.order
    n = len(jets.base.variables)
    tables = {}    # exponent -> _power_table
    factors = {}   # (variable, exponent) -> its table on jet indices
    out = [{} for _ in range(s + 1)]
    for mono, coef in f._terms.items():
        partial = [[((), 1)]] + [[] for _ in range(s)]
        for i, e in mono.exps:
            factor = factors.get((i, e))
            if factor is None:
                if e not in tables:
                    tables[e] = _power_table(e, s)
                factor = factors[i, e] = [
                    [(tuple((o * n + i, m) for o, m in pattern), count)
                     for pattern, count in row] for row in tables[e]]
            grown = [[] for _ in range(s + 1)]
            for d, row in enumerate(partial):
                for exps, count in row:
                    for d2 in range(s + 1 - d):
                        target = grown[d + d2]
                        for exps2, count2 in factor[d2]:
                            target.append((exps + exps2, count * count2))
            partial = grown
        for terms, row in zip(out, partial):
            for exps, count in row:
                mono_jet = Monomial._trusted(tuple(sorted(exps)))
                terms[mono_jet] = coef if count == 1 else coef * count
    return TruncatedSeries(jets, tuple(Poly._trusted(jets.ring, terms) for terms in out))


@dataclass(eq=True)
class JetIdeal:
    """The ideal of s-jets: all coefficient polynomials of the generators.

    Generators are grouped by source generator with the highest-order
    coefficient first; vanishing coefficients are dropped.
    """

    ring: JetRing
    source: Ideal
    generators: tuple

    @property
    def ideal(self):
        return Ideal(self.ring.ring, self.generators)

    def __str__(self):
        return "ideal(" + ",".join(str(g) for g in self.generators) + ")"


def jets_ideal(s, I):
    """Jets of an ideal: the coefficients f_(i,j) of every generator, j <= s."""
    jets = jet_ring(I.ring, s)
    gens = []
    for f in I.generators:
        coeffs = series_substitute(f, jets).coeffs
        gens.extend(c for c in reversed(coeffs) if not c.is_zero())
    return JetIdeal(jets, I, tuple(gens))


def jets_quotient(s, R, I):
    """Jets of a quotient presentation (R, I), returned as the pair

    (jet ring of R, jets of I)."""
    if I.ring != R:
        raise ValueError("ideal does not live in the given ring")
    ji = jets_ideal(s, I)
    return ji.ring, ji


@dataclass(eq=True)
class RingMap:
    """A ring homomorphism determined by the image of each source variable."""

    source: PolyRing
    target: PolyRing
    images: tuple

    def __post_init__(self):
        self.images = tuple(self.images)
        if len(self.images) != len(self.source.variables):
            raise ValueError("need one image per source variable")
        for g in self.images:
            if g.ring != self.target:
                raise ValueError("image lives outside the target ring")

    @classmethod
    def identity(cls, R):
        return cls(R, R, tuple(R.gens()))

    def __call__(self, f):
        if f.ring != self.source:
            raise ValueError("polynomial does not live in the source ring")
        out = self.target.zero()
        for mono, coef in f._terms.items():
            term = self.target.constant(coef)
            for i, e in mono.exps:
                term = term * self.images[i] ** e
            out = out + term
        return out


def compose(outer, inner):
    """The composite map sending f to outer(inner(f))."""
    if inner.target != outer.source:
        raise ValueError("maps are not composable")
    return RingMap(inner.source, outer.target,
                   tuple(outer(g) for g in inner.images))


@dataclass(eq=True)
class RingMapJets:
    """The map induced on jet rings: the order-j jet of x_k is sent to the

    t^j coefficient of the expansion of the image of x_k."""

    source: JetRing
    target: JetRing
    map: RingMap

    def __call__(self, f):
        return self.map(f)

    @property
    def images(self):
        return self.map.images


def jets_ring_map(s, phi):
    """Apply the jet construction to a ring map."""
    source = jet_ring(phi.source, s)
    target = jet_ring(phi.target, s)
    expansions = [series_substitute(g, target).coeffs for g in phi.images]
    images = tuple(expansions[k][j]
                   for j in range(s + 1)
                   for k in range(len(phi.source.variables)))
    return RingMapJets(source, target, RingMap(source.ring, target.ring, images))
