"""Jets of rings, ideals, and ring maps.

The order-s jet ring of QQ[x_1..x_n], a `JetRing`, is the polynomial ring
of one variable per original variable and order 0..s, in blocks of rising order.
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
table on the jet indices of x_k: for each t-degree j <= s, the multisets
of orders summing to j with their multinomial counts.  Each term of f is
a truncated convolution of the tables of its variables, scaled by its
coefficient once per distinct count; no two jet monomials it yields are
equal, so the t^0..t^s coefficients are those of the full expansion.

Each coefficient is built in print order.  The dense row of fields that
`poly.term_key` compares is additive over products, so a pattern's row,
packed as one int in balanced radix 2^w with 2^w above the degree of f,
rides the tables and the convolution as a sum.  Only the k variables f
uses get fields, and not the first of them: a block's degree and its other
exponents fix that one's.  So there are k(s+1) fields, whatever the ring.

Only the work the output needs is done per term.  A linear power table
is listed directly, one jet variable per t-degree; the last table of a
term convolves straight into the output rows, scaling as it goes; the
patterns of a one-variable term are already sorted; and each row is
sorted on its keys alone.
"""

from math import comb
from operator import itemgetter

from .poly import SIZE_BOUND, Ideal, Poly, PolyRing


class JetRing(PolyRing):
    """The order-s jet ring of a base ring of n variables: the `PolyRing` of
    its jets, in s+1 blocks of n (the order-j jet of base variable k is
    `variables[j*n + k]`), that also knows its `base` and `order`."""

    __slots__ = ("base", "order")

    def __init__(self, base, order):
        PolyRing.__init__(self, _jet_variables(base.variables, order))
        self.base = base
        self.order = order

    def __repr__(self):
        return f"JetRing({self.base}, {self.order})"


def _jet_variables(variables, s):
    """The jets of `variables` at orders 0..s: the order-0 jets in the given
    order, then the order-1 jets, and so on; a variable that is already a
    jet is refused, and so are orders with more than `poly.SIZE_BOUND`
    jets, before any is built."""
    if s < 0:
        raise ValueError("jet order must be a natural number")
    count = len(variables) * (s + 1)
    if count > SIZE_BOUND:
        raise ValueError(f"jets of order {s} need {count} jet variables, "
                         f"more than {SIZE_BOUND}")
    parts = [v.partition("_(") for v in variables]   # as ("x", "_(", "1,2)") or ("x", "", "")
    for v, (head, _, _) in zip(variables, parts):
        if head[-1].isdigit():   # a jet order ends the part before the subscripts
            raise ValueError(f"{v} is already a jet variable; iterated jets are not supported")
    # the given variables were checked, so their jets are too; each jet name
    # is the base name with the order spliced in after it ("x_(1)" -> "x2_(1)")
    return [base + order + paren + subs
            for order in map(str, range(s + 1)) for base, paren, subs in parts]


def jet_ring(base, s):
    """Build the order-s jet ring of a ring of variables that are not jets."""
    return JetRing(base, s)


def _power_table(e, s, i, n, unit, shift):
    """(x_{i,0} + x_{i,1} t + ... + x_{i,s} t^s)^e modulo t^(s+1), with
    integer counts, on the jet indices o*n + i of a base ring of n variables.

    Entry d lists the terms of t^d as (key, ((o*n + i, mult), ...), count):
    the indices ascend, the mults sum to e, count is e! / prod(mult!), and
    key, the sum of mult * unit << o*shift, orders the pattern if x_{i,o}
    has key unit << o*shift.  A linear table (e = 1) is listed directly:
    entry d is x_{i,d} alone.  Otherwise, depth first, each pattern is
    built once: a stacked one fixes the mults of the orders above `top`, is
    emitted with order 0 taking the rest of e, and grows by each lower
    nonzero order.
    """
    if e == 1:
        return [[(unit << d * shift, ((d * n + i, 1),), 1)] for d in range(s + 1)]
    table = [[] for _ in range(s + 1)]
    stack = [((), 0, e, 0, 1, s)]   # (pattern, key, multiplicity left, t-degree, count, top)
    while stack:
        pattern, key, left, d, count, top = stack.pop()
        if not left:
            table[d].append((key, pattern, count))
            continue
        table[d].append((key + left * unit, ((i, left),) + pattern, count))
        for o in range(min(top, s - d), 0, -1):
            for m in range(1, min(left, (s - d) // o) + 1):
                stack.append((((o * n + i, m),) + pattern, key + (m * unit << o * shift),
                              left - m, d + m * o, count * comb(left, m), o - 1))
    return table


def series_substitute(f, jets):
    """Expand f at the truncated Taylor substitution of its variables.

    Returns the tuple of s+1 polynomials of `jets`, the order-s jet ring of
    f's ring (any other ring is a ValueError), whose j-th entry is the t^j
    part of f(sum_j x_{1,j} t^j, ..., sum_j x_{n,j} t^j).

    No two terms of the expansion share a jet monomial (see the module
    docstring): each term c*m of f gives the convolution, truncated at s,
    of the power tables of its variables, built once per (variable,
    exponent) and call on jet indices.  The last table convolves straight
    into the output rows, where c is scaled once per distinct multinomial
    count.  Each coefficient is one Poly on normalized terms: a jet
    monomial is its pattern of (jet index, exponent) pairs, sorted.  A
    term of one variable (or none) keeps its table's patterns, whose
    indices already ascend; only the joined patterns of several variables
    are sorted.  Sorted once on their distinct order keys, a row's terms
    are stored in print order, and it is `_ordered`.  For the r-th of the
    k variables of f, x_{i,o} adds 1 to field o*k + k-1 (block o's
    degree) and, if r > 0, -1 to field o*k + r-1, each field w bits wide
    and counted from the least significant, where 2^w exceeds the degree
    d of f: two keys' fields differ by at most d, so the highest differing
    field decides (one bit less fails
    `test_series_coefficients_are_built_in_print_order`).  Rank 0 has no
    field, as keys that agree on a block's degree and its other exponents
    agree on its rank-0 exponent too.
    """
    if not isinstance(jets, JetRing) or f.ring != jets.base:
        raise ValueError("ring is not the jet ring of the polynomial's ring")
    s = jets.order
    n = len(jets.base.variables)
    support = sorted({i for mono in f._terms for i, _ in mono})
    k = len(support)
    w = max((sum(e for _, e in mono) for mono in f._terms), default=0).bit_length()
    tables = {}   # (variable, exponent) -> _power_table
    rows = [[] for _ in range(s + 1)]   # per t-degree, (key, pattern, coefficient)
    for mono, coef in f._terms.items():
        factors = []
        for i, e in mono:
            factor = tables.get((i, e))
            if factor is None:
                # the key of x_{i,0}; the rank-0 variable has no field
                unit = (1 << w * (k - 1)) - (1 << w * support.index(i) >> w)
                factor = tables[i, e] = _power_table(e, s, i, n, unit, w * k)
            factors.append(factor)
        last = factors.pop() if factors else _power_table(0, s, 0, n, 0, 0)   # x^0 for a constant
        scaled = {1: coef}   # int count -> coef * count
        if not factors:   # one table: its patterns are already sorted
            for out, row in zip(rows, last):
                for key, exps, count in row:
                    c = scaled.get(count)
                    if c is None:
                        c = scaled[count] = coef * count
                    out.append((key, exps, c))
            continue
        partial = factors[0]
        for factor in factors[1:]:
            grown = [[] for _ in range(s + 1)]
            for d, row in enumerate(partial):
                for key, exps, count in row:
                    for d2 in range(s + 1 - d):
                        target = grown[d + d2]
                        for key2, exps2, count2 in factor[d2]:
                            target.append((key + key2, exps + exps2, count * count2))
            partial = grown
        for d, row in enumerate(partial):
            for key, exps, count in row:
                for d2 in range(s + 1 - d):
                    out = rows[d + d2]
                    for key2, exps2, count2 in last[d2]:
                        c = scaled.get(count * count2)
                        if c is None:
                            c = scaled[count * count2] = coef * (count * count2)
                        out.append((key + key2, tuple(sorted(exps + exps2)), c))
    for row in rows:
        row.sort(key=itemgetter(0), reverse=True)
    coefficients = tuple(Poly._trusted(jets, {exps: c for _, exps, c in row})
                         for row in rows)
    for p in coefficients:
        p._ordered = True   # sorted on distinct keys, so nothing past them was compared
    return coefficients


def jets_ideal(s, I):
    """Jets of an ideal, as an ideal of the jet ring: the coefficients
    f_(i,j), j <= s, of every generator, grouped by generator with the
    highest order first; vanishing coefficients are dropped."""
    jets = jet_ring(I.ring, s)
    return Ideal(jets, [c for f in I.generators
                        for c in reversed(series_substitute(f, jets))])


def jets_quotient(s, R, I):
    """Jets of a quotient presentation (R, I): the pair (jet ring of R,
    jets of I as an ideal of it)."""
    if I.ring != R:
        raise ValueError("ideal does not live in the given ring")
    ideal = jets_ideal(s, I)
    return ideal.ring, ideal


class RingMap:
    """A ring homomorphism determined by the image of each source variable."""

    __hash__ = None   # equal field by field, and mutable

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = tuple(images)
        if len(self.images) != len(self.source.variables):
            raise ValueError("need one image per source variable")
        for g in self.images:
            if g.ring != self.target:
                raise ValueError("image lives outside the target ring")

    def __call__(self, f):
        if f.ring != self.source:
            raise ValueError("polynomial does not live in the source ring")
        out = self.target.zero()
        for mono, coef in f._terms.items():
            term = self.target.constant(coef)
            for i, e in mono:
                term = term * self.images[i] ** e
            out = out + term
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.images)
                == (other.source, other.target, other.images))

    def __repr__(self):
        images = ",".join(map(str, self.images))
        return f"RingMap({self.source} -> {self.target}: {images})"


def compose(outer, inner):
    """The composite map sending f to outer(inner(f))."""
    if inner.target != outer.source:
        raise ValueError("maps are not composable")
    return RingMap(inner.source, outer.target,
                   tuple(outer(g) for g in inner.images))


def jets_ring_map(s, phi):
    """The map induced between the jet rings of the source and target: the
    order-j jet of x_k goes to the t^j coefficient of the expansion of
    the image of x_k."""
    source = jet_ring(phi.source, s)
    target = jet_ring(phi.target, s)
    expansions = [series_substitute(g, target) for g in phi.images]
    images = tuple(expansions[k][j]
                   for j in range(s + 1)
                   for k in range(len(phi.source.variables)))
    return RingMap(source, target, images)
