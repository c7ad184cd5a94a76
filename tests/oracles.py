"""Independent brute-force oracles used to compute expected test values.

Everything here, except the term-collection reference for jets of
monomial ideals, deliberately avoids the library's sparse-monomial code
paths: polynomials are dense exponent-tuple dicts, covers come from a
full subset scan, determinants from the permutation sum, chordality from
induced-cycle enumeration, and colorings from exhaustive assignment.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from jetschemes import (Graph, HyperGraph, Ideal, Monomial, MonomialIdeal, Poly,
                        Variable, edge_ideal, graph_from_edge_ideal, jets_ideal,
                        term_key)


# --- dense-exponent polynomial arithmetic -----------------------------------

def dense_from_poly(f, nvars=None):
    n = nvars if nvars is not None else len(f.ring.variables)
    out = {}
    for m, c in f._terms.items():
        e = [0] * n
        for i, ex in m.exps:
            e[i] = ex
        out[tuple(e)] = Fraction(c)
    return out


def dense_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def dense_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def dense_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def dense_term_key(ring, mono):
    """The ring's monomial order on a dense exponent vector, block by block.

    Blocks are compared from the last one; within a block by total degree,
    then by the negated exponents read from the block's last variable.
    """
    exps = [0] * len(ring.variables)
    for i, e in mono.exps:
        exps[i] = e
    key = []
    for start, stop in reversed(list(_block_slices(ring))):
        block = exps[start:stop]
        key.append(sum(block))
        key.append(tuple(-e for e in reversed(block)))
    return tuple(key)


def dense_poly_str(f):
    """The canonical text of f: terms largest first by `dense_term_key`,
    factors in variable-list order, coefficients as str(abs(Fraction))
    with the sign in front, "1*" left out, and "0" for no terms."""
    names = [v.name for v in f.ring.variables]
    out = []
    for m, c in sorted(f._terms.items(), key=lambda kv: dense_term_key(f.ring, kv[0]),
                       reverse=True):
        vector = [0] * len(names)
        for i, e in m.exps:
            vector[i] = e
        mono = "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                        for i, e in enumerate(vector) if e)
        mag = str(abs(Fraction(c)))
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        sign = "-" if c < 0 else "+" if out else ""
        out.append(sign + body)
    return "".join(out) or "0"


def _block_slices(ring):
    start = 0
    for _, size in ring.blocks:
        yield start, start + size
        start += size


def series_by_full_expansion(f, jr):
    """Taylor coefficients of f without truncated arithmetic.

    Substitutes every base variable by its full jet sum in a dense ring
    with one extra slot for the series parameter, expands completely, and
    splits the result by the parameter's exponent.
    """
    njet = len(jr.ring.variables)
    n = njet + 1
    subs = []
    for v in jr.base.variables:
        s = {}
        for j, jvar in enumerate(jr.jet_vars[v]):
            e = [0] * n
            e[jr.ring.index(jvar)] = 1
            e[-1] = j
            s[tuple(e)] = Fraction(1)
        subs.append(s)
    total = {}
    for m, c in f._terms.items():
        term = {(0,) * n: Fraction(c)}
        for i, ex in m.exps:
            term = dense_mul(term, dense_pow(subs[i], ex, n))
        total = dense_add(total, term)
    by_degree = {}
    for e, c in total.items():
        by_degree.setdefault(e[-1], {})[e[:-1]] = c
    return by_degree


# --- combinatorial oracles ---------------------------------------------------

def brute_minimal_covers(nvars, edges):
    """All minimal hitting sets by scanning every subset of the vertices."""
    edge_sets = [frozenset(e) for e in edges]
    kept = []
    for size in range(nvars + 1):
        for subset in combinations(range(nvars), size):
            s = frozenset(subset)
            if all(s & e for e in edge_sets) and not any(k <= s for k in kept):
                kept.append(s)
    return sorted(kept, key=lambda c: (len(c), sorted(c)))


def goward_smith_jets_edges(G, s):
    """Edges of the order-s jets of a graph, by the closed form.

    Goward and Smith (Comm. Algebra, 2006): the radical of the s-jets of
    the edge ideal is generated by u_a*v_b for every edge uv and every
    a + b <= s, so the jets graph has exactly those edges.  Returned as a
    set of frozen name pairs, the order-a copy of u being named u<a>.
    """
    return {frozenset((f"{u.name}{a}", f"{v.name}{b}"))
            for u, v in G.edge_pairs()
            for a in range(s + 1) for b in range(s + 1 - a)}


def jets_radical_by_terms(s, I):
    """Radical of the s-jets of a monomial ideal, by term collection.

    Expands every generator with `jets_ideal`, keeps the squarefree
    support of every term of every coefficient, and minimalizes them in
    descending term order.  Coefficients play no part over a field, and
    passing to supports is radical-safe.
    """
    if isinstance(I, MonomialIdeal):
        I = I.to_ideal()
    ji = jets_ideal(s, I)
    ring = ji.ring
    supports = {Monomial((i, 1) for i, _ in m.exps)
                for g in ji.generators for m in g._terms}
    return MonomialIdeal(ring, sorted(supports, key=lambda m: term_key(ring, m),
                                      reverse=True))


def jets_graph_by_terms(s, G):
    """The jets of a graph through its edge ideal and term collection."""
    return graph_from_edge_ideal(jets_radical_by_terms(s, edge_ideal(G)))


def jets_hypergraph_by_terms(s, H):
    """The jets of a hypergraph through its edge ideal and term collection."""
    rad = jets_radical_by_terms(s, edge_ideal(H))
    return HyperGraph(rad.ring.variables, [m.support() for m in rad.generators])


def intersect_variable_primes(ring, primes):
    """Generator supports of the intersection of variable-generated primes.

    Least-common-multiple expansion, one prime at a time: the partial
    intersection's generators each absorb one variable of the next prime,
    with non-minimal supports pruned after every step.  Returns a set of
    frozen index sets.
    """
    supports = [frozenset()]
    for p in primes:
        indices = [ring.index(v) for v in p]
        step = {s | {i} for s in supports for i in indices}
        supports = [s for s in step if not any(o < s for o in step)]
    return set(supports)


def leibniz_det(ring, entries):
    n = len(entries)
    total = ring.zero()
    for perm in permutations(range(n)):
        term = ring.one()
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (term if perm_sign(perm) > 0 else -term)
    return total


def perm_sign(perm):
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def chordal_by_induced_cycles(n, edges):
    """Chordal iff no vertex subset induces a cycle of length 4 or more."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    for size in range(4, n + 1):
        for subset in combinations(range(n), size):
            if _induces_cycle(subset, adj):
                return False
    return True


def _induces_cycle(subset, adj):
    inside = set(subset)
    if any(len(adj[v] & inside) != 2 for v in subset):
        return False
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v] & inside:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == len(inside)


def brute_chromatic(n, edges):
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for coloring in product(range(k), repeat=n):
            if all(coloring[i] != coloring[j] for i, j in edges):
                return k
    raise AssertionError("unreachable")


# --- parsing ------------------------------------------------------------------

def poly_from_terms(ring, terms):
    """The polynomial of `terms`, built only by the validating constructors.

    Each term is (factors, coefficient) with factors a list of (variable
    index, exponent) pairs, repeats and zero exponents allowed: Monomial
    merges and drops them, and Poly sums repeated monomials, normalizes
    the coefficients and drops zero sums.
    """
    return Poly(ring, [(Monomial(factors), Fraction(c)) for factors, c in terms])


# --- random instance generators ----------------------------------------------

def random_poly(rng, ring, max_degree=4, max_terms=5):
    nvars = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            i = rng.randrange(nvars)
            exps[i] = exps.get(i, 0) + 1
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m = Monomial(exps)
        terms[m] = terms.get(m, Fraction(0)) + coef
    return Poly(ring, terms)


def random_graph(rng, n, p=0.45):
    vertices = [Variable(ch) for ch in "abcdefghij"[:n]]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(vertices, edges)


def random_monomial_ideal(rng, ring, max_exp=4, max_gens=3):
    """An Ideal of single terms with random nonzero coefficients.

    A generator may repeat an earlier one, or be a constant (the unit
    ideal).
    """
    n = len(ring.variables)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        if gens and rng.random() < 0.2:
            mono = next(iter(rng.choice(gens)._terms))
        else:
            size = 0 if rng.random() < 0.1 else rng.randint(1, n)
            support = rng.sample(range(n), size)
            mono = Monomial((i, rng.randint(1, max_exp)) for i in support)
        coef = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        gens.append(Poly(ring, {mono: coef}))
    return Ideal(ring, gens)


def random_squarefree_ideal(rng, ring, max_gens=4):
    n = len(ring.variables)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        support = rng.sample(range(n), rng.randint(1, n))
        gens.append(Monomial((i, 1) for i in support))
    return MonomialIdeal(ring, gens)
