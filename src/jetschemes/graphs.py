"""Finite simple graphs and hypergraphs, edge ideals, and jets of graphs.

A graph on named vertices corresponds to the squarefree quadratic ideal
with one generator per edge.  The radical of the jets of that ideal is
again squarefree and quadratic, and the graph it encodes is the jets of
the original graph: each vertex v acquires copies v0..vs, and by the
closed form in `monomial`, u_a and v_b are adjacent iff uv is an edge and
a + b <= s.  Jets of graphs (on neighbor masks) and of hypergraphs (on
vertex indices) are built from that form, without an ideal.  The minimal
vertex covers of a graph are the complements of its maximal independent
sets, listed by Bron-Kerbosch on neighbor masks; those of a hypergraph
come from Berge's transversal sweep in `monomial`.  Either way the covers
stay vertex masks until `monomial._by_size` sorts them and decodes each
one into its tuple of vertices.
"""

from itertools import compress

from .poly import (SIZE_BOUND, Monomial, PolyRing, Variable, _Cursor, _indexed, _split_name,
                   _variables)
from .jets import _jet_variables
from .monomial import (MonomialIdeal, _by_size, _jet_supports, _minimal_masks, _rows,
                       _transversals)

_CHROMATIC_BOUND = 32   # the most vertices `chromatic_number` will search


def _resolver(vertices):
    """The lookup from a vertex, given by its name or its index, to its
    index; the vertices must be distinct."""
    index = _indexed(vertices, "vertex")

    def resolve(v):
        if isinstance(v, int):
            if not 0 <= v < len(vertices):
                raise ValueError("vertex index out of range")
            return v
        try:
            return index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None
    return resolve


class Graph:
    """A finite simple graph on named vertices, held as neighbor masks: bit j
    of `adj[i]` is set iff i-j is an edge.  The edges are read off the masks."""

    __slots__ = ("vertices", "adj")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        resolve = _resolver(self.vertices)
        adj = [0] * len(self.vertices)
        for u, v in edges:
            i, j = resolve(u), resolve(v)
            if i == j:
                raise ValueError(f"loop at vertex {self.vertices[i]}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = tuple(adj)

    @classmethod
    def _trusted(cls, vertices, adj):
        """A graph on distinct vertices and symmetric loopless masks, unchecked."""
        G = object.__new__(cls)
        G.vertices = vertices
        G.adj = adj
        return G

    @property
    def edges(self):
        """Sorted index pairs (i, j), i < j: the set bits of adj[i] above i."""
        pairs = []
        for i in reversed(range(len(self.adj))):
            rest = self.adj[i]
            while (j := rest.bit_length() - 1) > i:
                pairs.append((i, j))
                rest ^= 1 << j
        return tuple(reversed(pairs))

    def edge_pairs(self):
        """Edges as pairs of vertices, in canonical order."""
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.adj == other.adj)

    def __str__(self):
        vs = ",".join(self.vertices)
        es = ",".join(u + "-" + v for u, v in self.edge_pairs())
        return f"vertices {vs}; edges {es}".rstrip()   # no space after an empty edge list

    def __repr__(self):
        return f"Graph({self})"


class HyperGraph:
    """A hypergraph with nonempty edges, kept inclusion-minimal."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        resolve = _resolver(self.vertices)
        n = len(self.vertices)
        masks = []
        for edge in edges:
            mask = sum({1 << resolve(v) for v in edge})
            if not mask:
                raise ValueError("empty hyperedge")
            masks.append(mask)
        self.edges = tuple(sorted(tuple(compress(range(n), row))
                                  for row in _rows(_minimal_masks(masks), n)))

    def __eq__(self, other):
        return (isinstance(other, HyperGraph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __repr__(self):
        es = ",".join("{" + ",".join(self.vertices[i] for i in e) + "}"
                      for e in self.edges)
        return f"HyperGraph({es})"


def edge_ideal(G):
    """The squarefree monomial ideal with one generator per (hyper)edge."""
    ring = PolyRing(G.vertices)
    gens = [Monomial((i, 1) for i in edge) for edge in G.edges]
    return MonomialIdeal(ring, gens)


def graph_from_edge_ideal(I):
    """The graph whose edges are the generators of a quadratic squarefree ideal."""
    if not I.squarefree:
        raise ValueError("edge ideal must be squarefree")
    for m in I.generators:
        if len(m) != 2:   # squarefree: the degree is the number of variables
            raise ValueError(f"generator of degree {len(m)}, expected 2")
    return Graph(I.ring.variables, [(i, j) for (i, _), (j, _) in I.generators])


def jets_graph(s, G):
    """The order-s jets of a graph, on vertices v0..vs for each vertex v.

    u_a, at index a*n + u, is adjacent to v_b iff uv is an edge and a + b <= s:
    its mask is G.adj[u] * R[s - a], R[k] the sum of 2**(b*n) for b = 0..k,
    n-bit copies of u's mask that never overlap, built up one copy per k.
    The jet vertices come first, and the (s+1)(s+2)/2 jets of each edge are
    counted, so a too-large order is refused unbuilt."""
    vertices = tuple(_jet_variables(G.vertices, s))
    count = sum(a.bit_count() for a in G.adj) // 2 * (s + 1) * (s + 2) // 2
    if count > SIZE_BOUND:
        raise ValueError(f"jets of order {s} have {count} edges, more than {SIZE_BOUND}")
    n = len(G.vertices)
    adj, masks = [0] * len(vertices), [0] * n
    for k in range(s + 1):
        masks = [c | m << k * n for c, m in zip(masks, G.adj)]
        adj[(s - k) * n:(s - k + 1) * n] = masks
    return Graph._trusted(vertices, tuple(adj))


def jets_hypergraph(s, H):
    """The order-s jets of a hypergraph, kept inclusion-minimal."""
    n = len(H.vertices)
    return HyperGraph(_jet_variables(H.vertices, s), [
        idx for edge in H.edges for idx in _jet_supports([(i, 1) for i in edge], s, n)])


def complement_graph(G):
    """The graph on G's vertices whose edges are G's non-edges."""
    full = (1 << len(G.adj)) - 1
    return Graph._trusted(G.vertices, tuple(full ^ a ^ (1 << v) for v, a in enumerate(G.adj)))


def is_chordal(G):
    """Chordality via maximum cardinality search.

    MCS visits vertices by descending count of visited neighbors; the
    reverse of the visit order is a perfect elimination ordering iff the
    graph is chordal.  It is one iff, as each vertex is visited, its
    visited neighbors other than the last visited one are all adjacent
    to that one, so the search checks this as it goes.
    """
    adj = G.adj
    n = len(adj)
    weight = [0] * n
    latest = [0] * n  # the last visited neighbor; read only once there is one
    unvisited = list(range(n))
    seen = 0
    for _ in range(n):
        v = max(unvisited, key=weight.__getitem__)  # the lowest index on ties
        unvisited.remove(v)
        u = latest[v]
        if adj[v] & seen & ~(adj[u] | 1 << u):
            return False
        seen |= 1 << v
        for w in unvisited:
            if adj[v] >> w & 1:
                weight[w] += 1
                latest[w] = v
    return True


def chromatic_number(G):
    """Exact chromatic number by iterated k-colorability search.

    k runs up from a greedy clique lower bound, and the first k for which
    backtracking (new colors introduced at most one at a time) finds a
    coloring is returned.  No upper bound is needed: the first descent of
    each search is the first-fit greedy coloring in the same order, so a
    k that greedy reaches succeeds without backtracking.  Cliques and
    color classes are vertex masks.
    """
    n = len(G.vertices)
    if n > _CHROMATIC_BOUND:
        raise ValueError(f"graph has {n} vertices, above the bound {_CHROMATIC_BOUND}")
    adj = G.adj
    by_degree = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))

    clique = 0
    for v in by_degree:
        if not clique & ~adj[v]:
            clique |= 1 << v
    k = clique.bit_count()
    while not _colorable(adj, by_degree, [0] * k, 0):
        k += 1
    return k


def _colorable(adj, order, classes, pos):
    """Whether the k color classes (masks; empty ones last) of order[:pos]
    extend to all of `order`; each vertex opens at most the first empty one."""
    if pos == len(order):
        return True
    v = order[pos]
    for c, members in enumerate(classes):
        if not members & adj[v]:
            classes[c] = members | 1 << v
            if _colorable(adj, order, classes, pos + 1):
                return True
            classes[c] = members
            if not members:
                break
    return False


def minimal_vertex_covers(G):
    """All inclusion-minimal vertex covers, as tuples of vertices, by size
    then vertex indices.

    They agree with the minimal primes of the edge ideal.  A Graph's
    covers are the complements of its maximal independent sets, listed by
    Bron-Kerbosch with the Tomita pivot (Tomita, Tanaka & Takahashi, Theor.
    Comput. Sci. 2006); a HyperGraph's come from Berge's sweep in
    `monomial`.  Both find them as vertex masks, and `monomial._by_size`
    sorts the masks and decodes each one once.
    """
    if isinstance(G, Graph):
        return _graph_covers(G.adj, G.vertices)
    return _transversals(G.edges, G.vertices)


def _graph_covers(adj, vertices):
    """The minimal vertex covers of the graph with neighbor masks `adj`, as
    tuples of `vertices`, in (size, members) order: the complements, within
    the vertices on an edge, of the maximal independent sets.  Bron-Kerbosch
    lists those on (chosen, candidates, excluded) masks.  The pivot, of the
    candidates and excluded, has the most candidates among its
    non-neighbors, and only it and its neighbors branch.  An explicit stack
    stands in for recursion as deep as the n(s+1) vertices of a jets graph.
    """
    live = sum(1 << v for v, a in enumerate(adj) if a)
    # the vertices on an edge, other than v, that are not adjacent to v
    apart = [live & ~(a | 1 << v) for v, a in enumerate(adj)]
    covers = []
    stack = [(0, live, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if not cand:
            if not excl:
                covers.append(live ^ chosen)
            continue
        most = -1
        rest = cand | excl
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            k = (cand & apart[u]).bit_count()
            if k > most:
                pivot, most = u, k
        branch = cand & ~apart[pivot]
        while branch:
            v = branch.bit_length() - 1
            b = 1 << v
            branch ^= b
            stack.append((chosen | b, cand & apart[v], excl & apart[v]))
            cand ^= b
            excl |= b
    return _by_size(covers, vertices)


def parse_graph_text(text):
    """Parse a graph body, `graph := [ 'vertices' vars ] { ',' | var '-' var }`.

    Edges "u-v" are split by commas or whitespace.  Vertices follow the
    `var` rule and come in order of appearance, unless a header lists them
    as a ring body lists its variables.  Token errors are ParseErrors at
    their token; an undeclared vertex, loop, duplicate vertex, empty graph
    or base name ending in a digit is a ValueError.  So a header split by
    whitespace ("vertices a b c") or followed by a comma ("vertices a,b\n,a-b")
    is an error, while edges split only by spaces ("a-b c-d"), a range in
    the header ("vertices a..d"), a subscripted vertex ("x_(1)-a") and a
    first edge "vertices - a" are read as graphs.
    """
    return _graph(_Cursor(text))


def _graph(cur):
    """One `graph` read from `cur`, up to its end token."""
    toks = cur.toks
    declared = toks[cur.i] == "vertices" and toks[cur.i + 1] != "-"
    cur.i += declared   # past the header's "vertices"
    vertices = _variables(cur) if declared else []
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    while toks[cur.i]:
        if toks[cur.i] == ",":
            cur.i += 1
            continue
        u = cur.name("a vertex name")
        cur.expect("-")
        w = cur.name("a vertex name")
        for name in (u, w):
            if name not in index:
                if declared:
                    raise ValueError(f"edge uses undeclared vertex {name}")
                index[name] = len(vertices)
                vertices.append(Variable(*_split_name(name)))
        edges.append((index[u], index[w]))
    if not vertices:
        raise ValueError("empty graph")
    return Graph(vertices, edges)
