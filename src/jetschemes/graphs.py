"""Finite simple graphs and hypergraphs, edge ideals, and jets of graphs.

A graph on named vertices corresponds to the squarefree quadratic ideal
with one generator per edge.  The radical of the jets of that ideal is
again squarefree and quadratic, and the graph it encodes is the jets of
the original graph: each vertex v acquires copies v0..vs, and by the
closed form in `monomial`, u_a and v_b are adjacent iff uv is an edge and
a + b <= s.  Jets of graphs and hypergraphs are built from that closed
form on vertex indices, without going through an ideal.
"""

from __future__ import annotations

import re

from .poly import _IDENT, Monomial, ParseError, PolyRing, Variable
from .jets import jet_ring
from .monomial import MonomialIdeal, _jet_supports, _members, _minimal_masks, _transversals


def _resolver(vertices):
    """The lookup from a vertex, or its index, to its index; the vertices
    must be distinct."""
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex")

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


def _adjacency(n, edges):
    """Neighbor masks: bit j of entry i is set iff i-j is an edge."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


class Graph:
    """A finite simple graph; vertices are Variables, edges unordered pairs."""

    __slots__ = ("vertices", "edges", "adj")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        resolve = _resolver(self.vertices)
        pairs = set()
        for u, v in edges:
            i, j = resolve(u), resolve(v)
            if i == j:
                raise ValueError(f"loop at vertex {self.vertices[i].name}")
            pairs.add((i, j) if i < j else (j, i))
        self.edges = tuple(sorted(pairs))
        self.adj = _adjacency(len(self.vertices), self.edges)

    @classmethod
    def _trusted(cls, vertices, edges):
        """A graph on a tuple of distinct vertices and the sorted, distinct
        index pairs (i, j), i < j, of its edges; nothing is checked."""
        G = object.__new__(cls)
        G.vertices = vertices
        G.edges = tuple(edges)
        G.adj = _adjacency(len(vertices), G.edges)
        return G

    def edge_pairs(self):
        """Edges as pairs of Variables, in canonical order."""
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __str__(self):
        vs = ",".join(v.name for v in self.vertices)
        es = ",".join(f"{self.vertices[i].name}-{self.vertices[j].name}"
                      for i, j in self.edges)
        return f"graph({vs}; {es})"

    def __repr__(self):
        return f"Graph({self})"


class HyperGraph:
    """A hypergraph with nonempty edges, kept inclusion-minimal."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        resolve = _resolver(self.vertices)
        masks = []
        for edge in edges:
            mask = sum({1 << resolve(v) for v in edge})
            if not mask:
                raise ValueError("empty hyperedge")
            masks.append(mask)
        self.edges = tuple(sorted(tuple(_members(m)) for m in _minimal_masks(masks)))

    def edge_sets(self):
        return [tuple(self.vertices[i] for i in e) for e in self.edges]

    def __eq__(self, other):
        return (isinstance(other, HyperGraph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __repr__(self):
        es = ",".join("{" + ",".join(self.vertices[i].name for i in e) + "}"
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
        if m.degree() != 2:
            raise ValueError(f"generator of degree {m.degree()}, expected 2")
    return Graph(I.ring.variables, [m.support() for m in I.generators])


def _jet_edges(s, G):
    """The jet vertices and the jet index tuples of every edge of G.

    Each tuple is sorted, and no two are equal: a tuple maps back to its
    edge (index k to vertex k mod n), and the tuples of one edge differ
    in their orders."""
    vertices = jet_ring(PolyRing(G.vertices), s).ring.variables
    n = len(G.vertices)
    return vertices, [idx for edge in G.edges
                      for idx in _jet_supports([(i, 1) for i in edge], s, n)]


def jets_graph(s, G):
    """The order-s jets of a graph, on vertices v0..vs for each vertex v."""
    vertices, edges = _jet_edges(s, G)
    edges.sort()
    return Graph._trusted(vertices, edges)


def jets_hypergraph(s, H):
    """The order-s jets of a hypergraph, kept inclusion-minimal."""
    return HyperGraph(*_jet_edges(s, H))


def complement_graph(G):
    adj = G.adj
    n = len(adj)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if not adj[i] >> j & 1]
    return Graph._trusted(G.vertices, edges)


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


def chromatic_number(G, max_vertices=32):
    """Exact chromatic number by iterated k-colorability search.

    k runs from a greedy clique lower bound up to a greedy coloring upper
    bound; each candidate k is decided by backtracking with new colors
    introduced at most one at a time.  Cliques and color classes are
    vertex masks.
    """
    n = len(G.vertices)
    if n > max_vertices:
        raise ValueError(f"graph has {n} vertices, above the bound {max_vertices}")
    if n == 0:
        return 0
    if not G.edges:
        return 1
    adj = G.adj
    by_degree = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))

    clique = 0
    for v in by_degree:
        if not clique & ~adj[v]:
            clique |= 1 << v
    lower = clique.bit_count()

    classes = []
    for v in by_degree:
        for c, members in enumerate(classes):
            if not members & adj[v]:
                classes[c] |= 1 << v
                break
        else:
            classes.append(1 << v)
    upper = len(classes)

    for k in range(lower, upper):
        if _colorable(adj, by_degree, [0] * k, 0):
            return k
    return upper


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
    """All inclusion-minimal vertex covers, by size then vertex indices.

    Works for graphs and hypergraphs alike, and agrees with the minimal
    primes of the edge ideal.
    """
    vertices = G.vertices
    return [tuple(vertices[i] for i in c) for c in _transversals(G.edges)]


_EDGE_RE = re.compile(rf"\s*({_IDENT})\s*-\s*({_IDENT})\s*$")


def parse_graph_text(text):
    """Parse a graph from text: edges like "a-c" separated by commas or

    newlines, optionally preceded by a header line "vertices a,b,c,d,e".
    Without a header, vertices are collected in order of appearance.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    names = []
    declared = False
    if lines and lines[0].split(None, 1)[0] == "vertices":
        declared = True
        rest = lines[0][len("vertices"):]
        names = [w for w in re.split(r"[\s,]+", rest) if w]
        if not names:
            raise ValueError("empty vertex header")
        lines = lines[1:]
    items = [item for ln in lines for item in ln.split(",") if item.strip()]
    seen = set(names)
    edges = []
    for item in items:
        m = _EDGE_RE.match(item)
        if m is None:
            raise ValueError(f"bad edge {item.strip()!r}, expected NAME-NAME")
        u, w = m.group(1), m.group(2)
        for name in (u, w):
            if name not in seen:
                if declared:
                    raise ValueError(f"edge uses undeclared vertex {name}")
                seen.add(name)
                names.append(name)
        edges.append((u, w))
    if not names:
        raise ValueError("empty graph")
    vertices = [Variable(name) for name in names]
    by_name = {v.name: v for v in vertices}
    return Graph(vertices, [(by_name[u], by_name[w]) for u, w in edges])
