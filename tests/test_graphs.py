import gc
import random
from itertools import combinations

import pytest

from jetschemes import (Graph, HyperGraph, Monomial, MonomialIdeal, ParseError, PolyRing,
                        Variable, chromatic_number, complement_graph, edge_ideal,
                        graph_from_edge_ideal, is_chordal, jet_ring, jets_graph,
                        jets_hypergraph, jets_radical, minimal_primes_squarefree,
                        minimal_transversals, minimal_vertex_covers, monomial_str,
                        parse_graph_text, parse_variables)

from expected import DEMO_COVERS, DEMO_J1_EDGES, DEMO_J2_EDGES, DEMO_J2_COVERS
from oracles import (assert_normal_form, brute_chromatic, brute_minimal_covers,
                     chordal_by_induced_cycles, goward_smith_jets_edges, jets_graph_by_orders,
                     jets_graph_by_terms, jets_hypergraph_by_terms, parse_graph_text_by_regex,
                     random_graph)


def _edge_names(G):
    return [{str(u), str(v)} for u, v in G.edge_pairs()]


def _cover_names(covers):
    return [{str(v) for v in c} for c in covers]


def _sparse_graph(rng, n, degree):
    """The vertices v_(0)..v_(n-1), about degree*n/2 random index pairs on
    them, some repeated or reversed (so a vertex may be isolated), and the
    sorted distinct pairs (i, j), i < j, that they make."""
    vertices = [Variable("v", (i,)) for i in range(n)]
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(degree * n // 2)] if n > 1 else []
    pairs += [p[::-1] for p in rng.sample(pairs, len(pairs) // 4)]
    return vertices, pairs, tuple(sorted({(min(p), max(p)) for p in pairs}))


def test_edge_ideal_of_demo_graph(demo_graph):
    I = edge_ideal(demo_graph)
    gens = [monomial_str(I.ring, m) for m in I.generators]
    assert gens == ["a*c", "a*d", "a*e", "b*c", "b*d", "b*e", "c*e"]
    assert I.squarefree


def test_edge_ideal_edgeless():
    G = Graph([Variable("u"), Variable("v")], [])
    assert edge_ideal(G).generators == ()


def test_edge_ideal_triangle():
    a, b, c = (Variable(ch) for ch in "abc")
    I = edge_ideal(Graph([a, b, c], [(a, b), (b, c), (c, a)]))
    assert len(I.generators) == 3
    assert all(sum(e for _, e in m) == 2 for m in I.generators)


def test_graph_from_edge_ideal_roundtrip(demo_graph):
    assert graph_from_edge_ideal(edge_ideal(demo_graph)) == demo_graph


def test_graph_from_edge_ideal_pair():
    ring = PolyRing(parse_variables("a,b,c,d"))
    I = MonomialIdeal(ring, [Monomial({0: 1, 2: 1}), Monomial({1: 1, 3: 1})])
    G = graph_from_edge_ideal(I)
    assert _edge_names(G) == [{"a", "c"}, {"b", "d"}]


def test_graph_from_edge_ideal_rejects_cubics():
    ring = PolyRing(parse_variables("a,b,c"))
    I = MonomialIdeal(ring, [Monomial({0: 1, 1: 1, 2: 1})])
    with pytest.raises(ValueError, match="degree 3"):
        graph_from_edge_ideal(I)


def test_jets_graph_order1(demo_graph):
    J1 = jets_graph(1, demo_graph)
    assert len(J1.vertices) == 10
    got = _edge_names(J1)
    assert len(got) == 21
    for edge in DEMO_J1_EDGES:
        assert edge in got


def test_jets_graph_order2(demo_graph):
    J2 = jets_graph(2, demo_graph)
    assert len(J2.vertices) == 15
    got = _edge_names(J2)
    assert len(got) == 42
    for edge in DEMO_J2_EDGES:
        assert edge in got


def test_jets_graph_order0_relabels(demo_graph):
    J0 = jets_graph(0, demo_graph)
    assert [str(v) for v in J0.vertices] == ["a0", "b0", "c0", "d0", "e0"]
    assert _edge_names(J0) == [{f"{u}0", f"{v}0"}
                               for u, v in demo_graph.edge_pairs()]


def test_jets_graph_vertex_count():
    rng = random.Random(20401)
    for _ in range(8):
        G = random_graph(rng, rng.randint(1, 5))
        s = rng.randint(0, 2)
        assert len(jets_graph(s, G).vertices) == (s + 1) * len(G.vertices)
        # edges agree with the Goward-Smith closed form at every order <= 4
        for t in range(5):
            got = {frozenset(e) for e in _edge_names(jets_graph(t, G))}
            assert got == goward_smith_jets_edges(G, t)


def test_jets_graph_monotone_inclusion(demo_graph):
    # lower-order jet edges persist; equality after restriction fails since
    # order-s coefficients contribute edges like {u1,v1} at s = 2
    J0 = jets_graph(0, demo_graph)
    J1 = jets_graph(1, demo_graph)
    J2 = jets_graph(2, demo_graph)
    e0 = {frozenset(e) for e in _edge_names(J0)}
    e1 = {frozenset(e) for e in _edge_names(J1)}
    e2 = {frozenset(e) for e in _edge_names(J2)}
    assert e0 <= e1 <= e2


def test_jets_hypergraph_single_edge():
    x, y, z = (Variable(ch) for ch in "xyz")
    H = HyperGraph([x, y, z], [(x, y, z)])
    J = jets_hypergraph(1, H)
    names = [{str(J.vertices[i]) for i in e} for e in J.edges]
    assert len(names) == 4
    for expected in ({"x1", "y0", "z0"}, {"x0", "y1", "z0"},
                     {"x0", "y0", "z1"}, {"x0", "y0", "z0"}):
        assert expected in names


def test_jets_hypergraph_order0_relabels():
    x, y, z = (Variable(ch) for ch in "xyz")
    H = HyperGraph([x, y, z], [(x, y), (y, z)])
    J = jets_hypergraph(0, H)
    assert [{str(J.vertices[i]) for i in e} for e in J.edges] == \
        [{"x0", "y0"}, {"y0", "z0"}]


def test_jets_hypergraph_edgeless():
    H = HyperGraph([Variable("x"), Variable("y")], [])
    J = jets_hypergraph(2, H)
    assert len(J.vertices) == 6
    assert J.edges == ()


def test_jets_graphs_match_term_collection():
    rng = random.Random(60602)
    for _ in range(200):
        n = rng.randint(1, 6)
        s = rng.randint(0, 3)
        G = random_graph(rng, n)
        assert jets_graph(s, G) == jets_graph_by_terms(s, G)
        H = HyperGraph(G.vertices, [rng.sample(range(n), rng.randint(1, min(n, 3)))
                                    for _ in range(rng.randint(0, 4))])
        assert jets_hypergraph(s, H) == jets_hypergraph_by_terms(s, H)
        assert_normal_form(edge_ideal(G))
        assert_normal_form(edge_ideal(H))
        # the vertices of the jets graph are the jet ring's variables, so its blocks too
        assert edge_ideal(jets_graph(s, G)).ring == jets_radical(s, edge_ideal(G)).ring
    # past one mask word and past 1,000 jet vertices, with isolated vertices and
    # no vertex at all, against the order vectors of the closed form
    sizes = []
    for n, degree, s in [(0, 0, 2), (1, 0, 3), (5, 0, 1), (3, 2, 4), (64, 2, 1), (65, 3, 2),
                         (70, 2, 15), (70, 6, 14), (40, 1, 9)]:
        vertices, pairs, edges = _sparse_graph(rng, n, degree)
        J = jets_graph(s, Graph(vertices, pairs))
        assert J == jets_graph_by_orders(s, vertices, pairs)
        assert J.edges == tuple(sorted({tuple(sorted((a * n + u, b * n + v))) for u, v in edges
                                        for a in range(s + 1) for b in range(s + 1 - a)}))
        sizes.append(len(J.vertices))
    assert sizes[:2] == [0, 4] and max(sizes) == 1120


def test_graph_jets_agree_with_the_ring_path():
    # graph jets build their vertices without a ring; they must be the
    # variables of the jet ring of the vertices, in order, name and hash
    rng = random.Random(60603)
    boxes = [parse_variables("x_(1,1)..x_(2,3),y"), parse_variables("u,v_(0),w_(2,10)")]
    for _ in range(40):
        if rng.random() < 0.5:
            G = random_graph(rng, rng.randint(1, 6))
        else:
            vertices = rng.choice(boxes)
            n = len(vertices)
            G = Graph(vertices, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < 0.4])
        n = len(G.vertices)
        H = HyperGraph(G.vertices, [rng.sample(range(n), rng.randint(1, min(n, 3)))
                                    for _ in range(rng.randint(0, 4))])
        for s in range(5):
            want = jet_ring(PolyRing(G.vertices), s).ring.variables
            for got in (jets_graph(s, G).vertices, jets_hypergraph(s, H).vertices):
                assert got == want
                assert [str(v) for v in got] == [str(v) for v in want]
                assert [hash(v) for v in got] == [hash(v) for v in want]


def test_iterated_graph_jets_name_the_vertex():
    a, b = Variable("a"), Variable("b")
    message = r"^a0 is already a jet variable; iterated jets are not supported$"
    with pytest.raises(ValueError, match=message):
        jets_graph(1, jets_graph(1, Graph([a, b], [(a, b)])))
    with pytest.raises(ValueError, match=message):
        jets_hypergraph(1, jets_hypergraph(1, HyperGraph([a, b], [(a, b)])))


def test_cochordality_of_demo_jets(demo_graph):
    flags = [is_chordal(complement_graph(G))
             for G in (demo_graph, jets_graph(1, demo_graph),
                       jets_graph(2, demo_graph))]
    assert flags == [True, True, False]


def test_four_cycle_not_chordal():
    a, b, c, d = (Variable(ch) for ch in "abcd")
    C4 = Graph([a, b, c, d], [(a, b), (b, c), (c, d), (d, a)])
    assert not is_chordal(C4)


def test_complete_graph_chordal():
    vs = [Variable(ch) for ch in "abcde"]
    K5 = Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]])
    assert is_chordal(K5)


def test_chordal_matches_induced_cycle_scan():
    rng = random.Random(20402)
    for _ in range(60):
        G = random_graph(rng, rng.randint(1, 7))
        assert is_chordal(G) == chordal_by_induced_cycles(len(G.vertices), G.edges)


def test_chordal_matches_networkx(demo_graph):
    nx = pytest.importorskip("networkx")
    rng = random.Random(20403)
    graphs = [random_graph(rng, rng.randint(1, 10)) for _ in range(60)]
    for s in range(4):
        J = jets_graph(s, demo_graph)
        graphs += [J, complement_graph(J)]
    for G in graphs:
        H = nx.Graph()
        H.add_nodes_from(range(len(G.vertices)))
        H.add_edges_from(G.edges)
        assert is_chordal(G) == nx.is_chordal(H)


def test_graph_adjacency_masks():
    # the masks and the edges read off them, both against the input pairs
    a, b, c, d = (Variable(ch) for ch in "abcd")
    G = Graph([a, b, c, d], [(c, b), (a, b), (b, c)])
    assert G.adj == (0b0010, 0b0101, 0b0010, 0b0000)
    assert G.edges == ((0, 1), (1, 2))
    rng = random.Random(20404)
    for _ in range(40):
        n = rng.randint(0, 80)
        vertices, pairs, edges = _sparse_graph(rng, n, rng.randint(0, 6))
        G = Graph(vertices, pairs)
        assert G.adj == tuple(sum({1 << j for p in pairs for k, j in (p, p[::-1]) if k == i})
                              for i in range(n))
        assert G.edges == edges


def test_trusted_graphs_match_the_validating_constructor():
    # jets_graph and complement_graph build their graphs unchecked
    rng = random.Random(31013)
    for _ in range(300):
        G = random_graph(rng, rng.randint(0, 10), rng.choice((0.2, 0.45, 0.8)))
        for H in (jets_graph(rng.randint(0, 3), G), complement_graph(G)):
            checked = Graph(H.vertices, H.edge_pairs())
            assert H == checked and H.adj == checked.adj
            assert type(H.vertices) is tuple and type(H.edges) is tuple
            assert all(i < j for i, j in H.edges)
    # sparse graphs past one mask word, isolated vertices, one vertex and none:
    # complements against the pair scan, and repeated or reversed pairs collapse
    for n, degree in [(0, 0), (1, 0), (6, 0), (64, 1), (65, 2), (70, 6), (90, 30)]:
        vertices, pairs, edges = _sparse_graph(rng, n, degree)
        G = Graph(vertices, pairs)
        assert G == Graph(vertices, edges) and G.edges == edges
        C = complement_graph(G)
        assert C == Graph(C.vertices, C.edge_pairs())
        assert C.edges == tuple(sorted(set(combinations(range(n), 2)) - set(edges)))
        assert complement_graph(C) == G
        for s in (0, 1, 4):
            J = jets_graph(s, G)
            assert J == Graph(J.vertices, J.edge_pairs())
            assert complement_graph(complement_graph(J)) == J


def test_covers_match_the_frozenset_path():
    # graphs go by Bron-Kerbosch, hypergraphs by Berge; both must give
    # Berge's frozensets and the brute force, in (size, members) order
    rng = random.Random(31014)
    graphs = [random_graph(rng, 0), random_graph(rng, 5, 0)]   # no vertex, no edge
    jets = 0
    while len(graphs) < 300:
        n = rng.randint(1, 9)
        G = random_graph(rng, n, rng.choice((0.15, 0.45, 0.8)))
        s = rng.randint(1, 3)
        if n * (s + 1) <= 16 and rng.random() < 0.3:
            G = jets_graph(s, G)
            jets += 1
        graphs.append(G)
    assert jets > 40 and sum(0 in G.adj and len(G.edges) > 0 for G in graphs) > 30
    hypergraphs = []
    for _ in range(150):
        n = rng.randint(1, 9)
        vertices = [Variable(ch) for ch in "abcdefghi"[:n]]
        hypergraphs.append(HyperGraph(vertices, [rng.sample(range(n), rng.randint(1, min(n, 4)))
                                                 for _ in range(rng.randint(1, 7))]))
    for G in graphs + hypergraphs:
        want = [tuple(G.vertices[i] for i in sorted(c)) for c in minimal_transversals(G.edges)]
        assert minimal_vertex_covers(G) == want
        assert want == [tuple(G.vertices[i] for i in sorted(c))
                        for c in brute_minimal_covers(len(G.vertices), G.edges)]
    assert minimal_vertex_covers(graphs[0]) == minimal_vertex_covers(graphs[1]) == [()]


def test_complement_graph():
    a, b, c = (Variable(ch) for ch in "abc")
    G = Graph([a, b, c], [(a, b)])
    assert _edge_names(complement_graph(G)) == [{"a", "c"}, {"b", "c"}]
    assert complement_graph(complement_graph(G)) == G


def test_chromatic_numbers_of_demo_jets(demo_graph):
    values = [chromatic_number(G)
              for G in (demo_graph, jets_graph(1, demo_graph),
                        jets_graph(2, demo_graph))]
    assert values == [3, 3, 3]


def test_chromatic_edgeless():
    G = Graph([Variable("u"), Variable("v")], [])
    assert chromatic_number(G) == 1


def test_chromatic_complete():
    vs = [Variable(ch) for ch in "abcd"]
    K4 = Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]])
    assert chromatic_number(K4) == 4


def test_chromatic_matches_brute_force():
    rng = random.Random(20403)
    graphs = [random_graph(rng, rng.randint(1, 6)) for _ in range(25)]
    # the crown graph on a1,b1,..,a4,b4 (ai-bj for i != j) is bipartite, but
    # greedy coloring in vertex order needs 4 colors; the isolated vertex
    # makes a greedy independent set larger than the chromatic number; the
    # empty graph needs no color
    vs = [Variable(ch) for ch in "abcdefghi"]
    graphs.append(Graph(vs, [(vs[2 * i], vs[2 * j + 1])
                             for i in range(4) for j in range(4) if i != j]))
    graphs.append(Graph([], []))
    for G in graphs:
        assert chromatic_number(G) == brute_chromatic(len(G.vertices), G.edges)


def test_chromatic_leaves_no_garbage_cycles():
    vs = [Variable(ch) for ch in "abcde"]
    C5 = Graph(vs, [(vs[i], vs[(i + 1) % 5]) for i in range(5)])
    # both need backtracking: the clique bound is 2, the answer 3
    graphs = [C5, jets_graph(1, C5)]
    gc.collect()
    gc.disable()
    try:
        for G in graphs:
            assert chromatic_number(G) == 3
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_chromatic_size_bound():
    # 33 vertices are refused before any search; 32 pass the bound
    a, b, c = (Variable(ch) for ch in "abc")
    triangle = Graph([a, b, c], [(a, b), (b, c), (a, c)])
    with pytest.raises(ValueError, match="^graph has 33 vertices, above the bound 32$"):
        chromatic_number(jets_graph(10, triangle))
    assert chromatic_number(Graph(parse_variables("x_(1)..x_(32)"), [])) == 1


@pytest.mark.parametrize("build, vertices, edges, message", [
    (Graph, "aba", [("a", "b")], "^duplicate vertex a$"),
    (HyperGraph, "abcb", [("a", "b")], "^duplicate vertex b$"),
    (Graph, "abc", [(0, 3)], "^vertex index out of range$"),
    (Graph, "abc", [("a", "z")], "^unknown vertex z$"),
    (HyperGraph, "abc", [("a", "b"), ()], "^empty hyperedge$"),
])
def test_graph_input_errors(build, vertices, edges, message):
    with pytest.raises(ValueError, match=message):
        build(vertices, edges)


def test_graph_from_edge_ideal_needs_squarefree():
    ring = PolyRing(parse_variables("x,y"))
    with pytest.raises(ValueError, match="^edge ideal must be squarefree$"):
        graph_from_edge_ideal(MonomialIdeal(ring, [Monomial({0: 2})]))


def test_demo_covers(demo_graph):
    assert _cover_names(minimal_vertex_covers(demo_graph)) == DEMO_COVERS


def test_demo_jets2_covers(demo_graph):
    covers = _cover_names(minimal_vertex_covers(jets_graph(2, demo_graph)))
    assert len(covers) == 8
    for expected in DEMO_J2_COVERS:
        assert expected in covers


def test_covers_of_single_edge():
    u, v = Variable("u"), Variable("v")
    covers = minimal_vertex_covers(Graph([u, v], [(u, v)]))
    assert _cover_names(covers) == [{"u"}, {"v"}]


def test_cover_prime_duality():
    rng = random.Random(20404)
    for _ in range(50):
        G = random_graph(rng, rng.randint(1, 6))
        covers = {frozenset(str(v) for v in c)
                  for c in minimal_vertex_covers(G)}
        primes = {frozenset(str(v) for v in p)
                  for p in minimal_primes_squarefree(edge_ideal(G))}
        assert covers == primes


def test_covers_are_minimal_covers():
    rng = random.Random(20405)
    for _ in range(20):
        G = random_graph(rng, rng.randint(2, 6))
        edges = [set(e) for e in G.edges]
        for cover in minimal_vertex_covers(G):
            members = {G.vertices.index(v) for v in cover}
            assert all(members & e for e in edges)
            for v in members:
                assert not all((members - {v}) & e for e in edges)


def _cycle(n):
    vertices = [Variable(ch) for ch in "abcdefghijkl"[:n]]
    return Graph(vertices, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("s, n, count", [(2, 12, 730), (3, 10, 605)])
def test_covers_of_jets_of_cycles(s, n, count):
    G = jets_graph(s, _cycle(n))
    covers = minimal_vertex_covers(G)
    assert len(covers) == count
    index = {v: i for i, v in enumerate(G.vertices)}
    members = [sorted(index[v] for v in c) for c in covers]
    keys = [(len(c), c) for c in members]
    assert all(a < b for a, b in zip(keys, keys[1:]))  # distinct and in order
    edges = [1 << i | 1 << j for i, j in G.edges]
    for c in members:
        mask = sum(1 << i for i in c)
        assert all(e & mask for e in edges)
        for i in c:
            assert not all(e & (mask ^ 1 << i) for e in edges)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_covers_of_jets_match_networkx(s):
    # the minimal vertex covers are the complements, within the vertices on
    # an edge, of the maximal independent sets, which are the maximal
    # cliques of the complement
    nx = pytest.importorskip("networkx")
    rng = random.Random(31016)
    graphs = [_cycle(10 if s == 3 else 12)]
    graphs += [random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.45))) for _ in range(50)]
    for G in graphs + [jets_graph(s, G) for G in graphs]:
        live = {i for e in G.edges for i in e}
        H = nx.Graph()
        H.add_nodes_from(live)
        H.add_edges_from(G.edges)
        # with no vertex on an edge, networkx finds no clique; the one cover is empty
        want = {frozenset(live - set(q)) for q in nx.find_cliques(nx.complement(H))}
        index = {v: i for i, v in enumerate(G.vertices)}
        got = {frozenset(index[v] for v in c) for c in minimal_vertex_covers(G)}
        assert got == (want or {frozenset()})


def _very_well_covered(G):
    """All minimal vertex covers hold half the vertices (G has no isolated vertex)."""
    return {2 * len(c) for c in minimal_vertex_covers(G)} == {len(G.vertices)}


def test_jets_graphs_are_well_covered_iff_very_well_covered():
    # Galetto, Iammarino & Yu, "Jets and principal components of monomial
    # ideals, and very well-covered graphs": for s = 1, 2 and G with no
    # isolated vertex, jets_graph(s, G) is well-covered (all minimal covers
    # have one size) iff G is very well-covered, and then so is the jets graph
    graphs = []
    for n in range(2, 6):
        vertices = [Variable(ch) for ch in "abcde"[:n]]
        pairs = list(combinations(range(n), 2))
        for k in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if k >> i & 1]
            if len({v for e in edges for v in e}) == n:
                graphs.append(Graph(vertices, edges))
    assert len(graphs) == 814
    rng = random.Random(31017)
    while len(graphs) < 1000:
        G = random_graph(rng, 6)
        if 0 not in G.adj:
            graphs.append(G)
    very = 0
    for G in graphs:
        expected = _very_well_covered(G)
        very += expected
        for s in (1, 2):
            J = jets_graph(s, G)
            well_covered = len({len(c) for c in minimal_vertex_covers(J)}) == 1
            assert well_covered == expected
            assert not well_covered or _very_well_covered(J)
    assert very > 20


def test_parse_graph_text_by_appearance():
    G = parse_graph_text("a-c,a-d")
    assert [str(v) for v in G.vertices] == ["a", "c", "d"]
    assert _edge_names(G) == [{"a", "c"}, {"a", "d"}]


def test_parse_graph_text_with_header():
    G = parse_graph_text("vertices a,b,c,d,e\na-c\nb-c, c-e")
    assert [str(v) for v in G.vertices] == ["a", "b", "c", "d", "e"]
    assert len(G.edges) == 3


def test_parse_graph_text_rejects_undeclared():
    with pytest.raises(ValueError, match="undeclared"):
        parse_graph_text("vertices a,b\na-c")


def test_parse_graph_text_rejects_bad_edge():
    with pytest.raises(ParseError, match="expected a vertex name"):
        parse_graph_text("a--b")


def test_graph_prints_as_its_body():
    G = parse_graph_text("b-a, c-a")
    assert str(G) == "vertices b,a,c; edges b-a,a-c"
    assert repr(G) == "Graph(vertices b,a,c; edges b-a,a-c)"
    assert str(parse_graph_text("vertices a,b")) == "vertices a,b; edges"


def _random_graph_body(rng):
    """A body in a form both graph parsers read alike, and whether it has a header."""
    names = rng.sample(("a", "b", "c", "d", "xy", "vertices"), rng.randint(2, 6))
    pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
    header = rng.random() < 0.5
    items = []
    for u, w in rng.sample(pairs, rng.randint(0 if header else 1, len(pairs))):
        if rng.random() < 0.5:
            u, w = w, u
        items.append(u + rng.choice(("-", " -", "- ", "  -  ")) + w)
    seps = (",", "\n", ",\n", "\n,", ", ", ",,", " ,\n\n")
    edges = "".join(item + rng.choice(seps) for item in items)
    if rng.random() < 0.5:
        edges = edges[:-1]   # a trailing separator or part of one
    if header:
        listed = rng.choice((",", ", ", " ,")).join(rng.sample(names, len(names)))
        return "vertices " + listed + rng.choice(("\n", " \n", "\n\n")) + edges, True
    return rng.choice(("", ",", "\n", " ,")) + edges, False


def test_parse_graph_text_matches_the_regex_splitter():
    rng = random.Random(14)
    kept = headers = 0
    for _ in range(600):
        body, header = _random_graph_body(rng)
        if not header and body.split(None, 1)[0] == "vertices":
            continue   # "vertices - a" first: the splitter read a header
        assert parse_graph_text(body) == parse_graph_text_by_regex(body), body
        kept += 1
        headers += header
    assert kept > 500 and 200 < headers < kept - 200


def _parses(parse, body):
    try:
        return parse(body)
    except ValueError:
        return None


def test_graph_bodies_whose_meaning_changed():
    # (body, what the token cursor reads, or None if it rejects the body);
    # the regex splitter did the opposite with each of them
    changed = [
        ("vertices a b c\na-b", None),
        ("vertices a,b\n,a-b", None),
        ("vertices a,b,\na-b", None),
        ("a-b c-d", "a-b,c-d"),
        ("vertices a..d\na-b", "vertices a,b,c,d\na-b"),
        ("vertices - a", "vertices-a"),
    ]
    for body, same in changed:
        if same is None:
            assert _parses(parse_graph_text, body) is None, body
            assert _parses(parse_graph_text_by_regex, body) is not None, body
        else:
            assert parse_graph_text(body) == parse_graph_text_by_regex(same), body
            assert _parses(parse_graph_text_by_regex, body) is None, body
    assert _parses(parse_graph_text_by_regex, "x_(1)-a") is None
    G = parse_graph_text("x_(1)-a")
    assert G.vertices == (Variable("x", (1,)), Variable("a"))


def test_graph_rejects_loop():
    u = Variable("u")
    with pytest.raises(ValueError, match="loop"):
        Graph([u], [(u, u)])


def test_hypergraph_minimalizes_nested_edges():
    x, y, z = (Variable(ch) for ch in "xyz")
    H = HyperGraph([x, y, z], [(x, y, z), (x, y)])
    assert [{str(H.vertices[i]) for i in e} for e in H.edges] == [{"x", "y"}]
