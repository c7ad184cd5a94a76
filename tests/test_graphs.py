import gc
import random

import pytest

from jetschemes import (Graph, HyperGraph, Monomial, MonomialIdeal, Variable,
                        chromatic_number, complement_graph, edge_ideal,
                        graph_from_edge_ideal, is_chordal, jets_graph,
                        jets_hypergraph, minimal_primes_squarefree,
                        minimal_transversals, minimal_vertex_covers, monomial_str,
                        parse_graph_text, parse_variables, ring_make)

from expected import DEMO_COVERS, DEMO_J1_EDGES, DEMO_J2_EDGES, DEMO_J2_COVERS
from oracles import (brute_chromatic, brute_minimal_covers, chordal_by_induced_cycles,
                     goward_smith_jets_edges, jets_graph_by_terms, jets_hypergraph_by_terms,
                     random_graph)


def _edge_names(G):
    return [{u.name, v.name} for u, v in G.edge_pairs()]


def _cover_names(covers):
    return [{v.name for v in c} for c in covers]


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
    assert all(m.degree() == 2 for m in I.generators)


def test_graph_from_edge_ideal_roundtrip(demo_graph):
    assert graph_from_edge_ideal(edge_ideal(demo_graph)) == demo_graph


def test_graph_from_edge_ideal_pair():
    ring = ring_make(parse_variables("a,b,c,d"))
    I = MonomialIdeal(ring, [Monomial({0: 1, 2: 1}), Monomial({1: 1, 3: 1})])
    G = graph_from_edge_ideal(I)
    assert _edge_names(G) == [{"a", "c"}, {"b", "d"}]


def test_graph_from_edge_ideal_rejects_cubics():
    ring = ring_make(parse_variables("a,b,c"))
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
    assert [v.name for v in J0.vertices] == ["a0", "b0", "c0", "d0", "e0"]
    assert _edge_names(J0) == [{f"{u.name}0", f"{v.name}0"}
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
    names = [{J.vertices[i].name for i in e} for e in J.edges]
    assert len(names) == 4
    for expected in ({"x1", "y0", "z0"}, {"x0", "y1", "z0"},
                     {"x0", "y0", "z1"}, {"x0", "y0", "z0"}):
        assert expected in names


def test_jets_hypergraph_order0_relabels():
    x, y, z = (Variable(ch) for ch in "xyz")
    H = HyperGraph([x, y, z], [(x, y), (y, z)])
    J = jets_hypergraph(0, H)
    assert [{J.vertices[i].name for i in e} for e in J.edges] == \
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
    a, b, c, d = (Variable(ch) for ch in "abcd")
    G = Graph([a, b, c, d], [(c, b), (a, b), (b, c)])
    assert G.adj == (0b0010, 0b0101, 0b0010, 0b0000)
    rng = random.Random(20404)
    for _ in range(20):
        G = random_graph(rng, rng.randint(0, 10))
        for i in range(len(G.vertices)):
            assert {j for j in range(len(G.vertices)) if G.adj[i] >> j & 1} == \
                {j for e in G.edges if i in e for j in e if j != i}


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


def test_covers_match_the_frozenset_path():
    # minimal_vertex_covers reads the kernel's member lists directly
    rng = random.Random(31014)
    for _ in range(300):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            G = random_graph(rng, n)
        else:
            vertices = [Variable(ch) for ch in "abcdefghi"[:n]]
            G = HyperGraph(vertices, [rng.sample(range(n), rng.randint(1, min(n, 4)))
                                      for _ in range(rng.randint(1, 7))])
        want = [tuple(G.vertices[i] for i in sorted(c)) for c in minimal_transversals(G.edges)]
        assert minimal_vertex_covers(G) == want
        assert want == [tuple(G.vertices[i] for i in sorted(c))
                        for c in brute_minimal_covers(len(G.vertices), G.edges)]


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
    # makes a greedy independent set larger than the chromatic number
    vs = [Variable(ch) for ch in "abcdefghi"]
    graphs.append(Graph(vs, [(vs[2 * i], vs[2 * j + 1])
                             for i in range(4) for j in range(4) if i != j]))
    for G in graphs:
        assert chromatic_number(G) == brute_chromatic(len(G.vertices), G.edges)


def test_chromatic_leaves_no_garbage_cycles():
    vs = [Variable(ch) for ch in "abcde"]
    C5 = Graph(vs, [(vs[i], vs[(i + 1) % 5]) for i in range(5)])
    # both need the k-colorability search: the bounds are 2 and 3, the answer 3
    graphs = [C5, jets_graph(1, C5)]
    gc.collect()
    gc.disable()
    try:
        for G in graphs:
            assert chromatic_number(G) == 3
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_chromatic_size_bound(demo_graph):
    with pytest.raises(ValueError, match="above the bound"):
        chromatic_number(jets_graph(2, demo_graph), max_vertices=10)


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
        covers = {frozenset(v.name for v in c)
                  for c in minimal_vertex_covers(G)}
        primes = {frozenset(v.name for v in p)
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


@pytest.mark.parametrize("s, n", [(2, 12), (3, 10)])
def test_covers_of_jets_of_cycles_match_networkx(s, n):
    # the minimal vertex covers are the complements of the maximal
    # independent sets, which are the maximal cliques of the complement
    nx = pytest.importorskip("networkx")
    G = jets_graph(s, _cycle(n))
    H = nx.Graph()
    H.add_nodes_from(range(len(G.vertices)))
    H.add_edges_from(G.edges)
    everything = set(range(len(G.vertices)))
    want = {frozenset(everything - set(q)) for q in nx.find_cliques(nx.complement(H))}
    index = {v: i for i, v in enumerate(G.vertices)}
    assert {frozenset(index[v] for v in c) for c in minimal_vertex_covers(G)} == want


def test_parse_graph_text_by_appearance():
    G = parse_graph_text("a-c,a-d")
    assert [v.name for v in G.vertices] == ["a", "c", "d"]
    assert _edge_names(G) == [{"a", "c"}, {"a", "d"}]


def test_parse_graph_text_with_header():
    G = parse_graph_text("vertices a,b,c,d,e\na-c\nb-c, c-e")
    assert [v.name for v in G.vertices] == ["a", "b", "c", "d", "e"]
    assert len(G.edges) == 3


def test_parse_graph_text_rejects_undeclared():
    with pytest.raises(ValueError, match="undeclared"):
        parse_graph_text("vertices a,b\na-c")


def test_parse_graph_text_rejects_bad_edge():
    with pytest.raises(ValueError, match="expected NAME-NAME"):
        parse_graph_text("a--b")


def test_graph_rejects_loop():
    u = Variable("u")
    with pytest.raises(ValueError, match="loop"):
        Graph([u], [(u, u)])


def test_hypergraph_minimalizes_nested_edges():
    x, y, z = (Variable(ch) for ch in "xyz")
    H = HyperGraph([x, y, z], [(x, y, z), (x, y)])
    assert [{H.vertices[i].name for i in e} for e in H.edges] == [{"x", "y"}]
