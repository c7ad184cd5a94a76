import random
from itertools import product

import pytest

from jetschemes import (HyperGraph, Ideal, Monomial, MonomialIdeal, Variable,
                        is_monomial_ideal, jets_graph, jets_hypergraph, jets_ideal,
                        jets_radical, minimal_primes_squarefree, minimal_transversals,
                        minimalize, monomial_str, parse_poly, parse_variables,
                        ring_make, run_script, term_key)

from expected import XYZ_JET2_MINIMAL_PRIMES, XYZ_JET2_RADICAL
from oracles import (brute_minimal_covers, intersect_variable_primes,
                     jets_radical_by_terms, random_monomial_ideal,
                     random_squarefree_ideal)


def test_is_monomial_ideal(xyz_ring, xyz_ideal):
    assert is_monomial_ideal(xyz_ideal)
    assert not is_monomial_ideal(Ideal(xyz_ring, [parse_poly("x+y", xyz_ring)]))
    assert is_monomial_ideal(Ideal(xyz_ring, []))


def test_minimalize_divisibility(xyz_ring):
    x = Monomial({0: 1})
    xy = Monomial({0: 1, 1: 1})
    y2 = Monomial({1: 2})
    # x divides x*y; survivors come back in descending term order
    assert minimalize(xyz_ring, [x, xy, y2]) == [y2, x]


def test_minimalize_empty(xyz_ring):
    assert minimalize(xyz_ring, []) == []


def test_minimalize_random_is_minimal_generating_set():
    rng = random.Random(20301)
    ring = ring_make(parse_variables("a,b,c,d"))
    mons = []
    for _ in range(30):
        exps = {}
        for _ in range(rng.randint(0, 4)):
            i = rng.randrange(4)
            exps[i] = exps.get(i, 0) + 1
        mons.append(Monomial(exps))
    kept = minimalize(ring, mons)
    for m in kept:
        assert not any(g != m and g.divides(m) for g in kept)
    for m in mons:
        assert any(g.divides(m) for g in kept)

    # mixed exponents up to 5, repeats and the monomial 1: exactly the
    # survivors of a pairwise divisibility scan, in input order
    for _ in range(60):
        mons = [Monomial({i: rng.randint(1, 5)
                          for i in rng.sample(range(4), rng.randint(0, 4))})
                for _ in range(rng.randint(0, 10))]
        mons += rng.sample(mons, len(mons) // 3)
        if rng.random() < 0.2:
            mons.append(Monomial())
        rng.shuffle(mons)
        want = []
        for m in mons:
            if m not in want and not any(g != m and g.divides(m) for g in mons):
                want.append(m)
        assert list(MonomialIdeal(ring, mons).generators) == want
        assert minimalize(ring, mons) == \
            sorted(want, key=lambda m: term_key(ring, m), reverse=True)


def test_jets_radical_xyz_order2(xyz_ideal):
    rad = jets_radical(2, xyz_ideal)
    assert [monomial_str(rad.ring, m) for m in rad.generators] == XYZ_JET2_RADICAL
    assert rad.squarefree


def test_jets_radical_square_at_order0():
    R = ring_make(parse_variables("x"))
    rad = jets_radical(0, Ideal(R, [parse_poly("x^2", R)]))
    assert [monomial_str(rad.ring, m) for m in rad.generators] == ["x0"]


def test_jets_radical_rejects_non_monomial(xyz_ring):
    I = Ideal(xyz_ring, [parse_poly("x+y", xyz_ring)])
    with pytest.raises(ValueError, match="monomial"):
        jets_radical(1, I)


def _as_monomial_ideal(I):
    return MonomialIdeal(I.ring, [next(iter(f._terms)) for f in I.generators])


def _assert_radical_by_terms(s, I):
    for J in (I, _as_monomial_ideal(I)):
        assert jets_radical(s, J) == jets_radical_by_terms(s, J)


def test_jets_radical_matches_term_collection():
    rng = random.Random(60601)
    rings = [ring_make(parse_variables(names)) for names in ("x", "x,y", "x,y,z", "x,y,z,w")]
    for _ in range(400):
        ring = rng.choice(rings)
        _assert_radical_by_terms(rng.randint(0, 5), random_monomial_ideal(rng, ring))


@pytest.mark.parametrize("s", [0, 1, 3])
@pytest.mark.parametrize("gens", [["1"], [], ["x^2*y", "-3*x^2*y", "x^2*y"],
                                  ["x^2", "x*y"], ["x", "1/2"]],
                         ids=["unit", "zero", "repeated", "overlapping", "constant"])
def test_jets_radical_special_ideals_match_term_collection(s, gens):
    R = ring_make(parse_variables("x,y"))
    _assert_radical_by_terms(s, Ideal(R, [parse_poly(g, R) for g in gens]))


def test_jets_radical_vanishes_exactly_on_arcs_of_high_order():
    # the 0/1 point with x_{i,a} = 1 iff a >= o_i is the arc with ord x_i = o_i
    # (x_i = 0 when o_i = s+1); it lies on the jet scheme iff every generator
    # x^e of I has sum e_i o_i >= s+1
    rng = random.Random(60603)
    rings = [ring_make(parse_variables(names)) for names in ("x", "x,y", "x,y,z")]
    for _ in range(60):
        ring = rng.choice(rings)
        I = random_monomial_ideal(rng, ring, max_exp=3)
        s = rng.randint(0, 3)
        rad = jets_radical(s, I)
        base = {(v.base, v.subscripts): i for i, v in enumerate(ring.variables)}
        jet = [(base[v.base, v.subscripts], v.jet_order) for v in rad.ring.variables]
        exps = [next(iter(f._terms)).exps for f in I.generators]
        for orders in product(range(s + 2), repeat=len(ring.variables)):
            on_radical = all(any(jet[k][1] < orders[jet[k][0]] for k in m.support())
                             for m in rad.generators)
            on_jets = all(sum(e * orders[i] for i, e in ex) >= s + 1 for ex in exps)
            assert on_radical == on_jets, (str(I), s, orders)


def test_combinatorial_layer_expands_no_series(monkeypatch, xyz_ideal, demo_graph):
    def refuse(*args):
        raise AssertionError("series expanded")
    monkeypatch.setattr("jetschemes.jets.series_substitute", refuse)
    R = ring_make(parse_variables("x,y"))
    jets_radical(3, xyz_ideal)
    jets_radical(2, MonomialIdeal(R, [Monomial({0: 2, 1: 1})]))
    jets_graph(2, demo_graph)
    x, y, z = (Variable(ch) for ch in "xyz")
    jets_hypergraph(2, HyperGraph([x, y, z], [(x, y, z), (x, z)]))
    run_script("ring R = [x,y]; ideal I = x^2*y, y^3; jetsradical 2 I;"
               "graph G = a-b, b-c; graph H = graphjets 2 G; covers H;")


def test_jets_radical_matches_prime_intersection_oracle():
    # oracle: brute-force minimal covers of the raw term supports, then
    # intersect the corresponding variable primes
    rng = random.Random(20302)
    ring = ring_make(parse_variables("x,y,z"))
    for _ in range(12):
        I = random_squarefree_ideal(rng, ring, max_gens=3)
        ji = jets_ideal(1, I.to_ideal())
        jring = ji.ring.ring
        supports = [m.support() for g in ji.generators for m in g._terms]
        covers = brute_minimal_covers(len(jring.variables), supports)
        primes = [[jring.variables[i] for i in sorted(c)] for c in covers]
        rad = jets_radical(1, I)
        assert {frozenset(m.support()) for m in rad.generators} == \
            intersect_variable_primes(jring, primes)


def test_minimal_primes_of_xyz_jets(xyz_ideal):
    rad = jets_radical(2, xyz_ideal)
    primes = minimal_primes_squarefree(rad)
    named = [{v.name for v in p} for p in primes]
    assert len(named) == 10
    for expected in XYZ_JET2_MINIMAL_PRIMES:
        assert expected in named


def test_minimal_primes_principal(xyz_ring):
    I = MonomialIdeal(xyz_ring, [Monomial({0: 1})])
    primes = minimal_primes_squarefree(I)
    assert [[v.name for v in p] for p in primes] == [["x"]]


def test_minimal_primes_require_squarefree(xyz_ring):
    I = MonomialIdeal(xyz_ring, [Monomial({0: 2})])
    with pytest.raises(ValueError, match="squarefree"):
        minimal_primes_squarefree(I)


def test_minimal_primes_match_subset_scan():
    rng = random.Random(20303)
    ring = ring_make(parse_variables("a..f"))
    for _ in range(15):
        I = random_squarefree_ideal(rng, ring)
        primes = minimal_primes_squarefree(I)
        got = [frozenset(ring.index(v) for v in p) for p in primes]
        supports = [m.support() for m in I.generators]
        want = brute_minimal_covers(6, supports)
        assert got == [frozenset(c) for c in want]
        covers = minimal_transversals(supports)
        assert covers == want
        assert all(type(c) is frozenset for c in covers)
    assert minimal_transversals([]) == [frozenset()]
    assert minimal_transversals([(0, 1), (), (2,)]) == []


def _random_family(rng):
    """A family of edges on at most 8 vertices, with duplicate, nested,
    singleton and repeated-vertex edges mixed in, and its vertex count."""
    n = rng.randint(1, 8)
    edges = [tuple(rng.sample(range(n), rng.randint(1, min(n, 4))))
             for _ in range(rng.randint(0, 8))]
    if edges and rng.random() < 0.5:
        edges.append(rng.choice(edges))
    if edges and rng.random() < 0.5:
        e = rng.choice(edges)
        edges.append(e[:rng.randint(1, len(e))])
    if rng.random() < 0.3:
        edges.append((rng.randrange(n),))
    if edges and rng.random() < 0.3:
        e = rng.choice(edges)
        edges.append(e + (e[0],))
    rng.shuffle(edges)
    return n, edges


def test_minimal_transversals_match_brute_force():
    rng = random.Random(70701)
    for _ in range(600):
        n, edges = _random_family(rng)
        want = brute_minimal_covers(n, edges)
        assert minimal_transversals(edges) == want, edges
        shuffled = rng.sample(edges, len(edges))
        assert minimal_transversals(e for e in shuffled) == want, shuffled


def test_minimal_primes_match_the_frozenset_path():
    # minimal_primes_squarefree reads the kernel's member lists directly
    rng = random.Random(70702)
    for _ in range(300):
        n, edges = _random_family(rng)
        ring = ring_make([Variable(ch) for ch in "abcdefgh"[:n]])
        gens = [Monomial((i, 1) for i in set(e)) for e in edges]
        I = MonomialIdeal(ring, gens)
        want = [tuple(ring.variables[i] for i in sorted(c))
                for c in minimal_transversals(m.support() for m in I.generators)]
        assert minimal_primes_squarefree(I) == want, edges


def test_minimal_transversals_special_families():
    assert minimal_transversals([(0, 1), (0, 1), (1, 0)]) == [frozenset({0}), frozenset({1})]
    assert minimal_transversals([(2, 2, 2)]) == [frozenset({2})]
    assert minimal_transversals([(0, 1, 2), (1,), (1, 2)]) == [frozenset({1})]
    assert minimal_transversals(iter([(0, 1), (1, 2)])) == \
        [frozenset({1}), frozenset({0, 2})]


def test_containment_of_jets_in_radical(xyz_ideal):
    ji = jets_ideal(2, xyz_ideal)
    rad = jets_radical(2, xyz_ideal)
    for g in ji.generators:
        for m in g._terms:
            assert any(r.divides(m) for r in rad.generators)


def test_radical_generators_squarefree_for_squarefree_input():
    rng = random.Random(20304)
    ring = ring_make(parse_variables("x,y,z"))
    for _ in range(8):
        I = random_squarefree_ideal(rng, ring, max_gens=3)
        rad = jets_radical(rng.randint(0, 2), I)
        assert all(m.is_squarefree() for m in rad.generators)
        assert rad.squarefree


def test_radical_is_idempotent_under_minimalize(xyz_ideal):
    rad = jets_radical(2, xyz_ideal)
    assert minimalize(rad.ring, rad.generators) == list(rad.generators)


def test_prime_cover_duality_direct_check():
    rng = random.Random(20305)
    ring = ring_make(parse_variables("a..f"))
    for _ in range(10):
        I = random_squarefree_ideal(rng, ring)
        supports = [set(m.support()) for m in I.generators]
        for p in minimal_primes_squarefree(I):
            cover = {ring.index(v) for v in p}
            assert all(cover & s for s in supports)
            for v in cover:
                smaller = cover - {v}
                assert not all(smaller & s for s in supports)


def test_intersection_identity():
    rng = random.Random(20306)
    ring = ring_make(parse_variables("a..f"))
    for _ in range(20):
        I = random_squarefree_ideal(rng, ring)
        primes = minimal_primes_squarefree(I)
        assert intersect_variable_primes(ring, primes) == \
            {frozenset(m.support()) for m in I.generators}


def test_monomial_ideal_minimalizes_but_keeps_order(xyz_ring):
    x = Monomial({0: 1})
    xy = Monomial({0: 1, 1: 1})
    z = Monomial({2: 1})
    I = MonomialIdeal(xyz_ring, [z, xy, x])
    assert list(I.generators) == [z, x]
    assert MonomialIdeal(xyz_ring, iter([z, xy, x])) == I
