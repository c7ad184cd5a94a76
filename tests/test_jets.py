import itertools
import pickle
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from jetschemes import (Ideal, JetRing, Monomial, Poly, PolyRing, RingMap, Variable, compose,
                        generic_matrix, is_homogeneous, jet_ring, jets_ideal, jets_quotient,
                        jets_ring_map, minors, parse_poly, parse_variables, series_substitute)
from jetschemes.graphs import Graph, jets_graph
from jetschemes.jets import _power_table
from jetschemes.monomial import jets_radical
from jetschemes.poly import SIZE_BOUND, term_key

from expected import XYZ_JET2_GENERATORS
from oracles import (assert_normal_form, dense_from_poly, dense_poly_str, random_poly,
                     series_by_full_expansion, series_by_relabelled_tables, split_name)


def test_jet_ring_order2(xyz_ring):
    J = jet_ring(xyz_ring, 2)
    assert len(J.variables) == 9
    assert str(J) == "QQ[x0,y0,z0][x1,y1,z1][x2,y2,z2]"
    assert J.blocks == (3, 3, 3)
    assert PolyRing(J.variables) == J
    assert str(PolyRing(J.variables)) == str(J)
    assert [split_name(v)[2] for v in J.variables] == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_jet_ring_order0():
    R = PolyRing(parse_variables("x"))
    J = jet_ring(R, 0)
    assert [str(v) for v in J.variables] == ["x0"]


def test_jet_ring_subscripted():
    R = PolyRing(parse_variables("x_(1,1)..x_(3,3)"))
    J = jet_ring(R, 1)
    names = [str(v) for v in J.variables]
    assert len(names) == 18
    assert names[0] == "x0_(1,1)"
    assert names[9] == "x1_(1,1)"
    assert names[-1] == "x1_(3,3)"


@pytest.mark.parametrize("names", ["x,y,z", "a..f", "x_(1,1)..x_(2,3)",
                                   "u,v_(0),w_(2,10),abc_(7,0,12)"])
def test_jet_variables_match_the_validating_constructor(names):
    # jet_ring builds its variables unchecked; each must be the name the
    # validating constructor makes from the parts the oracle splits off
    R = PolyRing(parse_variables(names))
    n = len(R.variables)
    for s in range(7):
        J = jet_ring(R, s)
        want = [Variable(*split_name(v)[:2], j) for j in range(s + 1) for v in R.variables]
        assert len(J.variables) == len(want) == n * (s + 1)
        for k, (v, w) in enumerate(zip(J.variables, want)):
            assert v == w and type(v) is str, (v, w)
            assert split_name(v)[2] == k // n
            assert J.index(w) == k
        checked = PolyRing(want)
        assert checked.blocks == (n,) * (s + 1)
        assert J == checked and hash(J) == hash(checked)


def test_ring_index_rejects_foreign_variables(xyz_ring):
    with pytest.raises(ValueError, match="w is not a variable"):
        xyz_ring.index(Variable("w"))
    with pytest.raises(ValueError, match="x0 is not a variable"):
        xyz_ring.index(Variable("x", (), 0))
    with pytest.raises(ValueError, match="w is not a variable"):
        xyz_ring.index("w")


def test_jet_ring_rejects_jet_ring(xyz_ring):
    J = jet_ring(xyz_ring, 1)
    with pytest.raises(ValueError, match="x0 is already a jet variable; iterated jets"):
        jet_ring(J, 1)
    with pytest.raises(ValueError, match="x0 is already a jet variable; iterated jets"):
        jet_ring(PolyRing(J.variables), 1)


def test_series_xyz_order2(xyz_ring):
    f = parse_poly("x*y*z", xyz_ring)
    J = jet_ring(xyz_ring, 2)
    series = series_substitute(f, J)
    expected = [parse_poly(text, J)
                for text in reversed(XYZ_JET2_GENERATORS)]
    assert list(series) == expected


def test_series_single_variable():
    R = PolyRing(parse_variables("x"))
    J = jet_ring(R, 1)
    series = series_substitute(R.var("x"), J)
    assert [str(c) for c in series] == ["x0", "x1"]


def _series_cases(rng, xyz_ring):
    """(f, s): random polynomials over 3 and 4 variables, powers of one
    variable up to the 6th, and the zero and constant polynomials."""
    for _ in range(25):
        yield random_poly(rng, xyz_ring), rng.randint(0, 3)
    wxyz = PolyRing(parse_variables("w,x,y,z"))
    for _ in range(15):
        yield random_poly(rng, wxyz, max_degree=3, max_terms=4), rng.randint(0, 8)
    for e in range(7):
        for text in (f"x^{e}", f"-7/3*y^{e}", f"w*x^{e}-z^{e}+1/2"):
            yield parse_poly(text, wxyz), rng.randint(0, 8)
    for s in (0, 1, 8):
        yield wxyz.zero(), s
        yield wxyz.constant(Fraction(-5, 2)), s
        yield xyz_ring.one(), s


def test_series_matches_full_expansion(xyz_ring):
    rng = random.Random(20201)
    for f, s in _series_cases(rng, xyz_ring):
        J = jet_ring(f.ring, s)
        coeffs = series_substitute(f, J)
        full = series_by_full_expansion(f, J)
        for j in range(s + 1):
            assert dense_from_poly(coeffs[j]) == full.get(j, {})
            assert_normal_form(coeffs[j])


@pytest.mark.parametrize("i,n", [(0, 1), (1, 2), (2, 3), (4, 7)])
def test_power_table_closed_form(i, n):
    rng = random.Random(20250 + 10 * i + n)
    for e in range(1, 7):
        for s in range(13):
            # any signed key of x_{i,0} and any shift per order: a pattern's
            # key is its mults times the keys of its jet variables
            unit = rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 40, 200)))
            shift = rng.choice((0, 1, 5, 64))
            table = _power_table(e, s, i, n, unit, shift)
            assert len(table) == s + 1
            for d, row in enumerate(table):
                patterns = [pattern for _, pattern, _ in row]
                assert len(set(patterns)) == len(patterns)
                for key, pattern, count in row:
                    indices = [k for k, _ in pattern]
                    mults = [m for _, m in pattern]
                    assert all(k % n == i for k in indices)
                    assert all(a < b for a, b in zip(indices, indices[1:]))
                    assert all(m > 0 for m in mults) and sum(mults) == e
                    assert sum(k // n * m for k, m in pattern) == d
                    assert count == factorial(e) // prod(factorial(m) for m in mults)
                    assert key == sum(m * (unit << k // n * shift) for k, m in pattern)
                # every ordered e-tuple of orders with sum d, once
                assert sum(count for _, _, count in row) == comb(d + e - 1, e - 1)


def _assert_in_print_order(p):
    """p, a jet coefficient, skips the sort yet lists and prints its terms
    as the term order and the dense oracle do."""
    assert p._ordered
    ring = p.ring
    assert p.items() == sorted(p._terms.items(), key=lambda kv: term_key(ring, kv[0]),
                               reverse=True)
    assert str(p) == dense_poly_str(p)


def _order_cases(rng):
    """(f, s): f using 1-3 variables of rings of 1 to 300 variables, non-
    homogeneous, with total degrees on both sides of the powers of two that
    set the key's field width; constants, zero and single variables."""
    for n in (1, 2, 3, 7, 40, 300):
        ring = PolyRing([Variable("x", (k,)) for k in range(n)])
        for _ in range(6):
            used = rng.sample(range(n), min(n, rng.randint(1, 3)))
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = {i: rng.randint(0, 3) for i in rng.sample(used, rng.randint(1, len(used)))}
                terms[Monomial(exps)] = _rational(rng)
            yield Poly(ring, terms), rng.randint(0, 8)
        i = rng.randrange(n)
        for e in (1, 2, 3, 4, 7, 8):
            yield Poly(ring, {Monomial({i: e}): _rational(rng), (): _rational(rng)}), e
        yield ring.var(i), 8
        yield ring.constant(_rational(rng)), rng.randint(0, 8)
        yield ring.zero(), rng.randint(0, 8)
    xyz = PolyRing(parse_variables("x,y,z"))
    for text in ("x^3*y^4 + z^8 - x", "x*y*z + y^7 + 1", "x^15*y - z^16 + y"):
        for s in range(9):
            yield parse_poly(text, xyz), s
    # every monomial of degree <= d in 2 or 3 of 5 variables, so that every
    # pair of jet monomials of a degree and an order meets in one coefficient
    ring = PolyRing(parse_variables("a..e"))
    for d, used in ((1, (0, 2, 4)), (2, (0, 2, 4)), (3, (1, 2, 3)), (4, (0, 4)), (7, (1, 3)),
                    (8, (2, 3))):
        dense = {Monomial(zip(used, exps)): _rational(rng)
                 for exps in product(range(d + 1), repeat=len(used)) if sum(exps) <= d}
        for s in range(4 if len(used) == 2 else 3):
            yield Poly(ring, dense), s


def _table_cases(rng):
    """(f, s) whose terms take the short paths of `series_substitute`: the
    minors of generic 3x3 and 4x4 matrices, whose terms are products of
    distinct variables and so of linear tables only, at orders <= 4; and
    one-variable powers c*x^e, alone or with a constant, whose patterns
    are kept unsorted, at orders up to 20."""
    for m in (3, 4):
        M = generic_matrix(PolyRing(parse_variables(f"x_(1,1)..x_({m},{m})")), m, m)
        for r in range(2, m + 1):
            for g in minors(r, M).generators:
                for s in range(5):
                    yield g, s
    xyz = PolyRing(parse_variables("x,y,z"))
    for e in (1, 2, 3, 5, 8):
        for s in (0, 1, 2, 7, 13, 20):
            i = rng.randrange(3)
            yield Poly(xyz, {Monomial({i: e}): _rational(rng)}), s
            yield Poly(xyz, {Monomial({i: e}): _rational(rng), (): _rational(rng)}), s


def test_series_coefficients_are_built_in_print_order():
    """The key width w = bit_length(degree of f) is exact: the degrees on
    both sides of the powers of two catch a narrower field."""
    rng = random.Random(20251)
    for f, s in itertools.chain(_order_cases(rng), _table_cases(rng)):
        coeffs = series_substitute(f, jet_ring(f.ring, s))
        assert len(coeffs) == s + 1
        for p in coeffs:
            _assert_in_print_order(p)


def test_jets_ring_map_images_are_built_in_print_order():
    rng = random.Random(20252)
    R = PolyRing(parse_variables("p,q"))
    T = PolyRing(parse_variables("u,v,w"))
    phi = RingMap(R, T, (parse_poly("u^3*v - 2*w + 1/3", T), parse_poly("v^2*w^2 - u", T)))
    for s in range(6):
        jphi = jets_ring_map(s, phi)
        for g in jphi.images:
            _assert_in_print_order(g)
        # a map's values are arithmetic, so they are sorted to print
        value = jphi(random_poly(rng, jphi.source, max_degree=2, max_terms=3))
        assert not value._ordered and str(value) == dense_poly_str(value)


def test_print_order_does_not_leak_into_arithmetic():
    xyz = PolyRing(parse_variables("x,y,z"))
    J = jet_ring(xyz, 3)
    p = series_substitute(parse_poly("x^2*y - z^3 + 2*y", xyz), J)[3]
    q = series_substitute(parse_poly("x*z + y^2", xyz), J)[2]
    assert p._ordered and q._ordered
    for r in (-p, p + q, q + p, p - q, 2 * p, p * 2, p * q, p ** 2, p + 1,
              Poly(p.ring, p._terms), Poly(p.ring, p.items())):
        assert not r._ordered
        assert str(r) == dense_poly_str(r)
        assert r.items() == sorted(r._terms.items(), key=lambda kv: term_key(J, kv[0]),
                                   reverse=True)
    assert not parse_poly("x0*y1 + x1", J)._ordered


# the series benchmark's plane-curve exponents (p, q)
_CURVES = ((2, 3), (3, 2), (2, 5), (3, 4), (3, 5), (4, 5), (5, 2))


def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _regime_cases(rng):
    """(f, s, cheap) on the regimes of the series benchmark: plane curves
    c1*x^p + c2*y^q (+ c3*x*y) at orders up to 30, dense polynomials of
    degree <= 3 over 3 and 4 variables at orders <= 5, and the cases of
    `_table_cases`; `cheap` marks the cases the full expansion can check
    quickly."""
    xy = PolyRing(parse_variables("x,y"))
    for s in (4, 8, 12, 15, 20, 30):
        for p, q in _CURVES:
            for mixed in (False, True):
                terms = {Monomial({0: p}): _rational(rng), Monomial({1: q}): _rational(rng)}
                if mixed:
                    terms[Monomial({0: 1, 1: 1})] = _rational(rng)
                yield Poly(xy, terms), s, max(p, q) <= 3 and s <= 20
    for names in ("x,y,z", "w,x,y,z"):
        ring = PolyRing(parse_variables(names))
        dense = Poly(ring, {Monomial(dict(enumerate(exps))): _rational(rng)
                            for exps in product(range(4), repeat=len(ring.variables))
                            if sum(exps) <= 3})
        for s in range(6):
            yield dense, s, s <= 2
    for f, s in _table_cases(rng):
        yield f, s, len(f.ring.variables) == 3 and s <= 2


def test_series_matches_relabelled_tables_on_benchmark_regimes():
    rng = random.Random(20218)
    for f, s, cheap in _regime_cases(rng):
        J = jet_ring(f.ring, s)
        coeffs = series_substitute(f, J)
        want = series_by_relabelled_tables(f, J)
        assert len(coeffs) == s + 1
        for c, w in zip(coeffs, want):
            assert c._terms == w._terms
            assert_normal_form(c)
        if cheap:
            full = series_by_full_expansion(f, J)
            for j in range(s + 1):
                assert dense_from_poly(coeffs[j]) == full.get(j, {})


def test_series_matches_sympy_expand():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20207)
    R = PolyRing(parse_variables("w,x,y,z"))
    t = sympy.Symbol("t")

    def to_sympy(p, images):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(images[i] ** e for i, e in m))
                    for m, c in p._terms.items()), sympy.Integer(0))

    for _ in range(8):
        f = random_poly(rng, R, max_degree=3, max_terms=4)
        s = rng.randint(0, 4)
        J = jet_ring(R, s)
        names = sympy.symbols([str(v) for v in J.variables])
        n = len(R.variables)
        images = [sum(names[j * n + k] * t ** j for j in range(s + 1)) for k in range(n)]
        expanded = sympy.expand(to_sympy(f, images))
        for j, c in enumerate(series_substitute(f, J)):
            assert sympy.expand(to_sympy(c, names) - expanded.coeff(t, j)) == 0


def test_jets_ideal_xyz_order2(xyz_ideal):
    ji = jets_ideal(2, xyz_ideal)
    assert [str(g) for g in ji.generators] == XYZ_JET2_GENERATORS


def test_jets_of_linear_forms_are_jet_variables():
    R = PolyRing(parse_variables("x_(1,1)..x_(3,3)"))
    I = Ideal(R, R.gens())
    ji = jets_ideal(1, I)
    assert len(ji.generators) == 18
    assert {str(g) for g in ji.generators} == \
        {str(v) for v in ji.ring.variables}


def test_jets_of_one_generator_has_order_plus_one_coefficients():
    R = PolyRing(parse_variables("x,y"))
    f = parse_poly("x*y-1", R)
    ji = jets_ideal(1, Ideal(R, [f]))
    assert len(ji.generators) == 2


def test_jets_quotient_order0(xyz_ring, xyz_ideal):
    J, ji = jets_quotient(0, xyz_ring, xyz_ideal)
    assert len(J.variables) == 3
    assert [str(g) for g in ji.generators] == ["x0*y0*z0"]


def test_jets_quotient_matches_parts(xyz_ring, xyz_ideal):
    J, ji = jets_quotient(2, xyz_ring, xyz_ideal)
    assert J == jet_ring(xyz_ring, 2)
    assert J is ji.ring and type(J) is JetRing   # one jet ring for the pair
    assert ji == jets_ideal(2, xyz_ideal)


def test_jets_quotient_zero_ideal():
    R = PolyRing(parse_variables("x"))
    J, ji = jets_quotient(1, R, Ideal(R, []))
    assert str(J) == "QQ[x0][x1]"
    assert ji.generators == ()


def test_jets_of_identity_map(xyz_ring):
    phi = RingMap(xyz_ring, xyz_ring, xyz_ring.gens())
    for s in (0, 1, 2):
        jphi = jets_ring_map(s, phi)
        assert jphi == RingMap(jphi.source, jphi.source, jphi.source.gens())


def test_jet_ring_is_the_polynomial_ring_of_its_jets(xyz_ring):
    J = JetRing(xyz_ring, 2)
    rebuilt = PolyRing(J.variables)
    assert isinstance(J, PolyRing) and J.base is xyz_ring and J.order == 2
    assert J == jet_ring(xyz_ring, 2) == rebuilt and rebuilt == J == jet_ring(xyz_ring, 2)
    assert hash(J) == hash(jet_ring(xyz_ring, 2)) == hash(rebuilt)
    assert {J: "jets"}[rebuilt] == "jets" and {rebuilt: "ring"}[J] == "ring"
    assert len({J, rebuilt, jet_ring(xyz_ring, 2)}) == 1
    assert J != jet_ring(xyz_ring, 1) and J != xyz_ring
    assert str(J) == str(rebuilt) == "QQ[x0,y0,z0][x1,y1,z1][x2,y2,z2]"
    assert repr(J) == "JetRing(QQ[x,y,z], 2)"
    # equality, hashing and printing are the ring's; nothing else is stored
    assert not {"__eq__", "__hash__", "__str__"} & vars(JetRing).keys()
    assert not hasattr(J, "ring") and not hasattr(J, "__dict__")
    coefficient = series_substitute(parse_poly("x*y - z", xyz_ring), J)[1]
    assert coefficient.ring == rebuilt
    assert coefficient == parse_poly("x1*y0 + x0*y1 - z1", rebuilt)
    with pytest.raises(TypeError):
        JetRing(xyz_ring, 2, rebuilt)
    back = pickle.loads(pickle.dumps(J))
    assert type(back) is JetRing and back == J and hash(back) == hash(J)
    assert back.base == xyz_ring and back.order == 2


def test_ring_map_compares_field_by_field_and_checks_its_images(xyz_ring):
    gens = list(xyz_ring.gens())
    phi = RingMap(xyz_ring, xyz_ring, gens)
    assert type(phi.images) is tuple and phi.images == tuple(gens)
    assert phi == RingMap(xyz_ring, xyz_ring, tuple(gens))
    assert phi != RingMap(xyz_ring, xyz_ring, gens[::-1])
    uvw = PolyRing(parse_variables("u,v,w"))
    assert phi != RingMap(uvw, xyz_ring, gens)
    assert phi != RingMap(xyz_ring, uvw, uvw.gens())
    with pytest.raises(TypeError):
        hash(phi)
    assert repr(phi) == "RingMap(QQ[x,y,z] -> QQ[x,y,z]: x,y,z)"
    with pytest.raises(ValueError, match="need one image per source variable"):
        RingMap(xyz_ring, xyz_ring, gens[:2])
    with pytest.raises(ValueError, match="image lives outside the target ring"):
        RingMap(xyz_ring, uvw, gens)
    with pytest.raises(ValueError, match="^polynomial does not live in the source ring$"):
        phi(uvw.var("u"))
    with pytest.raises(ValueError, match="^maps are not composable$"):
        compose(phi, RingMap(xyz_ring, uvw, uvw.gens()))


def test_jets_refuse_foreign_ideals_and_negative_orders(xyz_ring, xyz_ideal):
    uvw = PolyRing(parse_variables("u,v,w"))
    with pytest.raises(ValueError, match="^ideal does not live in the given ring$"):
        jets_quotient(1, uvw, xyz_ideal)
    with pytest.raises(ValueError, match="^jet order must be a natural number$"):
        jet_ring(xyz_ring, -1)


def test_jets_of_square_map():
    R = PolyRing(parse_variables("x"))
    T = PolyRing(parse_variables("u"))
    phi = RingMap(R, T, (parse_poly("u^2", T),))
    jphi = jets_ring_map(1, phi)
    target = jphi.target
    assert list(jphi.images) == [parse_poly("u0^2", target),
                                 parse_poly("2*u0*u1", target)]
    applied = jphi(parse_poly("x0*x1", jphi.source))
    assert applied == parse_poly("2*u0^3*u1", target)


def test_jet_weight_example():
    R = PolyRing(parse_variables("x,y"))
    J = jet_ring(R, 1)
    f = parse_poly("x1*y0+x0*y1", J)
    weights = [split_name(v)[2] for v in J.variables]
    assert is_homogeneous(f, weights)
    assert {sum(weights[i] * e for i, e in m) for m in f._terms} == {1}


def _random_map(rng, source, target):
    return RingMap(source, target,
                   tuple(random_poly(rng, target, max_degree=2, max_terms=2)
                         for _ in source.variables))


def test_jets_respect_composition():
    rng = random.Random(20202)
    A = PolyRing(parse_variables("p,q"))
    B = PolyRing(parse_variables("u,v"))
    C = PolyRing(parse_variables("x,y"))
    for _ in range(6):
        inner = _random_map(rng, A, B)
        outer = _random_map(rng, B, C)
        s = rng.randint(0, 2)
        lhs = jets_ring_map(s, compose(outer, inner))
        rhs = compose(jets_ring_map(s, outer), jets_ring_map(s, inner))
        assert lhs == rhs
        f = random_poly(rng, A)
        for g in lhs.images + rhs.images + (inner(f), outer(inner(f))):
            assert_normal_form(g)


def test_truncation_consistency(xyz_ring):
    rng = random.Random(20203)
    for _ in range(10):
        f = random_poly(rng, xyz_ring)
        big = series_substitute(f, jet_ring(xyz_ring, 3))
        for s in range(3):
            small = series_substitute(f, jet_ring(xyz_ring, s))
            for j in range(s + 1):
                assert dense_from_poly(small[j], 12) == dense_from_poly(big[j], 12)


def test_base_slice_is_order_zero_relabeling(xyz_ring):
    rng = random.Random(20204)
    J = jet_ring(xyz_ring, 2)
    rename = RingMap(xyz_ring, J,
                     tuple(J.var(k) for k in range(len(xyz_ring.variables))))
    for _ in range(10):
        f = random_poly(rng, xyz_ring)
        assert series_substitute(f, J)[0] == rename(f)


def test_jet_weight_homogeneity(xyz_ring):
    rng = random.Random(20205)
    for _ in range(10):
        f = random_poly(rng, xyz_ring)
        J = jet_ring(xyz_ring, rng.randint(0, 3))
        weights = [split_name(v)[2] for v in J.variables]
        for j, c in enumerate(series_substitute(f, J)):
            assert is_homogeneous(c, weights)
            if not c.is_zero():
                assert {sum(weights[i] * e for i, e in m)
                        for m in c._terms} == {j}


def test_degree_preservation_for_homogeneous_input(xyz_ring):
    f = parse_poly("x^2*y+3*x*y*z-z^3", xyz_ring)
    J = jet_ring(xyz_ring, 2)
    for c in series_substitute(f, J):
        assert not c.is_zero()
        assert {sum(e for _, e in m) for m in c._terms} == {3}


def test_generator_count_bound(xyz_ring):
    rng = random.Random(20206)
    for _ in range(10):
        gens = [random_poly(rng, xyz_ring) for _ in range(rng.randint(1, 3))]
        I = Ideal(xyz_ring, gens)
        s = rng.randint(0, 3)
        assert len(jets_ideal(s, I).generators) <= (s + 1) * len(I.generators)


def test_jet_orders_past_the_variable_bound_are_refused_before_building():
    # n(s+1) one past the bound, for rings, radicals and graphs alike
    ring = PolyRing(parse_variables("x,y"))
    s = SIZE_BOUND // 2
    message = f"jets of order {s} need {SIZE_BOUND + 2} jet variables"
    with pytest.raises(ValueError, match=message):
        jet_ring(ring, s)
    with pytest.raises(ValueError, match=message):
        jets_radical(s, Ideal(ring, [ring.var("x")]))
    with pytest.raises(ValueError, match=message):
        jets_graph(s, Graph(("a", "b"), [(0, 1)]))
    with pytest.raises(ValueError, match="need 100000000000000000000 jet variables"):
        jet_ring(PolyRing(parse_variables("x")), 10**20 - 1)


def test_series_ring_mismatch(xyz_ring):
    other = PolyRing(parse_variables("u"))
    J = jet_ring(xyz_ring, 1)
    with pytest.raises(ValueError):
        series_substitute(other.var("u"), J)
    # only the jet ring of f's ring: not the PolyRing equal to it, nor the
    # jet ring of another base
    f = parse_poly("x*y", xyz_ring)
    for ring in (PolyRing(J.variables), xyz_ring, jet_ring(PolyRing(parse_variables("x,y")), 1),
                 jet_ring(PolyRing(parse_variables("x,y,w")), 1)):
        with pytest.raises(ValueError,
                           match="^ring is not the jet ring of the polynomial's ring$"):
            series_substitute(f, ring)


def test_jets_return_the_library_values(xyz_ring, xyz_ideal):
    J = jet_ring(xyz_ring, 2)
    series = series_substitute(parse_poly("x*y*z", xyz_ring), J)
    assert type(series) is tuple and len(series) == 3
    assert all(type(c) is Poly and c.ring == J for c in series)
    ji = jets_ideal(2, xyz_ideal)
    assert type(ji) is Ideal and ji.ring == J
    jphi = jets_ring_map(2, RingMap(xyz_ring, xyz_ring, xyz_ring.gens()))
    assert type(jphi) is RingMap
    assert jphi.source == jphi.target == J


def test_iterated_jets_are_refused(xyz_ring, xyz_ideal):
    ji = jets_ideal(1, xyz_ideal)
    with pytest.raises(ValueError, match="iterated jets"):
        jets_ideal(1, ji)
    with pytest.raises(ValueError, match="iterated jets"):
        jets_ring_map(1, jets_ring_map(1, RingMap(xyz_ring, xyz_ring, xyz_ring.gens())))
    with pytest.raises(ValueError, match="iterated jets"):
        jets_quotient(1, ji.ring, ji)
