import random
from fractions import Fraction

import pytest

from jetschemes import (Ideal, Monomial, Poly, PolyRing, RingMap, Variable, compose,
                        is_homogeneous, jet_ring, jets_ideal, jets_quotient, jets_ring_map,
                        parse_poly, parse_variables, ring_make, series_substitute)

from expected import XYZ_JET2_GENERATORS
from oracles import dense_from_poly, random_poly, series_by_full_expansion


def test_jet_ring_order2(xyz_ring):
    J = jet_ring(xyz_ring, 2)
    assert len(J.ring.variables) == 9
    assert str(J.ring) == "QQ[x0,y0,z0][x1,y1,z1][x2,y2,z2]"
    assert J.ring.blocks == ((0, 3), (1, 3), (2, 3))
    assert J.ring.weights == (0, 0, 0, 1, 1, 1, 2, 2, 2)


def test_jet_ring_order0():
    R = ring_make(parse_variables("x"))
    J = jet_ring(R, 0)
    assert [v.name for v in J.ring.variables] == ["x0"]


def test_jet_ring_subscripted():
    R = ring_make(parse_variables("x_(1,1)..x_(3,3)"))
    J = jet_ring(R, 1)
    names = [v.name for v in J.ring.variables]
    assert len(names) == 18
    assert names[0] == "x0_(1,1)"
    assert names[9] == "x1_(1,1)"
    assert names[-1] == "x1_(3,3)"


def test_jet_vars_are_the_ring_variables():
    R = ring_make(parse_variables("x_(1,1)..x_(2,2),y"))
    n = len(R.variables)
    jr = jet_ring(R, 3)
    for k, v in enumerate(R.variables):
        assert len(jr.jet_vars[v]) == 4
        for j in range(4):
            # the ring's own objects, not equal copies
            assert jr.jet_vars[v][j] is jr.ring.variables[j * n + k]


@pytest.mark.parametrize("names", ["x,y,z", "a..f", "x_(1,1)..x_(2,3)",
                                   "u,v_(0),w_(2,10),abc_(7,0,12)"])
def test_jet_variables_match_the_validating_constructor(names):
    # jet_ring builds its variables unchecked; each must be the Variable
    # the validating constructor makes, name and hash included
    R = ring_make(parse_variables(names))
    n = len(R.variables)
    for s in range(7):
        J = jet_ring(R, s)
        want = [Variable(v.base, v.subscripts, j) for j in range(s + 1) for v in R.variables]
        assert len(J.ring.variables) == len(want) == n * (s + 1)
        for k, (v, w) in enumerate(zip(J.ring.variables, want)):
            assert v == w and hash(v) == hash(w), (v, w)
            assert v.name == w.name and repr(v) == repr(w)
            assert J.ring.index(w) == J.ring.index(w.name) == k
        checked = PolyRing(want, J.ring.blocks, J.ring.weights)
        assert J.ring == checked and hash(J.ring) == hash(checked)


def test_ring_index_rejects_foreign_variables(xyz_ring):
    with pytest.raises(ValueError, match="w is not a variable"):
        xyz_ring.index(Variable("w"))
    with pytest.raises(ValueError, match="x0 is not a variable"):
        xyz_ring.index(Variable("x", (), 0))
    with pytest.raises(ValueError, match="w is not a variable"):
        xyz_ring.index("w")


def test_jet_ring_rejects_jet_ring(xyz_ring):
    J = jet_ring(xyz_ring, 1)
    with pytest.raises(ValueError, match="iterated jets"):
        jet_ring(J.ring, 1)


def test_series_xyz_order2(xyz_ring):
    f = parse_poly("x*y*z", xyz_ring)
    J = jet_ring(xyz_ring, 2)
    series = series_substitute(f, J)
    expected = [parse_poly(text, J.ring)
                for text in reversed(XYZ_JET2_GENERATORS)]
    assert list(series.coeffs) == expected


def test_series_single_variable():
    R = ring_make(parse_variables("x"))
    J = jet_ring(R, 1)
    series = series_substitute(R.var("x"), J)
    assert [str(c) for c in series.coeffs] == ["x0", "x1"]


def _assert_normal_form(c):
    """c holds the invariants of the validating Poly constructor."""
    for m, coef in c._terms.items():
        assert type(coef) is Fraction and coef != 0
        assert all(e > 0 for _, e in m.exps)
        assert all(a[0] < b[0] for a, b in zip(m.exps, m.exps[1:]))
    rebuilt = Poly(c.ring, [(Monomial(m.exps), coef) for m, coef in c._terms.items()])
    assert rebuilt == c and hash(rebuilt) == hash(c)


def _series_cases(rng, xyz_ring):
    """(f, s): random polynomials over 3 and 4 variables, powers of one
    variable up to the 6th, and the zero and constant polynomials."""
    for _ in range(25):
        yield random_poly(rng, xyz_ring), rng.randint(0, 3)
    wxyz = ring_make(parse_variables("w,x,y,z"))
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
        coeffs = series_substitute(f, J).coeffs
        full = series_by_full_expansion(f, J)
        for j in range(s + 1):
            assert dense_from_poly(coeffs[j]) == full.get(j, {})
            _assert_normal_form(coeffs[j])


def test_series_matches_sympy_expand():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20207)
    R = ring_make(parse_variables("w,x,y,z"))
    t = sympy.Symbol("t")

    def to_sympy(p, images):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(images[i] ** e for i, e in m.exps))
                    for m, c in p._terms.items()), sympy.Integer(0))

    for _ in range(8):
        f = random_poly(rng, R, max_degree=3, max_terms=4)
        s = rng.randint(0, 4)
        J = jet_ring(R, s)
        names = sympy.symbols([v.name for v in J.ring.variables])
        images = [sum(names[J.ring.index(jv)] * t ** j for j, jv in enumerate(J.jet_vars[v]))
                  for v in R.variables]
        expanded = sympy.expand(to_sympy(f, images))
        for j, c in enumerate(series_substitute(f, J).coeffs):
            assert sympy.expand(to_sympy(c, names) - expanded.coeff(t, j)) == 0


def test_jets_ideal_xyz_order2(xyz_ideal):
    ji = jets_ideal(2, xyz_ideal)
    assert [str(g) for g in ji.generators] == XYZ_JET2_GENERATORS


def test_jets_of_linear_forms_are_jet_variables():
    R = ring_make(parse_variables("x_(1,1)..x_(3,3)"))
    I = Ideal(R, R.gens())
    ji = jets_ideal(1, I)
    assert len(ji.generators) == 18
    assert {str(g) for g in ji.generators} == \
        {v.name for v in ji.ring.ring.variables}


def test_jets_of_one_generator_has_order_plus_one_coefficients():
    R = ring_make(parse_variables("x,y"))
    f = parse_poly("x*y-1", R)
    ji = jets_ideal(1, Ideal(R, [f]))
    assert len(ji.generators) == 2


def test_jets_quotient_order0(xyz_ring, xyz_ideal):
    J, ji = jets_quotient(0, xyz_ring, xyz_ideal)
    assert len(J.ring.variables) == 3
    assert [str(g) for g in ji.generators] == ["x0*y0*z0"]


def test_jets_quotient_matches_parts(xyz_ring, xyz_ideal):
    J, ji = jets_quotient(2, xyz_ring, xyz_ideal)
    assert J == jet_ring(xyz_ring, 2)
    assert ji == jets_ideal(2, xyz_ideal)


def test_jets_quotient_zero_ideal():
    R = ring_make(parse_variables("x"))
    J, ji = jets_quotient(1, R, Ideal(R, []))
    assert str(J.ring) == "QQ[x0][x1]"
    assert ji.generators == ()


def test_jets_of_identity_map(xyz_ring):
    phi = RingMap.identity(xyz_ring)
    for s in (0, 1, 2):
        jphi = jets_ring_map(s, phi)
        assert jphi.map == RingMap.identity(jphi.source.ring)


def test_jets_of_square_map():
    R = ring_make(parse_variables("x"))
    T = ring_make(parse_variables("u"))
    phi = RingMap(R, T, (parse_poly("u^2", T),))
    jphi = jets_ring_map(1, phi)
    target = jphi.target.ring
    assert list(jphi.images) == [parse_poly("u0^2", target),
                                 parse_poly("2*u0*u1", target)]
    applied = jphi(parse_poly("x0*x1", jphi.source.ring))
    assert applied == parse_poly("2*u0^3*u1", target)


def test_jet_weight_example():
    R = ring_make(parse_variables("x,y"))
    J = jet_ring(R, 1)
    f = parse_poly("x1*y0+x0*y1", J.ring)
    assert is_homogeneous(f, J.ring.weights)
    assert {m.weighted_degree(J.ring.weights) for m in f._terms} == {1}


def _random_map(rng, source, target):
    return RingMap(source, target,
                   tuple(random_poly(rng, target, max_degree=2, max_terms=2)
                         for _ in source.variables))


def test_jets_respect_composition():
    rng = random.Random(20202)
    A = ring_make(parse_variables("p,q"))
    B = ring_make(parse_variables("u,v"))
    C = ring_make(parse_variables("x,y"))
    for _ in range(6):
        inner = _random_map(rng, A, B)
        outer = _random_map(rng, B, C)
        s = rng.randint(0, 2)
        lhs = jets_ring_map(s, compose(outer, inner))
        rhs = compose(jets_ring_map(s, outer).map, jets_ring_map(s, inner).map)
        assert lhs.map == rhs


def test_truncation_consistency(xyz_ring):
    rng = random.Random(20203)
    for _ in range(10):
        f = random_poly(rng, xyz_ring)
        big = series_substitute(f, jet_ring(xyz_ring, 3)).coeffs
        for s in range(3):
            small = series_substitute(f, jet_ring(xyz_ring, s)).coeffs
            for j in range(s + 1):
                assert dense_from_poly(small[j], 12) == dense_from_poly(big[j], 12)


def test_base_slice_is_order_zero_relabeling(xyz_ring):
    rng = random.Random(20204)
    J = jet_ring(xyz_ring, 2)
    rename = RingMap(xyz_ring, J.ring,
                     tuple(J.jet_var(v, 0) for v in xyz_ring.variables))
    for _ in range(10):
        f = random_poly(rng, xyz_ring)
        assert series_substitute(f, J).coeffs[0] == rename(f)


def test_jet_weight_homogeneity(xyz_ring):
    rng = random.Random(20205)
    for _ in range(10):
        f = random_poly(rng, xyz_ring)
        J = jet_ring(xyz_ring, rng.randint(0, 3))
        for j, c in enumerate(series_substitute(f, J).coeffs):
            assert is_homogeneous(c, J.ring.weights)
            if not c.is_zero():
                assert {m.weighted_degree(J.ring.weights)
                        for m in c._terms} == {j}


def test_degree_preservation_for_homogeneous_input(xyz_ring):
    f = parse_poly("x^2*y+3*x*y*z-z^3", xyz_ring)
    J = jet_ring(xyz_ring, 2)
    for c in series_substitute(f, J).coeffs:
        assert not c.is_zero()
        assert {m.degree() for m in c._terms} == {3}


def test_generator_count_bound(xyz_ring):
    rng = random.Random(20206)
    for _ in range(10):
        gens = [random_poly(rng, xyz_ring) for _ in range(rng.randint(1, 3))]
        I = Ideal(xyz_ring, gens)
        s = rng.randint(0, 3)
        assert len(jets_ideal(s, I).generators) <= (s + 1) * len(I.generators)


def test_series_ring_mismatch(xyz_ring):
    other = ring_make(parse_variables("u"))
    J = jet_ring(xyz_ring, 1)
    with pytest.raises(ValueError):
        series_substitute(other.var("u"), J)
