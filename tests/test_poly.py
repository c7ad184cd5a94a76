import itertools
import random
from fractions import Fraction

import pytest

from jetschemes import (Ideal, Monomial, ParseError, Poly, PolyRing, Variable,
                        is_homogeneous, jet_ring, parse_poly, parse_variables,
                        ring_make, term_key)

from oracles import (dense_from_poly, dense_mul, dense_poly_str, dense_term_key,
                     random_poly)


def test_ring_make_three_variables(xyz_ring):
    assert len(xyz_ring.variables) == 3
    assert xyz_ring.blocks == ((None, 3),)
    assert str(xyz_ring) == "QQ[x,y,z]"


def test_ring_make_subscripted_box():
    ring = ring_make(parse_variables("x_(1,1)..x_(3,3)"))
    assert len(ring.variables) == 9
    assert ring.variables[0].name == "x_(1,1)"
    assert ring.variables[1].name == "x_(1,2)"
    assert ring.variables[-1].name == "x_(3,3)"


def test_letter_range():
    vs = parse_variables("a..e")
    assert [v.name for v in vs] == ["a", "b", "c", "d", "e"]


def test_ring_make_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ring_make([Variable("x"), Variable("x")])


def test_variable_base_may_not_end_in_digit():
    with pytest.raises(ValueError, match="digit"):
        Variable("x1")


def test_add_cancellation(xyz_ring):
    x = xyz_ring.var("x")
    y = xyz_ring.var("y")
    assert (x + y) + (-y) == x


def test_zero_results_are_the_zero_polynomial(xyz_ring):
    p = parse_poly("2*x*y-1/3*z^2+5", xyz_ring)
    for z in (p * 0, 0 * p, p - p, p + (-p)):
        assert z == xyz_ring.zero()
        assert hash(z) == hash(xyz_ring.zero())
        assert z.is_zero() and str(z) == "0"


def test_binomial_square(xyz_ring):
    f = parse_poly("x+y", xyz_ring)
    assert f ** 2 == parse_poly("x^2+2*x*y+y^2", xyz_ring)


def test_pow_zero_is_one(xyz_ring):
    f = parse_poly("x+2*y", xyz_ring)
    assert f ** 0 == xyz_ring.one()


def test_mul_matches_naive_convolution(xyz_ring):
    rng = random.Random(20101)
    for _ in range(20):
        f = random_poly(rng, xyz_ring)
        g = random_poly(rng, xyz_ring)
        assert dense_from_poly(f * g) == dense_mul(dense_from_poly(f),
                                                   dense_from_poly(g))


def test_commutative_ring_axioms(xyz_ring):
    rng = random.Random(20102)
    for _ in range(12):
        f = random_poly(rng, xyz_ring)
        g = random_poly(rng, xyz_ring)
        h = random_poly(rng, xyz_ring)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f + g) + h == f + (g + h)


def test_coefficients_stay_normalized(xyz_ring):
    f = parse_poly("1/2*x", xyz_ring) * parse_poly("2/3*x", xyz_ring)
    (mono, coef), = f.items()
    assert coef == Fraction(1, 3)
    assert coef.denominator > 0
    assert str(f) == "1/3*x^2"
    assert parse_poly("2/4*x", xyz_ring) == parse_poly("1/2*x", xyz_ring)


def test_zero_terms_never_stored(xyz_ring):
    f = parse_poly("x", xyz_ring) - parse_poly("x", xyz_ring)
    assert f.is_zero()
    assert f._terms == {}


def test_parse_monomial(xyz_ring):
    f = parse_poly("x*y*z", xyz_ring)
    assert len(f._terms) == 1
    assert f.coefficient(Monomial({0: 1, 1: 1, 2: 1})) == 1


def test_parse_zero(xyz_ring):
    assert parse_poly("0", xyz_ring).is_zero()
    assert str(parse_poly("0", xyz_ring)) == "0"


def test_parse_print_two_terms(xyz_ring):
    f = parse_poly("7/2*x^2*y - 3*z", xyz_ring)
    assert len(f._terms) == 2
    assert str(f) == "7/2*x^2*y-3*z"


def test_parse_syntax_error_has_position(xyz_ring):
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y", xyz_ring)
    assert err.value.pos == 4


def test_parse_unknown_variable(xyz_ring):
    with pytest.raises(ParseError, match="unknown variable w"):
        parse_poly("x*w", xyz_ring)


def test_parse_rejects_trailing_garbage(xyz_ring):
    with pytest.raises(ParseError):
        parse_poly("x y", xyz_ring)


def test_parse_print_roundtrip_random(xyz_ring):
    rng = random.Random(20103)
    for _ in range(25):
        f = random_poly(rng, xyz_ring)
        assert parse_poly(str(f), xyz_ring) == f
        assert str(parse_poly(str(f), xyz_ring)) == str(f)


def test_canonical_order_is_stable_under_input_permutation(xyz_ring):
    rng = random.Random(20104)
    f = random_poly(rng, xyz_ring, max_terms=8)
    items = f.items()
    shuffled = list(f._terms.items())
    rng.shuffle(shuffled)
    g = Poly(xyz_ring, dict(shuffled))
    assert g.items() == items


def test_jet_variable_names():
    assert Variable("x", (), 2).name == "x2"
    assert Variable("x", (1, 1), 0).name == "x0_(1,1)"


def test_subscripted_parse_roundtrip():
    ring = ring_make(parse_variables("x_(1,1)..x_(2,2)"))
    f = parse_poly("x_(1,1)*x_(2,2)-x_(1,2)*x_(2,1)", ring)
    assert str(f) == "-x_(1,2)*x_(2,1)+x_(1,1)*x_(2,2)"
    assert parse_poly(str(f), ring) == f


def test_is_homogeneous(xyz_ring):
    assert is_homogeneous(parse_poly("x^2+x*y", xyz_ring), (1, 1, 1))
    assert not is_homogeneous(parse_poly("x+x^2", xyz_ring), (1, 1, 1))
    assert is_homogeneous(xyz_ring.zero(), (1, 1, 1))
    with pytest.raises(ValueError, match="weight"):
        is_homogeneous(xyz_ring.var("x"), (1, 1))


def test_ring_mismatch_rejected(xyz_ring):
    other = ring_make(parse_variables("u,v"))
    with pytest.raises(ValueError, match="different rings"):
        xyz_ring.var("x") + other.var("u")


def test_ideal_drops_zero_generators(xyz_ring):
    I = Ideal(xyz_ring, [xyz_ring.zero(), xyz_ring.var("x")])
    assert len(I.generators) == 1


def test_ideal_generator_ring_checked(xyz_ring):
    other = ring_make(parse_variables("u"))
    with pytest.raises(ValueError):
        Ideal(xyz_ring, [other.var("u")])


def _random_monomial(rng, nvars):
    support = rng.sample(range(nvars), rng.randint(0, min(nvars, 5)))
    return Monomial((i, rng.randint(1, 3)) for i in support)


def _key_test_rings():
    plain = [ring_make(parse_variables(names)) for names in ("x", "x,y,z", "a..h")]
    jets = [jet_ring(ring, s).ring for ring in plain[:2] for s in range(6)]
    mixed = [PolyRing([Variable(ch) for ch in "abcdefg"], blocks)
             for blocks in (((None, 2), (1, 3), (2, 2)), ((0, 1), (1, 5), (2, 1)),
                            ((None, 7),), ((0, 3), (1, 4)))]
    return plain + jets + mixed


def _assert_keys_agree(ring, m1, m2):
    assert ((term_key(ring, m1) < term_key(ring, m2))
            == (dense_term_key(ring, m1) < dense_term_key(ring, m2)))
    assert ((term_key(ring, m1) == term_key(ring, m2))
            == (dense_term_key(ring, m1) == dense_term_key(ring, m2)) == (m1 == m2))


def test_term_key_sorts_like_the_dense_key():
    rng = random.Random(20261018)
    for ring in _key_test_rings():
        n = len(ring.variables)
        monos = list({_random_monomial(rng, n) for _ in range(60)} | {Monomial()})
        rng.shuffle(monos)
        assert (sorted(monos, key=lambda m: term_key(ring, m))
                == sorted(monos, key=lambda m: dense_term_key(ring, m)))
        for m1, m2 in zip(monos, monos[1:]):
            _assert_keys_agree(ring, m1, m2)
        # injective on the sample: equal keys exactly for equal monomials
        assert len({term_key(ring, m) for m in monos}) == len(monos)
        assert all(term_key(ring, Monomial(m.exps)) == term_key(ring, m) for m in monos)

    # a 3-block jet ring x0,y0 | x1,y1 | x2,y2, with hand-picked pairs (smaller, larger)
    ring = jet_ring(ring_make(parse_variables("x,y")), 2).ring

    def mono(text):
        (m,) = parse_poly(text, ring)._terms
        return m

    one = Monomial()
    for e in itertools.product(range(3), repeat=6):
        m = Monomial(enumerate(e))
        if m != one:
            assert term_key(ring, one) < term_key(ring, m)
            _assert_keys_agree(ring, one, m)
    # (smaller, larger); the first difference falls in a block that is
    # empty on the smaller side, or inside one block of equal degree
    pairs = [("x0^3", "x1"), ("y0^2*x0", "y1"), ("x1*y1*x0^4", "x2"), ("x0", "y2"),
             ("x2*y0^2", "x2*x1"), ("y1^2*x0", "x2*y0"), ("y1*x0", "x1*x0"),
             ("x2*y0^2", "x2*x0*y0"), ("x2*y2*y1", "x2^2*y1")]
    # both agree in the higher blocks and the smaller one stops earlier: its
    # key is a prefix of the larger one's
    stops_earlier = [("x2", "x2*y0"), ("x2*y1", "x2*y1*x0"), ("x1*y1", "x1*y1*y0^3"),
                     ("y2^2*x1", "y2^2*x1*x0*y0"), ("x2*y2", "x2*y2*x1")]
    for small, large in pairs + stops_earlier:
        m1, m2 = mono(small), mono(large)
        assert term_key(ring, m1) < term_key(ring, m2), (small, large)
        assert dense_term_key(ring, m1) < dense_term_key(ring, m2), (small, large)
        _assert_keys_agree(ring, m2, m1)
    for small, large in stops_earlier:
        k1, k2 = term_key(ring, mono(small)), term_key(ring, mono(large))
        assert k2[:len(k1)] == k1, (small, large)


def test_poly_str_matches_the_dense_printer():
    rng = random.Random(8)
    coefficients = [Fraction(v) * sign for v in (1, "1/2", 7, "123456789/1000")
                    for sign in (1, -1)]
    rings = _key_test_rings()
    checked = 0
    for ring in rings:
        n = len(ring.variables)
        for _ in range(30):
            terms = [(_random_monomial(rng, n), rng.choice(coefficients))
                     for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.5:
                terms.append((Monomial(), rng.choice(coefficients)))
            f = Poly(ring, terms)
            assert str(f) == dense_poly_str(f)
            checked += 1
        for f in (ring.zero(), ring.constant(Fraction(-1, 2)), ring.one(), -ring.var(n - 1)):
            assert str(f) == dense_poly_str(f)
        assert str(ring.zero()) == "0" and str(ring.constant(Fraction(-1, 2))) == "-1/2"
    assert checked >= 500


def test_variable_name_is_cached_without_changing_identity():
    v = Variable("x", (1, 2), 3)
    assert v.name == "x3_(1,2)" and v.name is v.name
    w = Variable("x", (1, 2), 3)
    assert v == w and hash(v) == hash(w) and repr(v) == "Variable('x3_(1,2)')"
    w.name
    assert v == w and hash(v) == hash(w)
    assert v != Variable("x", (1, 2)) and Variable("x", (1, 2)).name == "x_(1,2)"
