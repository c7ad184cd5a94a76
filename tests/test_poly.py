import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from jetschemes import (Ideal, Monomial, ParseError, Poly, PolyRing, Variable,
                        is_homogeneous, jet_ring, parse_poly, parse_variables,
                        ring_make, term_key)

from oracles import (dense_from_poly, dense_mul, dense_poly_str, dense_term_key,
                     poly_from_terms, random_poly)


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


@pytest.mark.parametrize("text", ["x_(1,1)..x_(3,3)", "x_(0)..x_(12)", "ab_(2,0,5)..ab_(3,2,6)",
                                  "y_(7,7)..y_(7,7)", "a,x_(0,1)..x_(1,2),b"])
def test_box_ranges_match_the_validating_constructor(text):
    # a box checks its base once and builds the rest of its variables unchecked
    variables = parse_variables(text)
    for v in variables:
        w = Variable(v.base, v.subscripts)
        assert v == w and hash(v) == hash(w) and v.name == w.name, (v, w)
        assert type(v.subscripts) is tuple and all(type(t) is int for t in v.subscripts)
    assert len(set(variables)) == len(variables)


@pytest.mark.parametrize("text, message", [
    ("x1_(1)..x1_(2)", "variable base 'x1' ends in a digit"),
    ("Z..a", "invalid variable base name '['"),
])
def test_ranges_still_check_their_bases(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_variables(text)


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


def _spaced(rng, tokens):
    """Join `tokens`, with random whitespace (or none) before, between and after them."""
    return "".join(rng.choice(["", "", "", " ", "  ", "\n\t"]) + tok for tok in tokens + [""])


def _padded(rng, n):
    return rng.choice(["", "", "0", "00"]) + str(n)


def _subscript_tokens(rng, subs):
    """The tokens of "_(s1,...,sk)", each subscript possibly zero-padded."""
    return ["_", "("] + " , ".join(_padded(rng, s) for s in subs).split(" ") + [")"]


def _name_tokens(rng, v):
    """A variable's name as one compact token, or spelled out token by token."""
    if not v.subscripts or rng.random() < 0.4:
        return [v.name]
    return [v.name.partition("_(")[0]] + _subscript_tokens(rng, v.subscripts)


def _random_poly_text(rng, ring):
    """A random polynomial text in `ring` and its (factors, coefficient) terms.

    The text may repeat factors (x*x), write x^0, an explicit 1*, padded
    numbers and unreduced fractions, and repeat or cancel an earlier term.
    """
    n = len(ring.variables)
    terms, tokens = [], []
    for t in range(rng.randint(1, 6)):
        if terms and rng.random() < 0.3:
            factors, (num, den, sign) = rng.choice(terms)
            factors = rng.sample(factors, len(factors))
            sign = -sign if rng.random() < 0.6 else sign
        else:
            factors = [(rng.randrange(n), rng.choice([0, 1, 1, 1, 2, 3])) for _ in range(rng.randint(0, 3))]
            if factors and rng.random() < 0.2:
                factors.append(rng.choice(factors))
            num, den = rng.randint(0, 9), rng.choice([1, 1, 2, 3, 4, 6])
            sign = rng.choice([1, -1])
        terms.append((factors, (num, den, sign)))
        if t or sign < 0:
            tokens.append("-" if sign < 0 else "+")
        body = []
        if not factors or (num, den) != (1, 1) or rng.random() < 0.2:
            body.append([_padded(rng, num)] + (["/", _padded(rng, den)] if den > 1 else []))
        for i, e in factors:
            power = ["^", _padded(rng, e)] if e != 1 or rng.random() < 0.2 else []
            body.append(_name_tokens(rng, ring.variables[i]) + power)
        tokens += [tok for k, part in enumerate(body) for tok in (["*"] if k else []) + part]
    return _spaced(rng, tokens), [(f, Fraction(sign * num, den)) for f, (num, den, sign) in terms]


def test_parse_poly_matches_the_constructor_oracle():
    rings = [ring_make(parse_variables("x,y,z,w")),
             ring_make(parse_variables("x_(1,1)..x_(2,3),y_(0,12)")),
             jet_ring(ring_make(parse_variables("x,y_(1,2)")), 2).ring]
    rng = random.Random(9)
    for k in range(600):
        ring = rings[k % 3]
        text, terms = _random_poly_text(rng, ring)
        f, expected = parse_poly(text, ring), poly_from_terms(ring, terms)
        assert f == expected and hash(f) == hash(expected), text
        for m, c in f._terms.items():
            assert type(c) is Fraction and c and c.denominator > 0
            assert c == Fraction(c.numerator, c.denominator)
            assert all(e > 0 for _, e in m.exps) and m.exps == tuple(sorted(dict(m.exps).items()))
        assert parse_poly(str(f), ring) == f


def test_spaced_or_padded_variable_ranges_equal_their_compact_forms():
    rng = random.Random(4)
    for _ in range(200):
        k = rng.randint(1, 3)
        lo = [rng.randint(0, 11) for _ in range(k)]
        hi = [s + rng.randint(0, 2) for s in lo]
        compact = f"a..c,q,x_({','.join(map(str, lo))})..x_({','.join(map(str, hi))})"
        spelled = (["a", "..", "c", ",", "q", ",", "x"] + _subscript_tokens(rng, lo)
                   + ["..", "x"] + _subscript_tokens(rng, hi))
        variables = parse_variables(compact)
        assert parse_variables(_spaced(rng, spelled)) == variables
        assert [v.name for v in variables][:4] == ["a", "b", "c", "q"]


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
    assert vars(v)["name"] == "x3_(1,2)"   # set at construction, not on first read
    assert v.name == "x3_(1,2)" and v.name is v.name
    w = Variable("x", (1, 2), 3)
    assert v == w and hash(v) == hash(w) and repr(v) == "Variable('x3_(1,2)')"
    assert v != Variable("x", (1, 2)) and Variable("x", (1, 2)).name == "x_(1,2)"
    assert Variable("x", ("1", "02")) == Variable("x", (1, 2))
    assert Variable("x", ("1", "02")).name == "x_(1,2)" and Variable("ab").name == "ab"
    # the name is no field of ==, hash or the generated repr, and no argument
    (name,) = [f for f in dataclasses.fields(Variable) if f.name == "name"]
    assert not (name.init or name.compare or name.repr)
    object.__setattr__(w, "name", "other")
    assert v == w and hash(v) == hash(w)
    with pytest.raises(TypeError):
        Variable("x", (), None, "x")


@pytest.mark.parametrize("args, message", [
    (("1x",), "invalid variable base name '1x'"),
    (("x_",), "invalid variable base name 'x_'"),
    (("",), "invalid variable base name ''"),
    (("x1",), "variable base 'x1' ends in a digit"),
    (("x", (1, -2)), "subscripts must be naturals"),
    (("x", (-1,), 0), "subscripts must be naturals"),
    (("x", (), -1), "jet order must be a natural"),
    (("x", (1,), -2), "jet order must be a natural"),
])
def test_variable_rejects_invalid_parts(args, message):
    with pytest.raises(ValueError) as err:
        Variable(*args)
    assert str(err.value) == message
