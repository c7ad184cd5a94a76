import inspect
import itertools
import random
import re
import string
from fractions import Fraction

import pytest

from jetschemes import (Ideal, Monomial, ParseError, Poly, PolyRing, Variable,
                        is_homogeneous, jet_ring, jets_graph, parse_graph_text, parse_poly,
                        parse_polys, parse_variables, run_script, term_key)

from oracles import (assert_normal_form, dense_from_poly, dense_mul, dense_poly_str,
                     dense_term_key, poly_from_terms, random_poly, split_name)


def test_plain_ring_three_variables(xyz_ring):
    assert len(xyz_ring.variables) == 3
    assert xyz_ring.blocks == (3,)
    assert str(xyz_ring) == "QQ[x,y,z]"


def test_plain_ring_subscripted_box():
    ring = PolyRing(parse_variables("x_(1,1)..x_(3,3)"))
    assert len(ring.variables) == 9
    assert str(ring.variables[0]) == "x_(1,1)"
    assert str(ring.variables[1]) == "x_(1,2)"
    assert str(ring.variables[-1]) == "x_(3,3)"


@pytest.mark.parametrize("text", ["x_(1,1)..x_(3,3)", "x_(0)..x_(12)", "ab_(2,0,5)..ab_(3,2,6)",
                                  "y_(7,7)..y_(7,7)", "a,x_(0,1)..x_(1,2),b"])
def test_box_ranges_match_the_validating_constructor(text):
    # a box checks its base once and builds the rest of its variables unchecked
    variables = parse_variables(text)
    for v in variables:
        base, subs, order = split_name(v)
        assert order is None and Variable(base, subs) == v and type(v) is str, v
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
    assert [str(v) for v in vs] == ["a", "b", "c", "d", "e"]


def test_box_ranges_equal_their_names_built_one_by_one():
    # coordinates from 0, and across a change of digit count (8..11, 98..101)
    rng = random.Random(26)
    texts = ["x_(8)..x_(11)", "x_(0,8)..x_(2,11)", "ab_(9,0,98)..ab_(10,1,101)"]
    for _ in range(300):
        lo = [rng.choice([0, 8, 9, 98, rng.randint(0, 30)]) for _ in range(rng.randint(1, 3))]
        hi = [s + rng.randint(0, 3) for s in lo]
        base = rng.choice(["x", "ab", "Q", "u2v"])
        texts.append(f"{base}_({','.join(map(str, lo))})..{base}_({','.join(map(str, hi))})")
    for text in texts:
        (base, lo, _), (_, hi, _) = map(split_name, text.split(".."))
        points = itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)])
        assert parse_variables(text) == [Variable(base, t) for t in points], text


def test_letter_ranges_equal_their_letters_checked_one_by_one():
    # every range of letters, also those across "Z".."a", whose first
    # non-letter "[" is refused as a variable base
    letters = string.ascii_uppercase + string.ascii_lowercase
    for i, first in enumerate(letters):
        for last in letters[i:]:
            text = f"{first}..{last}"
            try:
                want = [Variable(chr(c)) for c in range(ord(first), ord(last) + 1)]
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    parse_variables(text)
                assert type(got.value) is ValueError and str(got.value) == str(e), text
                with pytest.raises(ParseError) as got:
                    run_script(f"ring R = [{text}];")
                assert (got.value.message, got.value.pos) == (str(e), 10), text
                continue
            assert parse_variables(text) == want, text
            assert run_script(f"ring R = [{text}];") == f"[1] ring R = QQ[{','.join(want)}]"


def test_plain_ring_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PolyRing([Variable("x"), Variable("x")])


def test_ring_blocks_are_the_runs_of_one_jet_order():
    assert PolyRing(parse_variables("a,b,c")).blocks == (3,)
    assert PolyRing([]).blocks == (0,) and str(PolyRing([])) == "QQ[]"
    x0, y0, x1, z = Variable("x", (), 0), Variable("y", (), 0), Variable("x", (), 1), Variable("z")
    ring = PolyRing([x0, y0, x1, z])
    assert ring.blocks == (2, 1, 1) and str(ring) == "QQ[x0,y0][x1][z]"
    J = jet_ring(PolyRing(parse_variables("x,y")), 1)
    rebuilt = PolyRing(J.variables)
    assert str(rebuilt) == str(J) == "QQ[x0,y0][x1,y1]"
    assert rebuilt == J and hash(rebuilt) == hash(J) and J == J
    assert PolyRing([x0, x1]) != PolyRing([x1, x0])
    # the jet ring of an empty ring has no variables, so one empty block
    assert str(jet_ring(PolyRing([]), 2)) == "QQ[]"
    with pytest.raises(TypeError):
        PolyRing([x0], (1,))


def test_monomial_is_its_exponent_tuple():
    m = Monomial({2: 1, 0: 3})
    assert type(m) is tuple and m == ((0, 3), (2, 1))
    assert Monomial() == () and Monomial({}) == () and Monomial([(1, 0)]) == ()
    assert Monomial([(1, 2), (0, 1), (1, 3), (0, -1)]) == ((1, 5),)
    assert Monomial(m) == m and Monomial(iter(m)) == m
    with pytest.raises(ValueError, match="^negative exponent in monomial$"):
        Monomial({0: -1})
    with pytest.raises(ValueError, match="^negative variable index in monomial$"):
        Monomial({-1: 2})
    with pytest.raises(ValueError, match="^negative variable index in monomial$"):
        Monomial([(-1, 2), (0, 1)])


def test_monomials_outside_the_ring_are_refused(xyz_ring):
    for bad in (((-1, 2),), ((-1, 1), (0, 1)), ((3, 1),), ((0, 1), (5, 2))):
        with pytest.raises(ValueError, match="outside the ring"):
            Poly(xyz_ring, {bad: 1})
        with pytest.raises(ValueError, match="outside the ring"):
            Poly(xyz_ring, [(bad, 1)])
    with pytest.raises(ValueError, match="negative variable index"):
        Poly(xyz_ring, {Monomial({-1: 2}): 1})
    assert str(Poly(xyz_ring, {((0, 1), (2, 2)): 1, (): -1})) == "x*z^2-1"


def test_validating_constructor_brings_raw_keys_into_normal_form():
    ring = PolyRing(parse_variables("x,y"))
    swapped = Poly(ring, {((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): 1})
    assert str(swapped) == "2*x*y" and swapped == parse_poly("2*x*y", ring)
    assert str(Poly(ring, {((0, 0),): 3})) == "3" and Poly(ring, {((0, 0),): 3}) == 3 * ring.one()
    assert Poly(ring, [(((0, 1), (0, 2)), 1)]) == parse_poly("x^3", ring)
    assert Poly(ring, {((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): -1}).is_zero()
    for p in (swapped, Poly(ring, {((0, 0), (1, 2)): 3})):
        assert_normal_form(p)
    with pytest.raises(ValueError, match="negative exponent"):
        Poly(ring, {((0, -1),): 1})


def test_scalar_products_keep_normal_form(xyz_ring):
    p = parse_poly("2*x*y-1/3*z^2+5", xyz_ring)
    for q in (p * Fraction(3, 2), 3 * p, p * -1, p * 0):
        assert_normal_form(q)
    assert p * Fraction(3, 2) == parse_poly("3*x*y-1/2*z^2+15/2", xyz_ring)
    assert (p * 0)._terms == {}


def test_variable_base_may_not_end_in_digit():
    with pytest.raises(ValueError, match="digit"):
        Variable("x1")


def test_add_cancellation(xyz_ring):
    x = xyz_ring.var("x")
    y = xyz_ring.var("y")
    assert (x + y) + (-y) == x


def test_sub_of_numbers_and_polynomials(xyz_ring):
    p = parse_poly("x*y-2*z", xyz_ring)
    q = parse_poly("x*y+1/2", xyz_ring)
    assert p - 3 == parse_poly("x*y-2*z-3", xyz_ring)
    assert 3 - p == parse_poly("-x*y+2*z+3", xyz_ring)
    assert p - q == parse_poly("-2*z-1/2", xyz_ring)


def test_negative_power_is_refused(xyz_ring):
    with pytest.raises(ValueError, match="^exponent must be a natural number$"):
        xyz_ring.var("x") ** -1


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
        for p in (f + g, f - g, f - f, f * g, f * 0, 3 * f, f ** 3, f ** 0, 2 - f):
            assert_normal_form(p)


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


def test_coefficient_normalizes_its_key(xyz_ring):
    f = parse_poly("3*x*y + z", xyz_ring)
    for key in (((0, 1), (1, 1)), ((1, 1), (0, 1)), {0: 1, 1: 1}, [(0, 1), (1, 1), (2, 0)]):
        assert f.coefficient(key) == 3, key
    assert f.coefficient({2: 1}) == 1 and f.coefficient(((2, 1),)) == 1
    assert f.coefficient({}) == 0 and f.coefficient({0: 2}) == 0
    with pytest.raises(ValueError, match="negative exponent"):
        f.coefficient({0: -1})


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
    assert str(Variable("x", (), 2)) == "x2"
    assert str(Variable("x", (1, 1), 0)) == "x0_(1,1)"


def test_subscripted_parse_roundtrip():
    ring = PolyRing(parse_variables("x_(1,1)..x_(2,2)"))
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
    subs = split_name(v)[1]
    if not subs or rng.random() < 0.4:
        return [v]
    return [v.partition("_(")[0]] + _subscript_tokens(rng, subs)


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
    rings = [PolyRing(parse_variables("x,y,z,w")),
             PolyRing(parse_variables("x_(1,1)..x_(2,3),y_(0,12)")),
             jet_ring(PolyRing(parse_variables("x,y_(1,2)")), 2)]
    rng = random.Random(9)
    for k in range(600):
        ring = rings[k % 3]
        text, terms = _random_poly_text(rng, ring)
        f, expected = parse_poly(text, ring), poly_from_terms(ring, terms)
        assert f == expected and hash(f) == hash(expected), text
        for c in f._terms.values():
            assert type(c) is Fraction and c and c.denominator > 0
            assert c == Fraction(c.numerator, c.denominator)
        assert_normal_form(f)
        assert parse_poly(str(f), ring) == f


def test_parse_polys_matches_parse_poly_on_each_text():
    # one cursor over the whole list: a comma inside a spelled-out subscript
    # ("x _( 1 , 2 )") stays in its name, and only the others split the list
    rings = [PolyRing(parse_variables("x_(1,1)..x_(2,3),y_(0,12)")),
             jet_ring(PolyRing(parse_variables("x,y_(1,2)")), 2),
             PolyRing(parse_variables("x,y,z,w"))]
    rng = random.Random(11)
    spelled_commas = 0
    for k in range(300):
        ring = rings[k % 3]
        texts = [_random_poly_text(rng, ring)[0] for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:   # a constant generator
            texts.insert(rng.randint(0, len(texts)), _spaced(rng, [_padded(rng, rng.randint(0, 9))]))
        text = texts[0]
        for t in texts[1:]:
            text += rng.choice([",", ", ", " , ", "\n,\t"]) + t
        spelled_commas += re.sub(r"\w+_\(\d+(,\d+)*\)", "", text).count(",") - (len(texts) - 1)
        polys = parse_polys(text, ring)
        assert polys == [parse_poly(t, ring) for t in texts], text
        for f in polys:
            assert_normal_form(f)
    assert spelled_commas > 100


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
        assert [str(v) for v in variables][:4] == ["a", "b", "c", "q"]


def test_is_homogeneous(xyz_ring):
    assert is_homogeneous(parse_poly("x^2+x*y", xyz_ring), (1, 1, 1))
    assert not is_homogeneous(parse_poly("x+x^2", xyz_ring), (1, 1, 1))
    assert is_homogeneous(xyz_ring.zero(), (1, 1, 1))
    with pytest.raises(ValueError, match="weight"):
        is_homogeneous(xyz_ring.var("x"), (1, 1))


def test_ring_mismatch_rejected(xyz_ring):
    other = PolyRing(parse_variables("u,v"))
    with pytest.raises(ValueError, match="different rings"):
        xyz_ring.var("x") + other.var("u")


def test_ideal_drops_zero_generators(xyz_ring):
    I = Ideal(xyz_ring, [xyz_ring.zero(), xyz_ring.var("x")])
    assert len(I.generators) == 1


def test_ideal_generator_ring_checked(xyz_ring):
    other = PolyRing(parse_variables("u"))
    with pytest.raises(ValueError):
        Ideal(xyz_ring, [other.var("u")])


def _degree(m):
    return sum(e for _, e in m)


def _random_monomial(rng, nvars):
    support = rng.sample(range(nvars), rng.randint(0, min(nvars, 5)))
    return Monomial((i, rng.randint(1, 3)) for i in support)


def _random_big_monomial(rng, nvars):
    """A monomial whose total degree is within 3 of the largest allowed,
    2^32 - 1, split at random over up to 5 variables."""
    support = rng.sample(range(nvars), rng.randint(1, min(nvars, 5)))
    total = 2**32 - 1 - rng.randint(0, 3)
    cuts = sorted(rng.randint(0, total) for _ in support[1:])
    return Monomial(zip(support, [b - a for a, b in zip([0] + cuts, cuts + [total])]))


def _key_test_rings():
    plain = [PolyRing(parse_variables(names)) for names in ("x", "x,y,z", "a..h")]
    jets = [jet_ring(ring, s) for ring in plain[:2] for s in range(6)]
    # runs of one jet order, so blocks of the given sizes
    mixed = [PolyRing([Variable(ch, (), order) for ch, order in
                       zip("abcdefg", [j for j, size in enumerate(blocks) for _ in range(size)])])
             for blocks in ((2, 3, 2), (1, 5, 1), (7,), (3, 4))]
    assert [ring.blocks for ring in mixed] == [(2, 3, 2), (1, 5, 1), (7,), (3, 4)]
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
        monos = list({_random_monomial(rng, n) for _ in range(60)} | {Monomial()}
                     | {_random_big_monomial(rng, n) for _ in range(20)})
        rng.shuffle(monos)
        assert (sorted(monos, key=lambda m: term_key(ring, m))
                == sorted(monos, key=lambda m: dense_term_key(ring, m)))
        for m1, m2, m3 in zip(monos, monos[1:] + monos[:1], monos[2:] + monos[:2]):
            _assert_keys_agree(ring, m1, m2)
            # a monomial order: multiplying by a monomial keeps the order
            if max(_degree(m1), _degree(m2)) + _degree(m3) < 2**32:
                m13, m23 = Monomial(m1 + m3), Monomial(m2 + m3)
                _assert_keys_agree(ring, m13, m23)
                assert ((term_key(ring, m1) < term_key(ring, m2))
                        == (term_key(ring, m13) < term_key(ring, m23)))
        # injective on the sample: equal keys exactly for equal monomials
        assert len({term_key(ring, m) for m in monos}) == len(monos)
        assert all(term_key(ring, Monomial(m)) == term_key(ring, m) for m in monos)
        # exponents one apart at the top of the range, in every variable
        top = 2**32 - 1
        for i in range(n):
            m1, m2 = Monomial({i: top - 1}), Monomial({i: top})
            _assert_keys_agree(ring, m1, m2)
            if i:
                _assert_keys_agree(ring, Monomial({i: top}), Monomial({i - 1: top}))
                _assert_keys_agree(ring, Monomial({i: top - 1, i - 1: 1}), m2)

    # a 3-block jet ring x0,y0 | x1,y1 | x2,y2, with hand-picked pairs (smaller, larger)
    ring = jet_ring(PolyRing(parse_variables("x,y")), 2)

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
    # both agree in the higher blocks and the smaller one stops earlier
    stops_earlier = [("x2", "x2*y0"), ("x2*y1", "x2*y1*x0"), ("x1*y1", "x1*y1*y0^3"),
                     ("y2^2*x1", "y2^2*x1*x0*y0"), ("x2*y2", "x2*y2*x1")]
    for small, large in pairs + stops_earlier:
        m1, m2 = mono(small), mono(large)
        assert term_key(ring, m1) < term_key(ring, m2), (small, large)
        assert dense_term_key(ring, m1) < dense_term_key(ring, m2), (small, large)
        _assert_keys_agree(ring, m2, m1)
    # multiplying by a monomial keeps the order
    for small, large in pairs + stops_earlier:
        m1, m2 = mono(small), mono(large)
        for m3 in (mono("x0"), mono("y2^3"), mono("x1*y0"), m1, m2):
            assert (term_key(ring, Monomial(m1 + m3))
                    < term_key(ring, Monomial(m2 + m3))), (small, large, m3)


def test_term_key_size_does_not_grow_with_the_ring():
    """One int per variable and per block of the monomial, and the 0; each
    int holds a field position below 2^14 and a value below 2^32."""
    rings = [PolyRing(parse_variables("x_(1)..x_(5000)")),
             jet_ring(PolyRing(parse_variables("x_(1)..x_(500)")), 9)]
    for ring in rings:
        n = len(ring.variables)
        monos = [Monomial(), Monomial({n - 1: 1}), Monomial({0: 2, n - 1: 1}),
                 Monomial({1: 1, n - 2: 2}), Monomial({0: 1, 700: 3, n - 2: 2**32 - 5})]
        blocks = [0, 1, 2, 2, 3] if len(ring.blocks) > 1 else [0, 1, 1, 1, 1]
        for m, touched in zip(monos, blocks):
            key = term_key(ring, m)
            assert len(key) == len(m) + touched + 1
            assert all(k.bit_length() <= 46 for k in key)
        for m1, m2 in itertools.combinations(monos, 2):
            _assert_keys_agree(ring, m1, m2)


def test_degree_bound_of_the_term_order(xyz_ring):
    x = parse_poly("x^4294967295", xyz_ring)
    assert str(x) == "x^4294967295"
    assert str(parse_poly("y*x^4294967294", xyz_ring)) == "x^4294967294*y"
    for text in ("x^4294967296", "x^2147483648*x^2147483648", "x^4294967295*y",
                 "x + y^4294967296"):
        with pytest.raises(ValueError, match=re.escape("degrees must be below 2^32")) as info:
            parse_poly(text, xyz_ring)
        assert not isinstance(info.value, ParseError), text
    with pytest.raises(ValueError, match=re.escape("2^32")):
        Monomial({0: 2**32})
    with pytest.raises(ValueError, match=re.escape("2^32")):
        Monomial(Monomial({0: 2**31}) + Monomial({0: 2**31}))
    with pytest.raises(ValueError, match=re.escape("2^32")):
        Monomial([(0, 2**31), (0, 2**31)])
    assert (Monomial(Monomial({0: 2**31}) + Monomial({1: 2**31 - 1}))
            == Monomial({0: 2**31, 1: 2**31 - 1}))
    # Poly.__pow__ squares its way up to the bound and no further
    assert str(parse_poly("x^65535", xyz_ring) ** 65536) == "x^4294901760"
    with pytest.raises(ValueError, match=re.escape("2^32")):
        parse_poly("x^65536", xyz_ring) ** 65536
    with pytest.raises(ValueError, match=re.escape("2^32")):
        x * parse_poly("y", xyz_ring)


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


def test_variable_is_its_name():
    v = Variable("x", (1, 2), 3)
    assert type(v) is str and v == "x3_(1,2)" and split_name(v) == ("x", (1, 2), 3)
    assert v != Variable("x", (1, 2)) and Variable("x", (1, 2)) == "x_(1,2)"
    assert Variable("x", ("1", "02")) == "x_(1,2)" and Variable("ab") == "ab"
    assert Variable("x", (), 0) == "x0" and Variable("x", (1, 1), 0) == "x0_(1,1)"
    assert sorted([Variable("y"), Variable("x", (), 1), Variable("x")]) == ["x", "x1", "y"]
    assert list(inspect.signature(Variable).parameters) == ["base", "subscripts", "jet_order"]
    with pytest.raises(TypeError):
        Variable("x", (), None, "x")


def test_every_variable_the_library_builds_is_a_plain_str():
    ring = PolyRing(parse_variables("a..c,x_(1,1)..x_(2,3),y_(0),z,w"))
    jets = jet_ring(ring, 2)
    G = parse_graph_text("u-v, v-x_(1), vertices-u")
    H = parse_graph_text("vertices a..d, x_(0,1)..x_(0,2)\na-b, x_(0,1)-c")
    variables = [*ring.variables, *jets.variables, *G.vertices, *H.vertices,
                 *jets_graph(3, G).vertices, *jets_graph(0, H).vertices,
                 Variable("x"), Variable("x", (1,)), Variable("x", (), 2)]
    assert len(variables) == 12 + 36 + 4 + 6 + 16 + 6 + 3
    assert all(type(v) is str for v in variables), {type(v) for v in variables}
    for r in (ring, jets):
        assert all(type(k) is str for k in r._by_name)
        assert list(r._by_name) == list(r.variables)


def test_a_variable_of_a_str_subclass_is_a_plain_str():
    class Name(str):
        pass

    variables = [Variable(Name("x")), Variable(Name("x"), (1,)), Variable(Name("x"), (), 0),
                 Variable("y", (Name("2"),))]
    assert variables == ["x", "x_(1)", "x0", "y_(2)"]
    assert all(type(v) is str for v in variables), {type(v) for v in variables}
    ring = PolyRing([Variable(Name("x")), Variable(Name("y"))])
    assert all(type(k) is str for k in ring._by_name)
    with pytest.raises(ValueError):
        Variable(Name("x1"))


def test_variable_fields_round_trip_through_the_name():
    rng = random.Random(2301)
    bases = ["x", "ab", "a1b", "Q", "z9z", "xyz"]
    variables = []
    for _ in range(300):
        base = rng.choice(bases)
        subs = tuple(rng.choice([0, 0, 1, 7, 10, 12, 100, 2026])
                     for _ in range(rng.choice([0, 0, 1, 2, 3])))
        order = rng.choice([None, rng.randint(0, 12)])
        v = Variable(base, subs, order)
        assert split_name(v) == (base, subs, order), v
        variables.append(v)
    plain = [v for v in dict.fromkeys(variables) if split_name(v)[2] is None]
    for s in (0, 1, 12):
        variables += jet_ring(PolyRing(plain), s).variables
    parts = [split_name(v) for v in variables]
    for v, (base, subs, order) in zip(variables, parts):
        assert Variable(base, subs, order) == v, v
    assert {base for base, _, _ in parts} == set(bases)
    assert {order for _, _, order in parts} == {None, *range(13)}


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
