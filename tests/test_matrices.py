from itertools import combinations
from math import comb

import pytest

from jetschemes import (GenericMatrix, PolyRing, generic_matrix, jets_ideal, matrices, minors,
                        parse_variables, run_script)

from expected import GENERIC_3X3_ROWS
from oracles import assert_normal_form, cofactor_det, leibniz_det


@pytest.fixture
def generic3():
    ring = PolyRing(parse_variables("x_(1,1)..x_(3,3)"))
    return generic_matrix(ring, 3, 3)


def test_generic_matrix_compares_field_by_field_and_is_unhashable():
    ring = PolyRing(parse_variables("a,b,c,d"))
    M = generic_matrix(ring, 2, 2)
    assert M == generic_matrix(PolyRing(parse_variables("a,b,c,d")), 2, 2)
    assert M == GenericMatrix(ring, 2, 2, M.entries)
    assert M != GenericMatrix(PolyRing(parse_variables("a,b,c,d,e")), 2, 2, M.entries)
    assert M != GenericMatrix(ring, 1, 2, M.entries)
    assert M != GenericMatrix(ring, 2, 1, M.entries)
    assert M != GenericMatrix(ring, 2, 2, tuple(zip(*M.entries)))
    with pytest.raises(TypeError):
        hash(M)
    assert repr(M) == "GenericMatrix(QQ[a,b,c,d]: [a,c],[b,d])"


def test_generic_matrix_display(generic3):
    rows = [[str(e) for e in row] for row in generic3.entries]
    assert rows == GENERIC_3X3_ROWS
    assert str(generic3).splitlines()[0] == "| x_(1,1) x_(2,1) x_(3,1) |"


def test_generic_matrix_column():
    ring = PolyRing(parse_variables("a,b"))
    M = generic_matrix(ring, 2, 1)
    assert [str(M.entry(i, 0)) for i in range(2)] == ["a", "b"]


def test_generic_matrix_needs_enough_variables():
    ring = PolyRing(parse_variables("a"))
    with pytest.raises(ValueError, match="need 4"):
        generic_matrix(ring, 2, 2)


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (0, 0)])
def test_generic_matrix_needs_a_row_and_a_column(m, n):
    ring = PolyRing(parse_variables("a,b"))
    with pytest.raises(ValueError, match=f"a {m}x{n} matrix"):
        generic_matrix(ring, m, n)
    with pytest.raises(ValueError, match=f"a {m}x{n} matrix"):
        run_script(f"ring R = [a,b]; matrix M = generic(R,{m},{n});")


def test_minors_size1_are_entries(generic3):
    I = minors(1, generic3)
    assert list(I.generators) == [generic3.entry(i, j)
                                  for i in range(3) for j in range(3)]


def test_minors_out_of_range(generic3):
    for r in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            minors(r, generic3)


def test_minors_past_the_term_bound_are_refused_before_building(monkeypatch):
    # C(rows, r) * C(cols, r) * r! Leibniz terms in all, one past the bound
    ring = PolyRing(parse_variables("x_(1,1)..x_(12,12)"))
    for M, r, terms in [(generic_matrix(ring, 12, 12), 12, 479001600),
                        (generic_matrix(ring, 10, 10), 4, 1058400)]:
        with pytest.raises(ValueError, match=f"have {terms} terms, more than 1000000"):
            minors(r, M)
    monkeypatch.setattr(matrices, "SIZE_BOUND", 20)
    assert len(minors(2, generic_matrix(ring, 2, 5)).generators) == 10
    monkeypatch.setattr(matrices, "SIZE_BOUND", 19)
    with pytest.raises(ValueError, match="the 2x2 minors of a 2x5 matrix have 20 terms, "
                                         "more than 19"):
        minors(2, generic_matrix(ring, 2, 5))


def test_determinant_term_signs_follow_permutation_parity(generic3):
    det = minors(3, generic3).generators[0]
    assert det == leibniz_det(generic3.ring, generic3.entries)
    coeffs = [c for _, c in det.items()]
    assert len(coeffs) == 6
    assert sorted(coeffs) == [-1, -1, -1, 1, 1, 1]


def test_minors_size2_match_leibniz(generic3):
    I = minors(2, generic3)
    assert len(I.generators) == 9
    expected = []
    for rowset in combinations(range(3), 2):
        for colset in combinations(range(3), 2):
            sub = [[generic3.entry(i, j) for j in colset] for i in rowset]
            expected.append(leibniz_det(generic3.ring, sub))
    assert list(I.generators) == expected


def test_minors_refuse_entries_that_are_not_distinct_variables():
    ring = PolyRing(parse_variables("a,b,c"))
    a, b, c = ring.gens()
    symmetric = GenericMatrix(ring, 2, 2, ((a, b), (b, c)))
    with pytest.raises(ValueError, match="not distinct variables"):
        minors(2, symmetric)
    other = PolyRing(parse_variables("a,b,c,d"))
    for bad in (a + b, a * a, 2 * a, ring.one(), other.var("d")):
        M = GenericMatrix(ring, 2, 2, ((a, b), (c, bad)))
        with pytest.raises(ValueError, match="is not a variable of"):
            minors(1, M)


def test_minors_of_a_hand_built_matrix_match_leibniz():
    ring = PolyRing(parse_variables("a,b,c,d"))
    a, b, c, d = ring.gens()
    M = GenericMatrix(ring, 2, 2, ((d, a), (b, c)))
    assert list(minors(2, M).generators) == [leibniz_det(ring, M.entries)]


def test_generator_counts():
    ring = PolyRing(parse_variables("x_(1,1)..x_(4,4)"))
    for m, n in ((2, 3), (3, 3), (4, 4)):
        M = generic_matrix(ring, m, n)
        for r in range(1, min(m, n) + 1):
            assert len(minors(r, M).generators) == comb(m, r) * comb(n, r)
            for g in minors(r, M).generators:
                assert_normal_form(g)


def test_cofactor_matches_leibniz_up_to_4x4():
    ring = PolyRing(parse_variables("x_(1,1)..x_(4,4)"))
    for m, n in ((4, 4), (3, 4), (4, 2)):
        M = generic_matrix(ring, m, n)
        for size in range(1, min(m, n) + 1):
            expected = []
            for rowset in combinations(range(m), size):
                for colset in combinations(range(n), size):
                    sub = [[M.entry(i, j) for j in colset] for i in rowset]
                    expected.append(cofactor_det(ring, sub))
            got = minors(size, M).generators
            assert list(got) == expected
            assert [str(g) for g in got] == [str(g) for g in expected]
    det4 = minors(4, generic_matrix(ring, 4, 4)).generators[0]
    assert len(det4._terms) == 24


def test_minors_match_sympy_determinants():
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(parse_variables("x_(1,1)..x_(5,5)"))
    M = generic_matrix(ring, 4, 5)
    symbols = sympy.symbols(f"v0:{len(ring.variables)}")   # v_k is variable k
    S = sympy.Matrix(4, 5, lambda i, j: symbols[j * 4 + i])
    for size in (2, 3, 4):
        got = minors(size, M).generators
        expected = [sympy.expand(S.extract(list(rows), list(cols)).det(method="berkowitz"))
                    for rows in combinations(range(4), size)
                    for cols in combinations(range(5), size)]
        assert len(got) == len(expected)
        for f, g in zip(got, expected):
            terms = sympy.Poly(g, *symbols).terms()
            assert len(terms) == len(f._terms)
            assert ({(tuple((i, e) for i, e in enumerate(exps) if e), int(c)) for exps, c in terms}
                    == set(f._terms.items()))


def test_jets_of_minors_generator_counts():
    for m, n in ((2, 2), (2, 3), (3, 3)):
        ring = PolyRing(parse_variables(f"x_(1,1)..x_({m},{n})"))
        M = generic_matrix(ring, m, n)
        for r in range(1, min(m, n) + 1):
            for s in range(3):
                ji = jets_ideal(s, minors(r, M))
                assert len(ji.generators) == (s + 1) * comb(m, r) * comb(n, r)
