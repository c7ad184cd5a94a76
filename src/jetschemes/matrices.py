"""Generic matrices over a polynomial ring and ideals of minors."""

import itertools
from fractions import Fraction
from math import comb, perm

from .poly import SIZE_BOUND, Ideal, Poly


class GenericMatrix:
    """An m x n matrix of distinct ring variables, filled column by column."""

    __hash__ = None   # equal field by field, and mutable

    def __init__(self, ring, rows, cols, entries):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ring, self.rows, self.cols, self.entries)
                == (other.ring, other.rows, other.cols, other.entries))

    def entry(self, i, j):
        return self.entries[i][j]

    def __str__(self):
        texts = [[str(e) for e in row] for row in self.entries]
        widths = [max(len(texts[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        lines = []
        for row in texts:
            cells = " ".join(cell.ljust(w) for cell, w in zip(row, widths))
            lines.append(f"| {cells} |")
        return "\n".join(lines)

    def __repr__(self):
        rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in self.entries)
        return f"GenericMatrix({self.ring}: {rows})"


def generic_matrix(R, m, n):
    """Fill an m x n matrix with the first m*n variables of R, column-major."""
    if m < 1 or n < 1:
        raise ValueError(f"a {m}x{n} matrix needs at least one row and one column")
    if m * n > len(R.variables):
        raise ValueError(f"ring has {len(R.variables)} variables, need {m * n}")
    entries = tuple(tuple(R.var(j * m + i) for j in range(n)) for i in range(m))
    return GenericMatrix(R, m, n, entries)


def _variable_index(ring, e):
    """The index of the entry e, which must be a variable of `ring`."""
    if e.ring == ring and len(e._terms) == 1:
        ((mono, coef),) = e._terms.items()
        if coef == 1 and len(mono) == 1 and mono[0][1] == 1:
            return mono[0][0]
    raise ValueError(f"{e} is not a variable of {ring}")


def minors(r, M):
    """The ideal of all r x r minors, row sets then column sets in lex order.

    The entries must be distinct variables of M's ring (each is read off
    its single monomial), so the r! Leibniz terms of a minor are distinct
    squarefree monomials with coefficient +-1 and none cancel: each minor
    is one dict over the permutations, with no Poly arithmetic.  More than
    `poly.SIZE_BOUND` terms in all are refused before any is built.
    """
    if not 1 <= r <= min(M.rows, M.cols):
        raise ValueError(f"minor size {r} out of range for a {M.rows}x{M.cols} matrix")
    terms = comb(M.rows, r) * perm(M.cols, r)   # C(rows, r) C(cols, r) r!
    if terms > SIZE_BOUND:
        raise ValueError(f"the {r}x{r} minors of a {M.rows}x{M.cols} matrix have {terms} "
                         f"terms, more than {SIZE_BOUND}")
    index = [[_variable_index(M.ring, e) for e in row] for row in M.entries]
    if len({k for row in index for k in row}) < M.rows * M.cols:
        raise ValueError("matrix entries are not distinct variables")
    perms = [(p, Fraction((-1) ** sum(a > b for a, b in itertools.combinations(p, 2))))
             for p in itertools.permutations(range(r))]
    gens = []
    for rowset in itertools.combinations(range(M.rows), r):
        for colset in itertools.combinations(range(M.cols), r):
            sub = [[index[i][j] for j in colset] for i in rowset]
            terms = {}
            for p, sign in perms:
                support = sorted([row[j] for row, j in zip(sub, p)])
                terms[tuple([(k, 1) for k in support])] = sign
            gens.append(Poly._trusted(M.ring, terms))
    return Ideal(M.ring, gens)
