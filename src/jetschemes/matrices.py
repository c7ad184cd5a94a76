"""Generic matrices over a polynomial ring and ideals of minors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .poly import Ideal, PolyRing


@dataclass(eq=True)
class GenericMatrix:
    """An m x n matrix of distinct ring variables, filled column by column."""

    ring: PolyRing
    rows: int
    cols: int
    entries: tuple

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


def generic_matrix(R, m, n):
    """Fill an m x n matrix with the first m*n variables of R, column-major."""
    if m < 1 or n < 1:
        raise ValueError(f"a {m}x{n} matrix needs at least one row and one column")
    if m * n > len(R.variables):
        raise ValueError(f"ring has {len(R.variables)} variables, need {m * n}")
    entries = tuple(tuple(R.var(j * m + i) for j in range(n)) for i in range(m))
    return GenericMatrix(R, m, n, entries)


def _det(ring, rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = ring.zero()
    for j, top in enumerate(rows[0]):
        sub = [row[:j] + row[j + 1:] for row in rows[1:]]
        cofactor = top * _det(ring, sub)
        total = total + cofactor if j % 2 == 0 else total - cofactor
    return total


def minors(r, M):
    """The ideal of all r x r minors, row sets then column sets in lex order."""
    if not 1 <= r <= min(M.rows, M.cols):
        raise ValueError(f"minor size {r} out of range for a {M.rows}x{M.cols} matrix")
    gens = []
    for rowset in itertools.combinations(range(M.rows), r):
        for colset in itertools.combinations(range(M.cols), r):
            rows = [list(M.entries[i][j] for j in colset) for i in rowset]
            gens.append(_det(M.ring, rows))
    return Ideal(M.ring, gens)
