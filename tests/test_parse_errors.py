"""Every ParseError site of the script reader and the three body grammars,
pinned by message and offset.

The polynomial grammar, the variable-list grammar and the graph grammar
share one token cursor; these rows hold their messages and 0-based
offsets fixed.  A name written compactly ("y_(1,2)") is scanned as one
token, but a stray one is still reported by its identifier alone, as when
spelled out.  The `run_script` rows read each statement with one cursor
over its span of the script, so every offset is into the whole script.
Within a statement, as within a body, the first bad character is reported
before an earlier grammar error, and an error at a body's end is reported
at the statement's ';'.  A statement of the wrong shape is reported at its
start.  An ideal body is a polynomial list, `polys := poly { ',' poly }`.
A graph body, `graph := [ 'vertices' vars ] { ',' | var '-' var }`, and a
ring body report their token errors at their token, and a bad or repeated
name, an undeclared vertex or an empty graph at the body's first token.
"""

import pytest

from jetschemes import ParseError, PolyRing, parse_poly, parse_variables
from jetschemes.cli import run_script

POLY_ERRORS = [
    ("x + $", "unexpected character '$'", 4),
    ("x_(1 y", "expected ')'", 5),
    ("x_1", "expected '('", 2),
    ("x_(a)", "expected a natural number", 3),
    ("x_(1,", "expected a natural number", 5),
    ("x^y", "expected a natural number", 2),
    ("x^", "expected a natural number", 2),
    ("x y", "unexpected 'y'", 2),
    ("x y_(1,2)", "unexpected 'y'", 2),
    ("x_(1,1) x_(1,2)", "unexpected 'x'", 8),
    ("x_(1,2)_(3)", "unexpected '_'", 7),
    ("x_(01,2", "expected ')'", 7),
    ("x_(1,2)^", "expected a natural number", 8),
    ("x..", "unexpected '..'", 1),
    ("x + * y", "expected a coefficient or a variable", 4),
    ("", "expected a coefficient or a variable", 0),
    ("-", "expected a coefficient or a variable", 1),
    ("(x)", "expected a coefficient or a variable", 0),
    ("2/", "expected a denominator", 2),
    ("2/x", "expected a denominator", 2),
    ("2/0", "zero denominator", 2),
    ("2*3", "expected a variable", 2),
    ("x*", "expected a variable", 2),
    ("w", "unknown variable w", 0),
    ("y*x_(2,2)", "unknown variable x_(2,2)", 2),
]

VARIABLE_ERRORS = [
    ("x,$", "unexpected character '$'", 2),
    ("x.y", "unexpected character '.'", 1),
    ("1", "expected a variable name", 0),
    ("", "expected a variable name", 0),
    ("x,", "expected a variable name", 2),
    ("x..", "expected a variable name", 3),
    ("x_1", "expected '('", 2),
    ("x_(1,2", "expected ')'", 6),
    ("x_(a)", "expected a natural number", 3),
    ("x y", "unexpected 'y'", 2),
    ("x_(1)..x_(2) y_(1)", "unexpected 'y'", 13),
    ("x_(1)_(2)", "unexpected '_'", 5),
    ("x_(01,2", "expected ')'", 7),
    ("x_(1)..y_(2)", "subscript range needs matching base names", 0),
    ("x_(1)..x_(1,2)", "subscript range needs tuples of equal length", 0),
    ("a,x..x_(1)", "subscript range needs tuples of equal length", 2),
    ("x_(2)..x_(1)", "empty subscript range", 0),
    ("x_(1,2)..x_(2,1)", "empty subscript range", 0),
    ("ab..c", "letter range needs single letters in order", 0),
    ("c..a", "letter range needs single letters in order", 0),
]

_XY12 = "ring R = [x,y,x_(1,2)]; ideal I = "   # an ideal body starts at offset 34
SCRIPT_ERRORS = [
    ("ring R = [x, $];", "unexpected character '$'", 13),
    ("ring R = [a..c,x_(1,1)..x_(1,a)];", "expected a natural number", 29),
    ("ring R = [x,y]; ideal I = x, y*$;", "unexpected character '$'", 31),
    ("ring R = [x,y];\nideal I = x_(1), y;", "unknown variable x_(1)", 26),
    ("ring R = [x,y]; ideal I = x*y, (x+y);", "expected a coefficient or a variable", 31),
    ("ring R = [x_(1,1)..x_(2,2)];\nideal I = x_(1,1), x_(1,1) x_(2,2)^2;", "unexpected 'x'", 56),
    (_XY12 + "x,;", "expected a coefficient or a variable", 36),
    (_XY12 + ", x;", "expected a coefficient or a variable", 34),
    (_XY12 + "x,,y;", "expected a coefficient or a variable", 36),
    (_XY12 + " , x;", "expected a coefficient or a variable", 35),
    (_XY12 + "x_(1, 2) y, x;", "unexpected 'y'", 43),
    (_XY12 + "x*(y, x);", "expected a variable", 36),
    (_XY12 + "x y, $;", "unexpected character '$'", 39),
    ("graph G = a-b, c;", "expected '-'", 16),
    ("graph G = a-$;", "unexpected character '$'", 12),
    ("graph G = a--b;", "expected a vertex name", 12),
    ("graph G = vertices;", "expected a variable name", 18),
    ("graph G = vertices a b c\na-b;", "expected '-'", 23),
    ("graph G = vertices a\na-b;", "edge uses undeclared vertex b", 10),
    ("graph G = ;", "empty graph", 10),
    ("ring R = [x]; graph G = \n , ;", "empty graph", 26),
    ("ring R = [x]; ideal I = x; ideal J = jets x I;", "malformed command", 37),
    ("graph G = a-b; graph H = complement;", "expected '-'", 35),
    ("ring R = [x]; ideal I = x; jets 1 I; jets I;", "malformed command", 37),
    ("ring R = [x]; ideal I = x; jets 1 I_(1);", "malformed command", 27),
    ("ring R = [x]; ideal I = x; foo I;", "unknown statement 'foo'", 27),
    ("ring R = x;", "malformed ring statement", 0),
    ("matrix M = generic(R);", "malformed matrix statement", 0),
    ("ring R = [x]", "missing ';' after statement", 0),
    ("ring R = [x1];", "variable base 'x1' ends in a digit", 10),
    ("ring R = [x_(1)..x_(2), y1];", "variable base 'y1' ends in a digit", 10),
    ("ring R = [x,y,x];", "duplicate variable x", 10),
    ("ring R = [x y];", "expected ']'", 12),
    ("ring R = [x,y;", "expected ']'", 13),
    ("ring R = [x] y;", "unexpected 'y'", 13),
    ("ring R = [x,y]; ideal I = x = y;", "unexpected '='", 28),
    ("ring R = [x]; ideal I = ;", "expected a coefficient or a variable", 24),
    ("foo$ I;", "unexpected character '$'", 3),
    ("ring[x];", "malformed ring statement", 0),
]


_RING = PolyRing(parse_variables("x,y,z,x_(1,1),x_(1,2)"))
PARSERS = {"poly": lambda text: parse_poly(text, _RING),
           "variables": parse_variables,
           "script": run_script}
ROWS = ([("poly",) + row for row in POLY_ERRORS]
        + [("variables",) + row for row in VARIABLE_ERRORS]
        + [("script",) + row for row in SCRIPT_ERRORS])


@pytest.mark.parametrize("grammar, text, message, pos", ROWS)
def test_parse_error_message_and_offset(grammar, text, message, pos):
    with pytest.raises(ParseError) as err:
        PARSERS[grammar](text)
    assert (err.value.message, err.value.pos) == (message, pos)
