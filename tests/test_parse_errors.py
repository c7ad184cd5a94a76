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

The cursor's tokens are strings, and an error's offset is recovered from
its token index; seeded one-character edits of these rows and of generated
scripts check both, and the first error, against the tuple cursor of
`oracles`, which read each token's offset off its own match.
"""

import random

import pytest

from jetschemes import ParseError, PolyRing, cli, graphs, parse_poly, parse_variables, poly
from jetschemes.cli import run_script
from oracles import TupleCursor, random_poly

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
    ("x...y", "unexpected character '.'", 3),
    ("x....y", "unexpected '..'", 1),
    ("x²", "unexpected character '²'", 1),
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
    ("x_(1)..x_(99999999999)",
     "range brings the list to 99999999999 names, more than 1000000", 0),
    ("a,x_(1,1)..x_(99999,99999)",
     "range brings the list to 9999800002 names, more than 1000000", 2),
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
    ("graph G = vertices a,b,a; a-b;", "duplicate vertex a", 10),
    ("graph G = vertices a,x_(0,0)..x_(99999,99999)\na-x_(0,0);",
     "range brings the list to 10000000001 names, more than 1000000", 21),
    ("ring R = [x y];", "expected ']'", 12),
    ("ring R = [x,y;", "expected ']'", 13),
    ("ring R = [x] y;", "unexpected 'y'", 13),
    ("ring R = [x,y]; ideal I = x = y;", "unexpected '='", 28),
    ("ring R = [x]; ideal I = ;", "expected a coefficient or a variable", 24),
    ("foo$ I;", "unexpected character '$'", 3),
    ("ring[x];", "malformed ring statement", 0),
    # a bad character is the last dot of an odd run, so "..." is ".." and a bad "."
    ("ring R = [a...c];", "unexpected character '.'", 13),
    ("ring R = [a....c];", "expected a variable name", 13),
    ("ring R = [x];.x;", "unexpected character '.'", 13),
    ("ring R = [x]; ideal I = x²;", "unexpected character '²'", 25),
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


def test_ranges_are_bounded_by_the_names_before_them(monkeypatch):
    # a box may not take the body's running total of names past the bound,
    # which is checked before any of its names is built
    monkeypatch.setattr(poly, "SIZE_BOUND", 10)
    message = "range brings the list to 11 names, more than 10"
    assert len(parse_variables("a,x_(1)..x_(3),y_(1,1)..y_(2,3)")) == 10
    with pytest.raises(ParseError) as err:
        parse_variables("a,b,x_(1)..x_(3),y_(1,1)..y_(2,3)")
    assert (err.value.message, err.value.pos) == (message, 17)
    with pytest.raises(ParseError) as err:
        run_script("graph G = vertices x_(1)..x_(5), y_(1)..y_(6)\n;")
    assert (err.value.message, err.value.pos) == (message, 33)


def test_unicode_digits_read_as_ints():
    # \d and the cursor's kind test agree on a digit outside ASCII, as `int` does
    assert parse_poly("x^٣", _RING) == parse_poly("x^3", _RING)
    assert run_script("ring R = [x]; ideal I = ٣*x;") == "[1] ring R = QQ[x]\n[2] ideal I = ideal(3*x)"


# --- one-character edits against the tuple cursor ---------------------------

EDIT_ALPHABET = (".", "..", "$", ";", "\n", "é", "٣", "²", " ", ",", "-", "+", "*", "^",
                 "_", "(", ")", "[", "]", "=", "/", "0", "1", "x", "y", "a")


def _edit(rng, text):
    """`text` with one character replaced, inserted or deleted, at a seeded place."""
    at = rng.randrange(len(text) + 1)
    op = rng.choice(("replace", "insert", "delete")) if at < len(text) else "insert"
    if op == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(EDIT_ALPHABET) + text[at + (op == "replace"):]


def _generated_script(rng):
    """A seeded script: a ring, an ideal of random polynomials, then some of
    the other statement kinds in a random order."""
    ring_text = rng.choice(("x,y,z", "a..d", "x_(1,1)..x_(2,2)", "x, y_(1)..y_(3)"))
    ring = PolyRing(parse_variables(ring_text))
    polys = ", ".join(str(random_poly(rng, ring, 3, 3)) for _ in range(rng.randint(1, 3)))
    rest = ["ideal J = jets 2 I", "jetsradical 1 I", "graph G = vertices a..c\na-b, b-c",
            "graph H = graphjets 1 G", "matrix M = generic(R,2,2)", "minors 1 M", "covers G"]
    rest = rng.sample(rest, rng.randint(1, len(rest)))
    return ";\n".join([f"ring R = [{ring_text}]", f"ideal I = {polys}"] + rest) + ";"


def _spans(grammar, text):
    """The spans the grammar reads one cursor over: the statements of a script."""
    if grammar != "script":
        return [(0, len(text))]
    try:
        return cli._split_statements(text)
    except ParseError:
        return []


def _read_statements(text):
    """Each statement of a script read and defined, with no command run."""
    session = cli.Session()
    for start, end in cli._split_statements(text):
        cli._exec_statement(text, start, end, session)


def _outcome(cursor, make):
    try:
        return make(cursor)
    except ParseError as e:
        return e.message, e.pos


def _assert_same_tokens(text, start, end):
    """The span's tokens are the oracle's texts, of the kind their first
    character says, and each token's offset is the one the oracle kept."""
    want = _outcome(TupleCursor, lambda cursor: cursor(text, start, end))
    got = _outcome(poly._Cursor, lambda cursor: cursor(text, start, end))
    if isinstance(want, tuple):   # a bad character
        assert got == want, text
        return
    assert got.toks == want.toks, text
    for kind, tok, pos in want.tokens:
        lead = tok[:1]
        assert kind == ("int" if lead.isdecimal() else "ident" if lead.isalpha()
                        else "sym" if tok else "end")
    assert [got.error("", i).pos for i in range(len(got.toks))] == [
        pos for _, _, pos in want.tokens], text


def _first_error(monkeypatch, cursor, read, text):
    for module in (poly, graphs, cli):
        monkeypatch.setattr(module, "_Cursor", cursor)
    try:
        read(text)
    except ParseError as e:
        return e.message, e.pos
    except ValueError as e:
        return str(e)
    return None


READERS = {"poly": lambda text: parse_poly(text, _RING),
           "variables": parse_variables,
           "script": _read_statements}


def test_one_character_edits_read_as_by_the_tuple_cursor(monkeypatch):
    monkeypatch.setattr(cli, "_run_command", lambda cmd, nat, name, session: None)
    rng = random.Random(20261020)
    texts = [(grammar, text) for grammar, text, _, _ in ROWS]
    texts += [("script", _generated_script(rng)) for _ in range(40)]
    for _ in range(4000):
        grammar, text = rng.choice(texts)
        text = _edit(rng, text)
        for start, end in _spans(grammar, text):
            _assert_same_tokens(text, start, end)
        read = READERS[grammar]
        with monkeypatch.context() as patched:
            want = _first_error(patched, TupleCursor, read, text)
        assert _first_error(monkeypatch, poly._Cursor, read, text) == want, text
