"""Batch command-line front end.

Scripts are semicolon-terminated statements that define rings, ideals,
graphs, and generic matrices, then run jet computations on them:

    ring R = [x,y,z];
    ideal I = x*y*z;
    jets 2 I;

Definition statements may also bind the result of a command, so chains
like "take the radical of the jets, then its minimal primes" stay batch:

    ideal RAD = jetsradical 2 I;
    minimalprimes RAD;

Output is a deterministic transcript, one block per statement, or one
JSON object per command with --json; both are printed from the same
record of each result (`to_record`).  Each block is written once its
statement has run, so a failing statement keeps the output before it.
With --json a definition is neither echoed nor formatted, so a value
too large to print fails only a command that prints it.  Ideal
statements parse their polynomials in the most recently defined ring.
"""

import json
import os
import sys

from .poly import Ideal, ParseError, PolyRing, _Cursor, _polys, _variables, monomial_str
from .jets import jets_ideal
from .monomial import MonomialIdeal, is_monomial_ideal, jets_radical, minimal_primes_squarefree
from .graphs import Graph, _graph, chromatic_number, complement_graph, is_chordal, \
    jets_graph, minimal_vertex_covers
from .matrices import GenericMatrix, generic_matrix, minors

_NAT_COMMANDS = ("jets", "jetsradical", "graphjets", "minors")
_COMMANDS = _NAT_COMMANDS + ("minimalprimes", "chromatic", "covers", "complement", "chordal")
# the heads of binding statements, each with the commands whose result it may bind
_BINDABLE = {"ring": (), "ideal": ("jets", "jetsradical", "minors"),
             "graph": ("graphjets", "complement")}
_IDEALS = (Ideal, MonomialIdeal)


class Session:
    """Named bindings built up by a script; names bind exactly once."""

    def __init__(self):
        self.bindings = {}
        self.current_ring = None

    def define(self, name, value):
        if name in self.bindings:
            raise ValueError(f"name {name} already defined")
        self.bindings[name] = value

    def lookup(self, name, kinds, what):
        if name not in self.bindings:
            raise ValueError(f"unknown name {name}")
        value = self.bindings[name]
        if not isinstance(value, kinds):
            raise ValueError(f"{name} is not {what}")
        return value


def _split_statements(text):
    """The (start, end) spans of the nonblank statements, each up to its ';'."""
    spans, start = [], 0
    while (end := text.find(";", start)) != -1:
        if text[start:end].strip():
            spans.append((start, end))
        start = end + 1
    if text[start:].strip():
        raise ParseError("missing ';' after statement", len(text) - len(text[start:].lstrip()))
    return spans


def _read(cur, what, at, *shape):
    """The texts of the next tokens, which must have `shape`, else "malformed
    `what`" is raised at token `at`: an entry "ident" (a name, with no
    subscript) or "int" asks for a token of that kind, "" for the end, and
    any other for that text."""
    texts = cur.toks[cur.i:cur.i + len(shape)]   # short only if it holds the ""
    cur.i += len(shape)
    for want, tok in zip(shape, texts):
        kind = "int" if tok[:1].isdecimal() else "ident" if tok[:1].isalpha() else tok
        if (kind if want in ("ident", "int") else tok) != want or "_(" in tok:
            raise cur.error(f"malformed {what}", at)
    return texts


def _command(cur, session):
    """Read and run the `command` ending a statement: (echo, verbatim as "jets 007 I", result)."""
    at = cur.i
    shape = ("ident", "int", "ident") if cur.toks[at] in _NAT_COMMANDS else ("ident", "ident")
    texts = _read(cur, "command", at, *shape, "")
    nat = cur.int_at(at + 1) if len(texts) == 4 else None
    return " ".join(texts[:-1]), _run_command(texts[0], nat, texts[-2], session)


def _run_command(cmd, nat, name, session):
    """The result of command `cmd`, with its natural argument `nat`, on `name`;
    minimal primes and covers are the pair ("primes" or "covers", groups of
    variables)."""
    if cmd == "minors":
        return minors(nat, session.lookup(name, GenericMatrix, "a matrix"))
    if cmd in ("jets", "jetsradical", "minimalprimes"):
        I = session.lookup(name, _IDEALS, "an ideal")
        if cmd == "jets":
            return jets_ideal(nat, I.to_ideal() if isinstance(I, MonomialIdeal) else I)
        if not (isinstance(I, MonomialIdeal) or is_monomial_ideal(I)):
            raise ValueError(f"{name} is not a monomial ideal")
        if cmd == "jetsradical":
            return jets_radical(nat, I)
        if not isinstance(I, MonomialIdeal):
            I = MonomialIdeal(I.ring, [m for f in I.generators for m in f._terms])
        return "primes", minimal_primes_squarefree(I)
    G = session.lookup(name, Graph, "a graph")
    if cmd == "graphjets":
        return jets_graph(nat, G)
    if cmd == "chromatic":
        return chromatic_number(G)
    if cmd == "covers":
        return "covers", minimal_vertex_covers(G)
    if cmd == "complement":
        return complement_graph(G)
    return is_chordal(G)


def to_record(result):
    """The JSON object of a command's result; its text lines derive from it."""
    if isinstance(result, _IDEALS):
        if isinstance(result, MonomialIdeal):
            generators = [monomial_str(result.ring, m) for m in result.generators]
        else:
            generators = [str(g) for g in result.generators]
        return {"kind": "ideal", "ring": list(result.ring.variables),
                "generators": generators}
    if isinstance(result, Graph):
        return {"kind": "graph", "vertices": list(result.vertices),
                "edges": [list(pair) for pair in result.edge_pairs()]}
    if isinstance(result, tuple):   # ("primes" or "covers", groups)
        kind, groups = result
        return {"kind": kind, kind: [list(group) for group in groups]}
    return {"kind": "bool" if isinstance(result, bool) else "number", "value": result}


def _text_lines(record):
    kind = record["kind"]
    if kind == "ideal":
        return record["generators"]
    if kind == "graph":
        return ["-".join(edge) for edge in record["edges"]]
    if kind in ("primes", "covers"):
        return ["(" + ",".join(group) + ")" for group in record[kind]]
    return [json.dumps(record["value"])]


def emit_json(result):
    return json.dumps(to_record(result), sort_keys=True, separators=(",", ":"))


def _exec_statement(text, start, end, session):
    """Read and execute the statement in `text[start:end]`; returns (echo,
    result or None).  A statement of the wrong shape is reported at its start.

    A command's echo is its words.  A definition's echo is left unformatted,
    the pair of its prefix ("ideal I = ") and the defined value, so that only
    text mode, which prints it, pays for `str` of the value; a matrix's prefix
    ends in a newline, so its rows print below it in text mode.
    """
    cur = _Cursor(text, start, end)
    toks = cur.toks
    head = toks[0]
    if head in _BINDABLE:
        shape = (head, "ident", "=", "[") if head == "ring" else (head, "ident", "=")
        name = _read(cur, f"{head} statement", 0, *shape)[1]
        # a bound command's word is followed by an int or an ident
        if toks[cur.i] in _BINDABLE[head] and toks[cur.i + 1][:1].isalnum():
            echo, result = _command(cur, session)
            session.define(name, result)
            return f"{head} {name} = {echo}", None
        if head == "ideal":
            if session.current_ring is None:
                raise ValueError("no ring defined yet")
            value = Ideal(session.current_ring, _polys(cur, session.current_ring))
        else:
            body = cur.i
            try:   # a bad or repeated name is reported at the body's first token
                value = PolyRing(_variables(cur)) if head == "ring" else _graph(cur)
            except ParseError:
                raise
            except ValueError as e:
                raise cur.error(str(e), body) from None
            if head == "ring":
                cur.expect("]")
        cur.expect_end()
        session.define(name, value)
        if head == "ring":
            session.current_ring = value
        return (f"{head} {name} = ", value), None
    if head == "matrix":
        texts = _read(cur, "matrix statement", 0, "matrix", "ident", "=", "generic", "(",
                      "ident", ",", "int", ",", "int", ")", "")
        name, ring_name, rows, cols = texts[1], texts[5], cur.int_at(7), cur.int_at(9)
        ring = session.lookup(ring_name, PolyRing, "a ring")
        matrix = generic_matrix(ring, rows, cols)
        session.define(name, matrix)
        return (f"matrix {name} = generic({ring_name},{rows},{cols})\n", matrix), None
    if head in _COMMANDS:
        return _command(cur, session)
    raise cur.error(f"unknown statement {head!r}", 0)


def _blocks(text, json_mode):
    """Run a script, yielding each statement's output as soon as it has run:
    its text block, or with `json_mode` its command's JSON line."""
    session = Session()
    for index, (start, end) in enumerate(_split_statements(text), start=1):
        echo, result = _exec_statement(text, start, end, session)
        if json_mode:
            if result is not None:
                yield emit_json(result)
        elif result is not None:
            yield "\n".join([f"[{index}] {echo}", *_text_lines(to_record(result))])
        elif type(echo) is str:
            yield f"[{index}] {echo}"
        else:   # a definition: its prefix and value, formatted only here
            yield f"[{index}] {echo[0]}{echo[1]}"


def run_script(text, json_mode=False):
    """Execute a script and return its transcript (or JSON lines) as a string."""
    return "\n".join(_blocks(text, json_mode))


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def main(argv=None):
    import argparse   # here, so that run_script and the library never load it
    parser = argparse.ArgumentParser(
        prog="jetschemes",
        description="Run a jet-computation script and print its transcript.")
    parser.add_argument("--script", metavar="FILE",
                        help="read the script from FILE (default: stdin)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object per command instead of text")
    args = parser.parse_args(argv)
    try:
        if args.script:
            with open(args.script, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: {args.script or '<stdin>'}: {e}", file=sys.stderr)
        return 1
    code, error = 0, None
    try:
        try:
            for block in _blocks(text, args.json):
                print(block)
        except ParseError as e:
            line, col = _line_col(text, e.pos)
            code, error = 2, f"parse error: line {line}, column {col}: {e.message}"
        except ValueError as e:
            code, error = 1, f"error: {e}"
        sys.stdout.flush()   # before the error; a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # the reader is gone (`jetschemes | head -1`); point stdout at devnull
        # so the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
