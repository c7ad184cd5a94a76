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
record of each result (`to_record`).  Ideal statements parse their
polynomials in the most recently defined ring.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from .poly import _IDENT, Ideal, ParseError, PolyRing, monomial_str, parse_poly, parse_variables
from .jets import JetIdeal, jets_ideal
from .monomial import MonomialIdeal, jets_radical, minimal_primes_squarefree
from .graphs import Graph, chromatic_number, complement_graph, is_chordal, \
    jets_graph, minimal_vertex_covers, parse_graph_text
from .matrices import GenericMatrix, generic_matrix, minors

_RING_RE = re.compile(rf"ring\s+({_IDENT})\s*=\s*\[(.*)\]\s*$", re.S)
_BINDING_RE = re.compile(rf"(ideal|graph)\s+({_IDENT})\s*=\s*(.*)$", re.S)
_MATRIX_RE = re.compile(
    rf"matrix\s+({_IDENT})\s*=\s*generic\s*\(\s*({_IDENT})\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$",
    re.S)
_CMD_NAT_RE = re.compile(rf"(jets|jetsradical|graphjets|minors)\s+(\d+)\s+({_IDENT})\s*$")
_CMD_RE = re.compile(rf"(minimalprimes|chromatic|covers|complement|chordal)\s+({_IDENT})\s*$")

_COMMANDS = ("jets", "jetsradical", "graphjets", "minors",
             "minimalprimes", "chromatic", "covers", "complement", "chordal")
# the commands whose result an ideal or a graph statement may bind
_BINDABLE = {"ideal": ("jets", "jetsradical", "minors"), "graph": ("graphjets", "complement")}
_IDEALS = (Ideal, MonomialIdeal)


@dataclass
class _Groups:
    """Minimal primes or minimal vertex covers, as groups of variables."""

    kind: str  # "primes" or "covers"
    items: list


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
    statements = []
    start = 0
    while True:
        end = text.find(";", start)
        if end == -1:
            tail = text[start:]
            if tail.strip():
                pos = start + (len(tail) - len(tail.lstrip()))
                raise ParseError("missing ';' after statement", pos)
            return statements
        chunk = text[start:end]
        if chunk.strip():
            offset = start + (len(chunk) - len(chunk.lstrip()))
            statements.append((chunk.strip(), offset))
        start = end + 1


def _split_top_commas(text):
    """Split on commas outside parentheses; yields (chunk, relative offset)."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    parts.append((text[start:], start))
    return parts


def _rebased(exc, offset):
    return ParseError(exc.message, exc.pos + offset)


def _as_monomial_ideal(value, name):
    if isinstance(value, MonomialIdeal):
        return value
    gens = []
    for f in value.generators:
        if not f.is_term():
            raise ValueError(f"{name} is not a monomial ideal")
        gens.append(f.monomials()[0])
    return MonomialIdeal(value.ring, gens)


def _eval_command(stmt, offset, session):
    """Run a command statement; returns (canonical echo, result object)."""
    m = _CMD_NAT_RE.fullmatch(stmt)
    if m is not None:
        cmd, nat, name = m.group(1), int(m.group(2)), m.group(3)
        echo = f"{cmd} {m.group(2)} {name}"
        if cmd == "jets":
            value = session.lookup(name, _IDEALS, "an ideal")
            if isinstance(value, MonomialIdeal):
                value = value.to_ideal()
            return echo, jets_ideal(nat, value).ideal
        if cmd == "jetsradical":
            return echo, jets_radical(nat, session.lookup(name, _IDEALS, "an ideal"))
        if cmd == "graphjets":
            return echo, jets_graph(nat, session.lookup(name, Graph, "a graph"))
        if cmd == "minors":
            matrix = session.lookup(name, GenericMatrix, "a matrix")
            return echo, minors(nat, matrix)
    m = _CMD_RE.fullmatch(stmt)
    if m is not None:
        cmd, name = m.group(1), m.group(2)
        echo = f"{cmd} {name}"
        if cmd == "minimalprimes":
            value = session.lookup(name, _IDEALS, "an ideal")
            primes = minimal_primes_squarefree(_as_monomial_ideal(value, name))
            return echo, _Groups("primes", primes)
        G = session.lookup(name, Graph, "a graph")
        if cmd == "chromatic":
            return echo, chromatic_number(G)
        if cmd == "covers":
            return echo, _Groups("covers", minimal_vertex_covers(G))
        if cmd == "complement":
            return echo, complement_graph(G)
        return echo, is_chordal(G)
    raise ParseError("malformed command", offset)


def to_record(result):
    """The JSON object of a command's result; its text lines derive from it."""
    if isinstance(result, (Ideal, JetIdeal, MonomialIdeal)):
        ring = result.ring.ring if isinstance(result, JetIdeal) else result.ring
        if isinstance(result, MonomialIdeal):
            generators = [monomial_str(ring, m) for m in result.generators]
        else:
            generators = [str(g) for g in result.generators]
        return {"kind": "ideal", "ring": [v.name for v in ring.variables],
                "generators": generators}
    if isinstance(result, Graph):
        return {"kind": "graph", "vertices": [v.name for v in result.vertices],
                "edges": [[u.name, v.name] for u, v in result.edge_pairs()]}
    if isinstance(result, _Groups):
        return {"kind": result.kind,
                result.kind: [[v.name for v in group] for group in result.items]}
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


def _graph_echo(name, G):
    record = to_record(G)
    vs = ",".join(record["vertices"])
    es = ",".join(_text_lines(record))
    return f"graph {name} = vertices {vs}; edges {es}".rstrip()


def _exec_statement(stmt, offset, session):
    """Execute one statement; returns (echo, result or None).

    A matrix statement's echo ends with the matrix rows, so text mode shows
    them and JSON mode, which prints results only, does not.
    """
    head = stmt.split(None, 1)[0]
    if head == "ring":
        m = _RING_RE.fullmatch(stmt)
        if m is None:
            raise ParseError("malformed ring statement", offset)
        name, body = m.group(1), m.group(2)
        try:
            variables = parse_variables(body)
        except ParseError as e:
            raise _rebased(e, offset + m.start(2)) from None
        ring = PolyRing(variables)
        session.define(name, ring)
        session.current_ring = ring
        return f"ring {name} = {ring}", None
    if head in _BINDABLE:
        m = _BINDING_RE.fullmatch(stmt)
        if m is None:
            raise ParseError(f"malformed {head} statement", offset)
        name, body = m.group(2), m.group(3)
        body_off = offset + m.start(3)
        if (body.split(None, 1) or [""])[0] in _BINDABLE[head]:
            echo, result = _eval_command(body.strip(), body_off, session)
            session.define(name, result)
            return f"{head} {name} = {echo}", None
        if head == "graph":
            try:
                G = parse_graph_text(body)
            except ParseError as e:
                raise _rebased(e, body_off) from None
            except ValueError as e:
                raise ParseError(str(e), body_off) from None
            session.define(name, G)
            return _graph_echo(name, G), None
        if session.current_ring is None:
            raise ValueError("no ring defined yet")
        gens = []
        for chunk, rel in _split_top_commas(body):
            try:
                gens.append(parse_poly(chunk, session.current_ring))
            except ParseError as e:
                raise _rebased(e, body_off + rel) from None
        ideal = Ideal(session.current_ring, gens)
        session.define(name, ideal)
        return f"ideal {name} = {ideal}", None
    if head == "matrix":
        m = _MATRIX_RE.fullmatch(stmt)
        if m is None:
            raise ParseError("malformed matrix statement", offset)
        name, ring_name = m.group(1), m.group(2)
        rows, cols = int(m.group(3)), int(m.group(4))
        ring = session.lookup(ring_name, PolyRing, "a ring")
        matrix = generic_matrix(ring, rows, cols)
        session.define(name, matrix)
        return f"matrix {name} = generic({ring_name},{rows},{cols})\n{matrix}", None
    if head in _COMMANDS:
        return _eval_command(stmt, offset, session)
    raise ParseError(f"unknown statement {head!r}", offset)


def run_script(text, json_mode=False):
    """Execute a script and return its transcript (or JSON lines) as a string."""
    session = Session()
    out = []
    for index, (stmt, offset) in enumerate(_split_statements(text), start=1):
        echo, result = _exec_statement(stmt, offset, session)
        if json_mode:
            if result is not None:
                out.append(emit_json(result))
        else:
            out.append(f"[{index}] {echo}")
            if result is not None:
                out.extend(_text_lines(to_record(result)))
    return "\n".join(out)


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def main(argv=None):
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
    try:
        output = run_script(text, json_mode=args.json)
    except ParseError as e:
        line, col = _line_col(text, e.pos)
        print(f"parse error: line {line}, column {col}: {e.message}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        if output:
            print(output)
        sys.stdout.flush()   # a closed pipe must fail here, not at exit
    except BrokenPipeError:
        # the reader is gone (`jetschemes | head -1`); point stdout at devnull
        # so the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
