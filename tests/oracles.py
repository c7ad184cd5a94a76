"""Independent brute-force oracles used to compute expected test values.

Everything here, except the term-collection reference for jets of
monomial ideals, deliberately avoids the library's sparse-monomial code
paths: polynomials are dense exponent-tuple dicts, covers come from a
full subset scan, determinants from Poly products over the permutation
sum and by cofactor expansion, chordality from
induced-cycle enumeration, and colorings from exhaustive assignment.
The regex readers of graph bodies and of script statements, which the
token cursor replaced, are kept as references for it, and so are the
cursor that built a (kind, text, offset) tuple per token and the
earlier table layer of the series expansion (one table per exponent,
relabelled per variable).  So are the earlier output paths of the mask
kernels: covers decoded bit by bit and sorted as member lists, and the
jets radical minimalized by the validating `MonomialIdeal` constructor.
A variable's name is split into its parts by one regex (`split_name`).
"""

import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

from jetschemes import (Graph, HyperGraph, Ideal, Monomial, MonomialIdeal, ParseError,
                        Poly, PolyRing, Variable, edge_ideal, generic_matrix,
                        graph_from_edge_ideal, jet_ring, jets_ideal, parse_graph_text,
                        parse_polys, parse_variables, term_key)
from jetschemes.cli import (_COMMANDS, _NAT_COMMANDS, Session, _run_command, _text_lines,
                            emit_json, to_record)
from jetschemes.monomial import _jet_supports
from jetschemes.poly import _Cursor


# --- dense-exponent polynomial arithmetic -----------------------------------

def dense_from_poly(f, nvars=None):
    n = nvars if nvars is not None else len(f.ring.variables)
    out = {}
    for m, c in f._terms.items():
        e = [0] * n
        for i, ex in m:
            e[i] = ex
        out[tuple(e)] = Fraction(c)
    return out


def dense_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def dense_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def dense_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def monomial_divides(a, b):
    """Whether monomial a divides b: no exponent of a exceeds b's."""
    exps = dict(b)
    return all(exps.get(i, 0) >= e for i, e in a)


def dense_term_key(ring, mono):
    """The ring's monomial order on a dense exponent vector, block by block.

    Blocks are compared from the last one; within a block by total degree,
    then by the negated exponents read from the block's last variable.
    """
    exps = [0] * len(ring.variables)
    for i, e in mono:
        exps[i] = e
    key = []
    for start, stop in reversed(list(_block_slices(ring))):
        block = exps[start:stop]
        key.append(sum(block))
        key.append(tuple(-e for e in reversed(block)))
    return tuple(key)


def dense_poly_str(f):
    """The canonical text of f: terms largest first by `dense_term_key`,
    factors in variable-list order, coefficients as str(abs(Fraction))
    with the sign in front, "1*" left out, and "0" for no terms."""
    names = [str(v) for v in f.ring.variables]
    out = []
    for m, c in sorted(f._terms.items(), key=lambda kv: dense_term_key(f.ring, kv[0]),
                       reverse=True):
        vector = [0] * len(names)
        for i, e in m:
            vector[i] = e
        mono = "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                        for i, e in enumerate(vector) if e)
        mag = str(abs(Fraction(c)))
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        sign = "-" if c < 0 else "+" if out else ""
        out.append(sign + body)
    return "".join(out) or "0"


def _block_slices(ring):
    start = 0
    for size in ring.blocks:
        yield start, start + size
        start += size


def series_by_full_expansion(f, jr):
    """Taylor coefficients of f without truncated arithmetic.

    Substitutes every base variable by its full jet sum in a dense ring
    with one extra slot for the series parameter, expands completely, and
    splits the result by the parameter's exponent.
    """
    njet = len(jr.variables)
    nbase = len(jr.base.variables)
    n = njet + 1
    subs = []
    for k in range(nbase):
        s = {}
        for j in range(jr.order + 1):
            e = [0] * n
            e[j * nbase + k] = 1   # the order-j jet of base variable k
            e[-1] = j
            s[tuple(e)] = Fraction(1)
        subs.append(s)
    total = {}
    for m, c in f._terms.items():
        term = {(0,) * n: Fraction(c)}
        for i, ex in m:
            term = dense_mul(term, dense_pow(subs[i], ex, n))
        total = dense_add(total, term)
    by_degree = {}
    for e, c in total.items():
        by_degree.setdefault(e[-1], {})[e[:-1]] = c
    return by_degree


def _power_table_by_exponent(e, s):
    """(y_0 + y_1 t + ... + y_s t^s)^e modulo t^(s+1), on orders: entry d
    lists (((order, mult), ...), count), built breadth first by copying
    every partial pattern through the orders s..1; order 0 takes the rest."""
    partial = [((), e, 0, 1)]   # (pattern, multiplicity left, t-degree, count)
    for o in range(s, 0, -1):
        grown = []
        for pattern, left, d, count in partial:
            grown.append((pattern, left, d, count))
            for m in range(1, min(left, (s - d) // o) + 1):
                grown.append((((o, m),) + pattern, left - m, d + m * o,
                              count * comb(left, m)))
        partial = grown
    table = [[] for _ in range(s + 1)]
    for pattern, left, d, count in partial:
        table[d].append((((0, left),) + pattern if left else pattern, count))
    return table


def series_by_relabelled_tables(f, jr):
    """Taylor coefficients of f by the earlier table layer: one power table
    per exponent on orders, relabelled into a copy per (variable, exponent)
    (order o of variable k to jet index o*n + k), convolved per term of f,
    and each output term scaled by its own Fraction multiply."""
    s = jr.order
    n = len(jr.base.variables)
    tables = {}
    factors = {}
    out = [{} for _ in range(s + 1)]
    for mono, coef in f._terms.items():
        partial = [[((), 1)]] + [[] for _ in range(s)]
        for i, e in mono:
            factor = factors.get((i, e))
            if factor is None:
                if e not in tables:
                    tables[e] = _power_table_by_exponent(e, s)
                factor = factors[i, e] = [
                    [(tuple((o * n + i, m) for o, m in pattern), count)
                     for pattern, count in row] for row in tables[e]]
            grown = [[] for _ in range(s + 1)]
            for d, row in enumerate(partial):
                for exps, count in row:
                    for d2 in range(s + 1 - d):
                        for exps2, count2 in factor[d2]:
                            grown[d + d2].append((exps + exps2, count * count2))
            partial = grown
        for terms, row in zip(out, partial):
            for exps, count in row:
                terms[tuple(sorted(exps))] = coef if count == 1 else coef * count
    return tuple(Poly._trusted(jr, terms) for terms in out)


def assert_normal_form(x):
    """x, a Poly or a MonomialIdeal, holds the invariants of its validating
    constructor: each monomial is a plain tuple that `Monomial` returns
    unchanged, so its indices ascend and its exponents are positive, each
    coefficient is a nonzero Fraction, and the constructor rebuilds x."""
    if isinstance(x, MonomialIdeal):
        monomials = x.generators
        rebuilt = MonomialIdeal(x.ring, [Monomial(m) for m in monomials])
        assert rebuilt.squarefree == x.squarefree
    else:
        monomials = x._terms
        assert all(type(coef) is Fraction and coef != 0 for coef in x._terms.values())
        rebuilt = Poly(x.ring, [(Monomial(m), coef) for m, coef in x._terms.items()])
        assert hash(rebuilt) == hash(x)
    for m in monomials:
        assert type(m) is tuple and Monomial(m) == m
        assert all(e > 0 for _, e in m)
        assert all(a[0] < b[0] for a, b in zip(m, m[1:]))
    assert rebuilt == x


# --- graph text --------------------------------------------------------------

_GRAPH_EDGE_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*)\s*-\s*([A-Za-z][A-Za-z0-9]*)\s*$")


def parse_graph_text_by_regex(text):
    """The line-and-comma splitter that read graph bodies before the token
    cursor did: an optional first line "vertices a,b,c" split on commas and
    whitespace, then one NAME-NAME edge per comma-separated item."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    names = []
    declared = False
    if lines and lines[0].split(None, 1)[0] == "vertices":
        declared = True
        names = [w for w in re.split(r"[\s,]+", lines[0][len("vertices"):]) if w]
        if not names:
            raise ValueError("empty vertex header")
        lines = lines[1:]
    items = [item for ln in lines for item in ln.split(",") if item.strip()]
    seen = set(names)
    edges = []
    for item in items:
        m = _GRAPH_EDGE_RE.match(item)
        if m is None:
            raise ValueError(f"bad edge {item.strip()!r}, expected NAME-NAME")
        for name in m.groups():
            if name not in seen:
                if declared:
                    raise ValueError(f"edge uses undeclared vertex {name}")
                seen.add(name)
                names.append(name)
        edges.append(m.groups())
    if not names:
        raise ValueError("empty graph")
    vertices = [Variable(name) for name in names]
    by_name = {str(v): v for v in vertices}
    return Graph(vertices, [(by_name[u], by_name[w]) for u, w in edges])


# --- tokens ------------------------------------------------------------------

_NAT = "(?:0|[1-9][0-9]*)"
_TUPLE_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*(?:_\({_NAT}(?:,{_NAT})*\))?)"
    r"|(?P<sym>\.\.|[-+*/^_(),=\[\]])|(?P<bad>\S))")


class TupleCursor(_Cursor):
    """The token cursor before tokens were strings: one `finditer` over the
    span, whose `bad` group stops the scan at the first character no token
    takes, and a (kind, text, offset) tuple per token, then ("end", "", end).
    It serves the library's grammar rules through `toks`, `i` and `error`,
    and an error's offset is read off its token's tuple."""

    __slots__ = ("tokens",)

    def __init__(self, text, start=0, end=None):
        end = len(text) if end is None else end
        self.tokens = tokens = []
        for m in _TUPLE_TOKEN_RE.finditer(text, start, end):   # a match skips the spaces before it
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            tokens.append((kind, m[kind], m.start(kind)))
        tokens.append(("end", "", end))
        self.toks = [text for _, text, _ in tokens]
        self.i = 0

    def error(self, message, i=None):
        return ParseError(message, self.tokens[self.i if i is None else i][2])


# --- script statements -------------------------------------------------------

_IDENT = r"[A-Za-z][A-Za-z0-9]*"
_RING_RE = re.compile(rf"ring\s+({_IDENT})\s*=\s*\[(.*)\]\s*$", re.S)
_BINDING_RE = re.compile(rf"(ideal|graph)\s+({_IDENT})\s*=\s*(.*)$", re.S)
_MATRIX_RE = re.compile(
    rf"matrix\s+({_IDENT})\s*=\s*generic\s*\(\s*({_IDENT})\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$",
    re.S)
# a command, its natural argument (for the _NAT_COMMANDS only) and a name
_CMD_RE = re.compile(rf"({_IDENT})\s+(?:(\d+)\s+)?({_IDENT})\s*$")
# a bound command's word, alone or before an argument ("jets * x" is a body)
_BOUND_COMMAND_RE = re.compile(rf"({_IDENT})(?:\s+[A-Za-z0-9]|\Z)")
_BINDABLE = {"ideal": ("jets", "jetsradical", "minors"), "graph": ("graphjets", "complement")}


def run_script_by_regex(text, json_mode=False):
    """The statement reader that ran scripts before the token cursor read
    whole statements: each stripped statement is matched by a regex, and
    its body is handed to the library's text parsers, whose error offsets
    are moved into the script.  Commands run as in the CLI."""
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


def _rebased(exc, offset):
    return ParseError(exc.message, exc.pos + offset)


def _eval_command(stmt, offset, session):
    m = _CMD_RE.fullmatch(stmt)
    if m is None or m[1] not in _COMMANDS or (m[2] is None) == (m[1] in _NAT_COMMANDS):
        raise ParseError("malformed command", offset)
    cmd, nat, name = m.groups()
    echo = " ".join(filter(None, m.groups()))   # verbatim, as in "jets 007 I"
    return echo, _run_command(cmd, None if nat is None else int(nat), name, session)


def _exec_statement(stmt, offset, session):
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
        m = _BOUND_COMMAND_RE.match(body)
        if m and m[1] in _BINDABLE[head]:
            echo, result = _eval_command(body, body_off, session)
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
            return f"graph {name} = {G}", None
        if session.current_ring is None:
            raise ValueError("no ring defined yet")
        try:
            gens = parse_polys(body, session.current_ring)
        except ParseError as e:
            raise _rebased(e, body_off) from None
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


# --- combinatorial oracles ---------------------------------------------------

def brute_minimal_covers(nvars, edges):
    """All minimal hitting sets by scanning every subset of the vertices."""
    edge_sets = [frozenset(e) for e in edges]
    kept = []
    for size in range(nvars + 1):
        for subset in combinations(range(nvars), size):
            s = frozenset(subset)
            if all(s & e for e in edge_sets) and not any(k <= s for k in kept):
                kept.append(s)
    return sorted(kept, key=lambda c: (len(c), sorted(c)))


def minimal_masks_all_pairs(masks):
    """The inclusion-minimal ones among some int bitmasks, duplicates dropped,
    in popcount order: each mask is compared with every mask kept before it."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def by_size_by_members(masks, items):
    """The members of each mask as a tuple of `items`, in (size, members)
    order: the set bits of each mask found one at a time, lowest first,
    the member lists sorted, then stably sorted by length."""
    def members(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    out = sorted(map(members, masks))
    out.sort(key=len)
    return [tuple(items[i] for i in c) for c in out]


def jets_radical_by_constructor(s, I):
    """Radical of the s-jets of a monomial ideal from the same closed-form
    supports as `jets_radical`, sorted in descending term order and
    minimalized by the validating `MonomialIdeal` constructor."""
    if isinstance(I, MonomialIdeal):
        monomials = I.generators
    else:
        monomials = [m for f in I.generators for m in f._terms]
    ring = jet_ring(I.ring, s)
    n = len(I.ring.variables)
    supports = {tuple((k, 1) for k in idx) for m in monomials
                for idx in _jet_supports(m, s, n)}
    return MonomialIdeal(ring, sorted(supports, key=lambda m: term_key(ring, m),
                                      reverse=True))


def goward_smith_jets_edges(G, s):
    """Edges of the order-s jets of a graph, by the closed form.

    Goward and Smith (Comm. Algebra, 2006): the radical of the s-jets of
    the edge ideal is generated by u_a*v_b for every edge uv and every
    a + b <= s, so the jets graph has exactly those edges.  Returned as a
    set of frozen name pairs, the order-a copy of u being named u<a>.
    """
    return {frozenset((f"{u}{a}", f"{v}{b}"))
            for u, v in G.edge_pairs()
            for a in range(s + 1) for b in range(s + 1 - a)}


def jets_radical_by_terms(s, I):
    """Radical of the s-jets of a monomial ideal, by term collection.

    Expands every generator with `jets_ideal`, keeps the squarefree
    support of every term of every coefficient, and minimalizes them in
    descending term order.  Coefficients play no part over a field, and
    passing to supports is radical-safe.
    """
    if isinstance(I, MonomialIdeal):
        I = I.to_ideal()
    ji = jets_ideal(s, I)
    ring = ji.ring
    supports = {Monomial((i, 1) for i, _ in m)
                for g in ji.generators for m in g._terms}
    return MonomialIdeal(ring, sorted(supports, key=lambda m: term_key(ring, m),
                                      reverse=True))


def jets_graph_by_terms(s, G):
    """The jets of a graph through its edge ideal and term collection."""
    return graph_from_edge_ideal(jets_radical_by_terms(s, edge_ideal(G)))


def jets_graph_by_orders(s, vertices, pairs):
    """The order-s jets of the graph on `vertices` whose edges are the index
    `pairs` (in any order, possibly repeated), by the Goward-Smith closed
    form: u_a-v_b for every pair uv and every a + b <= s, handed to the
    validating `Graph` constructor.  The order-a copy of vertex k sits at
    index a*n + k and is named by `split_name`, with no jet-ring code."""
    n = len(vertices)
    names = [Variable(base, subs, a) for a in range(s + 1)
             for base, subs, _ in map(split_name, vertices)]
    return Graph(names, [(a * n + u, b * n + v) for u, v in pairs
                         for a in range(s + 1) for b in range(s + 1 - a)])


def jets_hypergraph_by_terms(s, H):
    """The jets of a hypergraph through its edge ideal and term collection."""
    rad = jets_radical_by_terms(s, edge_ideal(H))
    return HyperGraph(rad.ring.variables, [[i for i, _ in m] for m in rad.generators])


def intersect_variable_primes(ring, primes):
    """Generator supports of the intersection of variable-generated primes.

    Least-common-multiple expansion, one prime at a time: the partial
    intersection's generators each absorb one variable of the next prime,
    with non-minimal supports pruned after every step.  Returns a set of
    frozen index sets.
    """
    supports = [frozenset()]
    for p in primes:
        indices = [ring.index(v) for v in p]
        step = {s | {i} for s in supports for i in indices}
        supports = [s for s in step if not any(o < s for o in step)]
    return set(supports)


def cofactor_det(ring, rows):
    """Determinant by cofactor expansion along the first row, in Poly arithmetic."""
    if len(rows) == 1:
        return rows[0][0]
    total = ring.zero()
    for j, top in enumerate(rows[0]):
        sub = [row[:j] + row[j + 1:] for row in rows[1:]]
        cofactor = top * cofactor_det(ring, sub)
        total = total + cofactor if j % 2 == 0 else total - cofactor
    return total


def leibniz_det(ring, entries):
    n = len(entries)
    total = ring.zero()
    for perm in permutations(range(n)):
        term = ring.one()
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (term if perm_sign(perm) > 0 else -term)
    return total


def perm_sign(perm):
    inversions = sum(1 for i in range(len(perm))
                     for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def chordal_by_induced_cycles(n, edges):
    """Chordal iff no vertex subset induces a cycle of length 4 or more."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    for size in range(4, n + 1):
        for subset in combinations(range(n), size):
            if _induces_cycle(subset, adj):
                return False
    return True


def _induces_cycle(subset, adj):
    inside = set(subset)
    if any(len(adj[v] & inside) != 2 for v in subset):
        return False
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v] & inside:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == len(inside)


def brute_chromatic(n, edges):
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for coloring in product(range(k), repeat=n):
            if all(coloring[i] != coloring[j] for i, j in edges):
                return k
    raise AssertionError("unreachable")


# --- parsing ------------------------------------------------------------------

# a base starts with a letter and ends in one; the digits after it are the jet order
_NAME_RE = re.compile(r"([A-Za-z](?:[A-Za-z0-9]*[A-Za-z])?)([0-9]*)(?:_\(([0-9]+(?:,[0-9]+)*)\))?")


def split_name(name):
    """The (base, subscripts, jet order or None) of a variable's name, read
    by one regex: "x3_(1,2)" gives ("x", (1, 2), 3) and "ab" ("ab", (), None).
    So `Variable(*split_name(v)) == v` for every well-formed name v."""
    m = _NAME_RE.fullmatch(name)
    assert m, name
    base, order, subs = m.groups()
    return (base, tuple(int(t) for t in subs.split(",")) if subs else (),
            int(order) if order else None)


def poly_from_terms(ring, terms):
    """The polynomial of `terms`, built only by the validating constructors.

    Each term is (factors, coefficient) with factors a list of (variable
    index, exponent) pairs, repeats and zero exponents allowed: Monomial
    merges and drops them, and Poly sums repeated monomials, normalizes
    the coefficients and drops zero sums.
    """
    return Poly(ring, [(Monomial(factors), Fraction(c)) for factors, c in terms])


# --- random instance generators ----------------------------------------------

def random_poly(rng, ring, max_degree=4, max_terms=5):
    nvars = len(ring.variables)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            i = rng.randrange(nvars)
            exps[i] = exps.get(i, 0) + 1
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m = Monomial(exps)
        terms[m] = terms.get(m, Fraction(0)) + coef
    return Poly(ring, terms)


def random_graph(rng, n, p=0.45):
    vertices = [Variable(ch) for ch in "abcdefghij"[:n]]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(vertices, edges)


def random_monomial_ideal(rng, ring, max_exp=4, max_gens=3):
    """An Ideal of single terms with random nonzero coefficients.

    A generator may repeat an earlier one, or be a constant (the unit
    ideal).
    """
    n = len(ring.variables)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        if gens and rng.random() < 0.2:
            mono = next(iter(rng.choice(gens)._terms))
        else:
            size = 0 if rng.random() < 0.1 else rng.randint(1, n)
            support = rng.sample(range(n), size)
            mono = Monomial((i, rng.randint(1, max_exp)) for i in support)
        coef = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
        gens.append(Poly(ring, {mono: coef}))
    return Ideal(ring, gens)


def random_squarefree_ideal(rng, ring, max_gens=4):
    n = len(ring.variables)
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        support = rng.sample(range(n), rng.randint(1, n))
        gens.append(Monomial((i, 1) for i in support))
    return MonomialIdeal(ring, gens)
