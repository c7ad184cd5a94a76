"""Independent checks of script outputs, and the exact work-size block.

Nothing here imports jetschemes.  Outputs are parsed from the transcript
text (or the JSON lines) and compared with values the benchmark computes
itself:

- `jets`: each printed coefficient polynomial, evaluated at a seeded
  rational point, must equal the matching t-coefficient of
  f(sum_j x_{k,j} t^j) mod t^(s+1), computed by numeric series arithmetic.
- `jetsradical`: the minimal squarefree supports of the jet terms,
  enumerated combinatorially (the Goward-Smith construction, which also
  covers exponents above one).
- `minimalprimes` and `covers`: minimal transversals of those supports, or
  of the closed-form jets graph, computed on bitmasks.
- `graphjets` and `complement`: the closed form {u_a, v_b : a+b <= s}.
- `chordal`: a chordality test of the closed form; `chromatic`: the
  chromatic number of G itself, which the jets graph shares.
- `minors` and the echoed generators of `ideal` definitions: evaluated at a
  seeded rational point.  The echoes of `ring` and `graph` definitions must
  list the variables, vertices and edges they were given.
- malformed scripts: ParseError at the planted offset.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

from workloads import var_name

WORK_KEYS = ("scripts", "statements", "parse_errors", "jet_generators", "jet_terms",
             "supports_in", "supports_out", "covers", "jet_edges", "transcript_bytes")


def digest(outcome):
    """Short digest of one script's outcome (its output, or the error it raised)."""
    return hashlib.sha256(outcome_text(outcome).encode()).hexdigest()[:12]


def outcome_text(outcome):
    if outcome["error"] is None:
        return outcome["output"]
    return f"raise {outcome['error']} at {outcome['pos']}"


# --- splitting an output into per-statement results ------------------------

_HEADER = re.compile(r"\[(\d+)\] ")


def split_results(script, output):
    """Per statement that prints, its result as a list of text lines; and in
    text mode, per statement, its echo (the rest of its "[n] " line).

    JSON results are converted to the text renderer's lines, so one set of
    checks serves both modes.  Returns (None, None) if the shape is wrong."""
    printing = [i for i, st in enumerate(script.statements) if st.prints]
    lines = output.split("\n") if output else []
    results = {}
    if script.json:
        if len(lines) != len(printing):
            return None, None
        for i, line in zip(printing, lines):
            results[i] = _json_lines(json.loads(line))
        return results, {}
    blocks = []
    for line in lines:
        m = _HEADER.match(line)
        if m and int(m.group(1)) == len(blocks) + 1:
            blocks.append([line[m.end():]])
        elif blocks:
            blocks[-1].append(line)
        else:
            return None, None
    if len(blocks) != len(script.statements):
        return None, None
    return {i: blocks[i][1:] for i in printing}, {i: b[0] for i, b in enumerate(blocks)}


def _json_lines(obj):
    kind = obj["kind"]
    if kind == "ideal":
        return list(obj["generators"])
    if kind == "graph":
        return [f"{u}-{v}" for u, v in obj["edges"]]
    if kind in ("primes", "covers"):
        return ["(" + ",".join(group) + ")" for group in obj[kind]]
    if kind == "bool":
        return ["true" if obj["value"] else "false"]
    return [str(obj["value"])]


# --- series: evaluation at a random rational point -------------------------

def _series_mul(a, b, s):
    out = [0] * (s + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(s + 1 - i):
                out[i + j] += ai * b[j]
    return out


def series_values(poly, values, s):
    """t-coefficients of poly(sum_j values[k][j] t^j) modulo t^(s+1)."""
    powers = {}
    total = [Fraction(0)] * (s + 1)
    for exps, c in poly.items():
        term = [c] + [0] * s
        for k, e in enumerate(exps):
            if e:
                if (k, e) not in powers:
                    p = [1] + [0] * s
                    for _ in range(e):
                        p = _series_mul(p, values[k], s)
                    powers[k, e] = p
                term = _series_mul(term, powers[k, e], s)
        total = [x + y for x, y in zip(total, term)]
    return total


_TERM = re.compile(r"([+-]?)([^+-]+)")
_RATIONAL = re.compile(r"\d+(?:/\d+)?")


def eval_poly(text, env):
    """Value of a printed polynomial such as "-7/2*x0^2*y1_(1,2)+1" at env."""
    if text == "0":
        return Fraction(0)
    total = Fraction(0)
    for sign, body in _TERM.findall(text):
        value = Fraction(1)
        for factor in body.split("*"):
            if _RATIONAL.fullmatch(factor):
                value *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            value *= env[name] ** (int(power) if power else 1)
        total += -value if sign == "-" else value
    return total


def check_polys(texts, ring, gens, rng):
    """Printed polynomials, in order, against gens at a seeded rational point.

    No coordinate is 0 or +-1, so a wrong exponent changes the value."""
    point = [Fraction(rng.choice((-1, 1)) * rng.randint(2, 40), rng.randint(41, 80))
             for _ in ring]
    env = {var_name(v): x for v, x in zip(ring, point)}
    want = [series_values(f, [[x] for x in point], 0)[0] for f in gens]
    try:
        return [eval_poly(text, env) for text in texts] == want
    except (KeyError, ValueError, ZeroDivisionError):
        return False


def _split_top_commas(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def check_echo(st, echo, rng):
    """The echo of a ring, ideal or graph definition against its source data."""
    lhs = st.text.split("=", 1)[0].strip() + " = "
    if not echo.startswith(lhs):
        return False
    body = echo[len(lhs):]
    kind = st.echo[0]
    if kind == "ring":
        return body == "QQ[" + ",".join(var_name(v) for v in st.echo[1]) + "]"
    if kind == "ideal":
        _, ring, gens = st.echo
        if not (body.startswith("ideal(") and body.endswith(")")):
            return False
        return check_polys(_split_top_commas(body[len("ideal("):-1]), ring, gens, rng)
    _, vertices, edges = st.echo
    m = re.fullmatch(r"vertices (.*); edges (.*)", body)
    return (m is not None and m.group(1).split(",") == list(vertices)
            and _same([frozenset(e.split("-")) for e in m.group(2).split(",")],
                      {frozenset(e) for e in edges}))


def check_jets(lines, s, ring, gens, rng):
    """Generators are grouped by source generator, highest order first; every

    coefficient of a nonconstant polynomial is nonzero, so each source
    generator contributes exactly s+1 of them."""
    values = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(s + 1)]
              for _ in ring]
    env = {var_name(v, j): values[k][j] for k, v in enumerate(ring) for j in range(s + 1)}
    expected = []
    for f in gens:
        expected.extend(reversed(series_values(f, values, s)))
    try:
        got = [eval_poly(line, env) for line in lines]
    except (KeyError, ValueError, ZeroDivisionError):
        return False
    return got == expected


# --- monomial radicals, transversals and graph jets on bitmasks ------------

def minimal_masks(masks):
    """Inclusion-minimal members of a set of bitmasks."""
    kept = []
    for m in sorted(set(masks), key=lambda m: (bin(m).count("1"), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def radical_supports(gens, nvars, s):
    """Distinct squarefree supports of the terms of the jets of monomials.

    The t^k coefficient of x_(t)^e is a sum of products of e jet variables
    whose orders add up to k, all with positive coefficients, so a set D of
    orders occurs for x iff |D| <= e and sum(D) + (e-|D|)*min(D) <= s; the
    orders of all variables of a generator must add up to at most s.  Jet
    variable (k, a) is bit a*nvars + k."""
    supports = set()
    for exps in gens:
        options = []
        for k, e in enumerate(exps):
            if not e:
                continue
            opts = []
            for size in range(1, min(e, s + 1) + 1):
                for orders in itertools.combinations(range(s + 1), size):
                    least = sum(orders) + (e - size) * orders[0]
                    if least <= s:
                        opts.append((sum(1 << (a * nvars + k) for a in orders), least))
            options.append(opts)
        for choice in itertools.product(*options):
            if sum(least for _, least in choice) <= s:
                mask = 0
                for bits, _ in choice:
                    mask |= bits
                supports.add(mask)
    return supports


def minimal_transversals(edges):
    """All minimal hitting sets of a list of bitmask edges (Berge).

    Adding edge e keeps the covers that hit it; a cover c that misses it
    grows to c+v for each v in e, which is minimal unless a kept cover
    containing v lies inside it.  Grown covers never contain each other."""
    covers = [0]
    for e in edges:
        hit = [c for c in covers if c & e]
        grown = []
        for v in _bits(e):
            holders = [h for h in hit if h & v]
            grown.extend(x for x in (c | v for c in covers if not c & e)
                         if not any(h & x == h for h in holders))
        covers = hit + grown
    return covers


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def jets_graph_edges(edges, s):
    """The Goward-Smith closed form: {u_a, v_b} for every edge uv and a+b <= s."""
    return {frozenset((f"{u}{a}", f"{v}{b}"))
            for u, v in edges for a in range(s + 1) for b in range(s + 1 - a)}


def is_chordal(edges):
    """Maximum cardinality search, then the Tarjan-Yannakakis test: in search
    order, the earlier neighbours of each vertex other than the latest one
    must all be neighbours of that latest one."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    weight = dict.fromkeys(adj, 0)
    pos = {}
    while weight:
        v = max(weight, key=weight.get)
        del weight[v]
        pos[v] = len(pos)
        for u in adj[v]:
            if u in weight:
                weight[u] += 1
    for v in adj:
        earlier = [u for u in adj[v] if pos[u] < pos[v]]
        if earlier:
            latest = max(earlier, key=pos.get)
            if any(u != latest and u not in adj[latest] for u in earlier):
                return False
    return True


def chromatic_number(vertices, edges):
    """Chromatic number of G by backtracking.  The jets graph has the same
    one: v_a -> v maps it onto G, and its order-0 vertices hold a copy of G."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(vertices, key=lambda v: -len(adj[v]))

    def colour(i, k, col):
        if i == len(order):
            return True
        used = {col[u] for u in adj[order[i]] if u in col}
        for c in range(k):
            if c not in used:
                col[order[i]] = c
                if colour(i + 1, k, col):
                    return True
                del col[order[i]]
        return False

    k = 1
    while not colour(0, k, {}):
        k += 1
    return k


def _mask_names(mask, names):
    return frozenset(names[i] for i in range(mask.bit_length()) if mask >> i & 1)


def _printed_sets(lines, strip):
    out = []
    for line in lines:
        body = line[1:-1] if strip else line
        out.append(frozenset(body.split("," if strip else "*")))
    return out


def _jet_names(ring, s):
    return [var_name(v, a) for a in range(s + 1) for v in ring]


# --- one script ------------------------------------------------------------

def check_script(script, outcome, seed, work):
    """True if the outcome is right; adds the script's sizes to `work`."""
    work["scripts"] += 1
    work["statements"] += len(script.statements)
    if script.error_pos is not None:
        work["parse_errors"] += 1
        return outcome["error"] == "ParseError" and outcome["pos"] == script.error_pos
    if outcome["error"] is not None:
        return False
    work["transcript_bytes"] += len(outcome["output"].encode())
    try:
        return _check_results(script, outcome["output"], seed, work)
    except (ValueError, KeyError, IndexError, TypeError):
        return False   # output too malformed to parse


def _same(got, want):
    return len(got) == len(want) and set(got) == want


def _check_results(script, output, seed, work):
    results, echoes = split_results(script, output)
    if results is None:
        return False
    rng = random.Random(f"check:{seed}:{script.text}")
    ok = True
    for i, st in enumerate(script.statements):
        if st.echo is not None and i in echoes:
            ok &= check_echo(st, echoes[i], rng)
        if st.check is None:
            continue
        lines = results[i]
        kind, s, ring, gens = st.check
        if kind == "polys":
            ok &= check_polys(lines, ring, gens, rng)
        elif kind == "jets_chordal":
            ok &= lines == [str(is_chordal(jets_graph_edges(gens, s))).lower()]
        elif kind == "jets_chromatic":
            ok &= lines == [str(chromatic_number(ring, gens))]
        elif kind == "jets":
            work["jet_generators"] += len(lines)
            work["jet_terms"] += sum(len(_TERM.findall(line)) for line in lines)
            ok &= check_jets(lines, s, ring, gens, rng)
        elif kind in ("radical", "primes"):
            supports = radical_supports(gens, len(ring), s)
            minimal = minimal_masks(supports)
            work["supports_in"] += len(supports)
            work["supports_out"] += len(minimal)
            names = _jet_names(ring, s)
            if kind == "radical":
                ok &= _same(_printed_sets(lines, strip=False),
                            {_mask_names(m, names) for m in minimal})
            else:
                work["covers"] += len(lines)
                ok &= _same(_printed_sets(lines, strip=True),
                            {_mask_names(m, names) for m in minimal_transversals(minimal)})
        else:
            # graph checks carry the vertex names and edges of G
            edges = jets_graph_edges(gens, s)
            verts = [f"{v}{a}" for a in range(s + 1) for v in ring]
            work["jet_edges"] += len(edges)
            if kind == "graphjets":
                ok &= _same([frozenset(line.split("-")) for line in lines], edges)
            elif kind == "jets_complement":
                pairs = {frozenset(p) for p in itertools.combinations(verts, 2)}
                ok &= _same([frozenset(line.split("-")) for line in lines], pairs - edges)
            else:
                work["covers"] += len(lines)
                bit = {v: 1 << i for i, v in enumerate(verts)}
                covers = minimal_transversals([sum(bit[v] for v in e) for e in edges])
                ok &= _same(_printed_sets(lines, strip=True),
                            {_mask_names(m, verts) for m in covers})
    return ok


def new_work():
    return dict.fromkeys(WORK_KEYS, 0)
