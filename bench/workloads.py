"""Seeded CLI scripts for the three benchmark workloads.

Generation uses only the standard library and never imports jetschemes:
the program receives nothing but the script text.  Every script carries
the data its oracles need (source polynomials, graphs, jet orders, the
offset of a planted parse error), so outputs are checked without trusting
the program.

Each workload is a fixed list of slots.  A slot fixes the sizes, the
output mode and whether names are letters or subscripted; the seed picks
the content: coefficients, variable names and term order, which variables
a monomial uses, the labelled edge set of a random graph, the script order
and the typo of a malformed script.  The cost of a pass therefore depends
little on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("series", "combinatorial", "script")

COMMANDS = ("jets", "jetsradical", "graphjets", "minors",
            "minimalprimes", "chromatic", "covers", "complement", "chordal")

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Statement:
    text: str
    # oracle for the printed result: ("jets", s, ring, gens), ("radical", s,
    # ring, gens), ("primes", s, ring, gens), ("polys", 0, ring, gens),
    # ("graphjets", s, vertices, edges), ("jets_complement", ...),
    # ("jets_covers", ...), ("jets_chordal", ...), ("jets_chromatic", ...) or None
    check: tuple | None = None
    # oracle for the echo of a definition in text mode: ("ring", ring),
    # ("ideal", ring, gens) or ("graph", vertices, edges)
    echo: tuple | None = None

    @property
    def prints(self):
        """True when the statement prints a result (in both output modes)."""
        return self.text.split(None, 1)[0] in COMMANDS


@dataclass
class Script:
    statements: list
    json: bool = False
    text: str = ""
    error_pos: int | None = None   # offset where ParseError must be raised

    def __post_init__(self):
        if not self.text:
            self.text = "\n".join(st.text + ";" for st in self.statements)


# --- variables and polynomials in the benchmark's own representation -------
#
# A ring is a list of (base, subscripts) pairs in ring order.  A polynomial is
# a dict from exponent tuples (one entry per ring variable) to Fractions.

def var_name(var, order=None):
    base, subs = var
    text = base if order is None else f"{base}{order}"
    if subs:
        text += "_(" + ",".join(str(i) for i in subs) + ")"
    return text


def poly_text(ring, poly, rng=None):
    """Hand-written form of a polynomial; `rng` shuffles the term order."""
    items = list(poly.items())
    if rng is not None:
        rng.shuffle(items)
    out = []
    for exps, c in items:
        factors = [var_name(ring[k]) + (f"^{e}" if e > 1 else "")
                   for k, e in enumerate(exps) if e]
        mag = abs(c)
        coeff = f"{mag.numerator}" + (f"/{mag.denominator}" if mag.denominator != 1 else "")
        if factors and mag == 1 and (rng is None or rng.random() < 0.5):
            body = "*".join(factors)
        else:
            body = "*".join([coeff] + factors)
        sign = "-" if c < 0 else ("+" if out else "")
        out.append(sign + body)
    return "".join(out)


def _rational(rng):
    c = Fraction(rng.randint(1, 12), rng.choice((1, 1, 2, 3, 4, 5, 7, 9)))
    return -c if rng.random() < 0.4 else c


def _letters_ring(rng, n):
    """n single-letter variables: a seeded range such as "c..h", or a list."""
    if rng.random() < 0.5:
        start = rng.randrange(len(LETTERS) - n + 1)
        names = LETTERS[start:start + n]
        return [(ch, ()) for ch in names], f"{names[0]}..{names[-1]}"
    names = rng.sample(LETTERS, n)
    return [(ch, ()) for ch in names], ",".join(names)


def _ring(rng, n, subscripted):
    """n variables: single letters, or a range like "u_(3)..u_(6)".

    Which of the two is fixed by the slot, not by the seed: printing a
    subscripted name costs more than printing a letter."""
    if not subscripted:
        return _letters_ring(rng, n)
    base = rng.choice("xyuvz")
    lo = rng.randint(0, 10 - n)
    ring = [(base, (i,)) for i in range(lo, lo + n)]
    return ring, f"{var_name(ring[0])}..{var_name(ring[-1])}"


def _matrix_ring(rng, m, subscripted):
    """m*m variables for a generic matrix, in the order the ring lists them."""
    if not subscripted:
        return _letters_ring(rng, m * m)
    base = rng.choice("xyma")
    lo = rng.randint(0, 10 - m)
    ring = [(base, (i, j)) for i in range(lo, lo + m) for j in range(lo, lo + m)]
    return ring, f"{var_name(ring[0])}..{var_name(ring[-1])}"


def determinant(ring, entries):
    """Leibniz expansion of a matrix of distinct variables (ring indices)."""
    n = len(entries)
    poly = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        exps = [0] * len(ring)
        for i in range(n):
            exps[entries[i][perm[i]]] += 1
        poly[tuple(exps)] = Fraction(-1 if inversions % 2 else 1)
    return poly


def minors_of_generic(ring, m, r):
    """The r x r minors of generic(R,m,m): column-major fill, row sets then

    column sets in lex order, as the CLI documents."""
    entry = [[j * m + i for j in range(m)] for i in range(m)]
    gens = []
    for rows in itertools.combinations(range(m), r):
        for cols in itertools.combinations(range(m), r):
            gens.append(determinant(ring, [[entry[i][j] for j in cols] for i in rows]))
    return gens


def dense_poly(rng, nvars, degree):
    """All monomials of total degree <= degree, with seeded rational coefficients."""
    return {e: _rational(rng)
            for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree}


# --- series ----------------------------------------------------------------

_X44 = [("x", (i, j)) for i in range(1, 5) for j in range(1, 5)]
ANCHOR_MINORS = Script([
    Statement("ring R = [x_(1,1)..x_(4,4)]", echo=("ring", _X44)),
    Statement("matrix M = generic(R,4,4)"),
    Statement("ideal I = minors 3 M"),
    Statement("jets 4 I", ("jets", 4, _X44, minors_of_generic(_X44, 4, 3))),
])

_XY = [("x", ()), ("y", ())]
_CUSP = {(3, 0): Fraction(1), (0, 2): Fraction(-1)}
ANCHOR_CUSP = Script([
    Statement("ring R = [x,y]", echo=("ring", _XY)),
    Statement("ideal I = x^3-y^2", echo=("ideal", _XY, [_CUSP])),
    Statement("jets 30 I", ("jets", 30, _XY, [_CUSP])),
])

# (matrix size, minor size, jet order)
MINOR_SLOTS = [(3, 2, s) for s in (1, 2, 3, 4)] + [(3, 3, s) for s in (1, 2, 3, 4)] \
    + [(4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 4, 1), (4, 4, 2)]
# (variables, degree, jet order); each slot is used DENSE_REPEAT times
DENSE_SLOTS = [(3, 2, s) for s in (2, 3, 4, 5)] + [(3, 3, s) for s in (2, 3, 4)] \
    + [(4, 2, s) for s in (2, 3, 4)] + [(4, 3, 2)]
DENSE_REPEAT = 3
# (power of the first variable, power of the second, jet order, mixed term?)
_CURVES = ((2, 3), (3, 2), (2, 5), (3, 4), (3, 5), (4, 5), (5, 2))
CURVE_SLOTS = [(p, q, s, mixed) for s in (4, 6, 8) for (p, q) in _CURVES
               for mixed in (False, True)] \
    + [(p, q, 10, False) for (p, q) in _CURVES] \
    + [(p, q, 12, False) for (p, q) in ((2, 3), (3, 2), (3, 4), (2, 5))] \
    + [(2, 3, 15, False), (3, 2, 15, True), (2, 3, 20, False)]


def _series_minors(rng, m, r, s, subscripted):
    ring, ring_text = _matrix_ring(rng, m, subscripted)
    return Script([
        Statement(f"ring R = [{ring_text}]", echo=("ring", ring)),
        Statement(f"matrix M = generic(R,{m},{m})"),
        Statement(f"ideal I = minors {r} M"),
        Statement(f"jets {s} I", ("jets", s, ring, minors_of_generic(ring, m, r))),
    ])


def _series_dense(rng, nvars, degree, s, subscripted):
    ring, ring_text = _ring(rng, nvars, subscripted)
    f = dense_poly(rng, nvars, degree)
    return Script([
        Statement(f"ring R = [{ring_text}]", echo=("ring", ring)),
        Statement(f"ideal I = {poly_text(ring, f, rng)}", echo=("ideal", ring, [f])),
        Statement(f"jets {s} I", ("jets", s, ring, [f])),
    ])


def _series_curve(rng, p, q, s, mixed, subscripted):
    ring, ring_text = _ring(rng, 2, subscripted)
    f = {(p, 0): _rational(rng), (0, q): _rational(rng)}
    if mixed:
        f[(1, 1)] = _rational(rng)
    return Script([
        Statement(f"ring R = [{ring_text}]", echo=("ring", ring)),
        Statement(f"ideal I = {poly_text(ring, f, rng)}", echo=("ideal", ring, [f])),
        Statement(f"jets {s} I", ("jets", s, ring, [f])),
    ])


def series(rng):
    scripts = [_series_minors(rng, *slot, i % 2 == 1) for i, slot in enumerate(MINOR_SLOTS)]
    scripts += [_series_dense(rng, *slot, k == 1) for slot in DENSE_SLOTS
                for k in range(DENSE_REPEAT)]
    scripts += [_series_curve(rng, *slot, i % 2 == 1) for i, slot in enumerate(CURVE_SLOTS)]
    return scripts, [ANCHOR_MINORS, ANCHOR_CUSP]


# --- combinatorial ---------------------------------------------------------

DEMO_GRAPH = "a-c,a-d,a-e,b-c,b-d,b-e,c-e"
DEMO_EDGES = [tuple(e.split("-")) for e in DEMO_GRAPH.split(",")]
C12 = [chr(ord("a") + i) for i in range(12)]
C12_EDGES = [(C12[i], C12[(i + 1) % 12]) for i in range(12)]

_XYZ = [("x", ()), ("y", ()), ("z", ())]
ANCHOR_XYZ = Script([
    Statement("ring R = [x,y,z]", echo=("ring", _XYZ)),
    Statement("ideal I = x*y*z", echo=("ideal", _XYZ, [{(1, 1, 1): Fraction(1)}])),
    Statement("jetsradical 10 I", ("radical", 10, _XYZ, [(1, 1, 1)])),
])

_DEMO_ORDER = ["a", "c", "d", "e", "b"]
ANCHOR_DEMO = Script([
    Statement(f"graph G = {DEMO_GRAPH}", echo=("graph", _DEMO_ORDER, DEMO_EDGES)),
    Statement("graphjets 8 G", ("graphjets", 8, _DEMO_ORDER, DEMO_EDGES)),
])

ANCHOR_C12 = Script([
    Statement("graph G = " + ",".join(f"{u}-{v}" for u, v in C12_EDGES),
              echo=("graph", C12, C12_EDGES)),
    Statement("graph H = graphjets 2 G"),
    Statement("covers H", ("jets_covers", 2, C12, C12_EDGES)),
])

# Monomial slots: (template, jet order).  A template such as "a2b,bc" is an
# ideal over template letters; the seed maps the letters to distinct
# variables of a 6-letter ring.  Radical slots print the radical itself;
# primes slots bind it and print its minimal primes.
RADICAL_SLOTS = [
    ("ab", 10), ("ab", 8), ("a2b", 7), ("a3b", 7), ("abc", 5), ("a2bc", 5), ("a3b2", 6),
    ("a2b2", 6), ("ab,cd", 6), ("ab,b2c", 5), ("abc,cd", 4), ("ab,bc,cd", 4),
    ("a3b,ab2", 5), ("a2b3", 6),
]
PRIMES_SLOTS = [
    ("ab", 6), ("ab", 5), ("a2b", 5), ("a3b", 6), ("abc", 4), ("abc", 3), ("a2bc", 3),
    ("a3b2", 5), ("a2b2", 4), ("ab,cd", 3), ("ab,b2c", 3), ("ab,bc,cd", 3), ("a3b3", 4),
    ("ab2", 6),
]
RADICAL_REPEAT = 2
MONOMIAL_RING = 6
# Graph slots: (vertices, edges or "cycle", jet order, bind and run invariants?)
GRAPH_SLOTS = [
    (6, 8, 1, False), (6, 8, 2, False), (6, 8, 3, False), (8, 10, 1, False),
    (8, 10, 2, False), (10, 14, 1, False), (12, 16, 1, False), (6, 10, 2, False),
    (6, 8, 1, True), (6, 8, 2, True), (6, 8, 3, True), (8, 10, 1, True),
    (8, 10, 2, True), (8, 12, 2, True), (10, 14, 1, True), (9, 12, 2, True),
    (12, 16, 1, True), (7, 10, 2, True),
    (6, "cycle", 2, False), (8, "cycle", 3, False), (10, "cycle", 1, True),
    (12, "cycle", 1, True), (7, "cycle", 3, True), (9, "cycle", 2, True),
]
GRAPH_REPEAT = 2


def _monomial_gens(rng, template, nvars):
    """Exponent tuples of the template's generators under a seeded relabelling."""
    letters = sorted(set(ch for ch in template if ch.isalpha()))
    where = dict(zip(letters, rng.sample(range(nvars), len(letters))))
    gens = []
    for gen in template.split(","):
        exps = [0] * nvars
        for letter, power in zip(gen, gen[1:] + " "):
            if letter.isalpha():
                exps[where[letter]] = int(power) if power.isdigit() else 1
        gens.append(tuple(exps))
    return gens


def _combinatorial_monomial(rng, template, s, printed):
    ring, ring_text = _letters_ring(rng, MONOMIAL_RING)
    gens = _monomial_gens(rng, template, len(ring))
    polys = [{g: Fraction(1)} for g in gens]
    ideal = ",".join(poly_text(ring, f) for f in polys)
    head = [Statement(f"ring R = [{ring_text}]", echo=("ring", ring)),
            Statement(f"ideal I = {ideal}", echo=("ideal", ring, polys))]
    if printed:
        return Script(head + [Statement(f"jetsradical {s} I", ("radical", s, ring, gens))])
    return Script(head + [Statement(f"ideal J = jetsradical {s} I"),
                          Statement("minimalprimes J", ("primes", s, ring, gens))])


def _random_graph(rng, n, m):
    names = rng.sample(LETTERS, n)
    if m == "cycle":
        return names, [(names[i], names[(i + 1) % n]) for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    return names, rng.sample(pairs, m)


def _graph_text(rng, names, edges):
    """Edges with both orientations; the first edge fixes no vertex order, so

    a seeded half of the graphs use a "vertices" header."""
    items = [f"{u}-{v}" if rng.random() < 0.5 else f"{v}-{u}" for u, v in edges]
    rng.shuffle(items)
    if rng.random() < 0.5:
        return "vertices " + ",".join(names) + "\n" + ",".join(items), list(names)
    order = []
    for item in items:
        for name in item.split("-"):
            if name not in order:
                order.append(name)
    return ",".join(items), order


def _combinatorial_graph(rng, n, m, s, bound):
    names, edges = _random_graph(rng, n, m)
    text, order = _graph_text(rng, names, edges)
    stmts = [Statement(f"graph G = {text}", echo=("graph", order, edges))]
    if not bound:
        stmts.append(Statement(f"graphjets {s} G", ("graphjets", s, order, edges)))
        return Script(stmts)
    stmts += [Statement(f"graph H = graphjets {s} G"),
              Statement("complement H", ("jets_complement", s, order, edges)),
              Statement("covers H", ("jets_covers", s, order, edges)),
              Statement("chordal H", ("jets_chordal", s, order, edges))]
    if n * (s + 1) <= 32:
        stmts.append(Statement("chromatic H", ("jets_chromatic", s, order, edges)))
    return Script(stmts)


def combinatorial(rng):
    scripts = [_combinatorial_monomial(rng, *slot, printed)
               for slots, printed in ((RADICAL_SLOTS, True), (PRIMES_SLOTS, False))
               for slot in slots for _ in range(RADICAL_REPEAT)]
    scripts += [_combinatorial_graph(rng, *slot) for slot in GRAPH_SLOTS for _ in range(GRAPH_REPEAT)]
    return scripts, [ANCHOR_XYZ, ANCHOR_DEMO, ANCHOR_C12]


# --- script ----------------------------------------------------------------

SCRIPT_COUNT = 160
MALFORMED_EVERY = 20


def _random_poly(rng, nvars, nterms, support, power):
    """nterms terms, each on 1..support variables with exponents 1..power."""
    f = {}
    while len(f) < nterms:
        exps = [0] * nvars
        for k in rng.sample(range(nvars), rng.randint(1, support)):
            exps[k] = rng.randint(1, power)
        f[tuple(exps)] = _rational(rng)
    return f


def _script_statements(rng, i):
    """Statements of script i; its sizes cycle with i, the seed picks content."""
    start = rng.randrange(len(LETTERS) - 7)
    letters = LETTERS[start:start + 8]
    base = rng.choice("xymu")
    lo = rng.randint(0, 1)
    big = [(base, (r, c)) for r in range(lo, lo + 6) for c in range(lo, lo + 6)]
    small, small_text = _ring(rng, 2 + i % 2, i % 3 == 0)
    names, edges = _random_graph(rng, 6 + i % 4, 7 + i % 6)
    long_gens = [_random_poly(rng, len(big), 3 + (i + j) % 4, 3, 3) for j in range(5 + i % 4)]
    small_gens = [_random_poly(rng, len(small), 2, 2, 2) for _ in range(2)]
    return [
        Statement(f"ring A = [{letters[0]}..{letters[-1]}]",
                  echo=("ring", [(ch, ()) for ch in letters])),
        Statement(f"ring S = [{var_name(big[0])}..{var_name(big[-1])}]", echo=("ring", big)),
        Statement("ideal L = " + ", ".join(poly_text(big, f, rng) for f in long_gens),
                  echo=("ideal", big, long_gens)),
        Statement(f"ring B = [{small_text}]", echo=("ring", small)),
        Statement("ideal J = " + ", ".join(poly_text(small, f, rng) for f in small_gens),
                  echo=("ideal", small, small_gens)),
        Statement("jets 1 J", ("jets", 1, small, small_gens)),
        Statement("jets 2 J", ("jets", 2, small, small_gens)),
        Statement("graph G = vertices " + ",".join(names) + "\n"
                  + ",".join(f"{u}-{v}" for u, v in edges), echo=("graph", names, edges)),
    ]


def _malformed(rng, stmts):
    """Plant one seeded typo; return the script text and the error offset."""
    texts = [st.text for st in stmts]
    kind = rng.randrange(6)
    if kind == 5:
        # no ';' after the last statement: reported at that statement's start
        body = "\n".join(t + ";" for t in texts[:-1]) + "\n" + texts[-1]
        return body, len(body) - len(texts[-1])
    if kind == 4:
        # a graph edge naming an undeclared vertex: reported at the graph body
        first = texts[7].split("\n")[0].split()[-1].split(",")[0]
        texts[7] += f",qq-{first}"
        index, at = 7, len("graph G = ")
    elif kind == 3:
        # a subscript range whose ends have different base names
        ring = texts[1]
        dots = ring.index("..")
        texts[1] = ring[:dots + 2] + "w" + ring[dots + 3:]
        index, at = 1, len("ring S = [")
    else:
        index = 2
        text = texts[index]
        stars = [i for i, ch in enumerate(text) if ch == "*"]
        idents = [i for i in range(len("ideal L = "), len(text))
                  if text[i].isalpha() and not text[i - 1].isalnum() and text[i - 1] != "_"]
        if kind == 0:
            # a stray character inside a polynomial
            at = rng.choice(idents)
            texts[index] = text[:at] + "@" + text[at:]
        elif kind == 1:
            # a doubled '*': the second one is where a variable was expected
            at = rng.choice(stars) + 1
            texts[index] = text[:at] + "*" + text[at:]
        else:
            # a variable the ring does not have
            at = rng.choice(idents)
            texts[index] = text[:at] + "zz*" + text[at:]
    body = "\n".join(t + ";" for t in texts)
    offset = sum(len(t) + 2 for t in texts[:index])
    return body, offset + at


def script(rng):
    scripts = []
    for i in range(SCRIPT_COUNT):
        stmts = _script_statements(rng, i)
        if i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            text, pos = _malformed(rng, stmts)
            scripts.append(Script(stmts, text=text, error_pos=pos))
        else:
            scripts.append(Script(stmts))
    return scripts, []


# --- assembly --------------------------------------------------------------

# One tiny script that reaches every traced function, run in both modes in
# every workload, so each per-layer span reads a measured number everywhere.
# It costs well under one percent of any pass.
_PATH = (["a", "b", "c"], [("a", "b"), ("b", "c")])
COVERAGE = [
    Statement("ring R = [x,y]", echo=("ring", _XY)),
    Statement("ideal I = x*y", echo=("ideal", _XY, [{(1, 1): Fraction(1)}])),
    Statement("jets 1 I", ("jets", 1, _XY, [{(1, 1): Fraction(1)}])),
    Statement("ideal J = jetsradical 1 I"),
    Statement("minimalprimes J", ("primes", 1, _XY, [(1, 1)])),
    Statement("matrix M = generic(R,1,2)"),
    Statement("minors 1 M", ("polys", 0, _XY, [{(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}])),
    Statement("graph G = vertices a,b,c\na-b,b-c", echo=("graph", *_PATH)),
    Statement("graph H = graphjets 1 G"),
    Statement("covers H", ("jets_covers", 1, *_PATH)),
    Statement("chordal H", ("jets_chordal", 1, *_PATH)),
    Statement("complement H", ("jets_complement", 1, *_PATH)),
    Statement("chromatic H", ("jets_chromatic", 1, *_PATH)),
]

# every JSON_EVERY-th generated script runs in --json mode
JSON_EVERY = {"series": 4, "combinatorial": 4, "script": 2}


def generate(workload, seed):
    """The scripts of one pass, in run order, for a workload and a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    seeded, anchors = {"series": series, "combinatorial": combinatorial,
                       "script": script}[workload](rng)
    for sc in seeded[JSON_EVERY[workload] - 1::JSON_EVERY[workload]]:
        sc.json = True
    scripts = seeded + anchors
    rng.shuffle(scripts)
    return scripts + [Script(COVERAGE), Script(COVERAGE, json=True)]
