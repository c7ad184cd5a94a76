"""Sparse multivariate polynomials with exact rational coefficients.

A ring is an ordered list of variables over QQ, each a plain str, its
name, partitioned into consecutive blocks, the runs of variables of one
jet order.  A plain ring is a single block; the order-s jet ring of n
variables has s+1 blocks of n, one per jet order.  A monomial is the
tuple of its (variable index, exponent) pairs, sorted by index, with
positive exponents; () is 1, and `Monomial` builds one from any
exponent map.  Terms are kept in graded reverse lexicographic order,
comparing later blocks first, so a tower like QQ[x0,y0,z0][x1,y1,z1]
prints with the outer (higher order) variables dominating.  `term_key`
packs each nonzero field of the order into one int, exact while every
monomial's total degree is below 2^32.

Coefficients are `fractions.Fraction`, so all arithmetic is exact and
every coefficient is stored with positive denominator in lowest terms.
"""

import itertools
import re
import sys
from fractions import Fraction
from math import prod

SIZE_BOUND = 10**6   # the most names a variable list or jet order, or terms `minors`, may make
_WIDTH = 32   # bits of a field value in a term_key item; degrees stay below 2^_WIDTH
_DIGITS = "0123456789"   # a jet order's digits end a variable's name, before its subscripts


class ParseError(ValueError):
    """Malformed input text; `pos` is a 0-based offset into the parsed string."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


def Variable(base, subscripts=(), jet_order=None):
    """The name of a ring variable, a plain str, from a base name, optional
    subscripts and an optional jet order: "x" at order 2 is "x2", and
    "x0_(1,1)" is subscripted.  A base may not end in a digit, or "x12"
    could be x at order 12 or x1 at order 2, so a name determines its
    parts.  The parser scans a name so written as one token.
    """
    base = str(base)   # a plain str, also when given a str subclass
    if not (base[:1].isalpha() and base.isascii() and base.isalnum()):
        raise ValueError(f"invalid variable base name {base!r}")
    if base[-1].isdigit():
        raise ValueError(f"variable base {base!r} ends in a digit")
    subs = tuple(map(int, subscripts))
    if subs and min(subs) < 0:
        raise ValueError("subscripts must be naturals")
    if jet_order is not None and jet_order < 0:
        raise ValueError("jet order must be a natural")
    return _subscripted(base if jet_order is None else base + str(jet_order), subs)


def _subscripted(text, subscripts):
    """`text` followed by its subscript group, if any: "x" and (1, 2) give "x_(1,2)"."""
    if not subscripts:
        return text
    return text + "_(" + ",".join(map(str, subscripts)) + ")"


class PolyRing:
    """Ordered variables over QQ, split into consecutive blocks.

    `blocks` is the tuple of the blocks' sizes, the runs of equal jet
    orders, the digits ending each name before its subscripts, in list
    order: a plain ring is (n,), and a jet ring (n,) * (s+1); an empty ring
    is (0,).  `_by_name` maps each name to its index.  `_key` holds, per
    variable, the `term_key` ints of its block's degree field and its own,
    at value 0.
    """

    __slots__ = ("variables", "blocks", "_by_name", "_key", "_hash")

    def __init__(self, variables):
        self.variables = tuple(variables)
        n = len(self.variables)
        # runs of equal jet orders, each a head (name before "_(") less its base
        heads = [v.partition("_(")[0] for v in self.variables]
        orders = map(str.removeprefix, heads, map(str.rstrip, heads, itertools.repeat(_DIGITS)))
        self.blocks = tuple([len(list(run)) for _, run in itertools.groupby(orders)]) or (0,)
        self._by_name = {v: i for i, v in enumerate(self.variables)}
        if len(self._by_name) != n:
            name = next(v for i, v in enumerate(self.variables) if self._by_name[v] != i)
            raise ValueError(f"duplicate variable {name}")
        # fields from the least significant: each block's variables, then its degree
        self._key = fields = []
        pos = 0
        for size in self.blocks:
            degree = (pos + size) << _WIDTH
            fields += [(degree, -(p << _WIDTH)) for p in range(pos, pos + size)]
            pos += size + 1
        # a variable is its name, and the variables determine the blocks
        self._hash = hash(self.variables)

    def index(self, v):
        """The index of a variable, given by its name."""
        try:
            return self._by_name[v]
        except KeyError:
            raise ValueError(f"{v} is not a variable of {self}") from None

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {Monomial(): Fraction(1)})

    def constant(self, c):
        return Poly(self, {Monomial(): Fraction(c)})

    def var(self, v):
        """The variable `v` (a name or an index) as a polynomial."""
        i = v if isinstance(v, int) else self.index(v)
        return Poly(self, {Monomial({i: 1}): Fraction(1)})

    def gens(self):
        return [self.var(i) for i in range(len(self.variables))]

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return self._hash

    def __str__(self):
        parts = []
        start = 0
        for size in self.blocks:
            names = ",".join(self.variables[start:start + size])
            parts.append(f"[{names}]")
            start += size
        return "QQ" + "".join(parts)

    def __repr__(self):
        return f"PolyRing({self})"


def Monomial(exps=()):
    """The monomial of an exponent map, a dict or (index, exponent) pairs in
    which repeated indices add up, in normal form: the tuple of its
    (variable index, exponent) pairs sorted by index, with positive
    exponents; () is 1.  Indices are naturals and degrees below 2^32."""
    items = exps.items() if isinstance(exps, dict) else exps
    acc = {}
    for i, e in items:
        acc[i] = acc.get(i, 0) + e
    cleaned = []
    for i, e in sorted(acc.items()):
        if i < 0:
            raise ValueError("negative variable index in monomial")
        if e < 0:
            raise ValueError("negative exponent in monomial")
        if e:
            cleaned.append((i, e))
    _check_degree(sum(e for _, e in cleaned))
    return tuple(cleaned)


def _check_degree(d):
    """Refuse a total degree `d` that the fields of `term_key` cannot hold."""
    if d >> _WIDTH:
        raise ValueError(f"monomial of degree {d}: degrees must be below 2^{_WIDTH}")


def term_key(ring, mono):
    """Sort key for monomials, ascending in the ring's canonical order.

    The order reads a dense row of fields: per block from the last, its
    degree, then its negated exponents from its last variable.  The key
    lists the nonzero fields, most significant first, each packed with its
    position p (counted from the least significant) into one int: p*2^32 + d
    for a block degree d, -(p*2^32 + e) for an exponent e; then a 0.  At the
    first difference, equal positions compare by value, and otherwise the
    higher field's sign decides, as in the row; exact while degrees stay
    below 2^32.  One int per variable and block of the monomial, whatever
    the size of the ring.
    """
    fields = ring._key
    key = []   # from the lowest field up, reversed at the end; the first append is the 0
    block = degree = 0
    for i, e in mono:
        top, own = fields[i]
        if top != block:
            key.append(block + degree)
            block, degree = top, 0
        key.append(own - e)
        degree += e
    key.append(block + degree)
    return tuple(key[::-1])


def monomial_str(ring, mono):
    """Print factors in variable-list order, e.g. "y0*z0*x2" or "x^2*y";
    the monomial 1 prints as "1"."""
    names = ring.variables
    return "*".join([names[i] if e == 1 else names[i] + f"^{e}" for i, e in mono]) or "1"


class Poly:
    """A sparse polynomial: monomials mapped to nonzero rational coefficients.

    The constructor checks that the monomials' indices lie in the ring and
    brings each into normal form through `Monomial`, so keys of one monomial add up.
    """

    __slots__ = ("ring", "_terms", "_ordered")

    def __init__(self, ring, terms):
        self.ring = ring
        self._ordered = False
        nvars = len(ring.variables)
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            if any(not 0 <= i < nvars for i, _ in m):
                raise ValueError("monomial uses a variable outside the ring")
            m = Monomial(m)
            c = clean.get(m, 0) + Fraction(c)
            if c:
                clean[m] = c
            else:
                clean.pop(m, None)
        self._terms = clean

    @classmethod
    def _trusted(cls, ring, terms):
        """A polynomial on `terms`, a dict already in normal form.

        Its monomials lie in `ring` and its coefficients are nonzero
        Fractions; the dict is adopted as it is, not copied or checked.
        """
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        p._ordered = False
        return p

    def items(self):
        """Terms as (monomial, coefficient) pairs in canonical descending order:
        as stored when the poly is `_ordered`, else sorted by `term_key`."""
        if self._ordered:
            return list(self._terms.items())
        ring = self.ring
        return sorted(self._terms.items(), key=lambda kv: term_key(ring, kv[0]), reverse=True)

    def coefficient(self, mono):
        """The coefficient of `mono`, any exponent map that `Monomial` takes."""
        return self._terms.get(Monomial(mono), Fraction(0))

    def is_zero(self):
        return not self._terms

    def is_term(self):
        return len(self._terms) == 1

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = self.ring.constant(other)
        self._check_ring(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly._trusted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = Fraction(other)
            terms = {m: c * v for m, v in self._terms.items()} if c else {}   # p * 0 has none
            return Poly._trusted(self.ring, terms)
        self._check_ring(other)
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = Monomial(m1 + m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Poly._trusted(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a natural number")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        ring = self.ring
        out = []
        # an `_ordered` poly's dict is already in print order, so read it in place
        for m, c in self._terms.items() if self._ordered else self.items():
            try:
                coef = str(c)   # "-3/2", "7": the sign comes with it
            except ValueError:   # more digits than `str` writes
                raise ValueError(_too_long("cannot print a coefficient")) from None
            if coef[0] != "-":
                out.append("+")
            if not m:
                out.append(coef)
            elif coef == "1":
                out.append(monomial_str(ring, m))
            elif coef == "-1":
                out.append("-" + monomial_str(ring, m))
            else:
                out += (coef, "*", monomial_str(ring, m))
        return "".join(out[1:] if out[0] == "+" else out)

    def __repr__(self):
        return f"Poly({self})"


def is_homogeneous(f, weights):
    """True iff every term of f has the same weighted degree."""
    if len(weights) != len(f.ring.variables):
        raise ValueError("need one weight per variable")
    degrees = {sum(weights[i] * e for i, e in m) for m in f._terms}
    return len(degrees) <= 1


class Ideal:
    """A finitely generated ideal, kept as an ordered list of nonzero generators."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator lives in a different ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.generators == other.generators)

    def __len__(self):
        return len(self.generators)

    def __str__(self):
        return "ideal(" + ",".join(str(g) for g in self.generators) + ")"

    def __repr__(self):
        return f"Ideal({self})"


# ---------------------------------------------------------------------------
# Parsing: one token cursor reads each statement of a script, the three body
# grammars within it, and `var`.  A `name` is an ident with no subscript.
#
# script  := { [ stmt ] ';' }
# stmt    := 'ring' name '=' '[' vars ']' | command
#          | ( 'ideal' | 'graph' ) name '=' ( command | polys | graph )
#          | 'matrix' name '=' 'generic' '(' name ',' nat ',' nat ')'
# command := word [ nat ] name   (a body is one iff an int or ident follows its word)
#
# polys  := poly { ',' poly }
# poly   := ['-'] term { ('+'|'-') term }
# term   := coeff { '*' factor } | factor { '*' factor }
# factor := var [ '^' nat ]
# coeff  := int [ '/' nat ]
# var    := ident [ '_' '(' nat { ',' nat } ')' ]
#
# vars   := range { ',' range }
# range  := var [ '..' var ]
#
# graph  := [ 'vertices' vars ] { ',' | var '-' var }   ("vertices-a" is an edge)
#
# Tokens are strings, and "" ends them; the first character gives the kind: a
# digit an int, a letter an ident, any other a symbol.  A var written compactly
# ("x_(1,12)": no spaces, no leading zeros) is scanned whole as one ident token,
# whose text is its name; "x _( 1, 012 )" is read token by token by `var`.
#
# "a..e" and "x_(1,1)..x_(3,3)" expand to ranges (single letters, or a box
# of subscript tuples enumerated with the last coordinate varying fastest).
# ---------------------------------------------------------------------------

_NAT = "(?:0|[1-9][0-9]*)"
# ungrouped, so that `findall` returns the tokens' texts; it skips the spaces
_TOKEN_RE = re.compile(rf"\d+|[A-Za-z][A-Za-z0-9]*(?:_\({_NAT}(?:,{_NAT})*\))?"
                       r"|\.\.|[-+*/^_(),=\[\]]")
# ends at what no token takes: a character outside their alphabet, or the last
# dot of an odd run; it starts with a class, so `search` skips to candidates
_BAD_RE = re.compile(r"[^\s\dA-Za-z+\-*/^_(),=\[\]](?:(?<=[^.])|(?<!\.\.)(?:\.\.)*(?!\.))")


class _Cursor:
    """The tokens of `text[start:end]` as strings, each of the kind its first
    character gives, then "" for the end; every grammar reads them from index
    `i`.  A bad character anywhere in the span is reported first, before an
    earlier grammar error, and offsets are found only for errors."""

    __slots__ = ("text", "start", "end", "toks", "i")

    def __init__(self, text, start=0, end=None):
        end = len(text) if end is None else end
        if bad := _BAD_RE.search(text, start, end):
            raise ParseError(f"unexpected character {text[bad.end() - 1]!r}", bad.end() - 1)
        self.text, self.start, self.end, self.i = text, start, end, 0
        self.toks = _TOKEN_RE.findall(text, start, end) + [""]

    def error(self, message, i=None):
        """A ParseError at token `i`, by default the next one, at the offset
        found by scanning the span again up to it; the end is at the span's end."""
        tokens = _TOKEN_RE.finditer(self.text, self.start, self.end)
        m = next(itertools.islice(tokens, self.i if i is None else i, None), None)
        return ParseError(message, self.end if m is None else m.start())

    def expect(self, sym):
        if self.toks[self.i] != sym:
            raise self.error(f"expected {sym!r}")
        self.i += 1

    def nat(self, what="a natural number"):
        tok = self.toks[self.i]
        if not tok[:1].isdecimal():   # the digits of \d, which `int` reads
            raise self.error(f"expected {what}")
        self.i += 1
        try:
            return int(tok)
        except ValueError:   # more digits than `int` reads
            raise self.error(_too_long("integer"), self.i - 1) from None

    def int_at(self, i):
        """The value of int token `i`; past the digit limit, a ParseError at it."""
        try:
            return int(self.toks[i])
        except ValueError:
            raise self.error(_too_long("integer"), i) from None

    def name(self, what):
        """Parse a `var`; returns its canonical name."""
        toks, text = self.toks, self.toks[self.i]
        if not text[:1].isalpha():
            raise self.error(f"expected {what}")
        self.i += 1
        if toks[self.i] != "_" or "_(" in text:   # no subscript, or scanned whole
            return text
        self.i += 1
        self.expect("(")
        subs = [self.nat()]
        while toks[self.i] == ",":
            self.i += 1
            subs.append(self.nat())
        self.expect(")")
        return _subscripted(text, subs)

    def expect_end(self, value=None):
        """`value`, once every token is read."""
        if tok := self.toks[self.i]:   # a name scanned whole is reported by its ident
            raise self.error(f"unexpected {tok.partition('_(')[0]!r}")
        return value


def _too_long(what):
    """The message for a number of more digits than Python converts."""
    return f"{what} of more than {sys.get_int_max_str_digits()} digits"


def _split_name(name):
    """The base and subscripts of a canonical name: "x_(1,2)" gives ("x", (1, 2))."""
    base, paren, subs = name.partition("_(")
    try:
        return base, tuple(map(int, subs[:-1].split(","))) if paren else ()
    except ValueError:   # a subscript of more digits than `int` reads
        raise ValueError(_too_long("subscript")) from None


def parse_poly(text, ring):
    """Parse `text` as a polynomial in `ring`.

    Raises ParseError (with a position) on bad syntax or unknown variables.
    """
    cur = _Cursor(text)
    return cur.expect_end(_poly(cur, ring))


def parse_polys(text, ring):
    """Parse `text` as a comma-separated list of polynomials in `ring`.

    The whole text is one cursor, so a comma inside a subscript stays part
    of its name; as in `parse_poly`, a bad character anywhere in the text is
    reported before a grammar error.
    """
    cur = _Cursor(text)
    return cur.expect_end(_polys(cur, ring))


def _polys(cur, ring):
    """One `polys` read from `cur`."""
    polys = [_poly(cur, ring)]
    while cur.toks[cur.i] == ",":
        cur.i += 1
        polys.append(_poly(cur, ring))
    return polys


def _poly(cur, ring):
    """One `poly` read from `cur`, built in normal form."""
    toks = cur.toks
    terms = {}
    sign = toks[cur.i]   # "-" before a negated term, else any other token
    cur.i += sign == "-"
    while True:
        mono, num, den = _term(cur, ring)
        c = Fraction(-num if sign == "-" else num, den)
        if mono in terms:
            c += terms[mono]
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
        sign = toks[cur.i]
        if sign != "+" and sign != "-":
            return Poly._trusted(ring, terms)
        cur.i += 1


def _term(cur, ring):
    """One `term` as (monomial, numerator, denominator) of its unsigned
    coefficient: a `coeff`, if any, then its `factor`s."""
    toks = cur.toks
    num = den = 1
    exps = {}
    lead = toks[cur.i][:1]
    if lead.isdecimal():
        num = cur.nat()
        if toks[cur.i] == "/":
            cur.i += 1
            den = cur.nat("a denominator")
            if den == 0:
                raise cur.error("zero denominator", cur.i - 1)
        if toks[cur.i] != "*":
            return (), num, den
        cur.i += 1
    elif not lead.isalpha():
        raise cur.error("expected a coefficient or a variable")
    while True:
        at = cur.i
        name = cur.name("a variable")
        i = ring._by_name.get(name)
        if i is None:
            raise cur.error(f"unknown variable {name}", at)
        e = 1
        if toks[cur.i] == "^":
            cur.i += 1
            e = cur.nat()
        if e:   # x^0 leaves no zero exponent in the monomial
            exps[i] = exps.get(i, 0) + e
        if toks[cur.i] != "*":
            _check_degree(sum(exps.values()))
            return tuple(sorted(exps.items())), num, den
        cur.i += 1


def parse_variables(text):
    """Parse a comma-separated variable list, expanding `..` ranges."""
    cur = _Cursor(text)
    return cur.expect_end(_variables(cur))


def _variables(cur):
    """One `vars` read from `cur`, its ranges expanded, as checked names."""
    toks = cur.toks
    result = []
    while True:
        at = cur.i
        name = cur.name("a variable name")
        if toks[cur.i] == "..":
            cur.i += 1
            result.extend(_expand_range(cur, name, cur.name("a variable name"), at, len(result)))
        else:
            result.append(Variable(*_split_name(name)))
        if toks[cur.i] != ",":
            return result
        cur.i += 1


def _expand_range(cur, name, name2, at, have):
    """The variables of the range `name..name2`; an error is at token `at`.
    A box that would take the `have` names before it past SIZE_BOUND is
    refused before any of its names is built.

    Each name is built from parts checked once: a box's base by `Variable`,
    its coordinates stringified once per range; a letter range's letters in
    one pass, the first non-letter refused with the error `Variable` gives.
    """
    (base, subs), (base2, subs2) = _split_name(name), _split_name(name2)
    if subs or subs2:
        if base != base2:
            raise cur.error("subscript range needs matching base names", at)
        if len(subs) != len(subs2) or not subs:
            raise cur.error("subscript range needs tuples of equal length", at)
        if any(lo > hi for lo, hi in zip(subs, subs2)):
            raise cur.error("empty subscript range", at)
        count = have + prod(hi - lo + 1 for lo, hi in zip(subs, subs2))
        if count > SIZE_BOUND:
            raise cur.error(f"range brings the list to {count} names, "
                            f"more than {SIZE_BOUND}", at)
        Variable(base)   # checks the base the whole box shares
        box = itertools.product(*[list(map(str, range(lo, hi + 1)))
                                  for lo, hi in zip(subs, subs2)])
        return [f"{base}_({','.join(t)})" for t in box]
    if len(base) != 1 or len(base2) != 1 or ord(base) > ord(base2):
        raise cur.error("letter range needs single letters in order", at)
    letters = "".join(map(chr, range(ord(base), ord(base2) + 1)))
    if not letters.isalpha():   # from "Z" to "a" lie "[" to "`"
        Variable(next(c for c in letters if not c.isalpha()))
    return list(letters)
