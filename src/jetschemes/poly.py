"""Sparse multivariate polynomials with exact rational coefficients.

A ring is an ordered list of named variables over QQ, partitioned into
consecutive blocks.  A plain ring is a single untagged block; rings built
by the jet construction tag each block with its jet order.  Terms are kept
in graded reverse lexicographic order, comparing later blocks first, so a
tower like QQ[x0,y0,z0][x1,y1,z1] prints with the outer (higher order)
variables dominating.

Coefficients are `fractions.Fraction`, so all arithmetic is exact and
every coefficient is stored with positive denominator in lowest terms.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

_IDENT = r"[A-Za-z][A-Za-z0-9]*"  # base names, binding names and graph vertices
_IDENT_RE = re.compile(_IDENT)


class ParseError(ValueError):
    """Malformed input text; `pos` is a 0-based offset into the parsed string."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.message = message
        self.pos = pos


@dataclass(frozen=True)
class Variable:
    """A ring variable: base name, optional subscripts, optional jet order.

    The printed name appends the jet order to the base ("x" at order 2 is
    "x2") and then the subscripts ("x0_(1,1)").  Base names may not end in
    a digit, otherwise "x12" could be either x at order 12 or x1 at order 2.
    The name is set once, at construction, and takes no part in equality,
    hashing or repr; the parser scans a name so written as one token.
    """

    base: str
    subscripts: tuple[int, ...] = ()
    jet_order: int | None = None
    name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.base):
            raise ValueError(f"invalid variable base name {self.base!r}")
        if self.base[-1].isdigit():
            raise ValueError(f"variable base {self.base!r} ends in a digit")
        subs = tuple(map(int, self.subscripts))
        object.__setattr__(self, "subscripts", subs)
        if subs and min(subs) < 0:
            raise ValueError("subscripts must be naturals")
        if self.jet_order is not None and self.jet_order < 0:
            raise ValueError("jet order must be a natural")
        order = "" if self.jet_order is None else str(self.jet_order)
        object.__setattr__(self, "name", _subscripted(self.base + order, subs))

    @classmethod
    def _trusted(cls, base, subscripts, jet_order, name):
        """A variable on fields that pass the checks above, with its printed
        name: `subscripts` is a tuple of naturals, and nothing is checked."""
        v = object.__new__(cls)
        v.__dict__.update(base=base, subscripts=subscripts, jet_order=jet_order, name=name)
        return v

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Variable({self.name!r})"


def _subscripted(text, subscripts):
    """`text` followed by its subscript group, if any: "x" and (1, 2) give "x_(1,2)"."""
    if not subscripts:
        return text
    return text + "_(" + ",".join(str(s) for s in subscripts) + ")"


class PolyRing:
    """Ordered variables over QQ, split into consecutive jet-order blocks.

    `blocks` is a tuple of (tag, size) pairs; a plain ring is ((None, n),).
    An optional `weights` tuple assigns one natural number per variable and
    is used for weighted homogeneity checks.
    """

    __slots__ = ("variables", "blocks", "weights", "_names", "_by_name", "_ends", "_hash")

    def __init__(self, variables, blocks=None, weights=None):
        self.variables = tuple(variables)
        n = len(self.variables)
        if blocks is None:
            blocks = ((None, n),)
        self.blocks = tuple((tag, int(size)) for tag, size in blocks)
        if sum(size for _, size in self.blocks) != n:
            raise ValueError("blocks do not partition the variable list")
        self._names = tuple(v.name for v in self.variables)
        self._by_name = {name: i for i, name in enumerate(self._names)}
        if len(self._by_name) != n:
            name = next(v for i, v in enumerate(self._names) if self._by_name[v] != i)
            raise ValueError(f"duplicate variable {name}")
        if weights is not None:
            weights = tuple(int(w) for w in weights)
            if len(weights) != n:
                raise ValueError("need one weight per variable")
        self.weights = weights
        self._ends = tuple(itertools.accumulate(size for _, size in self.blocks))
        # a name determines its Variable, so names stand in for the variables
        self._hash = hash((self._names, self.blocks, self.weights))

    def index(self, v):
        """The index of a variable, given as a Variable or by its name."""
        name = v.name if isinstance(v, Variable) else v
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"{name} is not a variable of {self}") from None

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {Monomial(): Fraction(1)})

    def constant(self, c):
        return Poly(self, {Monomial(): Fraction(c)})

    def var(self, v):
        """The variable `v` (a Variable, name, or index) as a polynomial."""
        i = v if isinstance(v, int) else self.index(v)
        return Poly(self, {Monomial({i: 1}): Fraction(1)})

    def gens(self):
        return [self.var(i) for i in range(len(self.variables))]

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.variables == other.variables
                and self.blocks == other.blocks
                and self.weights == other.weights)

    def __hash__(self):
        return self._hash

    def __str__(self):
        parts = []
        start = 0
        for _, size in self.blocks:
            names = ",".join(v.name for v in self.variables[start:start + size])
            parts.append(f"[{names}]")
            start += size
        return "QQ" + "".join(parts)

    def __repr__(self):
        return f"PolyRing({self})"


def ring_make(variables, weights=None):
    """Build a plain single-block ring from an ordered variable list."""
    return PolyRing(variables, None, weights)


class Monomial:
    """Sparse exponent map, stored as index-sorted (variable, exponent) pairs.

    The empty monomial is 1; zero exponents are never stored.
    """

    __slots__ = ("exps",)

    def __init__(self, exps=()):
        items = exps.items() if isinstance(exps, dict) else exps
        acc = {}
        for i, e in items:
            acc[i] = acc.get(i, 0) + e
        cleaned = []
        for i, e in sorted(acc.items()):
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e:
                cleaned.append((i, e))
        self.exps = tuple(cleaned)

    @classmethod
    def _trusted(cls, exps):
        """A monomial on `exps` already index-sorted with positive exponents."""
        m = object.__new__(cls)
        m.exps = exps
        return m

    def degree(self):
        return sum(e for _, e in self.exps)

    def weighted_degree(self, weights):
        return sum(weights[i] * e for i, e in self.exps)

    def exponent(self, i):
        for j, e in self.exps:
            if j == i:
                return e
        return 0

    def support(self):
        return tuple(i for i, _ in self.exps)

    def is_squarefree(self):
        return all(e == 1 for _, e in self.exps)

    def divides(self, other):
        it = dict(other.exps)
        return all(it.get(i, 0) >= e for i, e in self.exps)

    def __mul__(self, other):
        return Monomial(self.exps + other.exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        if not self.exps:
            return "Monomial(1)"
        body = "*".join(f"v{i}" if e == 1 else f"v{i}^{e}" for i, e in self.exps)
        return f"Monomial({body})"


def term_key(ring, mono):
    """Sort key for monomials, ascending in the ring's canonical order.

    Blocks are compared from the last one; within a block the order is
    graded reverse lexicographic.  The key is one flat tuple: for each
    block, from the last, its degree and then -index, -exponent for each
    of its variables from the last one, stopping after the block of the
    monomial's lowest-index variable (the constant monomial keys as ()).
    At equal block degree neither run of pairs is a prefix of the other,
    so two keys stay aligned block by block and compare as the block's
    negated exponents read from its last variable, zeros included, would.
    A key cut off after its last nonempty block is a prefix only of the
    key of a monomial that agrees with it there and has more variables
    below, which is the larger one.
    """
    exps = mono.exps
    if not exps:
        return ()
    ends = ring._ends
    b = bisect_right(ends, exps[0][0])   # the block of the lowest-index variable
    key = []   # built from that block up, and reversed at the end
    degree = 0
    for i, e in exps:
        while i >= ends[b]:
            key.append(degree)
            degree = 0
            b += 1
        key += (-e, -i)
        degree += e
    key.append(degree)
    key += [0] * (len(ends) - 1 - b)
    key.reverse()
    return tuple(key)


def monomial_str(ring, mono):
    """Print factors in variable-list order, e.g. "y0*z0*x2" or "x^2*y"."""
    names = ring._names
    return "*".join([names[i] if e == 1 else f"{names[i]}^{e}" for i, e in mono.exps])


class Poly:
    """A sparse polynomial: monomials mapped to nonzero rational coefficients."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring, terms):
        self.ring = ring
        nvars = len(ring.variables)
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            if m.exps and m.exps[-1][0] >= nvars:
                raise ValueError("monomial uses a variable outside the ring")
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
        return p

    def items(self):
        """Terms as (monomial, coefficient) pairs in canonical descending order."""
        return sorted(self._terms.items(),
                      key=lambda kv: term_key(self.ring, kv[0]), reverse=True)

    def monomials(self):
        return [m for m, _ in self.items()]

    def coefficient(self, mono):
        return self._terms.get(mono, Fraction(0))

    def is_zero(self):
        return not self._terms

    def degree(self):
        return max((m.degree() for m in self._terms), default=-1)

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
        if not isinstance(other, Poly):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = Fraction(other)
            # validating constructor: p * 0 must drop every term
            return Poly(self.ring, {m: c * v for m, v in self._terms.items()})
        self._check_ring(other)
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
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
        out = []
        for m, c in self.items():
            mono = monomial_str(self.ring, m)
            num, den = c.numerator, c.denominator
            sign = "-" if num < 0 else "+"
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not mono:
                out += (sign, mag)
            elif mag == "1":
                out += (sign, mono)
            else:
                out += (sign, mag, "*", mono)
        return "".join(out[1:] if out[0] == "+" else out)

    def __repr__(self):
        return f"Poly({self})"


def is_homogeneous(f, weights):
    """True iff every term of f has the same weighted degree."""
    if len(weights) != len(f.ring.variables):
        raise ValueError("need one weight per variable")
    degrees = {m.weighted_degree(weights) for m in f._terms}
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
# Parsing: two grammars over one token cursor, which also parses `var`.
#
# poly   := ['-'] term { ('+'|'-') term }
# term   := coeff { '*' factor } | factor { '*' factor }
# factor := var [ '^' nat ]
# coeff  := int [ '/' nat ]
# var    := ident [ '_' '(' nat { ',' nat } ')' ]
#
# vars   := range { ',' range }
# range  := var [ '..' var ]
#
# A var written compactly ("x_(1,12)": no spaces, no leading zeros) is
# scanned whole as one ident token, whose text is its name; any other
# spelling ("x _( 1, 012 )") is read token by token by the same `var` rule.
#
# "a..e" and "x_(1,1)..x_(3,3)" expand to ranges (single letters, or a box
# of subscript tuples enumerated with the last coordinate varying fastest).
# ---------------------------------------------------------------------------

_NAT = "(?:0|[1-9][0-9]*)"
_TOKEN_RE = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<ident>{_IDENT}(?:_\({_NAT}(?:,{_NAT})*\))?)"
                       r"|(?P<sym>\.\.|[-+*/^_(),])|(?P<bad>\S))")


class _Cursor:
    """The tokens of one text, read left to right by both grammars."""

    def __init__(self, text):
        self.tokens = tokens = []
        for m in _TOKEN_RE.finditer(text):   # each match skips the whitespace before its token
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
            tokens.append((kind, m[kind], m.start(kind)))
        tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_sym(self, ch):
        kind, value, _ = self.tokens[self.i]
        if kind == "sym" and value == ch:
            self.i += 1
            return True
        return False

    def expect_sym(self, ch):
        kind, value, pos = self.advance()
        if kind != "sym" or value != ch:
            raise ParseError(f"expected {ch!r}", pos)

    def expect_nat(self, what="a natural number"):
        kind, value, pos = self.advance()
        if kind != "int":
            raise ParseError(f"expected {what}", pos)
        return int(value)

    def name(self, what):
        """Parse a `var`; returns (its canonical name, offset of the ident)."""
        kind, text, pos = self.advance()
        if kind != "ident":
            raise ParseError(f"expected {what}", pos)
        if "_(" not in text and self.accept_sym("_"):   # not scanned whole
            self.expect_sym("(")
            subs = [self.expect_nat()]
            while self.accept_sym(","):
                subs.append(self.expect_nat())
            self.expect_sym(")")
            text = _subscripted(text, subs)
        return text, pos

    def expect_end(self):
        kind, value, pos = self.peek()
        if kind != "end":   # a name scanned whole is reported by its ident
            raise ParseError(f"unexpected {value.partition('_(')[0]!r}", pos)


def _split_name(name):
    """The base and subscripts of a canonical name: "x_(1,2)" gives ("x", (1, 2))."""
    base, paren, subs = name.partition("_(")
    return base, tuple(map(int, subs[:-1].split(","))) if paren else ()


def parse_poly(text, ring):
    """Parse `text` as a polynomial in `ring`.

    Raises ParseError (with a position) on bad syntax or unknown variables.
    """
    cur = _Cursor(text)
    terms = {}
    sign = -1 if cur.accept_sym("-") else 1
    while True:
        mono, num, den = _term(cur, ring)
        c = Fraction(sign * num, den)
        if mono in terms:
            c += terms[mono]
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
        if cur.accept_sym("+"):
            sign = 1
        elif cur.accept_sym("-"):
            sign = -1
        else:
            break
    cur.expect_end()
    return Poly._trusted(ring, terms)


def _term(cur, ring):
    """One term as (monomial, numerator, denominator) of its unsigned coefficient."""
    kind, _, pos = cur.peek()
    num = den = 1
    exps = {}
    if kind == "int":
        num, den = _coeff(cur)
    elif kind == "ident":
        _factor(cur, ring, exps)
    else:
        raise ParseError("expected a coefficient or a variable", pos)
    while cur.accept_sym("*"):
        _factor(cur, ring, exps)
    return Monomial._trusted(tuple(sorted(exps.items()))), num, den


def _coeff(cur):
    num = cur.expect_nat()
    if not cur.accept_sym("/"):
        return num, 1
    pos = cur.peek()[2]
    den = cur.expect_nat("a denominator")
    if den == 0:
        raise ParseError("zero denominator", pos)
    return num, den


def _factor(cur, ring, exps):
    name, pos = cur.name("a variable")
    i = ring._by_name.get(name)
    if i is None:
        raise ParseError(f"unknown variable {name}", pos)
    e = cur.expect_nat() if cur.accept_sym("^") else 1
    if e:   # x^0 leaves no zero exponent in the monomial
        exps[i] = exps.get(i, 0) + e


def parse_variables(text):
    """Parse a comma-separated variable list, expanding `..` ranges."""
    cur = _Cursor(text)
    result = []
    while True:
        name, pos = cur.name("a variable name")
        if cur.accept_sym(".."):
            result.extend(_expand_range(name, cur.name("a variable name")[0], pos))
        else:
            result.append(Variable(*_split_name(name)))
        if not cur.accept_sym(","):
            break
    cur.expect_end()
    return result


def _expand_range(name, name2, pos):
    (base, subs), (base2, subs2) = _split_name(name), _split_name(name2)
    if subs or subs2:
        if base != base2:
            raise ParseError("subscript range needs matching base names", pos)
        if len(subs) != len(subs2) or not subs:
            raise ParseError("subscript range needs tuples of equal length", pos)
        if any(lo > hi for lo, hi in zip(subs, subs2)):
            raise ParseError("empty subscript range", pos)
        box = itertools.product(*[range(lo, hi + 1) for lo, hi in zip(subs, subs2)])
        first = Variable(base, next(box))   # checks the base the whole box shares
        return [first] + [Variable._trusted(base, t, None, _subscripted(base, t)) for t in box]
    if len(base) != 1 or len(base2) != 1 or ord(base) > ord(base2):
        raise ParseError("letter range needs single letters in order", pos)
    return [Variable(chr(c)) for c in range(ord(base), ord(base2) + 1)]
