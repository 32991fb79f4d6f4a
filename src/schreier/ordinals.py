"""Ordinals below epsilon_0 in Cantor Normal Form.

An ordinal is represented as a finite sum  w^e1 * c1 + ... + w^ek * ck
with exponents e1 > e2 > ... > ek (themselves ordinals) and positive
integer coefficients.  The empty sum is 0.  All values are immutable
and hashable; all operations are pure.

Each ordinal is classified once, when it is made: `is_zero`, `is_finite`,
`is_limit` and `is_successor` are stored values, as is the hash.  The public
constructor `Ordinal(terms)` checks its terms, since they may come from
outside; the arithmetic here (`add`, `mul`, `natural_sum`, `omega_pow`,
`from_int`, `classify`, `fundamental_seq`, `descend`, and through them the
parser) builds its results in canonical form and makes them by `_make`,
which trusts its terms and checks nothing.
"""

import functools
import re

from . import SchreierError


class OrdinalError(SchreierError, ValueError):
    pass


class OrdinalParseError(OrdinalError):
    """Syntax error in an ordinal expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@functools.total_ordering
class Ordinal:
    """A countable ordinal below epsilon_0 in Cantor Normal Form.

    `terms` is the tuple of (exponent, coefficient) pairs, exponents strictly
    decreasing.  `is_zero`, `is_finite`, `is_limit` and `is_successor` are
    computed once, when the ordinal is made.  `Ordinal(terms)` rejects an
    exponent that is not an Ordinal, a coefficient that is not a positive
    integer, and exponents that do not strictly decrease.
    """

    __slots__ = ("terms", "_hash", "is_zero", "is_finite", "is_limit", "is_successor")

    def __init__(self, terms=()):
        terms = tuple(terms)
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise OrdinalError("exponent must be an Ordinal: %r" % (exp,))
            if not isinstance(coeff, int) or coeff < 1:
                raise OrdinalError("coefficient must be a positive integer: %r" % (coeff,))
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if _cmp(e1, e2) <= 0:
                raise OrdinalError("exponents must be strictly decreasing")
        _fill(self, terms)

    def __setattr__(self, *args):
        raise AttributeError("Ordinal is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return (Ordinal, (self.terms,))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._hash == other._hash and self.terms == other.terms

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return _cmp(self, other) < 0

    def __gt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return _cmp(self, other) > 0

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Ordinal(%s)" % format_ordinal(self)

    def __str__(self):
        return format_ordinal(self)

    def as_int(self):
        """The natural number this ordinal denotes; error if infinite."""
        if self.is_zero:
            return 0
        if not self.is_finite:
            raise OrdinalError("not a finite ordinal: %s" % self)
        return self.terms[0][1]


# The slots' own setters, bound once: `__setattr__` refuses every write, and
# object.__setattr__ costs a lookup by name on each of the six stores.
_new = object.__new__
_set_terms = Ordinal.terms.__set__
_set_hash = Ordinal._hash.__set__
_set_zero = Ordinal.is_zero.__set__
_set_finite = Ordinal.is_finite.__set__
_set_limit = Ordinal.is_limit.__set__
_set_successor = Ordinal.is_successor.__set__


def _fill(self, terms):
    """Store `terms` (a tuple in canonical form), its hash and its classification."""
    successor = bool(terms) and terms[-1][0].is_zero
    _set_terms(self, terms)
    _set_hash(self, hash(terms))
    _set_zero(self, not terms)
    _set_finite(self, not terms or (successor and len(terms) == 1))
    _set_limit(self, bool(terms) and not successor)
    _set_successor(self, successor)


def _make(terms):
    """The ordinal with `terms`, a tuple already in canonical form; no checks."""
    self = _new(Ordinal)
    _fill(self, terms)
    return self


def _cmp(a, b):
    """-1, 0 or 1 as a < b, a == b or a > b: the CNF term lists compared
    lexicographically."""
    if a is b:
        return 0
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        if e1 is not e2:
            order = _cmp(e1, e2)
            if order:
                return order
        if c1 != c2:
            return -1 if c1 < c2 else 1
    return (len(a.terms) > len(b.terms)) - (len(a.terms) < len(b.terms))


ZERO = _make(())
ONE = _make(((ZERO, 1),))
OMEGA = _make(((ONE, 1),))


def from_int(n):
    if not isinstance(n, int) or n < 0:
        raise OrdinalError("expected a non-negative integer, got %r" % (n,))
    return ZERO if n == 0 else _make(((ZERO, n),))


def omega_pow(a):
    """w raised to the ordinal a."""
    if not isinstance(a, Ordinal):
        raise OrdinalError("exponent must be an Ordinal: %r" % (a,))
    return _make(((a, 1),))


def compare(a, b):
    """Three-way comparison; returns 'less', 'equal' or 'greater'."""
    return ("less", "equal", "greater")[_cmp(a, b) + 1]


def add(a, b):
    """Ordinal sum a + b (not commutative: 1 + w == w)."""
    if b.is_zero:
        return a
    lead = b.terms[0][0]
    kept = [t for t in a.terms if _cmp(t[0], lead) > 0]
    if len(kept) < len(a.terms) and a.terms[len(kept)][0] == lead:
        merged = (lead, a.terms[len(kept)][1] + b.terms[0][1])
        return _make(tuple(kept) + (merged,) + b.terms[1:])
    return _make(tuple(kept) + b.terms)


def mul(a, b):
    """Ordinal product a * b via the CNF recursion, term by term of b."""
    if a.is_zero or b.is_zero:
        return ZERO
    result = ZERO
    lead_exp = a.terms[0][0]
    for exp, coeff in b.terms:
        if exp.is_zero:
            # a * n  =  w^e1*(c1*n) + (rest of a)   for n >= 1
            head = (lead_exp, a.terms[0][1] * coeff)
            result = add(result, _make((head,) + a.terms[1:]))
        else:
            # a * w^exp * n  =  w^(e1 + exp) * n
            result = add(result, _make(((add(lead_exp, exp), coeff),)))
    return result


def natural_sum(a, b):
    """Hessenberg (coefficientwise) sum of two CNF ordinals."""
    coeffs = {}
    for exp, coeff in a.terms + b.terms:
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    terms = tuple((exp, coeffs[exp]) for exp in sorted(coeffs, reverse=True))
    return _make(terms)


def _less_one_last(a):
    """a's terms with one copy of its last term w^g taken away."""
    exp, coeff = a.terms[-1]
    return a.terms[:-1] if coeff == 1 else a.terms[:-1] + ((exp, coeff - 1),)


def classify(a):
    """Return ('zero', None), ('successor', predecessor) or ('limit', None)."""
    if a.is_zero:
        return ("zero", None)
    if a.is_successor:
        return ("successor", _make(_less_one_last(a)))
    return ("limit", None)


def fundamental_seq(lam, n):
    """The n-th element of the canonical fundamental sequence of a limit ordinal.

    Rules (with head = lam minus one copy of its last CNF term w^g):
      g = d+1 successor:  lam[n] = head + w^d * n
      g limit:            lam[n] = head + w^(g[n])
    For lam = w this gives lam[n] = n.
    """
    if not isinstance(n, int) or n < 1:
        raise OrdinalError("fundamental sequence index must be a positive integer")
    if not lam.is_limit:
        raise OrdinalError("not a limit ordinal: %s" % lam)
    head = _make(_less_one_last(lam))
    last_exp = lam.terms[-1][0]
    if last_exp.is_successor:
        pred = _make(_less_one_last(last_exp))
        return add(head, mul(omega_pow(pred), from_int(n)))
    # last_exp is itself a limit (it is nonzero here)
    return add(head, omega_pow(fundamental_seq(last_exp, n)))


def descend(a, n):
    """The predecessor of the first ordinal in a, a[n], a[n][n], ... that is
    not a limit; None if that ordinal is zero.

    One pass over a list of terms: take one copy of the last term w^g
    away, then append (d, n) if g = d + 1, or (g[n], 1) if g is a limit, as
    `fundamental_seq` does, until g = 0; then make one ordinal of the list.
    Each appended exponent is below every exponent before it, so the list
    stays in canonical form.
    """
    terms = list(a.terms)
    while terms:
        exp, coeff = terms.pop()
        if coeff > 1:
            terms.append((exp, coeff - 1))
        if exp.is_zero:
            return _make(tuple(terms))
        if exp.is_successor:
            terms.append((_make(_less_one_last(exp)), n))
        else:
            terms.append((fundamental_seq(exp, n), 1))
    return None


# -- parsing and formatting -------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([w^()*+]))")
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    pos = depth = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise OrdinalParseError("unexpected character %r" % text[pos], pos)
        if m.group(1) is not None:
            try:
                tokens.append(("num", int(m.group(1)), m.start(1)))
            except ValueError as exc:  # more digits than int() converts
                raise OrdinalParseError(str(exc), m.start(1))
        else:
            tokens.append((m.group(2), None, m.start(2)))
            depth += {"(": 1, ")": -1}.get(m.group(2), 0)
            if depth > MAX_NESTING:  # only w^ opens a parenthesis
                raise OrdinalParseError("nested deeper than %d levels" % MAX_NESTING, pos)
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise OrdinalParseError("expected %r, got %r" % (kind, tok[0]), tok[2])
        self.i += 1
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] == "+":
            self.take("+")
            value = add(value, self.parse_term())
        return value

    def parse_term(self):
        value = self.parse_atom()
        if self.peek()[0] == "*":
            self.take("*")
            kind, num, pos = self.take()
            if kind != "num":
                raise OrdinalParseError("expected a natural number after '*'", pos)
            if num == 0:
                raise OrdinalParseError("coefficient 0 is not allowed", pos)
            value = mul(value, from_int(num))
        return value

    def parse_atom(self):
        kind, num, pos = self.take()
        if kind == "num":
            return from_int(num)
        if kind == "w":
            if self.peek()[0] == "^":
                self.take("^")
                nxt = self.peek()
                if nxt[0] == "(":
                    self.take("(")
                    exp = self.parse_expr()
                    self.take(")")
                elif nxt[0] == "num":
                    exp = from_int(self.take("num")[1])
                else:
                    raise OrdinalParseError("expected exponent after '^'", nxt[2])
                return omega_pow(exp)
            return OMEGA
        raise OrdinalParseError("expected an ordinal atom, got %r" % kind, pos)


def parse_ordinal(text):
    """Parse an ordinal expression and return its CNF normalization.

    Grammar: `0` | `w` | `w^k` | `w^(<expr>)` | `<atom>*<nat>` | `<expr>+<expr>`,
    with at most `MAX_NESTING` levels of `w^(...)`: parsing, comparison and
    sums recurse a few frames a level, and stay far below the recursion limit.
    """
    parser = _Parser(text)
    value = parser.parse_expr()
    parser.take("end")
    return value


def format_ordinal(a):
    """Canonical text form; round-trips through parse_ordinal."""
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp.is_finite:
            base = "w^%d" % exp.as_int()
        else:
            base = "w^(%s)" % format_ordinal(exp)
        parts.append(base if coeff == 1 else "%s*%d" % (base, coeff))
    return "+".join(parts)
