"""Exact ordinal arithmetic below epsilon_0.

Ordinals are kept in Cantor normal form: a finite sum of terms w^e * c with
strictly decreasing exponents e (themselves ordinals) and positive integer
coefficients c.  The module provides the ordering, (non-commutative) addition,
classification into zero / successor / limit, and the fundamental sequences
used to index sections of uniform families.

The assignment of a fundamental sequence to a limit ordinal is not canonical;
for exponent positions this module uses the Wainer-style assignment (see
:func:`wainer_fundamental`).  It is the only scheme implemented; the CLI's
``fundseq --json`` names it in its ``"scheme"`` key.

Ordinals are hash-consed: equal ordinals are one object, so equality is
identity, and :func:`descend` memoizes each step on the node it leaves, a
lazily filled transition table shared by every walk.  The whole-set walk
kernel :func:`_walk` sits under membership, star, the residual, the
canonical decomposition, trichotomy and the symbolic rank.  It rests on one
invariant of the system: a successor g + c, with g zero or a limit, reaches
g after any c more elements, whatever they are.  So the kernel jumps each
such run in one step, and limits are the only steps that read an element;
there it reads :func:`descend`'s memo inline and calls it only on a miss.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple


class Ordinal:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs with strictly
    decreasing exponents and coefficients >= 1; the empty tuple denotes 0.
    Instances are immutable, hashable, totally ordered and interned: building
    the same terms twice returns the same object.  Use the module
    constructors (:func:`from_int`, :func:`omega_power`, :func:`nat_multiple`,
    :func:`parse_ordinal`) rather than building term lists by hand.
    """

    __slots__ = ("terms", "_hash", "_next", "_run")

    def __new__(cls, terms: Tuple[Tuple["Ordinal", int], ...] = ()):
        terms = tuple(terms)
        # types are checked before the lookup, because the table's keys
        # compare numerically: ((ZERO, 1.0),) would find ONE.  A key that
        # passes and hits has the stored, already ordered exponents.
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise TypeError("exponents must be Ordinal instances")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError("coefficients must be integers >= 1")
        x = _INTERNED.get(terms)
        if x is not None:
            return x
        for (big, _), (small, _) in zip(terms, terms[1:]):
            if compare(small, big) >= 0:
                raise ValueError("exponents must be strictly decreasing")
        x = super().__new__(cls)
        x.terms = terms
        # naturals hash like the ints they equal, keeping dict semantics
        # consistent with __eq__'s int coercion
        if x.is_natural:
            x._hash = hash(x.as_int())
        else:
            x._hash = hash(tuple((hash(e), c) for e, c in terms))
        x._next = {}  # descend's memo: entry n -> next residual
        x._run = None  # _walk's split, filled on first use by _split
        # setdefault keeps one object when two threads miss together
        return _INTERNED.setdefault(terms, x)

    def __reduce__(self):
        # pickle and copy rebuild through __new__, landing on the interned node
        return (Ordinal, (self.terms,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def is_natural(self) -> bool:
        """True when the ordinal is a natural number (possibly 0)."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if not self.is_natural:
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1]

    # -- comparisons --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = from_int(other)
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self is other

    def __lt__(self, other):
        return compare(self, as_ordinal(other)) < 0

    def __le__(self, other):
        return compare(self, as_ordinal(other)) <= 0

    def __gt__(self, other):
        return compare(self, as_ordinal(other)) > 0

    def __ge__(self, other):
        return compare(self, as_ordinal(other)) >= 0

    def __hash__(self) -> int:
        return self._hash

    # -- arithmetic sugar ---------------------------------------------

    def __add__(self, other):
        return add(self, as_ordinal(other))

    def __radd__(self, other):
        return add(as_ordinal(other), self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    def __str__(self) -> str:
        return format_ordinal(self)


_INTERNED: Dict[Tuple[Tuple[Ordinal, int], ...], Ordinal] = {}

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if not isinstance(n, int) or n < 0:
        raise ValueError("expected a natural number")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def as_ordinal(x) -> Ordinal:
    """Coerce an int to an Ordinal; pass Ordinals through."""
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


def compare(x: Ordinal, y: Ordinal) -> int:
    """Three-way comparison: -1, 0 or 1 as x <, ==, > y."""
    if x is y:
        return 0
    for (e1, c1), (e2, c2) in zip(x.terms, y.terms):
        k = compare(e1, e2)
        if k != 0:
            return k
        if c1 != c2:
            return -1 if c1 < c2 else 1
    if len(x.terms) != len(y.terms):
        return -1 if len(x.terms) < len(y.terms) else 1
    return 0


def add(x: Ordinal, y: Ordinal) -> Ordinal:
    """Ordinal sum x + y (left argument may be absorbed, e.g. 1 + w == w)."""
    if not y.terms:
        return x
    if not x.terms:
        return y
    e = y.terms[0][0]
    i = len(x.terms)
    while i > 0 and compare(x.terms[i - 1][0], e) < 0:
        i -= 1
    if i > 0 and compare(x.terms[i - 1][0], e) == 0:
        merged = (e, x.terms[i - 1][1] + y.terms[0][1])
        return Ordinal(x.terms[: i - 1] + (merged,) + y.terms[1:])
    return Ordinal(x.terms[:i] + y.terms)


def omega_power(a) -> Ordinal:
    """w ** a."""
    return Ordinal(((as_ordinal(a), 1),))


def nat_multiple(a, p: int) -> Ordinal:
    """w**a * p for a natural p >= 1."""
    if not isinstance(p, int) or p < 1:
        raise ValueError("multiplier must be an integer >= 1")
    return Ordinal(((as_ordinal(a), p),))


def _scaled(a: Ordinal, p: int) -> Ordinal:
    # internal: allows p == 0 (giving 0), used when assembling sums
    return ZERO if p == 0 else Ordinal(((a, p),))


def predecessor(x: Ordinal) -> Ordinal:
    if not x.is_successor:
        raise ValueError(f"{x} is not a successor ordinal")
    exp, c = x.terms[-1]
    if c > 1:
        return Ordinal(x.terms[:-1] + ((exp, c - 1),))
    return Ordinal(x.terms[:-1])


def classify(x: Ordinal):
    """Return ('zero', None), ('successor', predecessor) or ('limit', None)."""
    if x.is_zero:
        return ("zero", None)
    if x.is_successor:
        return ("successor", predecessor(x))
    return ("limit", None)


@lru_cache(maxsize=None)
def wainer_fundamental(a: Ordinal, n: int) -> Ordinal:
    """Wainer-style fundamental sequence for a limit ordinal a, at n >= 1.

    Writing a = g + w^b with b >= 1 the last (smallest-exponent) term split
    off, the value is g + w^(b') * n when b = b' + 1 is a successor, and
    g + w^(wainer_fundamental(b, n)) when b is itself a limit.  The sequence
    is strictly increasing in n with supremum a.  Note wainer_fundamental(w, n)
    == n, which differs by one from :func:`fundamental` at w; the two schemes
    serve different roles and are deliberately distinct.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if not a.is_limit:
        raise ValueError(f"{a} is not a limit ordinal")
    head = a.terms[:-1]
    e, p = a.terms[-1]
    if p > 1:
        head = head + ((e, p - 1),)
    if e.is_successor:
        return Ordinal(head + ((predecessor(e), n),))
    return Ordinal(head + ((wainer_fundamental(e, n), 1),))


# cap on the expanded normal form: the descent chain of a nested tower
# like w^w^w is unwritably long for even modest n, and an explicit error
# beats exhausting memory
_EXPANSION_LIMIT = 20_000


def fundamental(x: Ordinal, n: int) -> Ordinal:
    """The n-th fundamental-sequence value of a limit ordinal x, n >= 1.

    This is the sequence the uniform-family system descends along:

    * fundamental(w, n) == n - 1            (so fundamental(w, 1) == 0)
    * fundamental(w**(b+1), n) == w**b * (n-1) + fundamental(w**b, n)
    * fundamental(w**a, n) == fundamental(w**(a_n), n) for limit a, where
      a_n = wainer_fundamental(a, n)
    * fundamental(w**a * p, n) == w**a * (p-1) + fundamental(w**a, n)
    * for a multi-term normal form, the last term is descended and the rest
      kept: fundamental(g + t, n) == g + fundamental(t, n)

    Values are strictly below x and strictly increasing in n.  Implemented as
    a loop because the normal form of the result can run to thousands of
    terms once exponents nest (e.g. w^w^w at largish n), which recursion
    would hit both quadratically and past the interpreter stack limit.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if not x.is_limit:
        raise ValueError(f"{x} is not a limit ordinal")
    acc = list(x.terms[:-1])
    e, p = x.terms[-1]
    if p > 1:
        acc.append((e, p - 1))
    # invariant: x == Ordinal(acc) + w**e, with e >= 1 strictly decreasing
    while True:
        # for n > 1 each term of e will still add terms to acc: c for a
        # natural part c, at least n for each copy of an infinite one.  The
        # final one is added after the last check, hence the - 1.  So a
        # climbing exponent is refused as soon as its share passes the
        # limit, exactly when counting acc alone would, only sooner.
        owed = 1 if n == 1 else sum(c if b is ZERO else c * n
                                    for b, c in e.terms)
        if len(acc) + owed - 1 > _EXPANSION_LIMIT:
            raise ValueError(
                f"normal form of the value at {n} runs past "
                f"{_EXPANSION_LIMIT} terms; use a smaller index"
            )
        if e is ONE:
            if n > 1:
                acc.append((ZERO, n - 1))
            break
        if e.is_successor:
            b = predecessor(e)
            if n > 1:
                acc.append((b, n - 1))
            e = b
        else:
            e = wainer_fundamental(e, n)
    return Ordinal(tuple(acc))


def descend(x: Ordinal, n: int) -> Ordinal:
    """One descent step of the uniform-family system at entry n.

    For a successor this is the predecessor (independent of n); for a limit it
    is fundamental(x, n).  Zero cannot be descended.  The step is memoized on
    the node x itself.
    """
    nxt = x._next.get(n)
    if nxt is None:
        if x.is_zero:
            raise ValueError("cannot descend below 0")
        nxt = predecessor(x) if x.is_successor else fundamental(x, n)
        x._next[n] = nxt
    return nxt


def _split(x: Ordinal):
    """Fill x's run split (c, g, drops) with x == g + c, g zero or a limit.

    c is 0 at a limit.  drops memoizes the partial runs of a successor:
    g + k for the k < c still owed when a set ends inside the run.
    """
    exp, c = x.terms[-1]
    if exp is ZERO:
        x._run = (c, Ordinal(x.terms[:-1]), {})
    else:
        x._run = (0, None, None)
    return x._run


def _walk(r: Ordinal, s, i: int = 0) -> Tuple[Ordinal, int]:
    """Descend r by s[i:] in turn, stopping at the first 0; return (r, i).

    The returned i is the index after the last element consumed: len(s)
    unless the walk reached 0 with elements left, which are unread.  At a
    successor g + c (g zero or a limit) the walk jumps c positions to g
    without reading them, since any c elements lead there; when fewer are
    left it returns the interned g + (c - left) from the node's drop memo.
    Only a limit reads its element, through :func:`descend`'s memo.  A zero
    r reads nothing.
    """
    end = len(s)
    while r is not ZERO and i < end:
        c, g, drops = r._run or _split(r)
        if not c:
            n = s[i]
            nxt = r._next.get(n)
            r = descend(r, n) if nxt is None else nxt
            i += 1
        elif i + c <= end:
            r = g
            i += c
        else:
            k = c - (end - i)
            r = drops.get(k)
            if r is None:
                r = drops[k] = Ordinal(g.terms + ((ZERO, k),))
            return r, end
    return r, i


# -- text form --------------------------------------------------------
#
# ordinal  := term ('+' term)*
# term     := NAT | 'w' ('^' atom)? ('*' NAT)?
# atom     := NAT | 'w' ('^' atom)? | '(' ordinal ')' | '{' ordinal '}'
#
# Whitespace is ignored.  Sums are normalised with ordinal addition, so
# "1 + w" parses to w.

# the deepest exponent nesting parsed: parsing, formatting and comparing
# recurse one to three frames per level, so 300 levels stay inside the
# interpreter's default limit of 1000 frames, and past them a tower such
# as "w^" * 1000 + "1" is an OrdinalParseError, not a RecursionError
_NESTING_LIMIT = 300


class OrdinalParseError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise OrdinalParseError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return int(self.text[start : self.pos])

    def atom(self, depth: int) -> Ordinal:
        if depth > _NESTING_LIMIT:
            self.error(f"exponents nest past the recursion bound of {_NESTING_LIMIT}")
        ch = self.peek()
        if ch == "(":
            self.take("(")
            val = self.sum(depth)
            self.take(")")
            return val
        if ch == "{":
            self.take("{")
            val = self.sum(depth)
            self.take("}")
            return val
        if ch == "w":
            self.pos += 1
            if self.peek() == "^":
                self.take("^")
                return omega_power(self.atom(depth + 1))
            return OMEGA
        return from_int(self.nat())

    def term(self, depth: int) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            exp = ONE
            if self.peek() == "^":
                self.take("^")
                exp = self.atom(depth + 1)
            coeff = 1
            if self.peek() == "*":
                self.take("*")
                coeff = self.nat()
                if coeff < 1:
                    self.error("coefficient must be >= 1")
            return _scaled(exp, coeff)
        if ch.isdigit():
            return from_int(self.nat())
        self.error("expected a term")

    def sum(self, depth: int = 0) -> Ordinal:
        total = self.term(depth)
        while self.peek() == "+":
            self.take("+")
            total = add(total, self.term(depth))
        return total


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual ordinal form, e.g. ``w^2*3 + w*2 + 5``.

    Exponents nest at most 300 deep; deeper input is an OrdinalParseError.
    """
    p = _Parser(text)
    val = p.sum()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return val


def _format_exponent(e: Ordinal) -> str:
    if e.is_natural:
        return str(e.as_int())
    if e is OMEGA:
        return "w"
    return "(" + format_ordinal(e) + ")"


def format_ordinal(x: Ordinal) -> str:
    """Render in the same grammar :func:`parse_ordinal` accepts (round-trips)."""
    if x.is_zero:
        return "0"
    parts = []
    for e, c in x.terms:
        if e.is_zero:
            parts.append(str(c))
            continue
        if e is ONE:
            base = "w"
        else:
            base = "w^" + _format_exponent(e)
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)
