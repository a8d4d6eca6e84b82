"""Sparse linear combinations of monomials over an exact scalar field.

Coefficients are either rationals (fractions.Fraction, always reduced) or
elements of a prime field stored as plain ints in [0, p).  All arithmetic
goes through a field object so the same code serves both.  Floating point
never appears here.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import AlphabetMismatch, FieldMismatch, ParseError
from .monomial import Alphabet, Disequence, lprod, rprod

#### scalar fields ##########################################################


class RationalField:
    """The rationals.  A single shared instance, QQ, is enough."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if not a:
            raise ZeroDivisionError("inverting 0")
        return 1 / a

    def submul(self, a, b, c):
        # a - b*c, the single hot operation of elimination
        return a - b * c

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """Integers mod p for prime p; values are ints reduced into [0, p)."""

    def __init__(self, p: int):
        from sympy import isprime  # deferred, sympy import is slow

        if not isinstance(p, int) or p < 2 or not isprime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def name(self) -> str:
        return f"gf {self.p}"

    def coerce(self, value) -> int:
        p = self.p
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return value.numerator * pow(den, p - 2, p) % p
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverting 0")
        return pow(a, self.p - 2, self.p)

    def submul(self, a, b, c):
        return (a - b * c) % self.p

    def format(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def parse_field(spec: str):
    """Field from its textual name: "Q", or "gf <prime>".

    Errors point at column 7, where the name starts on a "field" line.
    """
    parts = spec.split()
    if parts == ["Q"]:
        return QQ
    if len(parts) == 2 and parts[0] == "gf":
        if not parts[1].isdigit():
            raise ParseError(f"expected a prime after gf, got {parts[1]!r}", column=7)
        try:
            return PrimeField(int(parts[1]))
        except ValueError as exc:
            raise ParseError(str(exc), column=7) from None
    raise ParseError("expected Q or gf <prime>", column=7)


#### elements ###############################################################


class DiElement:
    """Finite sum of coeff * monomial terms; the zero sum is allowed."""

    __slots__ = ("alphabet", "field", "terms")

    def __init__(self, alphabet: Alphabet, field=QQ, terms=None, _clean=False):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "field", field)
        if terms is None:
            terms = {}
        elif not _clean:
            cleaned = {}
            for mono, c in dict(terms).items():
                if mono.alphabet != alphabet:
                    raise AlphabetMismatch("term over a different alphabet")
                c = field.coerce(c)
                if c:
                    cleaned[mono] = c
            terms = cleaned
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("DiElement is immutable")

    @classmethod
    def zero(cls, alphabet: Alphabet, field=QQ) -> "DiElement":
        return cls(alphabet, field, {}, _clean=True)

    @classmethod
    def monomial(cls, mono: Disequence, coeff=1, field=QQ) -> "DiElement":
        c = field.coerce(coeff)
        terms = {mono: c} if c else {}
        return cls(mono.alphabet, field, terms, _clean=True)

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Disequence):
        return self.terms.get(mono, self.field.zero)

    def leading(self):
        """(largest monomial, its coefficient), or None for the zero element."""
        if not self.terms:
            return None
        mono = max(self.terms, key=Disequence.sort_key)
        return mono, self.terms[mono]

    def support(self) -> list[Disequence]:
        return sorted(self.terms, key=Disequence.sort_key, reverse=True)

    def max_length(self) -> int:
        return max((len(m.word) for m in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        lengths = {len(m.word) for m in self.terms}
        return len(lengths) <= 1

    # -- ring-ish operations --------------------------------------------------

    def _check_mate(self, other: "DiElement"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("mixing alphabets")
        if self.field != other.field:
            raise FieldMismatch("mixing scalar fields")

    def __add__(self, other):
        if not isinstance(other, DiElement):
            return NotImplemented
        self._check_mate(other)
        f = self.field
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = f.add(out.get(mono, f.zero), c)
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return DiElement(self.alphabet, f, out, _clean=True)

    def __neg__(self):
        f = self.field
        return DiElement(
            self.alphabet, f, {m: f.neg(c) for m, c in self.terms.items()}, _clean=True
        )

    def __sub__(self, other):
        if not isinstance(other, DiElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, coeff) -> "DiElement":
        f = self.field
        c0 = f.coerce(coeff)
        if not c0:
            return DiElement.zero(self.alphabet, f)
        return DiElement(
            self.alphabet, f, {m: f.mul(c0, c) for m, c in self.terms.items()}, _clean=True
        )

    def __rmul__(self, coeff):
        if isinstance(coeff, DiElement):
            return NotImplemented
        return self.scaled(coeff)

    def mul(self, other: "DiElement", op: str) -> "DiElement":
        """Bilinear product; op is "lprod" or "rprod"."""
        if op == "lprod":
            mprod = lprod
        elif op == "rprod":
            mprod = rprod
        else:
            raise ValueError(f"op must be lprod or rprod, got {op!r}")
        self._check_mate(other)
        f = self.field
        out: dict = {}
        for mu, cu in self.terms.items():
            for mv, cv in other.terms.items():
                mono = mprod(mu, mv)
                c = f.mul(cu, cv)
                s = f.add(out.get(mono, f.zero), c)
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return DiElement(self.alphabet, f, out, _clean=True)

    def lprod(self, other: "DiElement") -> "DiElement":
        return self.mul(other, "lprod")

    def rprod(self, other: "DiElement") -> "DiElement":
        return self.mul(other, "rprod")

    # -- comparison and printing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, DiElement):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.field == other.field
            and self.terms == other.terms
        )

    __hash__ = None

    def format(self) -> str:
        """Literal form, terms in descending order, e.g. "[a a]@2 - [b]@1"."""
        if not self.terms:
            return "0"
        f = self.field
        rational = isinstance(f, RationalField)
        parts = []
        for mono in self.support():
            c = self.terms[mono]
            if rational and c < 0:
                sign, mag = "-", -c
            else:
                sign, mag = "+", c
            body = mono.format() if mag == f.one else f"{f.format(mag)}*{mono.format()}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = format

    def __repr__(self):
        return f"DiElement({self.format()})"


#### the defining identities ################################################


def axiom_residuals(x: DiElement, y: DiElement, z: DiElement) -> tuple:
    """The five defining identities as residuals; all vanish identically.

    Order: associativity of rprod, associativity of lprod, then the three
    bar identities tying the two products together.
    """
    return (
        x.rprod(y).rprod(z) - x.rprod(y.rprod(z)),
        x.lprod(y).lprod(z) - x.lprod(y.lprod(z)),
        x.rprod(y.lprod(z)) - x.rprod(y.rprod(z)),
        x.rprod(y).lprod(z) - x.lprod(y).lprod(z),
        x.lprod(y.rprod(z)) - x.lprod(y).rprod(z),
    )


#### literals ###############################################################

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[\[\]@*+-]))"
)


def _tokens(text: str):
    text = text.rstrip()
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            bad = text[pos:].lstrip()
            col = len(text) - len(bad) + 1
            raise ParseError(f"unexpected character {bad[0]!r}", column=col)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    out.append(("end", "", len(text) + 1))
    return out


def parse_element(text: str, alphabet: Alphabet, field=QQ) -> DiElement:
    """Parse an element literal: signed sum of [coef *] [letters]@m terms.

    Coefficients are integers or p/q; a bare "0" is the zero element.
    """
    toks = _tokens(text)
    if not text.strip():
        raise ParseError("empty element", column=1)
    if len(toks) == 2 and toks[0][:2] == ("num", "0"):
        return DiElement.zero(alphabet, field)

    i = 0

    def peek():
        return toks[i]

    def take(kind, what):
        nonlocal i
        tk = toks[i]
        if tk[0] != kind:
            raise ParseError(f"expected {what}", column=tk[2])
        i += 1
        return tk

    def take_punct(val):
        nonlocal i
        tk = toks[i]
        if tk[0] != "punct" or tk[1] != val:
            raise ParseError(f"expected '{val}'", column=tk[2])
        i += 1
        return tk

    def take_monomial() -> Disequence:
        take_punct("[")
        letters = []
        while peek()[0] == "name":
            letters.append(take("name", "letter"))
        if not letters:
            raise ParseError("empty monomial", column=peek()[2])
        take_punct("]")
        take_punct("@")
        num = take("num", "middle index")
        if "/" in num[1]:
            raise ParseError("middle index must be an integer", column=num[2])
        ranks = []
        for _, nm, col in letters:
            if nm not in alphabet.names:
                raise ParseError(f"unknown generator {nm!r}", column=col)
            ranks.append(alphabet.rank(nm))
        word = bytes(ranks)
        middle = int(num[1])
        if not 1 <= middle <= len(word):
            raise ParseError(f"middle {middle} out of range", column=num[2])
        return Disequence(alphabet, word, middle)

    f = field
    acc: dict = {}
    first = True
    while True:
        tk = peek()
        if tk[0] == "end":
            if first:
                raise ParseError("empty element", column=tk[2])
            break
        sign = 1
        if tk[0] == "punct" and tk[1] in "+-":
            sign = -1 if tk[1] == "-" else 1
            i += 1
        elif not first:
            raise ParseError("expected '+' or '-'", column=tk[2])
        coeff = f.one
        tk = peek()
        if tk[0] == "num":
            i += 1
            coeff = f.coerce(Fraction(tk[1]))
            star = peek()
            if star[0] != "punct" or star[1] != "*":
                raise ParseError("expected '*' after coefficient", column=star[2])
            i += 1
        mono = take_monomial()
        if sign < 0:
            coeff = f.neg(coeff)
        s = f.add(acc.get(mono, f.zero), coeff)
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
        first = False
    return DiElement(alphabet, f, acc, _clean=True)
