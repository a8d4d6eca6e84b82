"""Sparse linear combinations of monomials over an exact scalar field.

Coefficients are fractions.Fraction over Q and plain ints in [0, p) over
GF(p).  Arithmetic on them is Python's own: a sum of terms, repeats
allowed, is added up with + and *, reduced mod p once at the end and
stripped of zeros (_sum_terms), the same rule the elimination kernel in
presentation.py follows.  A field object only coerces values into its
convention, formats them and carries its characteristic p (0 for Q).
Floating point never appears here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain

from .errors import AlphabetMismatch, FieldMismatch, ParseError
from .monomial import Alphabet, Disequence, KeyCodec, lprod, rprod

#### scalar fields ##########################################################


class RationalField:
    """The rationals.  A single shared instance, QQ, is enough."""

    name = "Q"
    p = 0
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

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


# Miller-Rabin with these twelve bases is exact for every n below 3.18e23
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 2017); moduli stop at 2**64, well inside that range.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for 0 <= n < 3.18e23."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    s = (d & -d).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d >>= s
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers mod p for prime p < 2**64; values are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 2**64:
            raise ValueError(f"modulus {p} is not below the bound 2**64")
        if not isinstance(p, int) or not _is_prime(p):
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


def _sum_terms(pairs, field) -> dict:
    """Sum (monomial, coefficient) pairs, a monomial may repeat, into a
    terms dict: Python arithmetic, then % p once and zeros dropped.  A
    monomial's first coefficient is stored as it is; only repeats add."""
    out: dict = {}
    get = out.get
    for m, c in pairs:
        old = get(m)
        out[m] = c if old is None else old + c
    p = field.p
    if p:
        return {m: r for m, v in out.items() if (r := v % p)}
    return {m: v for m, v in out.items() if v}


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

    def support(self) -> list[Disequence]:
        return sorted(self.terms, key=Disequence.sort_key, reverse=True)

    def max_length(self) -> int:
        return max((len(m.word) for m in self.terms), default=0)

    # -- ring-ish operations --------------------------------------------------

    def _summed(self, pairs) -> "DiElement":
        """The element summing (monomial, coefficient) pairs, via _sum_terms."""
        return DiElement(self.alphabet, self.field, _sum_terms(pairs, self.field), _clean=True)

    def _check_mate(self, other: "DiElement"):
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("mixing alphabets")
        if self.field != other.field:
            raise FieldMismatch("mixing scalar fields")

    def __add__(self, other):
        if not isinstance(other, DiElement):
            return NotImplemented
        self._check_mate(other)
        return self._summed(chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return self._summed((m, -c) for m, c in self.terms.items())

    def __sub__(self, other):
        if not isinstance(other, DiElement):
            return NotImplemented
        self._check_mate(other)
        return self._summed(chain(self.terms.items(), ((m, -c) for m, c in other.terms.items())))

    def scaled(self, coeff) -> "DiElement":
        c0 = self.field.coerce(coeff)
        return self._summed((m, c0 * c) for m, c in self.terms.items())

    def __rmul__(self, coeff):
        if isinstance(coeff, DiElement):
            return NotImplemented
        return self.scaled(coeff)

    def _product(self, other: "DiElement", mprod) -> "DiElement":
        """The bilinear extension of the monomial product mprod."""
        self._check_mate(other)
        return self._summed(
            (mprod(mu, mv), cu * cv)
            for mu, cu in self.terms.items()
            for mv, cv in other.terms.items()
        )

    def lprod(self, other: "DiElement") -> "DiElement":
        return self._product(other, lprod)

    def rprod(self, other: "DiElement") -> "DiElement":
        return self._product(other, rprod)

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
        parts = []
        for mono in self.support():
            c = self.terms[mono]
            if c < 0:  # only over Q; residues lie in [0, p)
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


def _identity_sides(x, y, z, lprod, rprod) -> tuple:
    """The five defining identities as (left, right) pairs of sides under
    the products lprod (|-) and rprod (-|).

    Order: associativity of rprod, associativity of lprod, then the three
    bar identities tying the two products together.  Each product is taken
    once: the four inner ones x-|y, x|-y, y-|z and y|-z, and the outer
    x-|(y-|z) and (x|-y)|-z that two identities share, 12 products in all.
    """
    xr, xl, yr, yl = rprod(x, y), lprod(x, y), rprod(y, z), lprod(y, z)
    x_yr, xl_z = rprod(x, yr), lprod(xl, z)
    return ((rprod(xr, z), x_yr), (xl_z, lprod(x, yl)), (rprod(x, yl), x_yr),
            (lprod(xr, z), xl_z), (lprod(x, yr), rprod(xl, z)))


def axiom_residuals(x: DiElement, y: DiElement, z: DiElement) -> tuple:
    """The five identities as residuals left - right; all vanish identically.

    The products are DiElement.lprod and rprod, read at each call: the
    bilinear extensions of monomial.lprod and rprod on Disequence terms.
    """
    return tuple(a - b for a, b in _identity_sides(x, y, z, DiElement.lprod, DiElement.rprod))


def key_identity_verdicts(codec: KeyCodec, field, x: dict, y: dict, z: dict) -> tuple:
    """Per identity, in axiom_residuals' order, whether its sides differ on
    x, y, z: dicts from codec keys to int coefficients, as _sum_terms leaves
    them.  The products are codec.lprod and rprod on split keys, the key
    products the saturation engines run; the cap must reach 3 x the longest word.
    """
    split = codec.split

    def bilinear(mprod):
        def product(u, v):
            su, sv = ([(split(a), c) for a, c in w.items()] for w in (u, v))
            return _sum_terms([(mprod(a, b), c * d) for a, c in su for b, d in sv], field)
        return product

    sides = _identity_sides(x, y, z, bilinear(codec.lprod), bilinear(codec.rprod))
    return tuple(a != b for a, b in sides)


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
    pairs = []
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
            try:
                coeff = f.coerce(Fraction(tk[1]))
            except ZeroDivisionError:
                raise ParseError(f"coefficient {tk[1]} has a zero denominator in {f.name}",
                                 column=tk[2]) from None
            star = peek()
            if star[0] != "punct" or star[1] != "*":
                raise ParseError("expected '*' after coefficient", column=star[2])
            i += 1
        pairs.append((take_monomial(), sign * coeff))
        first = False
    return DiElement(alphabet, f, _sum_terms(pairs, f), _clean=True)
