"""Monomials over a well-ordered alphabet with a marked middle letter.

A monomial here is a nonempty word a_1 ... a_t together with a middle index
m, 1 <= m <= t, written [a_1 ... a_t]@m.  Two associative products exist on
these: the left product forgets the middle of its left factor, the right
product forgets the middle of its right factor.  The total order used for
elimination compares (length, middle, letters) lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _cartesian

from .errors import AlphabetMismatch, ParseError

# ranks are stored one byte each
MAX_LETTERS = 255


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names; position in the tuple is the rank."""

    names: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        if len(names) > MAX_LETTERS:
            raise ValueError(f"alphabet capped at {MAX_LETTERS} generators")
        for nm in names:
            if not nm or not all(ch.isalnum() or ch == "_" for ch in nm) or nm[0].isdigit():
                raise ValueError(f"bad generator name {nm!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator name")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {nm: i for i, nm in enumerate(names)})

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(names))

    @property
    def size(self) -> int:
        return len(self.names)

    def rank(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def generators(self) -> tuple["Disequence", ...]:
        return tuple(Disequence(self, bytes([i]), 1) for i in range(self.size))

    def __hash__(self):
        return hash(self.names)


class Disequence:
    """Immutable word-with-middle [a_1 ... a_t]@m over an Alphabet.

    The word holds alphabet ranks, one byte per letter, so letter order and
    byte order agree and lexicographic byte comparison is the letter order.
    """

    __slots__ = ("alphabet", "word", "middle")

    def __init__(self, alphabet: Alphabet, word: bytes, middle: int):
        word = bytes(word)
        if not word:
            raise ValueError("empty word")
        if not 1 <= middle <= len(word):
            raise ValueError(f"middle {middle} out of range for length {len(word)}")
        if word and max(word) >= alphabet.size:
            raise ValueError("letter rank outside alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "middle", middle)

    def __setattr__(self, name, value):
        raise AttributeError("Disequence is immutable")

    @property
    def letters(self) -> tuple[str, ...]:
        names = self.alphabet.names
        return tuple(names[b] for b in self.word)

    def sort_key(self):
        """Key realizing the (length, middle, letters) lexicographic order."""
        return (len(self.word), self.middle, self.word)

    def format(self) -> str:
        return "[" + " ".join(self.letters) + "]@" + str(self.middle)

    __str__ = format

    def __repr__(self):
        return f"Disequence({self.format()})"

    def __eq__(self, other):
        if not isinstance(other, Disequence):
            return NotImplemented
        return (
            self.word == other.word
            and self.middle == other.middle
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash((self.word, self.middle))

    def _cmp_guard(self, other):
        if not isinstance(other, Disequence):
            raise TypeError(f"cannot compare Disequence with {type(other).__name__}")
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("comparison across alphabets")

    def __lt__(self, other):
        self._cmp_guard(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        self._cmp_guard(other)
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        self._cmp_guard(other)
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        self._cmp_guard(other)
        return self.sort_key() >= other.sort_key()


def _same_alphabet(u: Disequence, v: Disequence) -> Alphabet:
    if u.alphabet != v.alphabet:
        raise AlphabetMismatch("product across alphabets")
    return u.alphabet


def lprod(u: Disequence, v: Disequence) -> Disequence:
    """Left product: concatenate, middle jumps to len(u) + middle(v)."""
    a = _same_alphabet(u, v)
    return Disequence(a, u.word + v.word, len(u.word) + v.middle)


def rprod(u: Disequence, v: Disequence) -> Disequence:
    """Right product: concatenate, middle stays at middle(u)."""
    a = _same_alphabet(u, v)
    return Disequence(a, u.word + v.word, u.middle)


def middle_submonomials(u: Disequence) -> list[Disequence]:
    """All [a_p ... a_q]@(m-p+1) with p <= m <= q, ascending.

    Exactly m*(t-m+1) of them, all distinct.
    """
    w, m, a = u.word, u.middle, u.alphabet
    t = len(w)
    out = [
        Disequence(a, w[p - 1 : q], m - p + 1)
        for p in range(1, m + 1)
        for q in range(m, t + 1)
    ]
    out.sort(key=Disequence.sort_key)
    return out


def parse_disequence(text: str, alphabet: Alphabet) -> Disequence:
    """Parse a monomial literal like "[a b c]@2"."""
    s = text.strip()
    if not s.startswith("["):
        raise ParseError("expected '['", column=1)
    close = s.find("]")
    if close < 0:
        raise ParseError("missing ']'", column=len(s))
    names = s[1:close].split()
    if not names:
        raise ParseError("empty monomial", column=2)
    rest = s[close + 1 :]
    if not rest.startswith("@"):
        raise ParseError("expected '@' after ']'", column=close + 2)
    digits = rest[1:]
    if not digits.isdigit():
        raise ParseError("expected middle index after '@'", column=close + 3)
    try:
        word = bytes(alphabet.rank(nm) for nm in names)
    except KeyError as exc:
        raise ParseError(str(exc.args[0]), column=2) from None
    middle = int(digits)
    if not 1 <= middle <= len(word):
        raise ParseError(f"middle {middle} out of range", column=close + 3)
    return Disequence(alphabet, word, middle)


#### enumeration ############################################################


def monomials(alphabet: Alphabet, length: int, associative: bool = False):
    """Yield every monomial of the given length, ascending in the order.

    In associative mode only middle 1 exists.  Within one length the order
    runs middles first, then words lexicographically, which matches the
    (length, middle, letters) comparison.
    """
    words = [bytes(w) for w in _cartesian(range(alphabet.size), repeat=length)]
    middles = (1,) if associative else range(1, length + 1)
    for m in middles:
        for w in words:
            yield Disequence(alphabet, w, m)


def position(m: Disequence) -> int:
    """The index at which monomials(m.alphabet, len(m.word), ...) yields m.

    That is (middle - 1) * k**t + the word read in base k, so position order
    is monomial order within one length.  Associative mode yields middle 1
    only, so the same formula indexes both modes.
    """
    k = m.alphabet.size
    value = 0
    for b in m.word:
        value = value * k + b
    return (m.middle - 1) * k ** len(m.word) + value


def universe_count(alphabet_size: int, length: int, associative: bool = False) -> int:
    """How many monomials of one length exist: t*k^t, or k^t with middles pinned."""
    n = alphabet_size**length
    return n if associative else length * n
