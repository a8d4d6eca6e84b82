"""Monomials over a well-ordered alphabet with a marked middle letter.

A monomial here is a nonempty word a_1 ... a_t together with a middle index
m, 1 <= m <= t, written [a_1 ... a_t]@m.  Two associative products exist on
these: the left product forgets the middle of its left factor, the right
product forgets the middle of its right factor.  The total order used for
elimination compares (length, middle, letters) lexicographically.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import total_ordering
from itertools import product as _cartesian

from .errors import AlphabetMismatch

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

    def __hash__(self):
        return hash(self.names)


@total_ordering
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
        if max(word) >= alphabet.size:
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

    def __lt__(self, other):
        # total_ordering derives <=, > and >= from this, guard included
        if not isinstance(other, Disequence):
            raise TypeError(f"cannot compare Disequence with {type(other).__name__}")
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch("comparison across alphabets")
        return self.sort_key() < other.sort_key()


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


def universe_count(alphabet_size: int, length: int, associative: bool = False) -> int:
    """How many monomials of one length exist: t*k^t, or k^t with middles pinned."""
    n = alphabet_size**length
    return n if associative else length * n


def universe_total(alphabet_size: int, cap: int, associative: bool = False) -> int:
    """How many monomials of length 1..cap exist: the sum of universe_count
    over those lengths, in closed form, so a huge cap costs a few powers."""
    k, c = alphabet_size, cap
    if k == 1:
        return c if associative else c * (c + 1) // 2
    if associative:
        return (k ** (c + 1) - k) // (k - 1)
    return (c * k ** (c + 2) - (c + 1) * k ** (c + 1) + k) // (k - 1) ** 2


class KeyCodec:
    """One int key per monomial of length 1..cap in one mode.

    key = offset(t) + (middle - 1) * k**t + the word read in base k, for m
    of length t over k letters, where offset(t) counts the monomials
    shorter than t.  So key order is monomial order across lengths, and the
    keys of length t run consecutively from offset(t) in the order
    monomials() yields them; associative mode has middle 1 only, so the
    same layout serves both modes.  A key splits into (length, middle,
    word value); products with single generators are affine maps of keys.
    """

    __slots__ = ("alphabet", "cap", "associative", "_k", "_off", "_pow")

    def __init__(self, alphabet: Alphabet, cap: int, associative: bool = False):
        k = alphabet.size
        self.alphabet, self.cap, self.associative, self._k = alphabet, cap, associative, k
        self._pow = [k**t for t in range(cap + 2)]
        # _off[t] = offset(t) for t = 0..cap + 1; offset(0) = offset(1) = 0,
        # so bisect_right(_off, key) - 1 is the key's length
        off = [0, 0]
        for t in range(1, cap + 1):
            off.append(off[-1] + universe_count(k, t, associative))
        self._off = off

    def offset(self, t: int) -> int:
        """The first key of length t; offset(cap + 1) bounds all keys."""
        return self._off[t]

    def length(self, key: int) -> int:
        return bisect_right(self._off, key) - 1

    def split(self, key: int) -> tuple[int, int, int]:
        """(length, middle, word value) of a key."""
        t = bisect_right(self._off, key) - 1
        m0, w = divmod(key - self._off[t], self._pow[t])
        return t, m0 + 1, w

    def encode(self, m: Disequence) -> int:
        k, t, w = self._k, len(m.word), 0
        for b in m.word:
            w = w * k + b
        return self._off[t] + (m.middle - 1) * self._pow[t] + w

    def decode(self, key: int) -> Disequence:
        t, middle, w = self.split(key)
        k = self._k
        word = bytearray(t)
        for i in range(t - 1, -1, -1):
            w, word[i] = divmod(w, k)
        return Disequence(self.alphabet, bytes(word), middle)

    def lprod(self, u: tuple, v: tuple) -> int:
        """Key of lprod on two split keys: the middle moves to l1 + mid(v)."""
        (l1, _, wu), (l2, mv, wv) = u, v
        t = l1 + l2
        return self._off[t] + (l1 + mv - 1) * self._pow[t] + wu * self._pow[l2] + wv

    def rprod(self, u: tuple, v: tuple) -> int:
        """Key of rprod on two split keys: the middle stays at mid(u)."""
        (l1, mu, wu), (l2, _, wv) = u, v
        t = l1 + l2
        return self._off[t] + (mu - 1) * self._pow[t] + wu * self._pow[l2] + wv

    def images(self, key: int) -> list[int]:
        """Keys of the single-generator products of a key, in the order
        [rprod(g, m) for g], [rprod(m, g) for g] and, in dialgebra mode,
        [lprod(g, m) for g], [lprod(m, g) for g], g ascending.
        """
        off, k = self._off, self._k
        t = bisect_right(off, key) - 1
        K, W, o = self._pow[t], self._pow[t + 1], off[t + 1]
        m0, w = divmod(key - off[t], K)
        a, b = o + w, o + m0 * W + w * k  # g = 0 of rprod(g, m), rprod(m, g)
        out = [*range(a, a + k * K, K), *range(b, b + k)]
        if not self.associative:
            c, d = a + (m0 + 1) * W, o + t * W + w * k  # lprod(g, m), lprod(m, g)
            out += [*range(c, c + k * K, K), *range(d, d + k)]
        return out
