"""Monomials: products, the length-middle-lex order, enumeration, keys, literals."""

import itertools
import operator

import pytest
from hypothesis import given, strategies as st

from digrow.element import parse_element
from digrow.errors import AlphabetMismatch, ParseError
from digrow.monomial import (
    Alphabet,
    Disequence,
    KeyCodec,
    lprod,
    monomials,
    rprod,
    universe_count,
    universe_total,
)

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")
ABCD = Alphabet.of("a", "b", "c", "d")
A4 = Alphabet.of("a1", "a2", "a3", "a4")


def D(text, alphabet=AB):
    """The monomial of a one-term literal such as "[a b]@2"."""
    (m,) = parse_element(text, alphabet).terms
    return m


#### strategies

@st.composite
def disequences(draw, alphabet=AB, max_len=5):
    length = draw(st.integers(1, max_len))
    word = bytes(draw(st.integers(0, alphabet.size - 1)) for _ in range(length))
    middle = draw(st.integers(1, length))
    return Disequence(alphabet, word, middle)


# ===== products ============================================================


def test_lprod_concatenates_and_shifts_middle():
    assert lprod(D("[a b]@1", ABCD), D("[c d]@2", ABCD)) == D("[a b c d]@4", ABCD)
    assert lprod(D("[a]@1"), D("[b]@1")) == D("[a b]@2")
    assert lprod(D("[a a]@2", A), D("[a]@1", A)) == D("[a a a]@3", A)


def test_rprod_concatenates_and_keeps_left_middle():
    assert rprod(D("[a b]@1", ABCD), D("[c d]@2", ABCD)) == D("[a b c d]@1", ABCD)
    assert rprod(D("[a]@1"), D("[b]@1")) == D("[a b]@1")
    assert rprod(D("[a a]@2", A), D("[a]@1", A)) == D("[a a a]@2", A)


@given(disequences(), disequences())
def test_length_additivity_and_middle_laws(u, v):
    for prod in (lprod, rprod):
        w = prod(u, v)
        assert len(w.word) == len(u.word) + len(v.word)
    assert lprod(u, v).middle == len(u.word) + v.middle
    assert rprod(u, v).middle == u.middle


def test_products_reject_mixed_alphabets():
    with pytest.raises(AlphabetMismatch):
        lprod(D("[a]@1", A), D("[b]@1"))
    with pytest.raises(AlphabetMismatch):
        rprod(D("[a]@1"), D("[a]@1", A))


# ===== the order ===========================================================


def test_compare_examples():
    # middle breaks the length tie before any letters are read
    assert D("[a4 a3 a2]@1", A4) < D("[a1 a3 a2]@2", A4)
    # length dominates everything
    assert D("[a1 a2 a3 a4]@1", A4) > D("[a1 a2 a4]@2", A4)
    assert D("[a]@1", A) == D("[a]@1", A)


def test_comparison_operators_match_compare():
    u, v = D("[a b]@1"), D("[a b]@2")
    assert u < v and v > u and u <= v and u != v
    assert not u > v
    assert u <= u and u >= u and not u > u and not u < u
    other = D("[a]@1", A)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(AlphabetMismatch):
            op(u, other)
        with pytest.raises(TypeError):
            op(u, 1)
        with pytest.raises(TypeError):
            op(1, u)


def test_enumeration_is_sorted_and_counted():
    for alphabet in (A, AB, ABC):
        for associative in (False, True):
            assert [universe_total(alphabet.size, c, associative) for c in range(8)] == [
                sum(universe_count(alphabet.size, t, associative) for t in range(1, c + 1))
                for c in range(8)
            ]
        for t in range(1, 7):
            ms = list(monomials(alphabet, t))
            assert len(ms) == universe_count(alphabet.size, t)
            assert len(ms) == t * alphabet.size**t
            assert ms == sorted(ms)
            ma = list(monomials(alphabet, t, associative=True))
            assert len(ma) == universe_count(alphabet.size, t, associative=True)
            assert all(m.middle == 1 for m in ma)


def test_position_is_the_enumeration_index():
    for alphabet in (A, AB, ABC):
        gens = [Disequence(alphabet, bytes([i]), 1) for i in range(alphabet.size)]
        for associative in (False, True):
            keys = KeyCodec(alphabet, 5, associative)
            key = 0
            previous = None
            for t in range(1, 6):
                assert keys.offset(t) == key
                for m in monomials(alphabet, t, associative):
                    # keys run consecutively across lengths, in monomial order
                    assert keys.encode(m) == key and keys.length(key) == t
                    assert keys.decode(key) == m
                    assert previous is None or previous.sort_key() < m.sort_key()
                    previous = m
                    if t < 5:
                        want = [rprod(g, m) for g in gens] + [rprod(m, g) for g in gens]
                        if not associative:
                            want += [lprod(g, m) for g in gens] + [lprod(m, g) for g in gens]
                        assert [keys.decode(y) for y in keys.images(key)] == want
                    key += 1
            assert keys.offset(6) == key

    # more letters than base-36 digits
    big = Alphabet(tuple(f"g{i}" for i in range(40)))
    keys = KeyCodec(big, 2)
    for key, m in enumerate(m for t in (1, 2) for m in monomials(big, t)):
        assert keys.encode(m) == key and keys.decode(key) == m

    # one-letter words of length 192, both modes
    for associative in (False, True):
        keys = KeyCodec(A, 192, associative)
        for middle in (1, 96, 192)[: 1 if associative else 3]:
            m = Disequence(A, bytes(192), middle)
            key = keys.encode(m)
            assert keys.decode(key) == m and keys.length(key) == 192
            assert key == (191 if associative else 191 * 192 // 2 + middle - 1)
            assert keys.split(key) == (192, middle, 0)


def all_upto(alphabet, top):
    out = []
    for t in range(1, top + 1):
        out.extend(monomials(alphabet, t))
    return out


def test_order_total_and_strict_on_small_universe():
    ms = all_upto(AB, 3)
    for u, v in itertools.combinations(ms, 2):
        assert u != v
        assert (u < v) != (u > v)
        assert (v < u) == (u > v) and (v > u) == (u < v)


def test_one_sided_monotonicity_exhaustive():
    # every pair u1 < u2 and every u3, all lengths <= 4 on two letters
    ms = all_upto(AB, 4)
    keys = [m.sort_key() for m in ms]
    order = sorted(range(len(ms)), key=lambda i: keys[i])
    ms = [ms[i] for i in order]
    for i, u1 in enumerate(ms):
        for u2 in ms[i + 1:]:
            extra = u2.middle == 1
            for u3 in ms:
                assert lprod(u3, u1) < lprod(u3, u2)
                assert rprod(u1, u3) < rprod(u2, u3)
                if extra:
                    assert rprod(u3, u1) < rprod(u3, u2)
                    assert lprod(u1, u3) < lprod(u2, u3)


def test_monotonicity_fails_without_middle_one_clause():
    # right multiplication under the left product reverses this pair
    u = D("[a b]@2", ABC)
    v = D("[b a]@1", ABC)
    w = D("[c]@1", ABC)
    assert u > v
    assert lprod(u, w) < lprod(v, w)


# ===== literals and values =================================================


@given(disequences(alphabet=ABC))
def test_literal_round_trip(u):
    assert D(u.format(), ABC) == u


def test_literal_errors():
    for bad in ("[a b]@0", "[a b]@3", "[]@1", "[a b]", "a b]@1", "[a b@1", "[a b]@x"):
        with pytest.raises(ParseError):
            D(bad)
    with pytest.raises(ParseError) as exc:
        D("[a c]@1")
    assert "c" in str(exc.value)


def test_disequence_validation():
    with pytest.raises(ValueError):
        Disequence(AB, b"", 1)
    with pytest.raises(ValueError):
        Disequence(AB, b"\x00", 2)
    with pytest.raises(ValueError):
        Disequence(AB, b"\x07", 1)  # rank beyond the alphabet


def test_values_immutable_and_hashable():
    u = D("[a b]@2")
    with pytest.raises(AttributeError):
        u.middle = 1
    assert hash(D("[a b]@2")) == hash(u)
    assert len({D("[a b]@2"), u, D("[a b]@1")}) == 2


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.of()
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    with pytest.raises(ValueError):
        Alphabet.of("")
    with pytest.raises(ValueError):
        Alphabet.of(*(f"g{i}" for i in range(300)))
    assert Alphabet.of("b", "a").rank("b") == 0  # listed order is the order
