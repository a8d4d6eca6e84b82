"""Elements: linear algebra over Q and GF(p), bilinear products, axioms."""

from contextlib import contextmanager, nullcontext
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from digrow.element import (
    QQ,
    DiElement,
    PrimeField,
    _is_prime,
    _sum_terms,
    axiom_residuals,
    key_identity_verdicts,
    parse_element,
    parse_field,
)
from digrow.errors import AlphabetMismatch, FieldMismatch, ParseError
from digrow.monomial import Alphabet, Disequence, KeyCodec

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")
FIELDS = (QQ, PrimeField(7), PrimeField(32003))


def E(text, alphabet=AB, field=QQ):
    return parse_element(text, alphabet, field)


def D(text, alphabet=AB):
    """The monomial of a one-term literal such as "[a b]@2"."""
    (m,) = parse_element(text, alphabet).terms
    return m


#### strategies

@st.composite
def elements(draw, field=QQ, alphabet=ABC, max_len=3, max_terms=3, coeffs=st.integers(-5, 5)):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        length = draw(st.integers(1, max_len))
        word = bytes(draw(st.integers(0, alphabet.size - 1)) for _ in range(length))
        middle = draw(st.integers(1, length))
        terms[Disequence(alphabet, word, middle)] = field.coerce(draw(coeffs))
    return DiElement(alphabet, field, terms)


def elements_over_fields(count, **kwargs):
    """count elements over one field drawn from FIELDS."""
    return st.sampled_from(FIELDS).flatmap(
        lambda f: st.tuples(*(elements(f, **kwargs) for _ in range(count)))
    )


scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4)


# ===== addition and scaling ================================================


def test_add_examples():
    assert E("[a]@1") + E("- [a]@1") == E("0")
    assert E("[a]@1") + E("[b]@1") == E("[a]@1 + [b]@1")
    assert E("2*[a b]@2") + E("3*[a b]@2") == E("5*[a b]@2")
    assert (E("[a]@1") - E("[a]@1")).is_zero


def test_zero_coefficients_are_dropped():
    x = E("[a]@1 + [b]@1") - E("[b]@1")
    assert set(x.terms) == {D("[a]@1")}
    assert E("0").terms == {}
    assert E("0").is_zero
    assert not E("[a]@1").is_zero
    assert E("3*[a]@1 - 3*[a]@1").is_zero


def test_scalar_examples():
    assert 2 * E("[a]@1 + 3*[b]@1") == E("2*[a]@1 + 6*[b]@1")
    assert E("[a]@1").scaled(Fraction(1, 2)) == E("1/2*[a]@1")
    assert (0 * E("[a]@1")).is_zero
    assert -E("[a]@1 - [b]@1") == E("[b]@1 - [a]@1")


@given(elements_over_fields(2), scalars, scalars)
def test_module_laws(xy, r, s):
    x, y = xy
    assert x + y == y + x
    assert r * (x + y) == r * x + r * y
    assert (r + s) * x == r * x + s * x
    assert (r * s) * x == r * (s * x)
    assert x - x == DiElement.zero(x.alphabet, x.field)


POOL = [Disequence(AB, w, 1) for w in (b"\0", b"\1", b"\0\1", b"\1\0")]


@given(st.sampled_from(FIELDS), st.lists(st.tuples(st.integers(0, 3), scalars), max_size=12),
       st.data())
def test_sum_terms_matches_naive_sum(field, raw, data):
    # four monomials make repeats likely; negated copies make cancellations
    pairs = [(POOL[i], field.coerce(c)) for i, c in raw]
    if pairs:
        pairs += [(m, -c) for m, c in data.draw(st.lists(st.sampled_from(pairs)))]
    want = {}
    for m, c in pairs:
        want[m] = field.coerce(want.get(m, field.zero) + c)
    got = _sum_terms(pairs, field)
    assert list(got.items()) == [(m, c) for m, c in want.items() if c]
    if field.p:
        assert all(type(c) is int and 0 < c < field.p for c in got.values())
    else:
        assert all(type(c) is Fraction for c in got.values())


def test_sum_terms_examples():
    a, b = POOL[:2]
    half = Fraction(1, 2)
    assert _sum_terms([(a, half), (b, Fraction(3)), (a, -half)], QQ) == {b: 3}
    assert _sum_terms([(a, half)], QQ)[a] is half  # a first coefficient is kept as it is
    assert _sum_terms([(a, 5), (b, 6), (a, -5), (b, 3)], PrimeField(7)) == {b: 2}
    assert _sum_terms([(a, -1)], PrimeField(7)) == {a: 6}
    assert _sum_terms([], QQ) == {}


# ===== products ============================================================


def test_rprod_expansion():
    # frozen from the bilinear expansion done term by term:
    #   ([a]-[b]) r* ([a]+[b]) = [a a]@1 + [a b]@1 - [b a]@1 - [b b]@1
    got = E("[a]@1 - [b]@1").rprod(E("[a]@1 + [b]@1"))
    assert got == E("[a a]@1 + [a b]@1 - [b a]@1 - [b b]@1")


def test_lprod_expansion():
    got = E("[a]@1 - [b]@1").lprod(E("[a]@1 + [b]@1"))
    assert got == E("[a a]@2 + [a b]@2 - [b a]@2 - [b b]@2")


def test_product_against_zero():
    z = DiElement.zero(AB, QQ)
    x = E("[a b]@2 + 3*[a]@1")
    assert x.lprod(z) == z and z.lprod(x) == z
    assert x.rprod(z) == z and z.rprod(x) == z


@given(elements_over_fields(3), scalars)
def test_bilinearity(xyz, r):
    x, y, z = xyz
    for prod in (DiElement.lprod, DiElement.rprod):
        assert prod(x + y, z) == prod(x, z) + prod(y, z)
        assert prod(x, y + z) == prod(x, y) + prod(x, z)
        assert prod(r * x, y) == r * prod(x, y)
        assert prod(x, r * y) == r * prod(x, y)


@given(elements_over_fields(3, max_len=2))
def test_axiom_residuals_vanish_on_free_elements(xyz):
    x, y, z = xyz
    assert all(r.is_zero for r in axiom_residuals(x, y, z))


@contextmanager
def _twisted_products():
    """Patch the products of DiElement and of KeyCodec with bilinear ones
    that break every identity: on uv of length t, -| puts the middle at
    (mid(u) + 2 mid(v)) mod t + 1 and |- at (2 mid(u) + mid(v)) mod t + 1,
    on Disequence terms and on split keys alike.  Residuals are then
    nonzero, so comparing them checks which products feed which residual."""
    def twist(a, b):
        def mono(u, v):
            word = u.word + v.word
            return Disequence(u.alphabet, word, (a * u.middle + b * v.middle) % len(word) + 1)

        def key(codec, u, v):
            (l1, m1, w1), (l2, m2, w2) = u, v
            t, k = l1 + l2, codec.alphabet.size
            return codec.offset(t) + (a * m1 + b * m2) % t * k**t + w1 * k**l2 + w2

        return (lambda self, other: self._product(other, mono)), key

    (er, kr), (el, kl) = twist(1, 2), twist(2, 1)
    with patch.object(DiElement, "rprod", er), patch.object(DiElement, "lprod", el), \
            patch.object(KeyCodec, "rprod", kr), patch.object(KeyCodec, "lprod", kl):
        yield


@given(st.sampled_from((QQ, PrimeField(7))).flatmap(
    lambda f: st.tuples(*(elements(f, max_len=2, coeffs=scalars) for _ in range(3)))))
def test_axiom_residuals_match_twenty_products(xyz):
    from oracle import o_axiom_residuals

    with _twisted_products():
        got, want = axiom_residuals(*xyz), o_axiom_residuals(*xyz)
    assert [r.terms for r in got] == [r.terms for r in want]


def test_twisted_products_break_every_identity():
    x, y, z = E("[a]@1 + 1/2*[b]@1"), E("[a b]@2"), E("[b a]@1")
    codec = KeyCodec(AB, 9)
    keyed = [{codec.encode(m): c for m, c in e.terms.items()} for e in (x, y, z)]
    assert key_identity_verdicts(codec, QQ, *keyed) == (False,) * 5
    with _twisted_products():
        assert all(not r.is_zero for r in axiom_residuals(x, y, z))
        assert key_identity_verdicts(codec, QQ, *keyed) == (True,) * 5


@st.composite
def key_triples(draw):
    """A cap-9 codec over 1-3 letters, a field, and three elements of 0-3
    terms as verify draws them: codec keys of words of length 1-3, int
    coefficients in [-5, 5], summed by _sum_terms."""
    alphabet = draw(st.sampled_from((A, AB, ABC)))
    field = draw(st.sampled_from((QQ, PrimeField(2), PrimeField(7), PrimeField(32003))))
    codec = KeyCodec(alphabet, 9)

    def element():
        pairs = []
        for _ in range(draw(st.integers(0, 3))):
            t = draw(st.integers(1, 3))
            word = bytes(draw(st.integers(0, alphabet.size - 1)) for _ in range(t))
            m = Disequence(alphabet, word, draw(st.integers(1, t)))
            pairs.append((codec.encode(m), draw(st.integers(-5, 5))))
        return _sum_terms(pairs, field)

    return codec, field, [element() for _ in range(3)]


@given(key_triples(), st.booleans())
def test_key_verdicts_match_element_residuals(drawn, twisted):
    # the key check and axiom_residuals judge each identity alike, also
    # under the twisted products, where most identities fail
    codec, field, keyed = drawn
    decoded = [DiElement(codec.alphabet, field, {codec.decode(a): c for a, c in x.items()})
               for x in keyed]
    with _twisted_products() if twisted else nullcontext():
        got = key_identity_verdicts(codec, field, *keyed)
        want = tuple(not r.is_zero for r in axiom_residuals(*decoded))
    assert got == want
    assert twisted or not any(got)


def test_axiom_residuals_monomial_triple():
    x, y, z = E("[a]@1"), E("[b]@1"), E("[a b]@2")
    rs = axiom_residuals(x, y, z)
    assert len(rs) == 5
    assert all(r.is_zero for r in rs)


# ===== leading terms and support ===========================================


def leading(x):
    """The largest monomial of x with its coefficient, or None for zero."""
    support = x.support()
    return (support[0], x.terms[support[0]]) if support else None


def test_leading_examples():
    assert leading(E("5*[b]@1 + 2*[a]@1")) == (D("[b]@1"), Fraction(5))
    # middle breaks the tie between equal words
    assert leading(E("[a a]@1 + [a a]@2")) == (D("[a a]@2"), Fraction(1))
    assert leading(E("[a]@1 - [a b a]@2")) == (D("[a b a]@2"), Fraction(-1))
    assert leading(E("0")) is None


def test_support_is_descending():
    x = E("[a]@1 + [b a]@2 + 2*[a b]@1")
    assert x.support() == [D("[b a]@2"), D("[a b]@1"), D("[a]@1")]
    assert E("5*[b]@1 + 2*[a]@1").support() == [D("[b]@1"), D("[a]@1")]
    # middle breaks the tie between equal words
    assert E("[a a]@1 + [a a]@2").support() == [D("[a a]@2"), D("[a a]@1")]
    assert E("[a]@1 - [a b a]@2").support() == [D("[a b a]@2"), D("[a]@1")]
    assert E("0").support() == []
    assert x.max_length() == 2


# ===== fields ==============================================================


def test_prime_field_arithmetic():
    # GF(7) arithmetic through elements: every sum lands in [0, 7)
    f7 = PrimeField(7)

    def E7(text):
        return E(text, field=f7)

    assert (E7("5*[a]@1") + E7("4*[a]@1")).terms == {D("[a]@1"): 2}
    assert (E7("2*[a]@1") - E7("5*[a]@1")).terms == {D("[a]@1"): 4}
    assert (-E7("3*[a]@1")).terms == {D("[a]@1"): 4}
    assert (E7("5*[a]@1") + E7("2*[a]@1")).is_zero
    assert E7("3*[a]@1").rprod(E7("5*[b]@1")).terms == {D("[a b]@1"): 1}
    # [a a a]@1 gets 3 + 4 = 7, which vanishes only mod 7
    got = E7("[a]@1 + [a a]@1").rprod(E7("3*[a a]@1 + 4*[a]@1"))
    assert got == E7("4*[a a]@1 + 3*[a a a a]@1")
    assert E7("6*[a]@1").scaled(Fraction(1, 2)).terms == {D("[a]@1"): 3}
    assert f7.coerce(Fraction(1, 2)) == 4
    assert f7.coerce(-3) == 4 and f7.coerce("2/3") == 3
    with pytest.raises(ZeroDivisionError):
        f7.coerce(Fraction(1, 7))


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_rejects_moduli_from_2_64():
    with pytest.raises(ValueError, match=r"2\*\*64"):
        PrimeField(2**64 + 13)
    assert PrimeField(18446744073709551557).p == 2**64 - 59


def test_is_prime_matches_sieve():
    top = 200_000
    sieve = bytearray([1]) * top
    sieve[0] = sieve[1] = 0
    for i in range(2, int(top**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, top, i)))
    assert [n for n in range(top) if _is_prime(n)] == [n for n in range(top) if sieve[n]]


def test_is_prime_on_pseudoprimes_and_large_primes():
    # strong pseudoprimes to several small bases, and two Carmichael numbers
    for n in (3215031751, 3825123056546413051, 2152302898747, 561, 41041):
        assert not _is_prime(n)
    for n in (2**61 - 1, 32003, 18446744073709551557):
        assert _is_prime(n)


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("gf 7") == PrimeField(7)
    for bad in ("gf six", "R", "gf", "gf 7 9"):
        with pytest.raises(ValueError):
            parse_field(bad)
    # the messages and column the presentation-file parser reports
    for spec, message in (
        ("gf x", "expected a prime after gf, got 'x'"),
        ("gf 6", "modulus 6 is not prime"),
        ("R", "expected Q or gf <prime>"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_field(spec)
        assert (exc.value.message, exc.value.column) == (message, 7)


def test_elements_over_gf7():
    f7 = PrimeField(7)
    x = parse_element("3*[a]@1", AB, f7)
    assert (x + x + x) == parse_element("2*[a]@1", AB, f7)
    assert (5 * x) == parse_element("[a]@1", AB, f7)
    assert parse_element("1/2*[a]@1", AB, f7) == parse_element("4*[a]@1", AB, f7)


def test_field_and_alphabet_mismatches():
    with pytest.raises(FieldMismatch):
        E("[a]@1") + parse_element("[a]@1", AB, PrimeField(7))
    with pytest.raises(AlphabetMismatch):
        E("[a]@1") + E("[a]@1", ABC)
    with pytest.raises(AlphabetMismatch):
        E("[a]@1").lprod(E("[a]@1", A, QQ))
    with pytest.raises(AlphabetMismatch):
        DiElement(AB, QQ, {D("[a]@1", ABC): 1})


# ===== literals and formatting =============================================


def test_parse_examples():
    x = E("2*[a b]@1 - [b]@1 + 1/3*[a]@1")
    assert x.terms == {
        D("[a b]@1"): Fraction(2),
        D("[b]@1"): Fraction(-1),
        D("[a]@1"): Fraction(1, 3),
    }
    assert E("- [a]@1").terms == {D("[a]@1"): Fraction(-1)}
    assert E("[a]@1 + [a]@1") == E("2*[a]@1")
    assert E("3*[a]@1 - 3*[a]@1") == E("0")


@given(elements(alphabet=AB))
def test_format_round_trip(x):
    assert parse_element(x.format(), AB, QQ) == x


def test_format_is_descending_golden():
    x = E("[a]@1 + [b a]@2 + 2*[a b]@1")
    assert x.format() == "[b a]@2 + 2*[a b]@1 + [a]@1"
    assert E("0").format() == "0"
    assert E("-1/2*[a]@1").format() == "-1/2*[a]@1"
    assert str(E("[a]@1 - [b]@1")) == "-[b]@1 + [a]@1"


def test_parse_errors_carry_columns():
    with pytest.raises(ParseError) as exc:
        E("[a]@1 + + [b]@1")
    assert exc.value.column == 9
    with pytest.raises(ParseError) as exc:
        E("2*[a c]@1")
    assert "'c'" in str(exc.value) and exc.value.column == 6
    with pytest.raises(ParseError) as exc:
        E("[a b]@7")
    assert "middle" in str(exc.value)
    for bad in ("", "2", "2 [a]@1", "[a]@1 [b]@1", "[a]@1 +", "$"):
        with pytest.raises(ParseError):
            E(bad)
    for text, field, col in (
        ("1/0*[a]@1", QQ, 1),
        ("[b]@1 - 3/0*[a]@1", QQ, 9),
        ("1/7*[a]@1", PrimeField(7), 1),
        ("[b]@1 + 2/14*[a]@1", PrimeField(7), 9),
    ):
        with pytest.raises(ParseError) as exc:
            E(text, field=field)
        assert exc.value.column == col, text
        assert f"has a zero denominator in {field.name}" in exc.value.message
    # a denominator that is a unit mod p still parses
    assert E("1/3*[a]@1", field=PrimeField(7)).terms == {D("[a]@1"): 5}

