"""Elements: linear algebra over Q and GF(p), bilinear products, axioms."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from digrow.element import QQ, DiElement, PrimeField, axiom_residuals, parse_element, parse_field
from digrow.errors import AlphabetMismatch, FieldMismatch, ParseError
from digrow.monomial import Alphabet, Disequence, parse_disequence

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def E(text, alphabet=AB, field=QQ):
    return parse_element(text, alphabet, field)


def D(text, alphabet=AB):
    return parse_disequence(text, alphabet)


#### strategies

@st.composite
def elements(draw, alphabet=ABC, max_len=3, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        length = draw(st.integers(1, max_len))
        word = bytes(draw(st.integers(0, alphabet.size - 1)) for _ in range(length))
        middle = draw(st.integers(1, length))
        terms[Disequence(alphabet, word, middle)] = Fraction(draw(st.integers(-5, 5)))
    return DiElement(alphabet, QQ, terms)


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


@given(elements(), elements(), scalars, scalars)
def test_module_laws(x, y, r, s):
    assert x + y == y + x
    assert r * (x + y) == r * x + r * y
    assert (r + s) * x == r * x + s * x
    assert (r * s) * x == r * (s * x)
    assert x - x == DiElement.zero(x.alphabet, x.field)


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
    with pytest.raises(ValueError):
        x.mul(z, "times")


@given(elements(), elements(), elements(), scalars)
def test_bilinearity(x, y, z, r):
    for op in ("lprod", "rprod"):
        assert (x + y).mul(z, op) == x.mul(z, op) + y.mul(z, op)
        assert x.mul(y + z, op) == x.mul(y, op) + x.mul(z, op)
        assert (r * x).mul(y, op) == r * x.mul(y, op)
        assert x.mul(r * y, op) == r * x.mul(y, op)


@given(elements(max_len=2), elements(max_len=2), elements(max_len=2))
def test_axiom_residuals_vanish_on_free_elements(x, y, z):
    assert all(r.is_zero for r in axiom_residuals(x, y, z))


def test_axiom_residuals_monomial_triple():
    x, y, z = E("[a]@1"), E("[b]@1"), E("[a b]@2")
    rs = axiom_residuals(x, y, z)
    assert len(rs) == 5
    assert all(r.is_zero for r in rs)


# ===== leading terms =======================================================


def test_leading_examples():
    assert E("5*[b]@1 + 2*[a]@1").leading() == (D("[b]@1"), Fraction(5))
    # middle breaks the tie between equal words
    assert E("[a a]@1 + [a a]@2").leading() == (D("[a a]@2"), Fraction(1))
    assert E("[a]@1 - [a b a]@2").leading() == (D("[a b a]@2"), Fraction(-1))
    assert E("0").leading() is None


def test_support_is_descending():
    x = E("[a]@1 + [b a]@2 + 2*[a b]@1")
    assert x.support() == [D("[b a]@2"), D("[a b]@1"), D("[a]@1")]
    assert x.max_length() == 2
    assert x.is_homogeneous() is False
    assert E("[a b]@1 - [b a]@2").is_homogeneous() is True


# ===== fields ==============================================================


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.add(5, 4) == 2
    assert f7.mul(3, 5) == 1
    assert f7.invert(2) == 4
    assert f7.neg(3) == 4
    assert f7.sub(2, 5) == 4
    assert f7.coerce(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        f7.invert(0)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


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
