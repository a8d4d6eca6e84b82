"""Presentations: saturation, echelon bases, normal forms, structural checks.

Every frozen count or basis list in here was produced by the brute-force
reference in tests/oracle.py; the slow comparisons that regenerate them
live in the oracle-marked tests below.
"""

import argparse
import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import chain
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from digrow import presentation
from digrow.cli import cmd_basis, load_presentation
from digrow.element import QQ, DiElement, PrimeField, parse_element
from digrow.errors import (
    AlphabetMismatch,
    DegreeBoundExceeded,
    FieldMismatch,
    ResourceCapExceeded,
)
from digrow.monomial import Alphabet, Disequence, KeyCodec, monomials, universe_total
from digrow.presentation import (
    ASSOCIATIVE,
    DIALGEBRA,
    MATERIALIZE_CAP,
    SCHEME_TAGS,
    BasisTable,
    KernelRows,
    Presentation,
    _binomial,
    _effective_slack,
    _elimination_rows,
    _insert_row,
    _KILLED,
    _integer_terms,
    _key_scheme_pair,
    _reduce_terms,
    _element,
    associated_associative,
    basis_upto,
    canonical_json,
    collapse_middle,
    normal_form,
    prefix_suffix_check,
)
from digrow import fixture_path
from digrow.bimodule import TripleRows, _bimodule_rows
from digrow.completion import RuleRows, _rule_rows
from digrow.growth import special_basis_check

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
XY = Alphabet.of("x", "y")


def E(text, alphabet=AB):
    return parse_element(text, alphabet, QQ)


def D(text, alphabet=AB):
    """The monomial of a one-term literal such as "[a b]@2"."""
    (m,) = parse_element(text, alphabet).terms
    return m


def fixture(name):
    return load_presentation(fixture_path(name))


def to_oracle(elem):
    names = elem.alphabet.names
    return {
        (tuple(names[b] for b in m.word), m.middle): c for m, c in elem.terms.items()
    }


def stored(rows, keys) -> dict:
    """The rows a store holds, {key: row}, read through get and in alone
    at every key up to keys' cap and a few past it; in must agree with
    get on each."""
    out = {}
    for x in range(keys.offset(keys.cap + 1) + 3):
        row = rows.get(x)
        assert (x in rows) == (row is not None), x
        if row is not None:
            out[x] = row
    return out


def table_as_oracle(table):
    names = table.alphabet.names
    return [(tuple(names[b] for b in m.word), m.middle) for m in table.basis]


# ===== presentation values =================================================


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(AB, QQ, (DiElement.zero(AB, QQ),))
    with pytest.raises(ValueError):
        Presentation(AB, QQ, (), ("weird",))
    with pytest.raises(ValueError):
        Presentation(AB, QQ, (), ("lcomm", "lcomm"))
    with pytest.raises(ValueError):
        Presentation(AB, QQ, (), (), slack=-1)
    with pytest.raises(AlphabetMismatch):
        Presentation(AB, QQ, (E("[a]@1", A),))
    with pytest.raises(FieldMismatch):
        Presentation(AB, QQ, (parse_element("[a]@1", AB, PrimeField(5)),))


def test_homogeneity_and_spread():
    inhomog = Presentation(AB, QQ, (E("[b]@1 - [a a]@2 + [a a]@1"),))
    assert not inhomog.homogeneous
    assert inhomog.length_spread() == 1
    comm = Presentation(AB, QQ, (), ("lcomm", "rcomm"))
    assert comm.homogeneous
    assert comm.length_spread() == 0
    mixed = Presentation(AB, QQ, (E("[a]@1 + [b a]@2 + 2*[a b]@1"), E("[a b]@1 - [b a]@2")))
    assert not mixed.homogeneous and mixed.length_spread() == 1
    assert Presentation(AB, QQ, (E("[a b]@1 - [b a]@2"), E("[a]@1"))).homogeneous


def test_slack_policy():
    rel = (E("[b]@1 - [a a]@2 + [a a]@1"),)
    # inhomogeneous, nothing requested: term-length spread
    assert basis_upto(Presentation(AB, QQ, rel), 2).slack == 1
    # the presentation's stored value is honored
    assert basis_upto(Presentation(AB, QQ, rel, slack=2), 2).slack == 2
    # an explicit argument wins over everything
    assert basis_upto(Presentation(AB, QQ, rel, slack=2), 2, slack=5).slack == 5
    # homogeneous input saturates with no slack, and reports the 0 it used
    comm = Presentation(AB, QQ, (), ("lcomm",), slack=3)
    assert basis_upto(comm, 2).slack == 0
    assert basis_upto(comm, 2, slack=2).slack == 0
    with pytest.raises(ValueError):
        basis_upto(comm, 2, slack=-1)
    with pytest.raises(ValueError):
        basis_upto(comm, 0)


def test_canonical_text_and_fingerprint():
    pres = Presentation(AB, QQ, (E("[b]@1 - [a a]@2 + [a a]@1"),), (), slack=2)
    assert pres.canonical_text() == (
        "field Q\ngenerators a b\nrel -[a a]@2 + [a a]@1 + [b]@1\nslack 2\n"
    )
    assert len(pres.fingerprint) == 12
    assert int(pres.fingerprint, 16) >= 0
    same = Presentation(AB, QQ, (E("[b]@1 + [a a]@1 - [a a]@2"),), (), slack=2)
    assert same.fingerprint == pres.fingerprint
    other = Presentation(AB, QQ, (E("[b]@1 - [a a]@2"),), (), slack=2)
    assert other.fingerprint != pres.fingerprint
    # generator order is part of the identity
    assert Alphabet.of("b", "a") != AB


def test_collapse_middle():
    assert collapse_middle(E("[b]@1 - [a a]@2 + [a a]@1")) == E("[b]@1")
    assert collapse_middle(E("[a b]@2")) == E("[a b]@1")
    assert collapse_middle(E("[a a]@2 - [a a]@1")).is_zero


def test_associated_associative():
    pres = fixture("inhomog_ab")
    assoc = associated_associative(pres)
    assert [r.format() for r in assoc.relators] == ["[b]@1"]
    assert assoc.schemes == pres.schemes
    # relators that collapse to zero disappear
    only_middles = Presentation(A, QQ, (E("[a a]@2 - [a a]@1", A),))
    assert associated_associative(only_middles).relators == ()
    free = Presentation(AB, QQ)
    assert associated_associative(free).relators == ()


# ===== the elimination kernel on arbitrary inputs ==========================


def echelon(elements):
    """The kernel rows {pivot: (d, tail)} of the span of elements over Q,
    each element reduced by _reduce_terms against the rows so far and
    inserted by _insert_row, and the same rows as monic elements, largest
    pivot first."""
    keys = KeyCodec(AB, max((x.max_length() for x in elements), default=1))
    rows, users = {}, {}
    for x in elements:
        _, nf = _reduce_terms(_integer_terms(x.terms.items(), 0, keys.encode)[1], rows, 0)
        if nf:
            _insert_row(rows, users, nf, 0)
    return rows, [_element(keys, QQ, {**tail, piv: d}, d)
                  for piv, (d, tail) in sorted(rows.items(), reverse=True)]


def test_echelonize_examples():
    assert [r.format() for r in echelon([2 * E("[a]@1")])[1]] == ["[a]@1"]
    _, got = echelon([E("[a]@1 + [b]@1"), E("[b]@1")])
    assert {r.format() for r in got} == {"[a]@1", "[b]@1"}
    _, got = echelon([E("[a a]@2 - [a a]@1"), E("[a a]@2")])
    assert {r.format() for r in got} == {"[a a]@2", "[a a]@1"}
    assert echelon([]) == ({}, [])
    assert echelon([DiElement.zero(AB, QQ)]) == ({}, [])
    # dependent rows collapse to the rank
    _, got = echelon([E("[a]@1 + [b]@1"), E("[a]@1 - [b]@1"), E("2*[a]@1")])
    assert len(got) == 2


def test_echelonize_output_shape():
    _, rows = echelon([E("[a b]@2 + [a]@1"), E("[a b]@1 + [a]@1"), E("3*[a]@1 + [b]@1")])
    pivots = [r.support()[0] for r in rows]
    assert pivots == sorted(pivots, key=Disequence.sort_key, reverse=True)
    piv_set = set(pivots)
    for r, piv in zip(rows, pivots):
        assert r.terms[piv] == Fraction(1)
        tail = set(r.terms) - {piv}
        assert not (tail & piv_set)  # fully inter-reduced


def test_echelonize_matches_dense_oracle():
    # random small systems, exact row-content agreement with tests/oracle.py
    from oracle import o_echelon

    rng = random.Random(7)
    names = ("a", "b")
    for _ in range(40):
        elems = []
        for _ in range(rng.randint(1, 6)):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                t = rng.randint(1, 3)
                word = bytes(rng.randrange(2) for _ in range(t))
                terms[Disequence(AB, word, rng.randint(1, t))] = Fraction(
                    rng.randint(-4, 4)
                )
            elems.append(DiElement(AB, QQ, terms))
        got = {}
        for row in echelon(elems)[1]:
            piv = row.support()[0]
            tail = dict(to_oracle(row))
            key = (tuple(names[b] for b in piv.word), piv.middle)
            del tail[key]
            got[key] = tail
        want = o_echelon([to_oracle(e) for e in elems], names)
        assert got == want


# ===== ideal spans =========================================================


def test_ideal_span_goldens():
    assert basis_upto(Presentation(AB, QQ), 5).rows == {}
    rel = Presentation(AB, QQ, (E("[b]@1 - [a a]@2 + [a a]@1"),), slack=0)
    got = basis_upto(rel, 2).rows.values()
    assert [r.format() for r in got] == ["[a a]@2 - [a a]@1 - [b]@1"]
    lcomm = Presentation(XY, QQ, (), ("lcomm",))
    got = basis_upto(lcomm, 2).rows.values()
    assert [r.format() for r in got] == ["[y x]@2 - [x y]@2"]


def test_ideal_span_members_reduce_to_zero():
    table = basis_upto(fixture("comm_ab"), 4)
    assert table.rows
    for row in table.rows.values():
        assert normal_form(row, table).is_zero


# ===== bases vs the oracle =================================================

FIXTURE_ORACLE_DEGREES = [
    ("free_a", 6),
    ("free_ab", 4),
    ("comm_a", 6),
    ("comm_ab", 4),
    ("cross_a", 6),
    ("middle_cap_a", 6),
    ("inhomog_ab", 3),
    ("zero_a", 6),
]


@pytest.mark.parametrize("name,n", FIXTURE_ORACLE_DEGREES)
def test_fixture_bases_match_oracle(name, n):
    from oracle import o_basis, o_basis_counts

    pres = fixture(name)
    names = pres.alphabet.names
    rels = [to_oracle(r) for r in pres.relators]
    for mode, assoc in ((DIALGEBRA, False), (ASSOCIATIVE, True)):
        table = basis_upto(pres, n, mode=mode)
        want_counts = o_basis_counts(
            names, rels, pres.schemes, n, slack=table.slack, associative=assoc
        )
        assert table.counts_by_degree() == want_counts
        assert table_as_oracle(table) == o_basis(
            names, rels, pres.schemes, n, slack=table.slack, associative=assoc
        )


def test_scheme_combination_counts_match_oracle():
    from oracle import o_basis_counts

    cross = Presentation(AB, QQ, (), ("cross",))
    table = basis_upto(cross, 4)
    assert table.counts_by_degree() == o_basis_counts(("a", "b"), [], ("cross",), 4)
    both = Presentation(AB, QQ, (), ("lcomm", "rcomm", "cross"))
    table = basis_upto(both, 4)
    assert table.counts_by_degree() == o_basis_counts(
        ("a", "b"), [], ("lcomm", "rcomm", "cross"), 4
    )


# ===== binomial input against elimination ==================================

GF7 = PrimeField(7)


@st.composite
def binomial_presentations(draw):
    """Homogeneous presentations whose relators are c*m or c*m1 - c*m2."""
    k = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple("abc"[:k]))
    field = draw(st.sampled_from([QQ, GF7]))

    def mono(length):
        word = bytes(draw(st.integers(0, k - 1)) for _ in range(length))
        return Disequence(alphabet, word, draw(st.integers(1, length)))

    relators = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(1, 3))
        c = field.coerce(draw(st.integers(1, 6)))
        m1, m2 = mono(length), mono(length)
        if m1 == m2 or draw(st.booleans()):
            relators.append(DiElement(alphabet, field, {m1: c}))
        else:
            relators.append(DiElement(alphabet, field, {m1: c, m2: field.coerce(-c)}))
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, max_size=3))
    return Presentation(alphabet, field, tuple(relators), tuple(schemes))


@given(binomial_presentations(), st.booleans())
def test_binomial_rows_match_elimination_and_oracle(pres, assoc):
    # the union-find on normal triples in dialgebra mode, the rules engine
    # in associative mode
    from oracle import o_basis_counts

    q = associated_associative(pres) if assoc else pres
    assert _binomial(q)
    k = pres.alphabet.size
    # caps below a relator's length too
    for cap in (1, 2, {1: 12, 2: 6, 3: 4}[k]):
        keys = KeyCodec(q.alphabet, cap, assoc)
        rows = (_rule_rows if assoc else _bimodule_rows)(q, keys)
        assert stored(rows, keys) == stored(_elimination_rows(q, keys), keys)

    # the span of c*(m1 - m2) is the span of m1 - m2 over every field
    rels = [
        {m: Fraction(sign) for m, sign in zip(to_oracle(r), (1, -1))}
        for r in pres.relators
    ]
    n = {1: 6, 2: 4, 3: 3}[k]
    table = basis_upto(pres, n, mode=ASSOCIATIVE if assoc else DIALGEBRA)
    assert table.counts_by_degree() == o_basis_counts(
        pres.alphabet.names, rels, pres.schemes, n, associative=assoc
    )


@given(st.integers(1, 3), st.booleans(), st.data())
def test_key_scheme_pairs_match_scheme_pair(k, assoc, data):
    from oracle import o_scheme_pair

    alphabet = Alphabet(tuple("abc"[:k]))

    def as_oracle(m):
        return tuple(alphabet.names[b] for b in m.word), m.middle

    def mono():
        length = data.draw(st.integers(1, 4))
        word = bytes(data.draw(st.integers(0, k - 1)) for _ in range(length))
        return Disequence(alphabet, word, 1 if assoc else data.draw(st.integers(1, length)))

    u, v = mono(), mono()
    keys = KeyCodec(alphabet, len(u.word) + len(v.word), assoc)
    su, sv = keys.split(keys.encode(u)), keys.split(keys.encode(v))
    # associative mode reads every scheme as rcomm, on middle-1 monomials
    for tag in ("rcomm",) if assoc else SCHEME_TAGS:
        got = tuple(as_oracle(keys.decode(m)) for m in _key_scheme_pair(keys, tag, su, sv))
        assert got == o_scheme_pair(tag, as_oracle(u), as_oracle(v))


def test_binomial_predicate():
    assert _binomial(fixture("zero_a"))
    assert _binomial(fixture("middle_cap_a"))
    assert _binomial(fixture("comm_ab"))
    inhomog = fixture("inhomog_ab")
    assert not _binomial(inhomog)
    assert _binomial(associated_associative(inhomog))  # collapses to [b]@1
    for text in (
        "[a b]@1 - [b a]@1 + 2*[a a]@2",  # three terms
        "[a b]@1 + [b a]@1",  # coefficients do not cancel
        "2*[a b]@1 - 3*[b a]@1",
        "[a]@1 - [a a]@1",  # cancelling but inhomogeneous
    ):
        assert not _binomial(Presentation(AB, QQ, (E(text),))), text
    # over GF(2), m1 + m2 is m1 - m2
    gf2 = PrimeField(2)
    assert _binomial(Presentation(AB, gf2, (parse_element("[a b]@1 + [b a]@1", AB, gf2),)))


def test_triple_classes_share_one_tail():
    # M's rows on normal triples: with A_D's rules b b -> 0 and b a -> a b
    # from degree 3 on, and on comm_a, whose triples are all normal
    cases = [(Presentation(AB, field, (parse_element("[b b]@1", AB, field),), ("lcomm", "rcomm")),
              KeyCodec(AB, 4), minus) for field, minus in ((QQ, -1), (GF7, 6))]
    cases.append((fixture("comm_a"), KeyCodec(A, 8), -1))
    for pres, keys, minus in cases:
        m = _bimodule_rows(pres, keys)._m
        # one (d, tail) row per class, shared by its members
        one_per_tail = {tuple(row[1].items()): row for row in m.values()}
        assert all(one_per_tail[tuple(row[1].items())] is row for row in m.values())
        # the killed triples: [b b]@1 and its images
        assert (() in one_per_tail) == (pres.alphabet == AB)
        assert one_per_tail.get((), _KILLED) is _KILLED
        for d, tail in m.values():
            assert d == 1 and set(tail.values()) <= {minus}
        live = Counter(id(row) for row in m.values() if row[1])
        assert max(live.values()) > 1


# ===== the byte store against the dict store ==============================


@st.composite
def killing_presentations(draw):
    """Inhomogeneous presentations over Q or GF(7) that kill most
    monomials, in the shape of inhomog_ab: relators [g]@1 + c*([v]@i -
    [v]@j), a generator equal to a longer element, and any identity
    schemes, with a file slack of None, 0, 1 or 2."""
    k = draw(st.integers(1, 2))
    alphabet = Alphabet(tuple("ab"[:k]))
    field = draw(st.sampled_from([QQ, GF7]))
    relators = []
    for _ in range(draw(st.integers(1, 2))):
        v = bytes(draw(st.integers(0, k - 1)) for _ in range(draw(st.integers(2, 3))))
        i, j = draw(st.lists(st.integers(1, len(v)), min_size=2, max_size=2, unique=True))
        c = field.coerce(Fraction(draw(st.sampled_from(COEFFS))))
        g = Disequence(alphabet, bytes([draw(st.integers(0, k - 1))]), 1)
        relators.append(DiElement(alphabet, field, {
            g: field.one, Disequence(alphabet, v, i): c, Disequence(alphabet, v, j): -c,
        }))
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, max_size=2))
    slack = draw(st.sampled_from([None, 0, 1, 2]))
    return Presentation(alphabet, field, tuple(relators), tuple(schemes), slack)


def assert_reads_as(rows, ref: dict, keys, top: int):
    """rows answers every read of the byte store as the dict ref does, up
    to degree top and past it."""
    end = keys.offset(top + 1)
    assert stored(rows, keys) == ref
    assert rows.pivot_counts(top) == [sum(keys.length(x) == t for x in ref)
                                      for t in range(1, top + 1)]
    # keys past the last degree are in no row
    for start, stop in ((0, end), (keys.offset(top), end + 2), (1, max(1, end - 1))):
        assert rows.basis_keys(start, stop) == [x for x in range(start, stop) if x not in ref]


@settings(max_examples=200, deadline=None)
@given(st.one_of(killing_presentations(), binomial_presentations().filter(
    lambda p: any(len(r.terms) == 1 for r in p.relators))),
    st.booleans(), st.sampled_from([None, 0, 1, 2]))
def test_byte_store_reads_as_dict_store(pres, assoc, slack):
    # the rows elimination stores with killed keys as bytes, trimmed or
    # not, against the dict store of the same closure
    from oracle import o_elimination_rows

    q = associated_associative(pres) if assoc else pres
    n = {1: 6, 2: 4, 3: 3}[pres.alphabet.size]
    keys = KeyCodec(q.alphabet, n + (_effective_slack(q, None) if slack is None else slack),
                    assoc)
    ref = o_elimination_rows(q, keys)
    trimmed = {x: row for x, row in ref.items() if x < keys.offset(n + 1)}
    rows = _elimination_rows(q, keys)
    assert isinstance(rows, KernelRows) and all(r is not _KILLED for r in rows._live.values())
    assert rows._dead.count(1) == sum(r is _KILLED for r in ref.values())
    assert_reads_as(rows, ref, keys, keys.cap)
    assert_reads_as(rows.below(n), trimmed, keys, n)


@st.composite
def non_binomial_presentations(draw):
    """Presentations over Q with two- or three-term relators of mixed
    lengths and integer and fractional coefficients, plus at least one
    identity scheme and an optional slack."""
    k = draw(st.integers(1, 2))
    alphabet = Alphabet(tuple("ab"[:k]))
    top = {1: 3, 2: 2}[k]

    def mono():
        length = draw(st.integers(1, top))
        word = bytes(draw(st.integers(0, k - 1)) for _ in range(length))
        return Disequence(alphabet, word, draw(st.integers(1, length)))

    relators = []
    for _ in range(draw(st.integers(1, 2))):
        terms = {mono(): Fraction(draw(st.sampled_from(COEFFS)))
                 for _ in range(draw(st.integers(2, 3)))}
        relators.append(DiElement(alphabet, QQ, terms))
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, min_size=1))
    # at least the spread, top - 1 at most: below it the engine's truncated
    # span can outgrow the oracle's sandwich span
    slack = draw(st.sampled_from([None, top - 1]))
    return Presentation(alphabet, QQ, tuple(relators), tuple(schemes), slack)


COEFFS = ["-3", "-2", "-1", "1", "2", "3", "5", "1/2", "-2/3", "7/3"]


@st.composite
def truncated_presentations(draw):
    """Inhomogeneous presentations over Q whose relators are c*m + d*(v@i -
    v@j) with v longer than m: the associative image kills m outright, while
    dialgebra saturation reaches m only through products past the length of
    v, so slack 0 leaves prefix/suffix violations."""
    k = draw(st.integers(1, 2))
    alphabet = Alphabet(tuple("ab"[:k]))

    def word(length):
        return bytes(draw(st.integers(0, k - 1)) for _ in range(length))

    relators = []
    for _ in range(draw(st.integers(1, 2))):
        short = draw(st.integers(1, 2))
        w, v = word(short), word(short + draw(st.integers(1, 2)))
        i, j = draw(st.lists(st.integers(1, len(v)), min_size=2, max_size=2, unique=True))
        c, d = (Fraction(draw(st.sampled_from(COEFFS))) for _ in range(2))
        m = Disequence(alphabet, w, draw(st.integers(1, short)))
        relators.append(DiElement(alphabet, QQ, {
            m: c, Disequence(alphabet, v, i): d, Disequence(alphabet, v, j): -d,
        }))
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, max_size=1))
    return Presentation(alphabet, QQ, tuple(relators), tuple(schemes))


@given(non_binomial_presentations(), st.booleans())
def test_elimination_with_schemes_matches_oracle(pres, assoc):
    from oracle import o_basis, o_collapse, o_ideal_rows

    assume(not _binomial(associated_associative(pres) if assoc else pres))
    rels = [to_oracle(r) for r in pres.relators]
    n = {1: 4, 2: 3}[pres.alphabet.size]
    table = basis_upto(pres, n, mode=ASSOCIATIVE if assoc else DIALGEBRA)
    want = o_basis(
        pres.alphabet.names, rels, pres.schemes, n, slack=table.slack, associative=assoc
    )
    assert table_as_oracle(table) == want
    assert table.counts_by_degree() == [
        sum(len(word) == t for word, _ in want) for t in range(1, n + 1)
    ]
    # the decoded rows are the Fraction reference's, term for term
    if assoc:
        rels = [r for r in map(o_collapse, rels) if r]
    want_rows = o_ideal_rows(pres.alphabet.names, rels, pres.schemes, n + table.slack, assoc)
    got_rows = {}
    for piv, row in table.rows.items():
        (key, one), = to_oracle(DiElement.monomial(piv)).items()
        tail = to_oracle(row)
        assert tail.pop(key) == one
        got_rows[key] = tail
    assert got_rows == {m: tail for m, tail in want_rows.items() if len(m[0]) <= n}


# ===== the bimodule engine against elimination =============================


@st.composite
def routed_presentations(draw):
    """Homogeneous, non-binomial presentations over Q or GF(7): what
    dialgebra mode hands to _bimodule_rows.  Relators have one to three
    terms of one length, with integer and fractional coefficients; any
    identity schemes."""
    k = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple("abc"[:k]))
    field = draw(st.sampled_from([QQ, GF7]))

    def mono(length):
        word = bytes(draw(st.integers(0, k - 1)) for _ in range(length))
        return Disequence(alphabet, word, draw(st.integers(1, length)))

    relators = []
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.integers(1, 3 if k < 3 else 2))
        terms = {mono(length): field.coerce(Fraction(draw(st.sampled_from(COEFFS))))
                 for _ in range(draw(st.integers(1, 3)))}
        relators.append(DiElement(alphabet, field, terms))
    relators = tuple(r for r in relators if not r.is_zero)
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, max_size=3))
    pres = Presentation(alphabet, field, relators, tuple(schemes))
    assume(relators and not _binomial(pres))
    return pres


@given(st.one_of(routed_presentations(),
                non_binomial_presentations().filter(lambda p: p.homogeneous and not _binomial(p))))
def test_bimodule_rows_match_elimination(pres):
    k = pres.alphabet.size
    for cap in (1, 2, {1: 8, 2: 5, 3: 4}[k]):
        keys = KeyCodec(pres.alphabet, cap)
        assert stored(_bimodule_rows(pres, keys), keys) == stored(_elimination_rows(pres, keys),
                                                                  keys)


# the three seed-1 relators of the dense benchmark workload
DENSE_RELATORS = (
    "-7*[b a a]@2 + 2*[b b a]@2 + 5*[b b b]@2",
    "-4*[a a b]@3 + 5*[a b a]@3 - 7*[b b a]@1",
    "7*[a a a]@2 + 4*[a b b]@3 - 5*[b b b]@3",
)


@pytest.mark.parametrize("field", [QQ, GF7, PrimeField(32003)], ids=str)
@pytest.mark.parametrize("relator", DENSE_RELATORS)
def test_bimodule_rows_match_elimination_on_dense_relators(relator, field):
    pres = Presentation(AB, field, (parse_element(relator, AB, field),))
    for cap in (1, 2, 7):
        keys = KeyCodec(AB, cap)
        assert stored(_bimodule_rows(pres, keys), keys) == stored(_elimination_rows(pres, keys),
                                                                  keys)
    # with schemes, whose instances are taken on normal triples
    pres = Presentation(AB, field, pres.relators, ("lcomm", "cross"))
    keys = KeyCodec(AB, 6)
    assert stored(_bimodule_rows(pres, keys), keys) == stored(_elimination_rows(pres, keys), keys)


@st.composite
def triple_binomial_presentations(draw):
    """Binomial presentations over 2 or 3 letters, Q or GF(7): relators
    +-([w]@i - [w']@j) and +-[w]@i of length 2 to 4, any identity schemes.
    Dialgebra mode hands those whose A_D is not free below the cap to the
    union-find on normal triples."""
    k = draw(st.integers(2, 3))
    alphabet = Alphabet(tuple("abc"[:k]))
    field = draw(st.sampled_from([QQ, GF7]))

    def mono(length):
        word = bytes(draw(st.integers(0, k - 1)) for _ in range(length))
        return Disequence(alphabet, word, draw(st.integers(1, length)))

    relators = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(2, 4))
        m1, m2 = mono(length), mono(length)
        c = field.coerce(draw(st.sampled_from([1, -1])))
        terms = {m1: c} if m1 == m2 or draw(st.booleans()) else {m1: c, m2: field.coerce(-c)}
        relators.append(DiElement(alphabet, field, terms))
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, max_size=3))
    return Presentation(alphabet, field, tuple(relators), tuple(schemes))


def table_from_rows(pres, n, slack, engine):
    """The dialgebra table basis_upto(pres, n, slack=slack) reads for
    homogeneous pres, built from the rows engine(pres, keys) stores to
    degree n + slack, trimmed to degree n; it reports slack 0, as
    basis_upto does on homogeneous input."""
    keys = KeyCodec(pres.alphabet, n + slack)
    return BasisTable(pres.alphabet, pres.field, DIALGEBRA, n, 0, True, pres.fingerprint,
                      keys, engine(pres, keys).below(n))


def assert_table_reads_as(table, ref, data):
    """Every public read of table answers as the same read of ref: rows,
    pivots, basis, counts, json, membership a degree past the bound, and
    normal forms of monomials and of a drawn element."""
    alphabet, field, n = table.alphabet, table.field, table.degree_bound
    assert table.rows == ref.rows
    assert table.pivots == ref.pivots
    assert table.basis == ref.basis
    assert table.counts_by_degree() == ref.counts_by_degree()
    assert table.to_json() == ref.to_json()
    monos = [m for t in range(1, n + 2) for m in monomials(alphabet, t)]
    assert [m in table for m in monos] == [m in ref for m in monos]
    monos = [m for m in monos if len(m.word) <= n]
    for m in monos:
        x = DiElement.monomial(m, field=field)
        assert normal_form(x, table) == normal_form(x, ref)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(-3, 3)), max_size=4))
    x = DiElement.zero(alphabet, field)
    for m, c in terms:
        x = x + DiElement.monomial(m, c, field)
    assert normal_form(x, table) == normal_form(x, ref)


@given(st.one_of(triple_binomial_presentations(), binomial_presentations(),
                 routed_presentations()),
       st.sampled_from([None, 1, 2]), st.data())
def test_triple_tables_read_as_stored_rows(pres, slack, data):
    # every public read of a table whose rows are computed on read, against
    # a table of the rows elimination stores; binomial draws take the
    # union-find, with A_D free below the cap or not
    assume(pres.relators or pres.schemes)
    n = {1: 5, 2: 4, 3: 3}[pres.alphabet.size]
    table = basis_upto(pres, n, slack=slack)
    assert isinstance(table._rows, TripleRows)
    assert_table_reads_as(table, table_from_rows(pres, n, slack or 0, _elimination_rows), data)


@pytest.mark.parametrize("n", [3, 4, 5])
@given(data=st.data())
@settings(max_examples=5)
def test_triple_fast_path_stops_at_the_shortest_rule(n, data):
    # A_D has the rule a a a -> 0 from cap 4 on: every triple up to degree 3
    # is normal and read without A_D, and from degree 4 on some are not
    pres = Presentation(A, QQ, (E("[a a a]@1", A),))
    table = basis_upto(pres, n)
    rows = table._rows
    assert isinstance(rows, TripleRows) and rows._free == 3
    assert rows._flat == table._keys.offset(4)
    assert all(isinstance(rows._triples(t), range) for t in range(1, 4))
    assert not any(isinstance(rows._triples(t), range) for t in range(4, n + 1))
    # (u, a, v) with |u| + |v| = 3 and neither u nor v a a a
    assert n < 4 or len(rows._triples(4)) == 2
    assert_table_reads_as(table, table_from_rows(pres, n, 0, _elimination_rows), data)


# ===== the rules engine against elimination ===============================


FIELDS = (QQ, PrimeField(2), PrimeField(3), GF7, PrimeField(32003))


@st.composite
def homogeneous_presentations(draw):
    """Homogeneous presentations over 1 to 3 letters and Q, GF(2), GF(3),
    GF(7) or GF(32003): relators of one to three terms of one length 1 to
    4, monomial relators included, with integer and fractional
    coefficients; any identity schemes, which associative mode reads as
    commutativity."""
    k = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple("abc"[:k]))
    field = draw(st.sampled_from(FIELDS))
    coeffs = COEFFS if field == QQ else ["-3", "-2", "-1", "1", "2", "3", "5"]

    def mono(length):
        word = bytes(draw(st.integers(0, k - 1)) for _ in range(length))
        return Disequence(alphabet, word, draw(st.integers(1, length)))

    relators = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(1, 4))
        terms = {mono(length): field.coerce(Fraction(draw(st.sampled_from(coeffs))))
                 for _ in range(draw(st.integers(1, 3)))}
        r = DiElement(alphabet, field, terms)
        if not r.is_zero:
            relators.append(r)
    schemes = draw(st.lists(st.sampled_from(SCHEME_TAGS), unique=True, max_size=3))
    return Presentation(alphabet, field, tuple(relators), tuple(schemes))


def associative_table_from_rows(pres, n, slack, engine):
    """The associative table basis_upto(pres, n, ASSOCIATIVE, slack) reads
    for homogeneous pres, built from the rows engine(q, keys) stores for
    the associative image q to degree n + slack, trimmed to degree n; it
    reports slack 0, as basis_upto does on homogeneous input."""
    q = associated_associative(pres)
    keys = KeyCodec(pres.alphabet, n + slack, True)
    return BasisTable(pres.alphabet, pres.field, ASSOCIATIVE, n, 0, True, pres.fingerprint,
                      keys, engine(q, keys).below(n))


@settings(max_examples=300, deadline=None)
@given(homogeneous_presentations(), st.sampled_from([None, 1, 2]), st.data())
def test_rule_tables_read_as_stored_rows(pres, slack, data):
    # every public read of an associative table of homogeneous input, which
    # the rules engine serves, against a table of the rows elimination
    # stores
    n = {1: 8, 2: 5, 3: 3}[pres.alphabet.size]
    table = basis_upto(pres, n, ASSOCIATIVE, slack)
    q = associated_associative(pres)
    assert isinstance(table._rows, RuleRows) == bool(q.relators or q.schemes)
    monos = [m for t in range(1, n + 2) for m in monomials(pres.alphabet, t, True)]
    inside = [m for m in monos if len(m.word) <= n]
    ref = associative_table_from_rows(pres, n, slack or 0, _elimination_rows)
    assert table.rows == ref.rows
    assert table.pivots == ref.pivots
    assert table.basis == ref.basis
    assert table.counts_by_degree() == ref.counts_by_degree()
    assert table.to_json() == ref.to_json()
    assert [m in table for m in monos] == [m in ref for m in monos]
    for m in inside:
        x = DiElement.monomial(m, field=pres.field)
        assert normal_form(x, table) == normal_form(x, ref)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(inside), st.integers(-3, 3)),
                               max_size=4))
    x = DiElement.zero(pres.alphabet, pres.field)
    for m, c in terms:
        x = x + DiElement.monomial(m, c, pres.field)
    assert normal_form(x, table) == normal_form(x, ref)


def test_truncated_completion_adds_a_rule_at_every_degree():
    # the dense1 A_D: its basis is infinite, one rule a degree from 3 on, and
    # the truncated completion is exact through the cap
    q = Presentation(AB, QQ, (E("5*[b b b]@1 + 2*[b b a]@1 - 7*[b a a]@1"),))
    n = 12
    keys = KeyCodec(AB, n, True)
    rows = _rule_rows(q, keys)
    assert sorted(map(keys.length, rows._rules)) == list(range(3, n + 1))
    ref = _elimination_rows(q, keys)
    assert stored(rows, keys) == stored(ref, keys)
    assert rows.pivot_counts(n) == ref.pivot_counts(n)
    table = basis_upto(q, n, ASSOCIATIVE)
    assert table.counts_by_degree() == [2, 4, 7, 12, 20, 33, 54, 88, 143, 232, 376, 609]


def test_degenerate_completions():
    # a monomial relator is a rule with an empty tail
    keys = KeyCodec(A, 6, True)
    rows = _rule_rows(associated_associative(fixture("zero_a")), keys)
    assert rows._rules == {0: _KILLED}
    assert list(stored(rows, keys)) == list(range(6)) and rows.basis_keys(0, 6) == []
    # one letter commutes with itself: no rule, every word normal
    rows = _rule_rows(associated_associative(fixture("comm_a")), keys)
    assert rows._rules == {} and stored(rows, keys) == {}
    assert rows.basis_keys(0, 6) == list(range(6)) and rows.pivot_counts(6) == [0] * 6
    # two letters: the commutator ba -> ab, and no composition of it
    keys = KeyCodec(AB, 6, True)
    rows = _rule_rows(associated_associative(fixture("comm_ab")), keys)
    assert rows._rules == {keys.encode(D("[b a]@1")): (1, {keys.encode(D("[a b]@1")): -1})}
    assert [len(rows.normal_words(t)) for t in range(7)] == [1, 2, 3, 4, 5, 6, 7]


@st.composite
def truncated_presentations_with_slack(draw):
    """truncated_presentations with a file slack of None, 0, 1 or 2: their
    associative image c*m is homogeneous, the dialgebra input is not."""
    pres = draw(truncated_presentations())
    slack = draw(st.sampled_from([None, 0, 1, 2]))
    return Presentation(pres.alphabet, pres.field, pres.relators, pres.schemes, slack)


def engine_calls(monkeypatch, pres, n, mode):
    """The engines basis_upto(pres, n, mode) calls, in order, as
    (name, associative) pairs: the bimodule engine calls the rules engine
    for A_D, then one for M."""
    from digrow import bimodule, completion, presentation

    calls = []
    for module, name in ((presentation, "_elimination_rows"), (completion, "_rule_rows"),
                         (bimodule, "_bimodule_rows"), (bimodule, "_triple_congruence"),
                         (bimodule, "_triple_elimination")):
        def wrapped(q, keys, _name=name, _engine=getattr(module, name)):
            # the M engines take the TripleRows they fill
            calls.append((_name[1:].removesuffix("_rows"), getattr(keys, "_keys", keys).associative))
            return _engine(q, keys)

        monkeypatch.setattr(module, name, wrapped)
    basis_upto(pres, n, mode)
    monkeypatch.undo()
    return calls


def engine_caps(monkeypatch, pres, n, mode, **kwargs):
    """The table basis_upto(pres, n, mode, **kwargs) returns, and the
    engines it called, in order, as (name, cap) pairs: the bimodule engine
    calls the rules engine for A_D one degree below its own cap."""
    from digrow import bimodule, completion, presentation

    calls = []
    for module, name in ((presentation, "_elimination_rows"), (completion, "_rule_rows"),
                         (bimodule, "_bimodule_rows")):
        def wrapped(q, keys, _name=name, _engine=getattr(module, name)):
            calls.append((_name[1:].removesuffix("_rows"), keys.cap))
            return _engine(q, keys)

        monkeypatch.setattr(module, name, wrapped)
    table = basis_upto(pres, n, mode, **kwargs)
    monkeypatch.undo()
    return table, calls


def test_routing_picks_the_engine_by_input_shape(monkeypatch):
    # binomial input: the union-find on normal triples, after A_D's rules,
    # whether A_D has a rule below the cap or not (comm_a, cross_a,
    # middle_cap_a; comm_ab's commutativity only reaches A_D's words from
    # cap 3, the cube's relator from cap 4)
    on_triples = [("bimodule", False), ("rule", True), ("triple_congruence", False)]
    for name, n in (("comm_ab", 4), ("comm_ab", 2), ("zero_a", 3), ("comm_a", 4),
                    ("cross_a", 4), ("middle_cap_a", 4)):
        assert engine_calls(monkeypatch, fixture(name), n, DIALGEBRA) == on_triples
    cube = Presentation(A, QQ, (E("[a a a]@1", A),))
    for n in (3, 4):
        assert engine_calls(monkeypatch, cube, n, DIALGEBRA) == on_triples
    # homogeneous, non-binomial dialgebra input: the bimodule, whose A_D
    # goes to the rules engine
    for field in (QQ, GF32003):
        assert engine_calls(monkeypatch, dense(field), 4, DIALGEBRA) == [
            ("bimodule", False), ("rule", True), ("triple_elimination", False)]
    comm_dense = Presentation(AB, QQ, dense(QQ).relators, ("lcomm",))
    assert engine_calls(monkeypatch, comm_dense, 4, DIALGEBRA) == [
        ("bimodule", False), ("rule", True), ("triple_elimination", False)]
    # inhomogeneous input stays on elimination, even where its associative
    # image is homogeneous: truncated elimination can miss rows the bimodule
    # has (see test_prefix_suffix_truncation_violations_golden)
    inhomog = fixture("inhomog_ab")
    assert associated_associative(inhomog).homogeneous
    assert engine_calls(monkeypatch, inhomog, 4, DIALGEBRA) == [("elimination", False)]
    # an inhomogeneous associative image
    skew = Presentation(AB, QQ, (E("[a b]@1 - [a]@1"),))
    assert not associated_associative(skew).homogeneous
    assert engine_calls(monkeypatch, skew, 3, DIALGEBRA) == [("elimination", False)]
    # associative mode never takes the bimodule: a homogeneous associative
    # image takes the rules engine, binomial or not, and an inhomogeneous
    # one elimination
    for pres in [fixture(name) for name in ("comm_ab", "inhomog_ab", "cross_a")] + [
            dense(QQ), dense(GF32003), comm_dense]:
        assert engine_calls(monkeypatch, pres, 3, ASSOCIATIVE) == [("rule", True)]
    assert engine_calls(monkeypatch, skew, 3, ASSOCIATIVE) == [("elimination", True)]
    # relator-free input saturates nothing
    for mode in (DIALGEBRA, ASSOCIATIVE):
        assert engine_calls(monkeypatch, fixture("free_ab"), 3, mode) == []


@given(truncated_presentations_with_slack())
def test_truncated_input_stays_on_elimination(pres):
    assert associated_associative(pres).homogeneous and not pres.homogeneous
    with pytest.MonkeyPatch.context() as mp:
        assert engine_calls(mp, pres, 3, DIALGEBRA) == [("elimination", False)]


# frozen from the tests/oracle.py comparisons above, extended one degree
FROZEN_COUNTS = {
    ("free_a", 6): [1, 2, 3, 4, 5, 6],
    ("free_ab", 4): [2, 8, 24, 64],
    ("comm_a", 6): [1, 2, 1, 1, 1, 1],
    ("comm_ab", 5): [2, 6, 4, 5, 6],
    ("cross_a", 6): [1, 1, 1, 1, 1, 1],
    ("middle_cap_a", 6): [1, 2, 2, 2, 2, 2],
    ("inhomog_ab", 4): [2, 3, 4, 5],
    ("zero_a", 6): [0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("name,n", sorted(FROZEN_COUNTS, key=str))
def test_frozen_dialgebra_counts(name, n):
    table = basis_upto(fixture(name), n)
    assert table.counts_by_degree() == FROZEN_COUNTS[(name, n)]


def test_frozen_associative_counts():
    # commutative polynomials without unit: t+1 multisets per degree
    table = basis_upto(fixture("comm_ab"), 5, mode=ASSOCIATIVE)
    assert table.counts_by_degree() == [2, 3, 4, 5, 6]
    # powers of a single letter
    table = basis_upto(fixture("free_a"), 6, mode=ASSOCIATIVE)
    assert table.counts_by_degree() == [1, 1, 1, 1, 1, 1]
    assert [m.format() for m in table.basis[:3]] == ["[a]@1", "[a a]@1", "[a a a]@1"]


def test_free_basis_example():
    table = basis_upto(Presentation(A, QQ), 3)
    assert [m.format() for m in table.basis] == [
        "[a]@1",
        "[a a]@1",
        "[a a]@2",
        "[a a a]@1",
        "[a a a]@2",
        "[a a a]@3",
    ]
    assert len(basis_upto(Presentation(AB, QQ), 2).basis) == 10


def test_slack_independence_for_homogeneous_fixtures(monkeypatch):
    # rows up to degree n of homogeneous input do not depend on later
    # degrees: an explicit slack builds nothing past n, and the table
    # reports the slack 0 it used
    n = 5
    dense_cross = Presentation(AB, GF7, dense(GF7).relators, ("cross",))
    homogeneous = [fixture(name) for name in ("comm_ab", "comm_a", "middle_cap_a", "zero_a")]
    for mode in (DIALGEBRA, ASSOCIATIVE):
        for pres in homogeneous + [dense(QQ), dense_cross]:
            ref, calls = engine_caps(monkeypatch, pres, n, mode, slack=0)
            # the table's engine, if the input needs one, stops at n
            assert calls[:1] in ([], [("rule" if mode == ASSOCIATIVE else "bimodule", n)])
            for slack in (1, 3):
                table, got = engine_caps(monkeypatch, pres, n, mode, slack=slack)
                assert got == calls and table.slack == 0 and table.exact
                assert table.counts_by_degree() == ref.counts_by_degree()
                assert table.basis == ref.basis and table.pivots == ref.pivots
                assert table.rows == ref.rows
                assert table.to_json() == ref.to_json()
        # inhomogeneous input still saturates to n + slack
        inhomog = fixture("inhomog_ab") if mode == DIALGEBRA else Presentation(
            AB, QQ, (E("[a b]@1 - [a]@1"),))
        for slack in (0, 1, 3):
            table, calls = engine_caps(monkeypatch, inhomog, 3, mode, slack=slack)
            assert calls == [("elimination", 3 + slack)] and table.slack == slack
        # so the universe cap counts the monomials up to the bound only
        cap = universe_total(1, 30, mode == ASSOCIATIVE)
        table = basis_upto(fixture("comm_a"), 30, mode, slack=2, max_universe=cap)
        assert table.to_json() == basis_upto(fixture("comm_a"), 30, mode, slack=2).to_json()
        with pytest.raises(ResourceCapExceeded):
            basis_upto(fixture("comm_a"), 30, mode, slack=2, max_universe=cap - 1)


def test_inhomogeneous_tables_are_flagged():
    pres = fixture("inhomog_ab")
    table = basis_upto(pres, 3)
    assert table.slack == 2  # stored in the fixture file
    assert not table.exact
    assert not table.homogeneous
    # the relator collapses to [b]@1 in associative mode: homogeneous, no slack
    table = basis_upto(pres, 3, mode=ASSOCIATIVE)
    assert table.slack == 0
    assert table.exact


# ===== normal forms ========================================================


def test_normal_form_golden_table():
    table = basis_upto(fixture("inhomog_ab"), 2)
    assert normal_form(E("[a a]@2"), table).format() == "[a a]@1 + [b]@1"
    assert normal_form(E("[b]@1"), table) == E("[b]@1")
    assert normal_form(E("[b]@1 - [a a]@2 + [a a]@1"), table).is_zero
    # identity on a free table
    free = basis_upto(Presentation(AB, QQ), 3)
    x = E("2*[a b a]@2 - [b]@1")
    assert normal_form(x, free) == x


@st.composite
def bounded_elements(draw, alphabet=AB, max_len=3):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(1, max_len))
        word = bytes(draw(st.integers(0, alphabet.size - 1)) for _ in range(t))
        terms[Disequence(alphabet, word, draw(st.integers(1, t)))] = Fraction(
            draw(st.integers(-5, 5))
        )
    return DiElement(alphabet, QQ, terms)


COMM_TABLE = basis_upto(fixture("comm_ab"), 3)


@given(bounded_elements(), bounded_elements())
def test_normal_form_linear_and_idempotent(x, y):
    nx, ny = normal_form(x, COMM_TABLE), normal_form(y, COMM_TABLE)
    assert normal_form(nx, COMM_TABLE) == nx
    assert normal_form(x + y, COMM_TABLE) == nx + ny
    assert set(nx.terms) <= set(COMM_TABLE.basis)


def test_normal_form_fixes_basis_monomials():
    table = basis_upto(fixture("comm_ab"), 3)
    for m in table.basis:
        x = DiElement.monomial(m)
        assert normal_form(x, table) == x
    for piv in table.pivots:
        assert set(normal_form(DiElement.monomial(piv), table).terms) <= set(
            table.basis
        )


def test_normal_form_errors():
    table = basis_upto(fixture("comm_ab"), 2)
    with pytest.raises(DegreeBoundExceeded):
        normal_form(E("[a b a]@1"), table)
    with pytest.raises(AlphabetMismatch):
        normal_form(E("[x]@1", XY), table)
    with pytest.raises(FieldMismatch):
        normal_form(parse_element("[a]@1", AB, PrimeField(5)), table)
    assoc = basis_upto(fixture("comm_ab"), 2, mode=ASSOCIATIVE)
    with pytest.raises(ValueError):
        normal_form(E("[a b]@2"), assoc)
    assert normal_form(E("[a b]@1 - [b a]@1"), assoc).is_zero


# ===== associative mode ====================================================


def test_associative_tables_pin_middles():
    table = basis_upto(fixture("free_ab"), 3, mode=ASSOCIATIVE)
    assert all(m.middle == 1 for m in table.basis)
    assert table.counts_by_degree() == [2, 4, 8]
    assert table.mode == ASSOCIATIVE


@pytest.mark.parametrize("name", [n for n, _ in FIXTURE_ORACLE_DEGREES])
def test_quotient_monotonicity(name):
    pres = fixture(name)
    n = 4
    td = basis_upto(pres, n)
    ta = basis_upto(pres, n, mode=ASSOCIATIVE)
    for ca, cd in zip(ta.counts_by_degree(), td.counts_by_degree()):
        assert ca <= cd


# ===== prefix and suffix closure ===========================================


def test_prefix_suffix_clean_fixtures():
    for name, n in (("free_ab", 3), ("free_a", 4), ("comm_ab", 3), ("inhomog_ab", 3)):
        pres = fixture(name)
        report = prefix_suffix_check(
            basis_upto(pres, n), basis_upto(pres, n, mode=ASSOCIATIVE)
        )
        assert report.ok, (name, report.violations)
        assert report.exact == pres.homogeneous
    free = prefix_suffix_check(
        basis_upto(fixture("free_ab"), 3),
        basis_upto(fixture("free_ab"), 3, mode=ASSOCIATIVE),
    )
    assert free.checked == 2 + 8 + 24


def test_prefix_suffix_truncation_violations_golden():
    # slack 0 under-saturates the inhomogeneous fixture on purpose
    pres = fixture("inhomog_ab")
    report = prefix_suffix_check(
        basis_upto(pres, 2, slack=0), basis_upto(pres, 2, mode=ASSOCIATIVE, slack=0)
    )
    assert not report.ok and not report.exact
    assert report.violations == (
        ("[a b]@1", "suffix", "[b]@1"),
        ("[b b]@1", "suffix", "[b]@1"),
        ("[b a]@2", "prefix", "[b]@1"),
        ("[b b]@2", "prefix", "[b]@1"),
    )
    d = report.to_json_dict()
    assert d["ok"] is False and d["checked"] == report.checked


def test_prefix_suffix_validation():
    pres = fixture("free_ab")
    td, ta = basis_upto(pres, 3), basis_upto(pres, 3, mode=ASSOCIATIVE)
    with pytest.raises(ValueError):
        prefix_suffix_check(ta, td)  # modes swapped
    with pytest.raises(ValueError):
        prefix_suffix_check(td, basis_upto(pres, 2, mode=ASSOCIATIVE))
    other = basis_upto(fixture("comm_ab"), 3, mode=ASSOCIATIVE)
    with pytest.raises(ValueError):
        prefix_suffix_check(td, other)  # different presentations


@given(
    st.one_of(binomial_presentations(), non_binomial_presentations(),
              truncated_presentations()),
    st.sampled_from([0, None]),
    st.integers(2, 4),
)
def test_key_level_checks_match_reference(pres, slack, n):
    # slack 0 under-saturates inhomogeneous input, which is where violations occur
    from oracle import o_middle_bound, o_prefix_suffix

    td = basis_upto(pres, n, slack=slack)
    ta = basis_upto(pres, n, mode=ASSOCIATIVE, slack=slack)
    report = prefix_suffix_check(td, ta)
    want = o_prefix_suffix(table_as_oracle(td), table_as_oracle(ta))
    assert (report.checked, report.violations) == want
    assert report.exact == (td.exact and ta.exact)
    assert special_basis_check(td).m == o_middle_bound(table_as_oracle(td), n)


NAMES = (("a", "b", "c"), ("x", "y1", "z_2"), ("α", "b_2", "\U0001d51e"))


def renamed(pres, names):
    """pres over the first generators of names, words and coefficients kept."""
    alphabet = Alphabet(names[: pres.alphabet.size])
    relators = tuple(
        DiElement(alphabet, pres.field,
                  {Disequence(alphabet, m.word, m.middle): c for m, c in r.terms.items()})
        for r in pres.relators
    )
    return Presentation(alphabet, pres.field, relators, pres.schemes, pres.slack)


TABLE_DRAWS = (
    st.one_of(binomial_presentations(), non_binomial_presentations(),
              truncated_presentations()),
    st.sampled_from(NAMES),
    st.sampled_from([DIALGEBRA, ASSOCIATIVE]),
    st.sampled_from([0, 2, None]),
    st.integers(1, 4),
    st.sampled_from([1, 3, 7, 4096]),
)


@given(*TABLE_DRAWS)
def test_literals_match_monomial_format(pres, names, mode, slack, n, run):
    # runs hold `run` literals each, the last one fewer, across lengths and gaps
    table = basis_upto(renamed(pres, names), n, mode, slack=slack)
    basis = table._basis_keys()
    with patch.object(presentation, "_RUN", run):
        for spans, monos in (([basis], table.basis), (table._pivot_keys(basis), table.pivots)):
            runs = list(table._literals(spans))
            assert [*chain.from_iterable(runs)] == [m.format() for m in monos]
            assert all(len(r) == run for r in runs[:-1]) and all(0 < len(r) <= run for r in runs)


@given(*TABLE_DRAWS)
def test_exports_match_their_formulas(pres, names, mode, slack, n, run):
    # the streamed exports are byte for byte the one-piece formulas:
    # canonical_json of the parsed export, and the text lines of basis joined
    pres = renamed(pres, names)
    table = basis_upto(pres, n, mode, slack=slack)
    texts = []
    with patch.object(presentation, "_RUN", run):
        chunks = list(table.json_chunks())
        for fmt in ("json", "text"):
            args = argparse.Namespace(max_degree=n, mode=mode, slack=slack, out=None, format=fmt)
            with redirect_stdout(io.StringIO()) as out:
                assert cmd_basis(args, pres) == 0
            texts.append(out.getvalue())
    s = table.to_json()
    assert "".join(chunks) == s == canonical_json(json.loads(s)) == texts[0]
    # three fixed pieces, and one chunk per run of each list
    assert len(chunks) == 3 + -(len(table._basis_keys()) // -run) + -(len(table.pivots) // -run)
    lines = [
        f"mode: {table.mode}",
        f"degree bound: {table.degree_bound}",
        f"homogeneous: {table.homogeneous}",
        f"slack: {table.slack}",
        "basis:",
    ]
    lines += [f"  {m.format()}" for m in table.basis]
    assert texts[1] == "\n".join(lines) + "\n"


def test_literals_skip_lengths_without_keys():
    table = basis_upto(Presentation(Alphabet.of("x", "y1", "z_2"), QQ), 3)
    keys = table._keys
    picked = [keys.offset(3), keys.offset(3) + 31, keys.offset(4) - 1]
    assert list(table._literals([picked])) == [["[x x x]@1", "[x y1 y1]@2", "[z_2 z_2 z_2]@3"]]
    assert list(table._literals([[], range(0)])) == []


# ===== caps and determinism ================================================


def test_universe_cap_refuses_large_eliminations():
    import tracemalloc

    with pytest.raises(ResourceCapExceeded) as exc:
        basis_upto(fixture("comm_ab"), 20)
    assert str(exc.value) == (
        "elimination up to degree 20 would touch 39845890 monomials (cap 2000000); "
        "lower the degree or raise the cap"
    )
    # a tiny explicit cap trips early even at small degree
    with pytest.raises(ResourceCapExceeded):
        basis_upto(fixture("comm_ab"), 3, max_universe=10)
    # the check runs before any key table is built, and a total with more
    # digits than str() converts is stated as a power-of-two bound
    pres = fixture("comm_ab")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded) as exc:
            basis_upto(pres, 20000, mode=ASSOCIATIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "would touch at least 2**20000 monomials (cap 2000000)" in str(exc.value)
    assert peak < 2**20


def test_free_tables_skip_the_cap_but_not_materialization():
    table = basis_upto(fixture("free_ab"), 20)
    counts = table.counts_by_degree()
    assert counts[-1] == 20 * 2**20
    assert sum(t * 2**t for t in range(1, 21)) > MATERIALIZE_CAP
    with pytest.raises(ResourceCapExceeded):
        table.basis
    # neither the counts nor the refusal built a key table; a key read does
    assert table._codec is None
    assert D("[a b]@2") in table
    assert table._codec.cap == 20 and not table._codec.associative
    # the key table of a relator-free table is the one saturation of
    # homogeneous input would build: to the bound, whatever the slack
    for mode, slack in ((DIALGEBRA, None), (ASSOCIATIVE, 2)):
        table = basis_upto(fixture("free_ab"), 3, mode, slack=slack)
        assert table.basis == [m for t in range(1, 4)
                               for m in monomials(AB, t, mode == ASSOCIATIVE)]
        assert table._codec.cap == 3
        assert table.counts_by_degree() == [len(list(monomials(AB, t, mode == ASSOCIATIVE)))
                                            for t in range(1, 4)]


def test_counts_read_pivot_counts_once_and_no_length(monkeypatch):
    # from degree 60 a triple table holds more pivots than sys.maxsize, so
    # no count of them fits a length; the counts read pivot_counts once
    import sys

    seen = []
    for cls in (TripleRows, KernelRows):
        def counting(rows, n, _real=cls.pivot_counts):
            seen.append(type(rows).__name__)
            return _real(rows, n)

        monkeypatch.setattr(cls, "pivot_counts", counting)
    pres = Presentation(AB, QQ, (E("[b]@1"),))
    table = basis_upto(pres, 60, max_universe=10**40)
    assert isinstance(table._rows, TripleRows)
    # b is 0, so the table is the free dialgebra on a: t monomials of degree t
    assert table.counts_by_degree() == list(range(1, 61))
    assert seen == ["TripleRows"]
    assert sum(table._rows.pivot_counts(60)) > sys.maxsize
    # the empty rows of a relator-free table count no pivots, with no key table
    seen.clear()
    table = basis_upto(fixture("free_ab"), 60)
    assert table.counts_by_degree() == [t * 2**t for t in range(1, 61)]
    assert seen == ["KernelRows"] and table._codec is None


def test_large_tables_refuse_pivots_and_rows_as_basis():
    # from degree 60 a triple table holds more pivots than sys.maxsize;
    # pivots and rows list the keys the basis leaves out, so they meet the
    # materialize cap just as basis does
    table = basis_upto(Presentation(AB, QQ, (E("[b]@1"),)), 60, max_universe=10**40)
    for read in (lambda: table.basis, lambda: table.pivots, lambda: table.rows,
                 table.to_json):
        with pytest.raises(ResourceCapExceeded, match="materializing the basis up to degree 60"):
            read()


def test_tables_are_deterministic():
    a = basis_upto(fixture("comm_ab"), 4)
    b = basis_upto(fixture("comm_ab"), 4)
    assert a.to_json() == b.to_json()
    d = json.loads(a.to_json())
    assert set(d) == {"mode", "degree_bound", "homogeneous", "slack", "basis", "pivots"}
    assert d["mode"] == DIALGEBRA and d["degree_bound"] == 4
    assert d["homogeneous"] is True and d["slack"] == 0


# a three-term relator of the dense benchmark workload (seed 1)
DENSE_RELATOR = "-4*[a a b]@3 + 5*[a b a]@3 - 7*[b b a]@1"
GF32003 = PrimeField(32003)


def dense(field):
    return Presentation(AB, field, (parse_element(DENSE_RELATOR, AB, field),))


def assert_kernel_rows(rows: dict, field):
    """Every tail term is below its pivot and is no pivot itself; rows are
    primitive with d > 0 over Q, and d == 1 with entries in [0, p) over
    GF(p)."""
    for piv, (d, tail) in rows.items():
        for m in tail:
            assert m < piv and m not in rows, (piv, m)
        if field == QQ:
            assert d > 0 and gcd(d, *tail.values()) == 1, (piv, d, tail)
        else:
            assert d == 1 and all(0 < c < field.p for c in tail.values()), (piv, tail)


def test_basistable_invariants():
    table = basis_upto(fixture("comm_ab"), 4)
    # slotted, and equal only to itself
    assert not hasattr(table, "__dict__")
    assert table != basis_upto(fixture("comm_ab"), 4)
    pivots = table.pivots
    assert pivots == sorted(pivots, key=Disequence.sort_key)
    basis = table.basis
    assert basis == sorted(basis, key=Disequence.sort_key)
    assert not (set(pivots) & set(basis))
    counts = table.counts_by_degree()
    assert sum(counts) == len(basis)
    for m in basis:
        assert m in table
    for piv in pivots:
        assert piv not in table
    assert D("[a b a b a]@2") not in table  # beyond the bound
    # slack rows beyond the bound stay out: [a a]@1, the first monomial of
    # length 2, is a pivot at degree 2 only
    slack_table = basis_upto(Presentation(AB, QQ, (E("[a a]@1 - [b]@1"),)), 1, slack=1)
    assert slack_table.pivots == [] and slack_table.counts_by_degree() == [2]

    # rows are monic and no tail term is a pivot, on both engines
    tables = [table]
    for mode in (DIALGEBRA, ASSOCIATIVE):
        tables.append(basis_upto(fixture("inhomog_ab"), 3, mode, slack=2))
    for field in (QQ, GF32003):
        assert not _binomial(dense(field))
        tables.append(basis_upto(dense(field), 5))
    for table in tables:
        assert table.rows
        piv_set = set(table.pivots)
        for piv, row in table.rows.items():
            assert row.support()[0] == piv and row.terms[piv] == table.field.one
            assert not (set(row.terms) - {piv}) & piv_set
    # the kernel's own rows, before any slack filter, on both engines
    for mode, assoc in ((DIALGEBRA, False), (ASSOCIATIVE, True)):
        pres = fixture("inhomog_ab")
        q = associated_associative(pres) if assoc else pres
        keys = KeyCodec(AB, 5, assoc)
        assert_kernel_rows(stored(_elimination_rows(q, keys), keys), QQ)
    for field in (QQ, GF32003):
        keys = KeyCodec(AB, 5)
        for engine in (_elimination_rows, _bimodule_rows):
            rows = stored(engine(dense(field), keys), keys)
            assert any(d > 1 for d, _ in rows.values()) == (field == QQ)
            assert_kernel_rows(rows, field)
        keys = KeyCodec(AB, 6, True)
        rows = stored(_rule_rows(associated_associative(dense(field)), keys), keys)
        assert any(d > 1 for d, _ in rows.values()) == (field == QQ)
        assert_kernel_rows(rows, field)
        comm = Presentation(AB, field, (parse_element("[b b]@1", AB, field),),
                            ("lcomm", "rcomm"))
        keys = KeyCodec(AB, 4)
        assert_kernel_rows(stored(_bimodule_rows(comm, keys), keys), field)
        for table in tables:
            if table.field == field:
                assert_kernel_rows(stored(table._rows, table._keys), field)
    # and on the kernel rows of inputs that are no ideal's rows
    rows, _ = echelon([E(DENSE_RELATOR), E("[a a b]@3 - [b]@1"), E("[b]@1 + [a]@1")])
    assert len(rows) == 3 and any(d > 1 for d, _ in rows.values())
    assert_kernel_rows(rows, QQ)


MONOS_UPTO_4 = [m for t in range(1, 5) for m in monomials(AB, t)]
# dense(QQ) has rows with d > 1, so non-unit leads and rescaling are drawn
REDUCE_TABLES = [basis_upto(fixture("inhomog_ab"), 4), basis_upto(dense(QQ), 4),
                 basis_upto(dense(GF32003), 4)]


def reduced_value(result, p):
    """The field values of a kernel result (L, L*nf)."""
    L, out = result
    assert L > 0
    if p:
        assert L == 1 and all(0 < c < p for c in out.values())
        return out
    return {m: Fraction(c, L) for m, c in out.items()}


@given(
    st.sampled_from(REDUCE_TABLES),
    st.lists(st.tuples(st.sampled_from(MONOS_UPTO_4), st.integers(-9, 9)), max_size=8),
    st.data(),
)
def test_reduce_terms_ignores_pair_order_and_repeats(table, pairs, data):
    rows, field, keys = table._rows, table.field, table._keys
    p = field.p
    pairs = [(keys.encode(m), c % p if p else c) for m, c in pairs]
    given_pairs = list(pairs)
    want = reduced_value(_reduce_terms(pairs, rows, p), p)
    assert pairs == given_pairs  # the input is not consumed
    assert all(want.values()) and not any(x in rows for x in want)
    # the normal form of the summed element
    x = DiElement(AB, field)
    for m, c in pairs:
        x = x + DiElement(AB, field, {keys.decode(m): c})
    assert want == {keys.encode(m): c for m, c in normal_form(x, table).terms.items()}
    # any order of the pairs
    got = _reduce_terms(data.draw(st.permutations(pairs)), rows, p)
    assert reduced_value(got, p) == want
    # one coefficient split across repeated pairs, in any order
    split = []
    for m, c in pairs:
        a = data.draw(st.integers(-9, 9))
        split += [(m, a % p), (m, (c - a) % p)] if p else [(m, a), (m, c - a)]
    got = _reduce_terms(data.draw(st.permutations(split)), rows, p)
    assert reduced_value(got, p) == want


@pytest.mark.parametrize("name", ["inhomog_ab", "comm_ab", "comm_a", "dense"])
def test_basis_upto_restores_gc_state(name, monkeypatch):
    import gc

    from digrow import bimodule, completion, presentation

    pres = dense(QQ) if name == "dense" else fixture(name)
    was = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            for mode in (DIALGEBRA, ASSOCIATIVE):
                assert basis_upto(pres, 3, mode).counts_by_degree()
            assert gc.isenabled() is state

        # the same when the engine raises; it runs with GC off
        seen = []

        def failing(q, keys):
            seen.append(gc.isenabled())
            raise RuntimeError("engine failed")

        for module, engine in ((presentation, "_elimination_rows"), (bimodule, "_bimodule_rows"),
                               (completion, "_rule_rows")):
            monkeypatch.setattr(module, engine, failing)
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            for mode in (DIALGEBRA, ASSOCIATIVE):
                with pytest.raises(RuntimeError, match="engine failed"):
                    basis_upto(pres, 3, mode)
            assert gc.isenabled() is state
        assert seen == [False] * 4
    finally:
        (gc.enable if was else gc.disable)()


def test_zero_dialgebra():
    pres = fixture("zero_a")
    table = basis_upto(pres, 4)
    assert table.basis == []
    assert table.counts_by_degree() == [0, 0, 0, 0]
    assert normal_form(E("[a]@1", A), table).is_zero
    assert normal_form(E("[a a a]@2 - 3*[a]@1", A), table).is_zero
    report = prefix_suffix_check(table, basis_upto(pres, 4, mode=ASSOCIATIVE))
    assert report.ok and report.checked == 0
