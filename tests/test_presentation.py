"""Presentations: saturation, echelon bases, normal forms, structural checks.

Every frozen count or basis list in here was produced by the brute-force
reference in tests/oracle.py; the slow comparisons that regenerate them
live in the oracle-marked tests below.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from digrow.cli import load_presentation
from digrow.element import QQ, DiElement, PrimeField, parse_element
from digrow.errors import (
    AlphabetMismatch,
    DegreeBoundExceeded,
    FieldMismatch,
    ResourceCapExceeded,
)
from digrow.monomial import Alphabet, Disequence, parse_disequence
from digrow.presentation import (
    ASSOCIATIVE,
    DIALGEBRA,
    MATERIALIZE_CAP,
    Presentation,
    associated_associative,
    basis_upto,
    collapse_middle,
    echelonize,
    ideal_span_upto,
    normal_form,
    prefix_suffix_check,
)
from digrow import fixture_path

A = Alphabet.of("a")
AB = Alphabet.of("a", "b")
XY = Alphabet.of("x", "y")


def E(text, alphabet=AB):
    return parse_element(text, alphabet, QQ)


def D(text, alphabet=AB):
    return parse_disequence(text, alphabet)


def fixture(name):
    return load_presentation(fixture_path(name))


def to_oracle(elem):
    names = elem.alphabet.names
    return {
        (tuple(names[b] for b in m.word), m.middle): c for m, c in elem.terms.items()
    }


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


def test_slack_policy():
    rel = (E("[b]@1 - [a a]@2 + [a a]@1"),)
    # inhomogeneous, nothing requested: term-length spread
    assert basis_upto(Presentation(AB, QQ, rel), 2).slack == 1
    # the presentation's stored value is honored
    assert basis_upto(Presentation(AB, QQ, rel, slack=2), 2).slack == 2
    # an explicit argument wins over everything
    assert basis_upto(Presentation(AB, QQ, rel, slack=2), 2, slack=5).slack == 5
    # homogeneous input never needs slack
    comm = Presentation(AB, QQ, (), ("lcomm",), slack=3)
    assert basis_upto(comm, 2).slack == 0
    assert basis_upto(comm, 2, slack=2).slack == 2
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


# ===== echelonize ==========================================================


def test_echelonize_examples():
    assert [r.format() for r in echelonize([2 * E("[a]@1")])] == ["[a]@1"]
    got = echelonize([E("[a]@1 + [b]@1"), E("[b]@1")])
    assert {r.format() for r in got} == {"[a]@1", "[b]@1"}
    got = echelonize([E("[a a]@2 - [a a]@1"), E("[a a]@2")])
    assert {r.format() for r in got} == {"[a a]@2", "[a a]@1"}
    assert echelonize([]) == []
    assert echelonize([DiElement.zero(AB, QQ)]) == []
    # dependent rows collapse to the rank
    got = echelonize([E("[a]@1 + [b]@1"), E("[a]@1 - [b]@1"), E("2*[a]@1")])
    assert len(got) == 2


def test_echelonize_output_shape():
    rows = echelonize([E("[a b]@2 + [a]@1"), E("[a b]@1 + [a]@1"), E("3*[a]@1 + [b]@1")])
    pivots = [r.leading()[0] for r in rows]
    assert pivots == sorted(pivots, key=Disequence.sort_key, reverse=True)
    piv_set = set(pivots)
    for r in rows:
        piv, c = r.leading()
        assert c == Fraction(1)
        tail = set(r.terms) - {piv}
        assert not (tail & piv_set)  # fully inter-reduced


def test_echelonize_rejects_mixed_inputs():
    with pytest.raises(AlphabetMismatch):
        echelonize([E("[a]@1"), E("[a]@1", A)])
    with pytest.raises(FieldMismatch):
        echelonize([E("[a]@1"), parse_element("[a]@1", AB, PrimeField(5))])


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
        for row in echelonize(elems):
            piv, _ = row.leading()
            tail = dict(to_oracle(row))
            key = (tuple(names[b] for b in piv.word), piv.middle)
            del tail[key]
            got[key] = tail
        want = o_echelon([to_oracle(e) for e in elems], names)
        assert got == want


# ===== ideal spans =========================================================


def test_ideal_span_goldens():
    assert ideal_span_upto(Presentation(AB, QQ), 5) == []
    rel = Presentation(AB, QQ, (E("[b]@1 - [a a]@2 + [a a]@1"),), slack=0)
    got = ideal_span_upto(rel, 2)
    assert [r.format() for r in got] == ["[a a]@2 - [a a]@1 - [b]@1"]
    lcomm = Presentation(XY, QQ, (), ("lcomm",))
    got = ideal_span_upto(lcomm, 2)
    assert [r.format() for r in got] == ["[y x]@2 - [x y]@2"]


def test_ideal_span_members_reduce_to_zero():
    pres = fixture("comm_ab")
    table = basis_upto(pres, 4)
    for row in ideal_span_upto(pres, 4):
        if row.max_length() <= 4:
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


def test_slack_independence_for_homogeneous_fixtures():
    pres = fixture("comm_ab")
    t0 = basis_upto(pres, 4, slack=0)
    t3 = basis_upto(pres, 4, slack=3)
    assert t0.counts_by_degree() == t3.counts_by_degree()
    assert t0.pivots == t3.pivots
    assert t0.exact and t3.exact


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


# ===== caps and determinism ================================================


def test_universe_cap_refuses_large_eliminations():
    with pytest.raises(ResourceCapExceeded) as exc:
        basis_upto(fixture("comm_ab"), 20)
    msg = str(exc.value)
    assert "monomials" in msg and "cap" in msg
    # a tiny explicit cap trips early even at small degree
    with pytest.raises(ResourceCapExceeded):
        basis_upto(fixture("comm_ab"), 3, max_universe=10)


def test_free_tables_skip_the_cap_but_not_materialization():
    table = basis_upto(fixture("free_ab"), 20)
    counts = table.counts_by_degree()
    assert counts[-1] == 20 * 2**20
    assert table.count_upto(20) == sum(counts)
    assert sum(t * 2**t for t in range(1, 21)) > MATERIALIZE_CAP
    with pytest.raises(ResourceCapExceeded):
        table.basis


def test_tables_are_deterministic():
    a = basis_upto(fixture("comm_ab"), 4)
    b = basis_upto(fixture("comm_ab"), 4)
    assert a.to_json() == b.to_json()
    d = a.to_json_dict()
    assert set(d) == {"mode", "degree_bound", "homogeneous", "slack", "basis", "pivots"}
    assert d["mode"] == DIALGEBRA and d["degree_bound"] == 4
    assert d["homogeneous"] is True and d["slack"] == 0


def test_basistable_invariants():
    table = basis_upto(fixture("comm_ab"), 4)
    pivots = table.pivots
    assert pivots == sorted(pivots, key=Disequence.sort_key)
    basis = table.basis
    assert basis == sorted(basis, key=Disequence.sort_key)
    assert not (set(pivots) & set(basis))
    counts = table.counts_by_degree()
    assert sum(counts) == len(basis) == table.count_upto(4)
    assert table.count_upto(2) == counts[0] + counts[1]
    piv_set = set(pivots)
    for piv, row in table.rows.items():
        lead, c = row.leading()
        assert lead == piv and c == Fraction(1)
        assert not (set(row.terms) - {piv}) & piv_set
    for m in basis:
        assert m in table
    for piv in pivots:
        assert piv not in table
    assert D("[a b a b a]@2") not in table  # beyond the bound


def test_zero_dialgebra():
    pres = fixture("zero_a")
    table = basis_upto(pres, 4)
    assert table.basis == []
    assert table.counts_by_degree() == [0, 0, 0, 0]
    assert normal_form(E("[a]@1", A), table).is_zero
    assert normal_form(E("[a a a]@2 - 3*[a]@1", A), table).is_zero
    report = prefix_suffix_check(table, basis_upto(pres, 4, mode=ASSOCIATIVE))
    assert report.ok and report.checked == 0
