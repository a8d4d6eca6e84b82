"""Presentations and the exact linear algebra behind their monomial bases.

A presentation is an alphabet, a scalar field, a list of relators and a list
of identity schemes.  The ideal the relators and schemes generate is built
degree by degree: seed rows, then close under multiplication by single
generators on both sides under both products, reducing every candidate
against a fully inter-reduced echelon set as it arrives.  Pivot monomials of
the echelon rows are exactly the monomials that reduce; everything else is
the basis.

Truncation semantics matter.  Saturation runs to degree n + slack and the
table reports degrees up to n.  A kept row never has a term beyond the cap
(candidates that would are dropped whole), so every stored row really is an
ideal element.  For inhomogeneous relators the computed span is therefore a
lower bound on the ideal and the reported basis an upper bound; tables built
from homogeneous input are exact and say so.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .element import DiElement, QQ
from .errors import (
    AlphabetMismatch,
    DegreeBoundExceeded,
    FieldMismatch,
    ResourceCapExceeded,
)
from .monomial import Alphabet, Disequence, lprod, monomials, rprod, universe_count

DIALGEBRA = "dialgebra"
ASSOCIATIVE = "associative"
SCHEME_TAGS = ("lcomm", "rcomm", "cross")

# desk-scale guard rails
DEFAULT_UNIVERSE_CAP = 2_000_000
MATERIALIZE_CAP = 5_000_000

_SORT_KEY = Disequence.sort_key


def _norm_mode(mode: str) -> str:
    if mode in (DIALGEBRA, ASSOCIATIVE):
        return mode
    if mode == "assoc":
        return ASSOCIATIVE
    raise ValueError(f"mode must be dialgebra or associative, got {mode!r}")


def canonical_json(payload) -> str:
    """Byte-deterministic JSON: sorted keys, no spaces, one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def scheme_pair(tag: str, u: Disequence, v: Disequence) -> tuple[Disequence, Disequence]:
    """The monomials (m1, m2) that the identity scheme tag equates on (u, v)."""
    if tag == "lcomm":
        return lprod(u, v), lprod(v, u)
    if tag == "rcomm":
        return rprod(u, v), rprod(v, u)
    return lprod(u, v), rprod(v, u)


def _universe_upto(alphabet: Alphabet, n: int, associative: bool) -> int:
    """How many monomials of length 1..n exist in the given mode."""
    return sum(universe_count(alphabet.size, t, associative) for t in range(1, n + 1))


def _row_element(alphabet: Alphabet, field, piv: Disequence, tail: dict) -> DiElement:
    """The monic row piv + tail as an element."""
    full = dict(tail)
    full[piv] = field.one
    return DiElement(alphabet, field, full, _clean=True)


# ===== presentations =======================================================


@dataclass(frozen=True)
class Presentation:
    """Alphabet, field, relators, identity schemes and an optional slack."""

    alphabet: Alphabet
    field: object = QQ
    relators: tuple[DiElement, ...] = ()
    schemes: tuple[str, ...] = ()
    slack: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(self.relators))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for r in self.relators:
            if r.alphabet != self.alphabet:
                raise AlphabetMismatch("relator over a different alphabet")
            if r.field != self.field:
                raise FieldMismatch("relator over a different field")
            if r.is_zero:
                raise ValueError("zero relator")
        seen = set()
        for tag in self.schemes:
            if tag not in SCHEME_TAGS:
                raise ValueError(f"unknown identity scheme {tag!r}")
            if tag in seen:
                raise ValueError(f"duplicate identity scheme {tag!r}")
            seen.add(tag)
        if self.slack is not None and (not isinstance(self.slack, int) or self.slack < 0):
            raise ValueError("slack must be a nonnegative integer")

    @property
    def homogeneous(self) -> bool:
        """True when every relator is length-homogeneous (schemes always are)."""
        return all(r.is_homogeneous() for r in self.relators)

    def length_spread(self) -> int:
        """Largest gap between term lengths inside one relator."""
        spread = 0
        for r in self.relators:
            lengths = [len(m.word) for m in r.terms]
            spread = max(spread, max(lengths) - min(lengths))
        return spread

    def canonical_text(self) -> str:
        lines = [f"field {self.field.name}", "generators " + " ".join(self.alphabet.names)]
        lines += [f"rel {r.format()}" for r in self.relators]
        lines += [f"idrel {tag}" for tag in self.schemes]
        if self.slack is not None:
            lines.append(f"slack {self.slack}")
        return "\n".join(lines) + "\n"

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def collapse_middle(x: DiElement) -> DiElement:
    """Forget middles: send every [w]@m to [w]@1, combining coefficients."""
    f = x.field
    out: dict = {}
    for mono, c in x.terms.items():
        flat = mono if mono.middle == 1 else Disequence(mono.alphabet, mono.word, 1)
        s = f.add(out.get(flat, f.zero), c)
        if s:
            out[flat] = s
        else:
            del out[flat]
    return DiElement(x.alphabet, f, out, _clean=True)


def associated_associative(pres: Presentation) -> Presentation:
    """The presentation of the quotient where both products coincide.

    Relators go through the middle-forgetting map (those that collapse to
    zero are dropped) and every identity scheme degenerates to plain
    commutativity, which is how associative-mode computations read the tags.
    The result is meant to be used in associative mode.
    """
    collapsed = []
    for r in pres.relators:
        c = collapse_middle(r)
        if not c.is_zero:
            collapsed.append(c)
    return Presentation(pres.alphabet, pres.field, tuple(collapsed), pres.schemes, pres.slack)


def _effective_slack(q: Presentation, explicit: int | None) -> int:
    """Slack policy on the presentation a mode works on: explicit call
    argument wins, homogeneous input needs 0, otherwise the file value,
    otherwise the maximal term-length spread."""
    if explicit is not None:
        if explicit < 0:
            raise ValueError("slack must be nonnegative")
        return explicit
    if q.homogeneous:
        return 0
    if q.slack is not None:
        return q.slack
    return q.length_spread()


# ===== reduction against monic rows ========================================

# max-heap over monomials via negated keys; ranks fit in one byte
_INV = bytes(255 - i for i in range(256))


def _negkey(m: Disequence):
    w = m.word
    return (-len(w), -m.middle, w.translate(_INV))


def _reduce_terms(terms: dict, rows: dict, field) -> dict:
    """Full normal form of a term dict against rows {pivot -> monic tail}.

    Tails contain no pivots, so each pivot occurrence is substituted once
    and every surviving monomial is pivot-free.
    """
    coeffs = dict(terms)
    heap = [(_negkey(m), m) for m in coeffs]
    heapify(heap)
    out: dict = {}
    submul = field.submul
    zero = field.zero
    get_row = rows.get
    while heap:
        m = heappop(heap)[1]
        c = coeffs.pop(m, None)
        if c is None or not c:
            continue
        tail = get_row(m)
        if tail is None:
            out[m] = c
            continue
        for m2, c2 in tail.items():
            old = coeffs.get(m2)
            if old is None:
                coeffs[m2] = submul(zero, c, c2)
                heappush(heap, (_negkey(m2), m2))
            else:
                coeffs[m2] = submul(old, c, c2)
    return out


class _Echelon:
    """Monic, fully inter-reduced row set keyed by pivot monomial."""

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}
        self._tails: dict = {}

    def add(self, terms: dict):
        """Reduce a candidate; insert if nonzero.  Returns the pivot or None."""
        nf = _reduce_terms(terms, self.rows, self.field)
        if not nf:
            return None
        return self.insert_reduced(nf)

    def insert_reduced(self, nf: dict) -> Disequence:
        # nf must be nonzero, fully reduced and owned by the caller
        field = self.field
        piv = max(nf, key=_SORT_KEY)
        c0 = nf.pop(piv)
        if c0 == field.one:
            tail = nf
        else:
            inv = field.invert(c0)
            tail = {m: field.mul(inv, c) for m, c in nf.items()}
        self.rows[piv] = tail
        tails = self._tails
        for m in tail:
            tails.setdefault(m, set()).add(piv)
        affected = tails.pop(piv, None)
        if affected:
            # keep older rows pivot-free: substitute the new pivot away
            for q in affected:
                tq = self.rows[q]
                c = tq.pop(piv)
                for m, cm in tail.items():
                    old = tq.get(m)
                    val = field.submul(old if old is not None else field.zero, c, cm)
                    if val:
                        tq[m] = val
                        if old is None:
                            tails.setdefault(m, set()).add(q)
                    else:
                        # c*cm is nonzero, so old was present
                        del tq[m]
                        tails[m].discard(q)
        return piv


def echelonize(elements) -> list[DiElement]:
    """Gaussian elimination keyed by the monomial order.

    Returns monic, fully inter-reduced rows with distinct pivots, largest
    pivot first.  The span of the input is preserved.
    """
    elements = list(elements)
    alphabet = field = None
    for x in elements:
        if alphabet is None:
            alphabet, field = x.alphabet, x.field
        elif x.alphabet != alphabet:
            raise AlphabetMismatch("mixing alphabets")
        elif x.field != field:
            raise FieldMismatch("mixing scalar fields")
    ech = _Echelon(field if field is not None else QQ)
    for x in elements:
        ech.add(dict(x.terms))
    if alphabet is None:
        return []
    pivots = sorted(ech.rows, key=_SORT_KEY, reverse=True)
    return [_row_element(alphabet, ech.field, p, ech.rows[p]) for p in pivots]


# ===== saturation ==========================================================


class _Saturator:
    """Degree-bucketed closure of the ideal span up to a length cap."""

    def __init__(self, pres: Presentation, cap: int, associative: bool, max_universe: int):
        self.alphabet = pres.alphabet
        self.field = pres.field
        self.schemes = pres.schemes
        self.cap = cap
        self.associative = associative
        self.ech = _Echelon(pres.field)
        self.gens = pres.alphabet.generators()
        self._universe: dict[int, list] = {}

        total = _universe_upto(pres.alphabet, cap, associative)
        if total > max_universe:
            raise ResourceCapExceeded(
                f"elimination up to degree {cap} would touch {total} monomials "
                f"(cap {max_universe}); lower the degree or raise the cap"
            )

        self.pending: list[list] = [[] for _ in range(cap + 2)]
        self.instantiated = [False] * (cap + 2)
        for r in pres.relators:
            terms = dict(r.terms)
            top = max(len(m.word) for m in terms)
            if top <= cap:
                self.pending[top].append(terms)

    # -- candidate generation -------------------------------------------------

    def _length_universe(self, length: int) -> list:
        got = self._universe.get(length)
        if got is None:
            got = list(monomials(self.alphabet, length, self.associative))
            self._universe[length] = got
        return got

    def _nonpivots(self, length: int) -> list:
        rows = self.ech.rows
        return [m for m in self._length_universe(length) if m not in rows]

    def _seed_instances(self, total: int):
        """Identity-scheme rows of total degree `total`.

        Pairs range over current basis monomials only: an instance on a
        reducible argument differs from instances on its reduction by ideal
        elements the closure already spans.
        """
        if total < 2:
            return
        one = self.field.one
        minus = self.field.neg(one)
        bucket = self.pending[total]
        # associative mode reads every scheme as plain commutativity
        tags = ("rcomm",) if self.associative else [t for t in self.schemes if t != "cross"]
        for l1 in range(1, total // 2 + 1):
            l2 = total - l1
            left = self._nonpivots(l1)
            right = left if l2 == l1 else self._nonpivots(l2)
            for i, u in enumerate(left):
                start = i + 1 if l2 == l1 else 0
                for v in right[start:]:
                    for tag in tags:
                        m1, m2 = scheme_pair(tag, u, v)
                        if m1 != m2:
                            bucket.append({m1: one, m2: minus})
        if not self.associative and "cross" in self.schemes:
            # not antisymmetric, so all ordered pairs including (u, u)
            for l1 in range(1, total):
                l2 = total - l1
                for u in self._nonpivots(l1):
                    for v in self._nonpivots(l2):
                        m1, m2 = scheme_pair("cross", u, v)
                        if m1 != m2:
                            bucket.append({m1: one, m2: minus})

    def _products(self, piv: Disequence, tail: dict):
        """Single-generator multiples of the row piv + tail, both sides."""
        full = dict(tail)
        full[piv] = self.field.one
        add = self.field.add
        ops = (
            ((rprod, True), (rprod, False))
            if self.associative
            else ((lprod, True), (lprod, False), (rprod, True), (rprod, False))
        )
        for g in self.gens:
            for mono_op, on_left in ops:
                out: dict = {}
                for m, c in full.items():
                    mono = mono_op(g, m) if on_left else mono_op(m, g)
                    old = out.get(mono)
                    if old is None:
                        out[mono] = c
                    else:
                        s = add(old, c)
                        if s:
                            out[mono] = s
                        else:
                            del out[mono]
                if out:
                    yield out

    # -- main loop -------------------------------------------------------------

    def run(self) -> dict:
        pend = self.pending
        cap = self.cap
        ech = self.ech
        t = 1
        while t <= cap:
            if self.schemes and not self.instantiated[t]:
                self.instantiated[t] = True
                self._seed_instances(t)
            bucket = pend[t]
            while bucket:
                terms = bucket.pop()
                nf = _reduce_terms(terms, ech.rows, self.field)
                if not nf:
                    continue
                piv = ech.insert_reduced(nf)
                if len(piv.word) + 1 <= cap:
                    for prod in self._products(piv, ech.rows[piv]):
                        pend[max(len(m.word) for m in prod)].append(prod)
            # a late short pivot can drop work into lower buckets; go back
            back = None
            for s in range(1, t + 1):
                if pend[s]:
                    back = s
                    break
            t = back if back is not None else t + 1
        return ech.rows


def _saturate(pres: Presentation, n: int, mode: str, slack: int | None, max_universe):
    """The one saturation step behind basis_upto and ideal_span_upto.

    Works on pres itself in dialgebra mode and on its associative image in
    associative mode.  Returns that presentation, the effective slack and
    the echelon rows {pivot: monic tail} through degree n + slack.
    """
    if n < 1:
        raise ValueError("degree bound must be at least 1")
    q = pres if mode == DIALGEBRA else associated_associative(pres)
    eff = _effective_slack(q, slack)
    if not q.relators and not q.schemes:
        return q, eff, {}
    sat = _Saturator(
        q,
        n + eff,
        mode == ASSOCIATIVE,
        DEFAULT_UNIVERSE_CAP if max_universe is None else max_universe,
    )
    return q, eff, sat.run()


# ===== basis tables ========================================================


class BasisTable:
    """Echelonized view of a presentation up to a degree bound.

    rows maps each pivot monomial to its monic reduced row; basis is every
    other monomial of length <= degree_bound.  exact is False when
    inhomogeneous relators force truncation, in which case the stored span
    is a lower bound on the ideal and the basis an upper bound.
    """

    __slots__ = (
        "alphabet",
        "field",
        "mode",
        "degree_bound",
        "slack",
        "homogeneous",
        "fingerprint",
        "_rows",
        "_basis",
        "_row_elements",
    )

    def __init__(self, alphabet, field, mode, degree_bound, slack, homogeneous, fingerprint, rows):
        self.alphabet = alphabet
        self.field = field
        self.mode = mode
        self.degree_bound = degree_bound
        self.slack = slack
        self.homogeneous = homogeneous
        self.fingerprint = fingerprint
        self._rows = rows
        self._basis = None
        self._row_elements = None

    @property
    def exact(self) -> bool:
        return self.homogeneous

    @property
    def pivots(self) -> list[Disequence]:
        return sorted(self._rows, key=_SORT_KEY)

    @property
    def rows(self) -> dict:
        if self._row_elements is None:
            self._row_elements = {
                piv: _row_element(self.alphabet, self.field, piv, self._rows[piv])
                for piv in sorted(self._rows, key=_SORT_KEY)
            }
        return self._row_elements

    @property
    def basis(self) -> list[Disequence]:
        if self._basis is None:
            assoc = self.mode == ASSOCIATIVE
            total = _universe_upto(self.alphabet, self.degree_bound, assoc)
            if total > MATERIALIZE_CAP:
                raise ResourceCapExceeded(
                    f"materializing the basis up to degree {self.degree_bound} "
                    f"would enumerate {total} monomials"
                )
            rows = self._rows
            out = []
            for t in range(1, self.degree_bound + 1):
                out.extend(
                    m for m in monomials(self.alphabet, t, assoc) if m not in rows
                )
            self._basis = out
        return self._basis

    def __contains__(self, mono: Disequence) -> bool:
        return (
            len(mono.word) <= self.degree_bound
            and mono.alphabet == self.alphabet
            and mono not in self._rows
            and (self.mode != ASSOCIATIVE or mono.middle == 1)
        )

    def counts_by_degree(self) -> list[int]:
        """Basis size per degree 1..degree_bound, no materialization needed."""
        assoc = self.mode == ASSOCIATIVE
        piv_at = [0] * (self.degree_bound + 1)
        for piv in self._rows:
            piv_at[len(piv.word)] += 1
        return [
            universe_count(self.alphabet.size, t, assoc) - piv_at[t]
            for t in range(1, self.degree_bound + 1)
        ]

    def count_upto(self, n: int) -> int:
        if not 0 <= n <= self.degree_bound:
            raise DegreeBoundExceeded(f"degree {n} beyond table bound {self.degree_bound}")
        return sum(self.counts_by_degree()[:n])

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "degree_bound": self.degree_bound,
            "homogeneous": self.homogeneous,
            "slack": self.slack,
            "basis": [m.format() for m in self.basis],
            "pivots": [m.format() for m in self.pivots],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def ideal_span_upto(pres: Presentation, n: int, mode: str = DIALGEBRA, max_universe=None):
    """Echelon rows spanning the computed ideal through degree n + slack."""
    _, _, rows = _saturate(pres, n, _norm_mode(mode), None, max_universe)
    return [
        _row_element(pres.alphabet, pres.field, piv, rows[piv])
        for piv in sorted(rows, key=_SORT_KEY, reverse=True)
    ]


def basis_upto(
    pres: Presentation,
    n: int,
    mode: str = DIALGEBRA,
    slack: int | None = None,
    max_universe=None,
) -> BasisTable:
    """Saturate, echelonize, and report pivots and basis up to degree n."""
    mode = _norm_mode(mode)
    q, eff, rows = _saturate(pres, n, mode, slack, max_universe)
    kept = {piv: tail for piv, tail in rows.items() if len(piv.word) <= n}
    return BasisTable(
        pres.alphabet,
        pres.field,
        mode,
        n,
        eff,
        q.homogeneous,
        pres.fingerprint,
        kept,
    )


def normal_form(x: DiElement, table: BasisTable) -> DiElement:
    """Canonical representative of x modulo the table's rows.

    Vanishes exactly on (computed) ideal members; the result is supported
    on basis monomials.  Idempotent and linear.
    """
    if x.alphabet != table.alphabet:
        raise AlphabetMismatch("element over a different alphabet")
    if x.field != table.field:
        raise FieldMismatch("element over a different field")
    if x.max_length() > table.degree_bound:
        raise DegreeBoundExceeded(
            f"element reaches degree {x.max_length()}, table covers {table.degree_bound}"
        )
    if table.mode == ASSOCIATIVE and any(m.middle != 1 for m in x.terms):
        raise ValueError("associative tables reduce middle-1 elements only")
    nf = _reduce_terms(x.terms, table._rows, table.field)
    return DiElement(x.alphabet, x.field, nf, _clean=True)


# ===== structural check: prefixes and suffixes =============================


@dataclass(frozen=True)
class PrefixSuffixReport:
    """Outcome of the basis prefix/suffix closure check."""

    checked: int
    violations: tuple
    exact: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [list(v) for v in self.violations],
            "exact": self.exact,
            "ok": self.ok,
        }


def prefix_suffix_check(table_d: BasisTable, table_a: BasisTable) -> PrefixSuffixReport:
    """Each dialgebra basis monomial [a_1..a_t]@p must have its prefix
    a_1..a_{p-1} (when p > 1) and suffix a_{p+1}..a_t (when p < t) in the
    associative basis.  Violations on exact tables would be real errors;
    on truncated tables they are warnings only.
    """
    if table_d.mode != DIALGEBRA or table_a.mode != ASSOCIATIVE:
        raise ValueError("need a dialgebra table and an associative table")
    if table_d.alphabet != table_a.alphabet:
        raise AlphabetMismatch("tables over different alphabets")
    if table_d.fingerprint != table_a.fingerprint:
        raise ValueError("tables come from different presentations")
    if table_d.degree_bound != table_a.degree_bound:
        raise ValueError("tables have different degree bounds")
    a_words = {m.word for m in table_a.basis}
    violations = []
    checked = 0
    for mono in table_d.basis:
        checked += 1
        w, p, t = mono.word, mono.middle, len(mono.word)
        if p > 1 and w[: p - 1] not in a_words:
            violations.append((mono.format(), "prefix", _word_literal(mono, 0, p - 1)))
        if p < t and w[p:] not in a_words:
            violations.append((mono.format(), "suffix", _word_literal(mono, p, t)))
    return PrefixSuffixReport(
        checked, tuple(violations), table_d.exact and table_a.exact
    )


def _word_literal(mono: Disequence, start: int, stop: int) -> str:
    names = mono.alphabet.names
    return "[" + " ".join(names[b] for b in mono.word[start:stop]) + "]@1"
