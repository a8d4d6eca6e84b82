"""Presentations and the exact linear algebra behind their monomial bases.

A presentation is an alphabet, a scalar field, a list of relators and a list
of identity schemes.  The ideal the relators and schemes generate is built
degree by degree into a fully inter-reduced echelon set.  Pivot monomials
of the echelon rows are exactly the monomials that reduce; everything else
is the basis.  Three engines build the same rows, and the input's shape
picks one (_saturation_rows):

- homogeneous input in associative mode takes the rules engine
  (digrow.completion, imported on first use): a homogeneous Buchberger run,
  degree by degree up to the cap, gives the reduced Gröbner-Shirshov basis
  truncated there, which is exact through the cap.  The table stores the
  rules only.  A word that contains a leading word has the row
  w - nf(w), rewritten by the rules and memoized when it is read, and the
  normal words are listed and counted by an automaton of the leading
  words (completion.RuleRows);
- homogeneous input in dialgebra mode takes the bimodule engine
  (digrow.bimodule, imported on first use).  The axioms
  (x -| y) |- z = (x |- y) |- z and x -| (y -| z) = x -| (y |- z) make the
  left factor of |- and the right factor of -| act only through their
  image in the associated associative algebra A_D.  So the monomial
  [u c v]@(|u|+1) = u |- c -| v is worked with as a triple (u, c, v) of
  A_D (x) kX (x) A_D.  The engine stores A_D's rules and the rows of M,
  the sub-bimodule the relators and scheme instances generate, on triples
  whose u and v are A_D-normal: for binomial input (homogeneous, every
  relator c*m or c*m1 - c*m2), whose A_D is binomial too, by a union-find
  with no field arithmetic, and by elimination otherwise.  A monomial
  whose u or v is not normal has the row [u c v] - nf(u) c nf(v), reduced
  against M, computed whenever it is read (bimodule.TripleRows);
- inhomogeneous input, in either mode, and only that, takes elimination:
  seed rows, then close under multiplication by single generators on both
  sides under both products, reducing every candidate as it arrives.  It
  returns a KernelRows: the live rows in a dict, and each killed monomial
  as one byte in the key layout.  On input such as inhomog_ab, whose
  relator puts b in the ideal, nearly every monomial is killed.

Truncation semantics matter.  A table reports degrees up to n.  The rows
of homogeneous input up to degree n do not depend on later degrees, so its
slack is 0 whatever is asked; inhomogeneous input saturates to n + slack,
and its rows past n are dropped.  A kept row never has a term
beyond the cap (candidates that would are dropped whole), so every stored
row really is an ideal element.  For inhomogeneous relators the computed
span is therefore a lower bound on the ideal and the reported basis an
upper bound; tables built from homogeneous input are exact and say so.

Each engine returns a rows store that answers get, in, basis_keys and
pivot_counts; a table reads nothing else.  Its pivots are every key up to
the bound that basis_keys leaves out.
"""

from __future__ import annotations

import gc
import hashlib
import json
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, compress, product
from math import gcd, lcm
from types import MappingProxyType

from .element import DiElement, QQ
from .errors import (
    AlphabetMismatch,
    DegreeBoundExceeded,
    FieldMismatch,
    ResourceCapExceeded,
)
from .monomial import Alphabet, Disequence, KeyCodec, universe_count, universe_total
from .monomial import monomials  # unused here; perfbench/traced.py wraps presentation.monomials

DIALGEBRA = "dialgebra"
ASSOCIATIVE = "associative"
SCHEME_TAGS = ("lcomm", "rcomm", "cross")

# desk-scale guard rails
DEFAULT_UNIVERSE_CAP = 2_000_000
# basis, pivots and rows list every monomial up to the bound.  An export
# holds one run of _RUN literals and the half-word tables of one length
# (about t * k**(t/2) strings), not the basis, so past this cap it is the
# export's time that grows, not its memory
MATERIALIZE_CAP = 5_000_000
# literals per run of a table export (BasisTable._literals)
_RUN = 4096


def _count_text(n: int) -> str:
    """n in decimal, or a power-of-two bound once n has more digits than
    Python converts to str (sys.get_int_max_str_digits)."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


def _norm_mode(mode: str) -> str:
    if mode in (DIALGEBRA, ASSOCIATIVE):
        return mode
    if mode == "assoc":
        return ASSOCIATIVE
    raise ValueError(f"mode must be dialgebra or associative, got {mode!r}")


def canonical_json(payload) -> str:
    """Byte-deterministic JSON: sorted keys, no spaces, one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def json_fields(obj, *computed) -> dict:
    """The dataclass fields of obj, then the properties named in computed,
    as JSON writes them: tuples become lists, at any depth."""

    def plain(v):
        if isinstance(v, tuple | list):
            return [plain(x) for x in v]
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v

    names = [f.name for f in fields(obj)] + list(computed)
    return {name: plain(getattr(obj, name)) for name in names}


def _key_scheme_pair(keys: KeyCodec, tag: str, u: tuple, v: tuple) -> tuple[int, int]:
    """The keys (m1, m2) that the identity scheme tag equates on the split
    keys (u, v) (see KeyCodec.split): lcomm is u |- v = v |- u, rcomm is
    u -| v = v -| u and cross is u |- v = v -| u.
    """
    if tag == "lcomm":
        return keys.lprod(u, v), keys.lprod(v, u)
    if tag == "rcomm":
        return keys.rprod(u, v), keys.rprod(v, u)
    return keys.lprod(u, v), keys.rprod(v, u)


def _scheme_instances(schemes, keys: KeyCodec, total: int, basis: dict):
    """The key pairs (m1, m2), m1 != m2, that the schemes equate in degree
    `total`.

    Pairs range over basis monomials only, basis[length] listing those of
    each lower length as split keys (see KeyCodec.split): an instance on a
    reducible argument differs from instances on its reduction by ideal
    elements the closure already spans.  The same argument lets
    basis[length] be a superset of the final basis.
    """
    # associative mode reads every scheme as plain commutativity
    tags = ("rcomm",) if keys.associative else [t for t in schemes if t != "cross"]
    for l1 in range(1, total // 2 + 1):
        l2 = total - l1
        left, right = basis[l1], basis[l2]
        for i, u in enumerate(left):
            start = i + 1 if l2 == l1 else 0
            for v in right[start:]:
                for tag in tags:
                    m1, m2 = _key_scheme_pair(keys, tag, u, v)
                    if m1 != m2:
                        yield m1, m2
    if not keys.associative and "cross" in schemes:
        # not antisymmetric, so all ordered pairs including (u, u)
        for l1 in range(1, total):
            for u in basis[l1]:
                for v in basis[total - l1]:
                    m1, m2 = _key_scheme_pair(keys, "cross", u, v)
                    if m1 != m2:
                        yield m1, m2


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
        return self.length_spread() == 0

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
    pairs = (
        (m if m.middle == 1 else Disequence(m.alphabet, m.word, 1), c)
        for m, c in x.terms.items()
    )
    return x._summed(pairs)


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
    """The slack saturation uses on the presentation a mode works on: 0 for
    homogeneous input, whose rows up to a degree do not depend on later
    degrees, whatever is asked; otherwise the explicit call argument, the
    file value, or the maximal term-length spread.  A negative explicit
    slack is refused."""
    if explicit is not None and explicit < 0:
        raise ValueError("slack must be nonnegative")
    if q.homogeneous:
        return 0
    if explicit is not None:
        return explicit
    if q.slack is not None:
        return q.slack
    return q.length_spread()


# ===== the integer elimination kernel =====================================
#
# One kernel serves both fields; it reads a field as its characteristic
# field.p (0 for Q).  A row is (d, tail) with int coefficients and stands
# for the element piv + tail/d; its tail holds no pivot.  Over Q d > 0 and
# gcd(d, *tail.values()) == 1; over GF(p) d == 1 and the entries lie in
# [0, p).  Every killed monomial reads as the row _KILLED; a KernelRows
# stores it as one byte.  Coefficients become Fraction or residue only at
# the edges: the inputs in _integer_terms, the outputs in _element.

_KILLED = (1, MappingProxyType({}))
# turns a KernelRows' _dead into 1 at each key it does not mark
_ALIVE = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class KernelRows:
    """The kernel rows {pivot: (d, tail)} that _elimination_rows stores.
    It answers get, in, basis_keys and pivot_counts, and below trims the
    slack degrees.

    The live rows are a dict; a killed key, whose row is _KILLED, is a 1 in
    the bytearray _dead, in the KeyCodec layout: one byte, not a dict slot
    and an int.  Keys at or past len(_dead) are not killed, so the empty
    rows of a relator-free table, KernelRows(), need no codec.
    """

    __slots__ = ("_keys", "_live", "_dead")

    def __init__(self, keys: KeyCodec | None = None, end: int = 0):
        self._keys, self._live, self._dead = keys, {}, bytearray(end)

    def below(self, top: int) -> KernelRows:
        """These rows without those of degree above top."""
        end = self._keys.offset(top + 1)
        out = KernelRows(self._keys)
        out._live = {x: row for x, row in self._live.items() if x < end}
        out._dead = self._dead[:end]
        return out

    def get(self, x: int, default=None):
        row = self._live.get(x)
        if row is not None:
            return row
        return _KILLED if 0 <= x < len(self._dead) and self._dead[x] else default

    def __contains__(self, x) -> bool:
        return x in self._live or 0 <= x < len(self._dead) and self._dead[x] == 1

    def basis_keys(self, start: int, stop: int) -> list[int] | range:
        """The keys in range(start, stop) that these rows leave in the
        basis, ascending: that range itself when the rows are empty, as a
        relator-free table's are."""
        if not (self._live or self._dead):
            return range(start, stop)
        alive = self._dead[start:stop].translate(_ALIVE).ljust(stop - start, b"\x01")
        live = self._live
        return [x for x in compress(range(start, stop), alive) if x not in live]

    def pivot_counts(self, n: int) -> list[int]:
        """How many pivots these rows hold at each degree 1..n: none when
        the rows are empty, as a relator-free table's are."""
        if not (self._live or self._dead):
            return [0] * n
        offset, dead = self._keys.offset, self._dead
        return [c + dead.count(1, offset(t), offset(t + 1))
                for t, c in zip(range(1, n + 1), _pivot_counts(self._live, self._keys, n))]


def _integer_terms(terms, p: int, encode) -> tuple[int, list]:
    """(L, [(encode(m), L*c)]) for (monomial, coefficient) pairs.

    Over Q, L is the lcm of the denominators; over GF(p) it is 1.
    """
    if p:
        return 1, [(encode(m), c) for m, c in terms]
    terms = list(terms)
    L = lcm(*(c.denominator for _, c in terms))
    return L, [(encode(m), c.numerator * (L // c.denominator)) for m, c in terms]


def _reduce_terms(terms, rows: dict, p: int) -> tuple[int, dict]:
    """Normal form of (key, int coefficient) pairs against rows; a key may
    repeat among the pairs.  Returns (L, L*nf) with L > 0 and zero terms
    dropped; over GF(p), L == 1 and the entries lie in [0, p).

    Tails contain no pivots, so replacing each pivot term c*piv by
    -c*tail/d, in any order, leaves only pivot-free monomials: one pass is
    the whole normal form.  The partial sum is kept times L, and rescaled
    only when a row's d does not divide L*c.
    """
    out: dict = {}
    get, get_row = out.get, rows.get
    L = 1
    for m, c in terms:
        row = get_row(m)
        if row is None:
            out[m] = get(m, 0) + L * c
            continue
        d, tail = row
        c *= L
        if d != 1:
            c, r = divmod(c, d)
            if r:
                g = gcd(r, d)
                f = d // g
                L *= f
                for x in out:
                    out[x] *= f
                c = c * f + r // g
        for m2, c2 in tail.items():
            out[m2] = get(m2, 0) - c * c2
    if p:
        return 1, {m: r for m, v in out.items() if (r := v % p)}
    return L, {m: v for m, v in out.items() if v}


def _insert_row(rows: dict, users: dict, nf: dict, p: int):
    """Insert a nonzero normal form (any nonzero multiple) as a row; return
    its pivot, the largest key.

    users maps each tail key to the pivots whose tails hold it.  Older rows
    holding the new pivot get it substituted away, so tails stay pivot-free,
    and are made primitive again over Q.  nf becomes the new row's storage.
    """
    piv = max(nf)
    c0 = nf.pop(piv)
    if not nf:
        rows[piv] = row = _KILLED
    else:
        if p:
            if c0 != 1:
                inv = pow(c0, -1, p)
                for m in nf:
                    nf[m] = nf[m] * inv % p
            c0 = 1
        else:
            g = gcd(c0, *nf.values())
            if c0 < 0:
                g = -g
            if g != 1:
                c0 //= g
                for m in nf:
                    nf[m] //= g
        rows[piv] = row = (c0, nf)
        for m in nf:
            users.setdefault(m, set()).add(piv)
    d, tail = row
    for q in users.pop(piv, ()):
        dq, tq = rows[q]
        c = tq.pop(piv)
        # q + (c*piv + tq)/dq with piv = -tail/d: scale by d/g, subtract
        # (c/g)*tail, over the denominator dq*d/g
        if not p:
            g = gcd(c, d)
            a, c = d // g, c // g
            if a != 1:
                dq *= a
                for m in tq:
                    tq[m] *= a
        for m, cm in tail.items():
            old = tq.get(m)
            val = (old or 0) - c * cm
            if p:
                val %= p
            if val:
                tq[m] = val
                if old is None:
                    users.setdefault(m, set()).add(q)
            else:
                # c*cm is nonzero, so old was present
                del tq[m]
                users[m].discard(q)
        if not tq:
            rows[q] = _KILLED
        elif dq != 1:
            g = gcd(dq, *tq.values())
            if g != 1:
                dq //= g
                for m in tq:
                    tq[m] //= g
            rows[q] = (dq, tq)
    return piv


def _element(keys: KeyCodec, field, terms: dict, den: int) -> DiElement:
    """The element of a kernel result {key: c} over scale den: c/den over
    Q, the residue c itself over GF(p).  The row piv + tail/d is
    _element(keys, field, {**tail, piv: d}, d)."""
    p, decode = field.p, keys.decode
    return DiElement(keys.alphabet, field,
                     {decode(m): c if p else Fraction(c, den) for m, c in terms.items()},
                     _clean=True)


# ===== saturation ==========================================================


def _products(piv: int, row: tuple, images) -> list[list]:
    """The row piv + tail/d, written d*piv + tail, under each
    single-generator map: one candidate of (key, c) pairs per map, where
    images(key) lists a key's images, one per map."""
    d, tail = row
    coeffs = (d, *tail.values())
    # one column of keys per map, aligned with coeffs
    cols = zip(*map(images, (piv, *tail)))
    return [list(zip(col, coeffs)) for col in cols]


def _elimination_rows(q: Presentation, keys: KeyCodec) -> KernelRows:
    """Degree-bucketed closure of the ideal span of q up to the length cap
    of keys, in keys' mode, as a KernelRows.

    Candidates wait in one bucket per top length; each inserted row sends
    its single-generator multiples, both sides and both products, to the
    bucket one above its pivot's length.  A killed key's multiples are
    single monomials: they wait as marks in a bytearray, read in key order
    by a cursor with no mark below it.  Such a monomial that is already
    dead, or that is neither a pivot nor in a live tail, is marked dead
    with no reduction.  Every other candidate has its dead terms dropped
    (their rows are empty, and live tails hold no pivot) and goes through
    the kernel.  The span, hence the reduced rows, does not depend on the
    order candidates are taken in.
    """
    p, cap, offset = q.field.p, keys.cap, keys.offset
    images, length = keys.images, keys.length
    end, short = offset(cap + 1), offset(cap)
    rows = KernelRows(keys, end)
    live, dead, users = rows._live, rows._dead, {}
    marks = bytearray(end)
    cur = end

    def kill(x):
        nonlocal cur
        dead[x] = 1
        if x < short:
            ys = images(x)
            for y in ys:
                marks[y] = 1
            # the first image, rprod of the first generator and x, is the smallest
            if ys[0] < cur:
                cur = ys[0]

    pend: list[list] = [[] for _ in range(cap + 1)]
    for r in q.relators:
        top = r.max_length()
        if top <= cap:
            pend[top].append(_integer_terms(r.terms.items(), p, keys.encode)[1])
    basis: dict[int, list] = {}  # degree -> split basis keys, for scheme instances
    reached = 0
    t = 1
    while t <= cap:
        if q.schemes and t > reached:
            reached = t
            basis[t - 1] = [keys.split(x) for x in rows.basis_keys(offset(t - 1), offset(t))]
            for m1, m2 in _scheme_instances(q.schemes, keys, t, basis):
                pend[t].append(((m1, 1), (m2, -1)))
        bucket, hi = pend[t], offset(t + 1)
        while True:
            # single monomials first: they shorten what follows
            y = marks.find(1, cur, hi)
            if y >= 0:
                marks[y] = 0
                cur = y + 1
                if dead[y]:
                    continue
                if y not in live and not users.get(y):
                    kill(y)
                    continue
                cand = ((y, 1),)
            elif bucket:
                cand = [(m, c) for m, c in bucket.pop() if not dead[m]]
            else:
                break
            _, nf = _reduce_terms(cand, live, p)
            if nf:
                piv = max(nf)
                # the rows whose tails hold piv; _insert_row may kill them
                held = users.get(piv, ())
                _insert_row(live, users, nf, p)
                for x in (piv, *held):
                    if live[x] is _KILLED:
                        del live[x]
                        kill(x)
                top = length(piv)
                if top < cap and piv in live:
                    pend[top + 1].extend(_products(piv, live[piv], images))
        cur = hi  # every mark below hi is read
        # a late short pivot can drop work into lower buckets; go back
        t = next((s for s in range(1, t + 1) if pend[s]), t + 1)
    return rows


def _binomial(q: Presentation) -> bool:
    """True when q is homogeneous and every relator is c*m or c*m1 - c*m2.

    The ideal of such a presentation is spanned, degree by degree, by
    differences of monomials and by monomials (scheme instances are
    differences too), and so is its A_D's, which is what the union-find
    of bimodule._triple_congruence needs.
    """
    # c and -c sum to p: 0 over Q, and p itself for residues in [0, p)
    p = q.field.p
    return q.homogeneous and all(
        len(r.terms) == 1 or (len(r.terms) == 2 and sum(r.terms.values()) == p)
        for r in q.relators
    )


def _saturation_rows(q: Presentation, keys: KeyCodec):
    """The kernel rows of q up to keys.cap, a rows store from the engine
    q's shape routes to.  Inhomogeneous input goes to
    _elimination_rows (which returns a KernelRows).  Homogeneous input in
    associative mode goes to completion._rule_rows (a completion.RuleRows),
    and in dialgebra mode to bimodule._bimodule_rows (a
    bimodule.TripleRows).  All give the same rows."""
    # the engine modules are imported here, not at the top: compiling one
    # at start-up would cost every run that does not take it about 0.4 MiB
    # of peak memory
    if not q.homogeneous:
        return _elimination_rows(q, keys)
    if keys.associative:
        from . import completion

        return completion._rule_rows(q, keys)
    from . import bimodule

    return bimodule._bimodule_rows(q, keys)


def _pivot_counts(rows: dict, keys: KeyCodec, n: int) -> list[int]:
    """How many keys of the dict rows lie at each degree 1..n."""
    pivots = sorted(rows)
    starts = [bisect_left(pivots, keys.offset(t)) for t in range(1, n + 2)]
    return [b - a for a, b in zip(starts, starts[1:])]


# ===== basis tables ========================================================


@dataclass(eq=False, repr=False, slots=True)
class BasisTable:
    """Echelonized view of a presentation up to a degree bound.

    rows maps each pivot monomial to its monic reduced row; basis is every
    other monomial of length <= degree_bound.  exact is False when
    inhomogeneous relators force truncation, in which case the stored span
    is a lower bound on the ideal and the basis an upper bound.  _rows is
    the rows store of the engine that the module docstring names for the
    input; basis, pivots and rows list its keys through _basis_keys and
    _pivot_keys, and decode only what they return.  Only this module and
    the engine modules read _rows; the verify checks go through
    _basis_keys and _reduce.  The KeyCodec is built on first use: the
    counts and the basis keys of a relator-free table, whose rows are an
    empty KernelRows, need none.  Tables compare by identity and print no
    rows.
    """

    alphabet: Alphabet
    field: object
    mode: str
    degree_bound: int
    slack: int
    homogeneous: bool
    fingerprint: str
    _codec: KeyCodec | None
    _rows: KernelRows | completion.RuleRows | bimodule.TripleRows

    @property
    def _keys(self) -> KeyCodec:
        if self._codec is None:
            self._codec = KeyCodec(self.alphabet, self.degree_bound, self.mode == ASSOCIATIVE)
        return self._codec

    @property
    def exact(self) -> bool:
        return self.homogeneous

    @property
    def pivots(self) -> list[Disequence]:
        decode = self._keys.decode
        return [decode(p) for p in chain.from_iterable(self._pivot_keys(self._basis_keys()))]

    @property
    def rows(self) -> dict:
        keys, field, get = self._keys, self.field, self._rows.get
        out = {}
        for piv in chain.from_iterable(self._pivot_keys(self._basis_keys())):
            d, tail = get(piv)
            out[keys.decode(piv)] = _element(keys, field, {**tail, piv: d}, d)
        return out

    @property
    def basis(self) -> list[Disequence]:
        return [self._keys.decode(x) for x in self._basis_keys()]

    def _basis_keys(self) -> list[int] | range:
        """The keys of basis, ascending, without building monomials;
        raises past MATERIALIZE_CAP."""
        total = universe_total(self.alphabet.size, self.degree_bound, self.mode == ASSOCIATIVE)
        if total > MATERIALIZE_CAP:
            raise ResourceCapExceeded(
                f"materializing the basis up to degree {self.degree_bound} "
                f"would enumerate {_count_text(total)} monomials"
            )
        return self._rows.basis_keys(0, total)

    def _pivot_keys(self, basis: list[int] | range) -> Iterator[range]:
        """The keys of pivots, ascending, as the non-empty gaps that basis,
        as _basis_keys lists it, leaves in the keys up to the bound; one
        gap at a time, never the whole list."""
        total = universe_total(self.alphabet.size, self.degree_bound, self.mode == ASSOCIATIVE)
        if isinstance(basis, range):
            gaps = (range(basis.start), range(basis.stop, total))
        else:
            gaps = map(range, chain((0,), (x + 1 for x in basis)), chain(basis, (total,)))
        return filter(None, gaps)

    def _reduce(self, terms) -> tuple[int, dict]:
        """_reduce_terms of (key, int coefficient) pairs against the rows."""
        return _reduce_terms(terms, self._rows, self.field.p)

    def __contains__(self, mono: Disequence) -> bool:
        return (
            len(mono.word) <= self.degree_bound
            and mono.alphabet == self.alphabet
            and (self.mode != ASSOCIATIVE or mono.middle == 1)
            and self._keys.encode(mono) not in self._rows
        )

    def counts_by_degree(self) -> list[int]:
        """Basis size per degree 1..degree_bound, no materialization needed."""
        k, associative, n = self.alphabet.size, self.mode == ASSOCIATIVE, self.degree_bound
        return [universe_count(k, t, associative) - d
                for t, d in zip(range(1, n + 1), self._rows.pivot_counts(n))]

    def _literals(self, spans, names=None) -> Iterator[list[str]]:
        """The literals Disequence.format() writes for the keys of spans,
        ascending lists or ranges each past the one before, in runs of
        _RUN (the last one shorter), without building a Disequence; names
        stand in for the generator names when given.

        Walks each span in slices of one length t.  A word of length t is
        cut after its first t - t//2 letters: heads holds "[a_1 ... a_h"
        for each first part, and ends " a_h+1 ... a_t]@m" for each last
        part and middle, so a literal is one join of two strings from
        tables of about t * k**(t/2) entries, built once per length.
        """
        codec, names = self._keys, names or self.alphabet.names
        run: list[str] = []
        t = start = stop = 0
        for keys in spans:
            i, end = 0, len(keys)
            while i < end:
                while keys[i] >= stop:
                    t += 1
                    start, stop = codec.offset(t), codec.offset(t + 1)
                    s = t // 2
                    heads = ["[" + " ".join(w) for w in product(names, repeat=t - s)]
                    ends = [" ".join(("", *w)) + f"]@{m}"
                            for m in range(1, t + 1) for w in product(names, repeat=s)]
                    low, high = len(names) ** s, len(heads)
                    size = low * high
                j = min(bisect_left(keys, stop, i), i + _RUN - len(run))
                # key start + m0 * size + w: word w, middle m0 + 1
                run += [heads[(d := x - start) // low % high] + ends[d // size * low + d % low]
                        for x in keys[i:j]]
                i = j
                if len(run) == _RUN:
                    yield run
                    run = []
        if run:
            yield run

    def json_chunks(self) -> Iterator[str]:
        """The table as canonical_json of its mode, degree_bound,
        homogeneous, slack, basis and pivots, in chunks, one per run of
        literals, so neither list is held whole.  The materialize cap is
        checked before the first chunk."""
        basis = self._basis_keys()
        dump = json.dumps
        # JSON escapes a string character by character, so literals joined
        # from escaped names need only their quotes
        names = [dump(a)[1:-1] for a in self.alphabet.names]

        def items(spans):
            sep = ""
            for run in self._literals(spans, names):
                yield sep + '"' + '","'.join(run) + '"'
                sep = ","

        yield '{"basis":['
        yield from items((basis,))
        yield (f'],"degree_bound":{dump(self.degree_bound)},'
               f'"homogeneous":{dump(self.homogeneous)},"mode":{dump(self.mode)},"pivots":[')
        yield from items(self._pivot_keys(basis))
        yield f'],"slack":{dump(self.slack)}}}\n'

    def to_json(self) -> str:
        return "".join(self.json_chunks())


def basis_upto(
    pres: Presentation,
    n: int,
    mode: str = DIALGEBRA,
    slack: int | None = None,
    max_universe=None,
) -> BasisTable:
    """Saturate, echelonize, and report pivots and basis up to degree n.

    Works on pres itself in dialgebra mode and on its associative image in
    associative mode; the module docstring says which engine the input's
    shape takes.  It saturates to n + the slack _effective_slack gives,
    which is 0 for homogeneous input, and reports that slack.  max_universe
    (default DEFAULT_UNIVERSE_CAP) bounds the monomials up to the degree
    saturated.
    """
    mode = _norm_mode(mode)
    check_degree_bound(n)
    associative = mode == ASSOCIATIVE
    q = associated_associative(pres) if associative else pres
    eff = _effective_slack(q, slack)
    cap = n + eff
    saturate = bool(q.relators or q.schemes)
    # checked before any KeyCodec is built: it holds O(cap**2) bits
    total = universe_total(q.alphabet.size, cap, associative)
    if saturate:
        if max_universe is None:
            max_universe = DEFAULT_UNIVERSE_CAP
        if total > max_universe:
            raise ResourceCapExceeded(
                f"elimination up to degree {cap} would touch {_count_text(total)} "
                f"monomials (cap {max_universe}); lower the degree or raise the cap"
            )
    try:
        str(total)
    except ValueError:
        # no count of such a table could be printed
        raise ResourceCapExceeded(
            f"a table up to degree {cap} would hold {_count_text(total)} monomials, "
            f"more digits than Python converts to a string; lower the degree"
        ) from None
    keys, rows = None, KernelRows()
    if saturate:
        keys = KeyCodec(q.alphabet, cap, associative)
        # the engines build no reference cycles; cyclic GC would only
        # rescan their growing containers
        enabled = gc.isenabled()
        gc.disable()
        try:
            rows = _saturation_rows(q, keys)
        finally:
            if enabled:
                gc.enable()
        if cap > n:
            rows = rows.below(n)
    return BasisTable(pres.alphabet, pres.field, mode, n, eff, q.homogeneous,
                      pres.fingerprint, keys, rows)


def check_degree_bound(n: int) -> None:
    """Raise unless n is a valid table degree bound."""
    if n < 1:
        raise ValueError("degree bound must be at least 1")


def check_reducible(x: DiElement, degree_bound: int, mode: str) -> None:
    """Raise unless a table of this degree bound and mode can reduce x."""
    check_degree_bound(degree_bound)
    if x.max_length() > degree_bound:
        raise DegreeBoundExceeded(
            f"element reaches degree {x.max_length()}, table covers {degree_bound}"
        )
    if _norm_mode(mode) == ASSOCIATIVE and any(m.middle != 1 for m in x.terms):
        raise ValueError("associative tables reduce middle-1 elements only")


def normal_form(x: DiElement, table: BasisTable) -> DiElement:
    """Canonical representative of x modulo the table's rows.

    Vanishes exactly on (computed) ideal members; the result is supported
    on basis monomials.  Idempotent and linear.
    """
    if x.alphabet != table.alphabet:
        raise AlphabetMismatch("element over a different alphabet")
    if x.field != table.field:
        raise FieldMismatch("element over a different field")
    check_reducible(x, table.degree_bound, table.mode)
    keys, p = table._keys, table.field.p
    L, terms = _integer_terms(x.terms.items(), p, keys.encode)
    L2, nf = table._reduce(terms)
    return _element(keys, x.field, nf, L * L2)


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
        return json_fields(self, "ok")


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
    # associative keys are offset(length) + word value; the word values of
    # a_1..a_{p-1} and a_{p+1}..a_t are w // k**(t-p+1) and w % k**(t-p)
    k = table_d.alphabet.size
    keys_d, keys_a, rows_a = table_d._keys, table_a._keys, table_a._rows
    basis = table_d._basis_keys()
    found = []  # (dialgebra key, side, associative key)
    for x in basis:
        t, p, w = keys_d.split(x)
        if p > 1:
            prefix = keys_a.offset(p - 1) + w // k ** (t - p + 1)
            if prefix in rows_a:
                found.append((x, "prefix", prefix))
        if p < t:
            suffix = keys_a.offset(t - p) + w % k ** (t - p)
            if suffix in rows_a:
                found.append((x, "suffix", suffix))
    violations = tuple(
        (keys_d.decode(x).format(), side, keys_a.decode(y).format()) for x, side, y in found
    )
    return PrefixSuffixReport(len(basis), violations, table_d.exact and table_a.exact)
