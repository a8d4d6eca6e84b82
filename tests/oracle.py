"""Brute-force reference implementation used to freeze expected values.

Everything here is deliberately naive and independent of the package:
monomials are (word tuple, middle) pairs, ideals are spanned by explicit
sandwich products over *all* monomial pairs, and dimensions come from plain
Gaussian elimination over Fraction dicts.  Slow but obviously correct at
the degrees the tests use.

Agreement with the package holds only for a slack at least the relators'
term-length spread.  Below it, o_sandwiches multiplies only the relators,
while the engine also closes the span under products of reduced rows whose
top terms cancelled, so the oracle's truncated span can be smaller: with
generators a b, relator -3*[a a]@1 - 3*[a]@1, idrel rcomm, slack 0 and
n = 3, basis_upto gives 10 basis monomials and o_basis 12 (it keeps
[a b a]@3 and [b b a]@3); at slack 1 both give 10.  The oracle tests draw
no smaller slack.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

#### monomials

# a monomial is (word, middle): word a tuple of letter names, middle 1-based


def o_lprod(u, v):
    return (u[0] + v[0], len(u[0]) + v[1])


def o_rprod(u, v):
    return (u[0] + v[0], u[1])


def o_monomials(names, length, associative=False):
    middles = (1,) if associative else range(1, length + 1)
    out = []
    for middle in middles:
        for word in product(names, repeat=length):
            out.append((word, middle))
    return out


def o_key(names, mono):
    rank = {nm: i for i, nm in enumerate(names)}
    word, middle = mono
    return (len(word), middle, tuple(rank[nm] for nm in word))


#### linear algebra over Fraction dicts


def _reduce_full(terms, rows):
    """Repeatedly substitute pivots until no pivot monomial remains."""
    terms = {m: c for m, c in terms.items() if c}
    while True:
        hit = None
        for m in terms:
            if m in rows:
                hit = m
                break
        if hit is None:
            return terms
        c = terms.pop(hit)
        for m2, c2 in rows[hit].items():
            s = terms.get(m2, Fraction(0)) - c * c2
            if s:
                terms[m2] = s
            else:
                terms.pop(m2, None)


def o_echelon(candidates, names):
    """Eliminate candidate term dicts; returns {pivot: monic tail}."""
    key = lambda m: o_key(names, m)
    rows = {}
    for cand in candidates:
        nf = _reduce_full(cand, rows)
        if not nf:
            continue
        piv = max(nf, key=key)
        c0 = nf.pop(piv)
        rows[piv] = {m: c / c0 for m, c in nf.items()}
    # back substitution so tails are pivot free
    changed = True
    while changed:
        changed = False
        for piv in list(rows):
            tail = rows[piv]
            if any(m in rows for m in tail):
                rows[piv] = _reduce_full(dict(tail), {p: t for p, t in rows.items() if p != piv})
                changed = True
    return rows


def o_normal_form(terms, rows):
    return _reduce_full(dict(terms), rows)


#### ideal spanning sets

_OPS = (o_lprod, o_rprod)


def o_scheme_pair(tag, u, v):
    """The monomials (m1, m2) that the identity scheme tag equates on (u, v):
    lcomm is u |- v = v |- u, rcomm is u -| v = v -| u and cross is
    u |- v = v -| u."""
    if tag == "lcomm":
        return o_lprod(u, v), o_lprod(v, u)
    if tag == "rcomm":
        return o_rprod(u, v), o_rprod(v, u)
    return o_lprod(u, v), o_rprod(v, u)


def o_scheme_instances(names, schemes, cap, associative=False):
    """Scheme rows over all ordered monomial pairs with length sum <= cap.

    In associative mode every declared scheme degenerates to plain word
    commutativity; with no schemes declared there is nothing to emit.
    """
    out = []
    if not schemes:
        return out
    tags = ("rcomm",) if associative else schemes
    monos = {t: o_monomials(names, t, associative) for t in range(1, cap)}
    for l1 in range(1, cap):
        for l2 in range(1, cap + 1 - l1):
            for u in monos[l1]:
                for v in monos[l2]:
                    for tag in tags:
                        m1, m2 = o_scheme_pair(tag, u, v)
                        if m1 != m2:
                            out.append({m1: Fraction(1), m2: Fraction(-1)})
    return out


def _mul_terms(terms, z, op, on_left):
    out = {}
    for m, c in terms.items():
        mono = op(z, m) if on_left else op(m, z)
        s = out.get(mono, Fraction(0)) + c
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


def o_sandwiches(names, base_elements, cap, associative=False):
    """All z op1 e op2 z' with every term length <= cap, plus one sided
    products and the elements themselves.  Spans the two sided ideal."""
    ops = (o_rprod,) if associative else _OPS
    out = []
    for elem in base_elements:
        if not elem:
            continue
        top = max(len(m[0]) for m in elem)
        if top > cap:
            continue
        partials = [dict(elem)]
        for t in range(1, cap - top + 1):
            for z in o_monomials(names, t, associative):
                for op in ops:
                    part = _mul_terms(elem, z, op, True)
                    if part:
                        partials.append(part)
        for part in partials:
            out.append(part)
            ptop = max(len(m[0]) for m in part)
            for t in range(1, cap - ptop + 1):
                for zp in o_monomials(names, t, associative):
                    for op in ops:
                        full = _mul_terms(part, zp, op, False)
                        if full:
                            out.append(full)
    return out


def o_ideal_rows(names, relators, schemes, cap, associative=False):
    """Echelon rows of the computed ideal span up to degree cap."""
    base = [dict(r) for r in relators]
    base += o_scheme_instances(names, schemes, cap, associative)
    cands = o_sandwiches(names, base, cap, associative)
    return o_echelon(cands, names)


def o_collapse(terms):
    """Middle forgetting map for building associative mode relators."""
    out = {}
    for (word, _middle), c in terms.items():
        key = (word, 1)
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def o_basis_counts(names, relators, schemes, n, slack=0, associative=False):
    """Basis size per degree 1..n: monomial count minus pivots of that length."""
    if associative:
        relators = [r for r in (o_collapse(r) for r in relators) if r]
    rows = o_ideal_rows(names, relators, schemes, n + slack, associative)
    piv_at = [0] * (n + slack + 1)
    for piv in rows:
        piv_at[len(piv[0])] += 1
    k = len(names)
    total = lambda t: (k**t if associative else t * k**t)
    return [total(t) - piv_at[t] for t in range(1, n + 1)]


def o_basis(names, relators, schemes, n, slack=0, associative=False):
    """The basis monomials themselves, ascending, for small degree bounds."""
    if associative:
        relators = [r for r in (o_collapse(r) for r in relators) if r]
    rows = o_ideal_rows(names, relators, schemes, n + slack, associative)
    out = []
    for t in range(1, n + 1):
        for m in o_monomials(names, t, associative):
            if m not in rows:
                out.append(m)
    out.sort(key=lambda m: o_key(names, m))
    return out


#### the dict store of the elimination engine


def o_elimination_rows(q, keys):
    """The kernel rows {pivot: (d, tail)} that digrow's elimination engine
    builds for q up to keys.cap, as a plain dict: every killed key holds
    the row _KILLED, the images of each killed key wait in a set per
    length, and every candidate goes through the kernel.

    It is the reference for the byte store, presentation.KernelRows.
    Unlike the rest of this module it runs the package's kernel
    (_reduce_terms, _insert_row) on the package's keys, so it checks how
    rows are stored and which candidates skip the kernel, not the
    arithmetic.
    """
    from digrow.presentation import (
        _KILLED,
        _insert_row,
        _integer_terms,
        _products,
        _reduce_terms,
        _scheme_instances,
    )

    p, cap, offset = q.field.p, keys.cap, keys.offset
    images, length = keys.images, keys.length
    rows, users = {}, {}
    pend = [[] for _ in range(cap + 1)]
    kills = [set() for _ in range(cap + 1)]
    for r in q.relators:
        top = r.max_length()
        if top <= cap:
            pend[top].append(_integer_terms(r.terms.items(), p, keys.encode)[1])
    basis = {}
    reached = 0
    t = 1
    while t <= cap:
        if q.schemes and t > reached:
            reached = t
            basis[t - 1] = [keys.split(x) for x in range(offset(t - 1), offset(t))
                            if x not in rows]
            for m1, m2 in _scheme_instances(q.schemes, keys, t, basis):
                pend[t].append(((m1, 1), (m2, -1)))
        bucket, kill = pend[t], kills[t]
        while bucket or kill:
            cand = ((kill.pop(), 1),) if kill else bucket.pop()
            _, nf = _reduce_terms(cand, rows, p)
            if nf:
                piv = _insert_row(rows, users, nf, p)
                top = length(piv)
                if top < cap:
                    if rows[piv] is _KILLED:
                        kills[top + 1].update(images(piv))
                    else:
                        pend[top + 1].extend(_products(piv, rows[piv], images))
        t = next((s for s in range(1, t + 1) if pend[s] or kills[s]), t + 1)
    return rows


#### structural checks on basis lists


def o_format(mono):
    word, middle = mono
    return "[" + " ".join(word) + "]@" + str(middle)


def o_prefix_suffix(basis_d, basis_a):
    """(checked, violations) of the prefix/suffix closure check.

    Every dialgebra basis monomial (word, p) needs its prefix word[:p-1]
    (when p > 1) and its suffix word[p:] (when p < len(word)) among the
    associative basis words; a violation is (monomial, side, missing part)
    as literals, in basis_d order, prefix before suffix.
    """
    a_words = {word for word, _ in basis_a}
    violations = []
    for word, p in basis_d:
        if p > 1 and word[: p - 1] not in a_words:
            violations.append((o_format((word, p)), "prefix", o_format((word[: p - 1], 1))))
        if p < len(word) and word[p:] not in a_words:
            violations.append((o_format((word, p)), "suffix", o_format((word[p:], 1))))
    return len(basis_d), tuple(violations)


def o_middle_bound(basis_d, n):
    """The least m with p <= m or len(word) - p <= m - 1 for every (word, p)
    in basis_d, or None unless 2m < n (a larger m holds vacuously)."""
    m = max((min(p, len(word) - p + 1) for word, p in basis_d), default=1)
    return m if m < (n + 1) // 2 else None


#### the defining identities


def o_axiom_residuals(x, y, z):
    """The five residuals of element.axiom_residuals in its twenty-product
    form, every product of every residual taken afresh.  Unlike the rest of
    this module it works on DiElement values, through their own lprod and
    rprod.
    """
    return (
        x.rprod(y).rprod(z) - x.rprod(y.rprod(z)),
        x.lprod(y).lprod(z) - x.lprod(y.lprod(z)),
        x.rprod(y.lprod(z)) - x.rprod(y.rprod(z)),
        x.rprod(y).lprod(z) - x.lprod(y).lprod(z),
        x.lprod(y.rprod(z)) - x.lprod(y).rprod(z),
    )
