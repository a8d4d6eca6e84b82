"""The bimodule saturation engine: homogeneous dialgebra input worked on
triples (u, c, v) of A_D (x) kX (x) A_D; the digrow.presentation docstring
says why that is sound.  digrow.presentation._saturation_rows imports this
module on first use, so a run that never takes the engine does not
compile it.
"""

from __future__ import annotations

from math import gcd, lcm

from .monomial import KeyCodec
from .presentation import (
    _KILLED,
    Presentation,
    _basis_keys_in,
    _insert_row,
    _integer_terms,
    _products,
    _reduce_terms,
    _saturation_rows,
    _scheme_instances,
    associated_associative,
)


def _bimodule_rows(q: Presentation, keys: KeyCodec) -> dict:
    """The rows _elimination_rows(q, keys) returns, for homogeneous
    dialgebra input.

    The key [u c v]@(|u|+1) is the triple (u, c, v); it is normal when u
    and v are normal words of A = A_D, whose table of degree cap - 1 this
    builds first.  Degree by degree, M, the sub-bimodule of A (x) kX (x) A
    the relators and scheme instances generate, is saturated on normal
    triples: every candidate is written as a sum of nf(u) c nf(v) first,
    and only g |- . and . -| g are applied, since the two
    middle-forgetting maps vanish on M.  Scheme instances range over the
    normal triples M leaves in the basis.  Then every monomial m = (u, c, v)
    of that degree whose u or v is not normal gets the row
    m - nf(u) c nf(v), reduced against M.  Its pivot is m, since nf(u) and
    nf(v) hold smaller words of the same length, so these rows and M's
    are the reduced echelon form of the span.
    """
    p, cap, k = q.field.p, keys.cap, q.alphabet.size
    split, offset = keys.split, keys.offset
    pw = [k**t for t in range(cap + 2)]
    akeys = KeyCodec(q.alphabet, cap - 1, True)
    # sides[l][w]: A's normal form of the word value w of length l, as
    # (d, [(word value, c)]) for the word sum(c*word)/d; None when w is normal
    sides = [[None] * pw[t] for t in range(cap)]
    for a, (d, tail) in _saturation_rows(associated_associative(q), akeys).items():
        t = akeys.length(a)
        o = akeys.offset(t)
        sides[t][a - o] = d, [(b - o, -c) for b, c in tail.items()]

    def tensor(x):
        """(d, [(key, c)]): the triple x as the sum of c*key over d, every
        key a normal triple; None when x is one."""
        t, m, w = split(x)
        lv = t - m
        step = pw[lv + 1]
        wu, rest = divmod(w, step)
        wv = rest % pw[lv]
        us, vs = sides[m - 1][wu], sides[lv][wv]
        if us is None and vs is None:
            return None
        du, us = us or (1, [(wu, 1)])
        dv, vs = vs or (1, [(wv, 1)])
        base = x - wu * step - wv
        return du * dv, [(base + a * step + b, ca * cb) for a, ca in us for b, cb in vs]

    def normal(terms):
        """(key, c) pairs over normal triples with the span of the given
        pairs, scaled to integers."""
        parts, L = [], 1
        for x, c in terms:
            nf = tensor(x)
            if nf is None:
                parts.append((1, c, ((x, 1),)))
            else:
                L = lcm(L, nf[0])
                parts.append((nf[0], c, nf[1]))
        return [(y, c * (L // d) * cy) for d, c, ys in parts for y, cy in ys]

    def images(x):
        # g |- x and x -| g: the middle blocks of KeyCodec.images
        return keys.images(x)[k:3 * k]

    rows, users = {}, {}
    pend: list[list] = [[] for _ in range(cap + 1)]
    for r in q.relators:
        t = r.max_length()
        if t <= cap:
            pend[t].append(_integer_terms(r.terms.items(), p, keys.encode)[1])
    basis: dict[int, list] = {}  # degree -> split basis keys, for scheme instances
    for t in range(1, cap + 1):
        if q.schemes:
            basis[t - 1] = [split(x) for x in _basis_keys_in(rows, offset(t - 1), offset(t))]
            for m1, m2 in _scheme_instances(q.schemes, keys, t, basis):
                pend[t].append(((m1, 1), (m2, -1)))
        for cand in pend[t]:
            _, nf = _reduce_terms(normal(cand), rows, p)
            if nf:
                piv = _insert_row(rows, users, nf, p)
                if t < cap:
                    pend[t + 1] += _products(piv, rows[piv], images)
        # M's rows of degree t are final: no later pivot is in their tails
        pend[t] = None
        users.clear()
        for x in range(offset(t), offset(t + 1)):
            nf = tensor(x)
            if nf is None:
                continue
            d, terms = nf
            L, tail = _reduce_terms(terms, rows, p) if terms else (1, None)
            if not tail:
                rows[x] = _KILLED
            elif p:
                rows[x] = (1, {y: -c % p for y, c in tail.items()})
            else:
                # x - tail/(L*d), made primitive
                d *= L
                g = gcd(d, *tail.values())
                rows[x] = (d // g, {y: -c // g for y, c in tail.items()})
    return rows
