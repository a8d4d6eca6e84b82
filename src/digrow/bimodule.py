"""The bimodule saturation engine: homogeneous dialgebra input worked on
triples (u, c, v) of A_D (x) kX (x) A_D; the digrow.presentation docstring
says why that is sound.  Binomial input is saturated by a union-find over
the normal triples of each degree, with no field arithmetic, other input
by elimination on them.  digrow.presentation._saturation_rows imports this
module on first use, so a run that never takes the engine does not
compile it.
"""

from __future__ import annotations

from . import completion
from .monomial import KeyCodec
from .presentation import (
    _KILLED,
    Presentation,
    _binomial,
    _insert_row,
    _integer_terms,
    _pivot_counts,
    _products,
    _reduce_terms,
    _scheme_instances,
    associated_associative,
)


class TripleRows:
    """The kernel rows {pivot: (d, tail)} of a dialgebra table, held as
    A_D's normal forms and M's rows only.  It answers get, in, basis_keys
    and pivot_counts.

    The key [u c v]@(|u|+1) is the triple (u, c, v); it is normal when u
    and v are normal words of A = A_D, whose rules (a completion.RuleRows)
    one degree below the codec's cap this holds.  M, the sub-bimodule of
    A (x) kX (x) A that the relators and scheme instances generate, has its
    rows on normal triples; _bimodule_rows fills them in.  Every other key
    m = (u, c, v) up to the cap is a pivot too, with the row m - nf(u) c nf(v)
    reduced against M.  Its pivot is m, since nf(u) and nf(v) hold smaller
    words of the same length, so these rows and M's are the reduced
    echelon form of the span.  That row is computed whenever it is read
    and never stored.

    No word shorter than A's shortest leading word, _free, contains one,
    so every triple of degree _free or less is normal, and so is every
    key below _flat = offset(_free + 1): those are read with no lookup in
    A's rules.
    """

    __slots__ = ("_keys", "_arows", "_aoff", "_p", "_m", "_end", "_pow", "_normal", "_free",
                 "_flat")

    def __init__(self, keys: KeyCodec, akeys: KeyCodec, arows: completion.RuleRows, p: int):
        self._keys, self._arows, self._p = keys, arows, p
        self._m: dict = {}
        self._end, self._pow = keys.offset(keys.cap + 1), keys._pow
        # _aoff[l] + w is the key in arows of the word value w of length l;
        # the empty word has none, and -1 is in no row
        self._aoff = [-1] + [akeys.offset(t) for t in range(1, keys.cap)]
        # _normal[l]: the word values of A's normal words of length l
        self._normal = [arows.normal_words(t) for t in range(keys.cap)]
        # with no rule, every word A holds, up to length cap - 1, is normal
        self._free = min(map(akeys.length, arows._rules), default=keys.cap)
        self._flat = keys.offset(self._free + 1)

    def _side(self, length: int, w: int):
        """A's normal form of the word value w of the given length, as
        (d, [(word value, c)]) for the word sum(c*word)/d; None when the
        word is normal."""
        if length < self._free:
            return None
        o = self._aoff[length]
        row = self._arows.get(o + w)
        if row is None:
            return None
        d, tail = row
        return d, [(b - o, -c) for b, c in tail.items()]

    def _tensor(self, x: int):
        """(d, [(key, c)]): the triple x as -sum(c*key)/d, every key a
        normal triple, as completion.RuleRows._step writes a word; None
        when x is one."""
        if x < self._flat:
            return None
        t, m, w = self._keys.split(x)
        lv = t - m
        step = self._pow[lv + 1]
        wu, rest = divmod(w, step)
        wv = rest % self._pow[lv]
        us, vs = self._side(m - 1, wu), self._side(lv, wv)
        if us is None and vs is None:
            return None
        du, us = us or (1, [(wu, 1)])
        dv, vs = vs or (1, [(wv, 1)])
        base = x - wu * step - wv
        return du * dv, [(base + a * step + b, -ca * cb) for a, ca in us for b, cb in vs]

    def _triples(self, t: int) -> list[int] | range:
        """The normal triples of degree t, ascending: all its keys when t
        is at most _free."""
        off, pw, normal = self._keys.offset(t), self._pow, self._normal
        if t <= self._free:
            return range(off, off + t * pw[t])
        k = pw[1]
        out: list[int] = []
        for i in range(t):
            j = t - 1 - i
            vs = normal[j]
            for wu in normal[i]:
                for c in range(k):
                    base = off + i * pw[t] + (wu * k + c) * pw[j]
                    out += [base + wv for wv in vs]
        return out

    def basis_keys(self, start: int, stop: int) -> list[int]:
        """The keys in range(start, stop) that these rows leave in the
        basis, stop at most offset(cap + 1): the normal triples less M's
        pivots."""
        offset, m, out = self._keys.offset, self._m, []
        for t in range(1, self._keys.cap + 1):
            if offset(t) >= stop:
                break
            if offset(t + 1) > start:
                out += [x for x in self._triples(t) if start <= x < stop and x not in m]
        return out

    def get(self, x: int, default=None):
        row = self._m.get(x)
        if row is not None:
            return row
        nf = self._tensor(x) if x < self._end else None
        return default if nf is None else completion._row(self._m, *nf, self._p)

    def __contains__(self, x) -> bool:
        # a pivot is a triple of M's or a key that is no normal triple
        return x < self._end and (x in self._m or self._tensor(x) is not None)

    def pivot_counts(self, n: int) -> list[int]:
        """How many pivots these rows hold at each degree 1..n, n <= cap:
        the t*k**t monomials of degree t less the k * sum a_i a_j normal
        triples (a_i normal words of length i, i + j = t - 1), plus M's
        pivots of degree t."""
        k, a = self._pow[1], [len(ws) for ws in self._normal]
        in_m = _pivot_counts(self._m, self._keys, n)
        return [t * self._pow[t] - k * sum(a[i] * a[t - 1 - i] for i in range(t)) + c
                for t, c in zip(range(1, n + 1), in_m)]


def _bimodule_rows(q: Presentation, keys: KeyCodec) -> TripleRows:
    """The rows _elimination_rows(q, keys) returns, for homogeneous
    dialgebra input, as a TripleRows.

    A's rules to degree cap - 1 come first (completion._rule_rows).
    Degree by degree, M is then saturated on normal triples: every
    candidate is read through the TripleRows, which write [u c v] as
    nf(u) c nf(v), and only g |- . and . -| g are applied, since the two middle-forgetting maps vanish on
    M.  Scheme instances range over the normal triples M leaves in the
    basis.  Binomial q takes a union-find (_triple_congruence), other
    homogeneous q elimination (_triple_elimination).
    """
    akeys = KeyCodec(q.alphabet, keys.cap - 1, True)
    arows = completion._rule_rows(associated_associative(q), akeys)
    rows = TripleRows(keys, akeys, arows, q.field.p)
    (_triple_congruence if _binomial(q) else _triple_elimination)(q, rows)
    return rows


def _triple_congruence(q: Presentation, rows: TripleRows) -> None:
    """M's rows for binomial q, by a union-find over the normal triples of
    each degree, in key order.

    A of binomial q is binomial, so nf of a word is one word or 0, and
    every relator, image and scheme instance is, on normal triples, the
    difference of two, one, or nothing: classes stay plain unions.  The
    ideal at degree t is spanned by the differences inside each class and
    the triples of killed classes.  Each class is rooted at its smallest
    triple, and its reduced echelon rows are m + (1, {root: -1}) for every
    other member m, one row shared by the class (-1 read mod p over
    GF(p)), or _KILLED for every member of a killed class.  Classes at
    degree t come from the images of the rows at degree t - 1, read back
    from M, the relators of length t and the scheme instances of total
    degree t.  Up to degree rows._free every triple is normal, and a
    triple's position among them is its offset in the degree.
    """
    keys, m, free = rows._keys, rows._m, rows._free
    p, cap, k = q.field.p, keys.cap, q.alphabet.size
    minus = -1 % p if p else -1
    pw = rows._pow
    short = keys.offset(free)  # below it, gu and vg are normal for every triple (u, c, v)

    def normal(x):
        """The normal triple x is, or None when x is 0."""
        nf = rows._tensor(x)
        if nf is None:
            return x
        return nf[1][0][0] if nf[1] else None

    def images(x):
        """The normal triples (u, c, nf(vg)) of x -| g and (nf(gu), c, v) of
        g |- x, g ascending, None for 0, for the normal triple x = (u, c, v),
        in the order of KeyCodec.images(x)[k:3*k]."""
        ys = keys.images(x)[k:3 * k]
        if x < short:
            return ys
        t, mid, w = keys.split(x)
        lv = t - mid
        wu, wv = w // pw[lv + 1], w % pw[lv]
        out = []
        for g, y in enumerate(ys):
            # the word value of vg or gu, its length, and the key's step per unit of it
            if g < k:
                b, n, step = wv * k + g, lv + 1, 1
            else:
                b, n, step = (g - k) * pw[mid - 1] + wu, mid, k * pw[lv]
            nf = rows._side(n, b)  # A's normal form of that word: one word or 0
            if nf is None:
                out.append(y)
            else:
                out.append(y + (nf[1][0][0] - b) * step if nf[1] else None)
        return out

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def join(a, b):
        # a = b for normal triples a, b, either of them None for 0; a class
        # is rooted at its smallest position, and keeps the kill of either side
        if a is None or b is None:
            if a is not None or b is not None:
                killed[find(pos(b if a is None else a))] = 1
            return
        a, b = find(pos(a)), find(pos(b))
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            killed[a] |= killed[b]

    relators: dict[int, list] = {}
    for r in q.relators:
        t = r.max_length()  # binomial relators are homogeneous
        if t <= cap:
            relators.setdefault(t, []).append([normal(keys.encode(x)) for x in r.terms])
    basis: dict[int, list] = {}  # degree -> split basis keys, for scheme instances
    prev: list[int] | range = []
    dead = [None] * (2 * k)  # the images of a killed triple
    for t in range(1, cap + 1):
        members = rows._triples(t)
        if t <= free:  # all keys of the degree, each at its offset
            pos = members.start.__rsub__
        else:
            pos = {x: i for i, x in enumerate(members)}.__getitem__
        parent, killed = list(range(len(members))), bytearray(len(members))
        root_images: dict = {}
        for x in prev:
            row = m.get(x)
            if row is None:  # a root: its class's other members carry the edges
                continue
            if row is _KILLED:
                ys = dead
            else:
                (r,) = row[1]
                ys = root_images.get(r)
                if ys is None:
                    ys = root_images[r] = images(r)
            for a, b in zip(images(x), ys):
                join(a, b)
        for terms in relators.get(t, ()):
            join(terms[0], terms[-1] if len(terms) == 2 else None)
        if q.schemes:
            basis[t - 1] = [keys.split(x) for x in prev if x not in m]
            for m1, m2 in _scheme_instances(q.schemes, keys, t, basis):
                if t > free:
                    m1, m2 = normal(m1), normal(m2)
                join(m1, m2)
        # a root is its class's smallest key, so its row exists before any
        # other member comes up
        shared: dict = {}
        for i, x in enumerate(members):
            r = find(i)
            if killed[r]:
                m[x] = _KILLED
            elif r != i:
                m[x] = shared[r]
            else:
                shared[r] = (1, {x: minus})
        prev = members


def _triple_elimination(q: Presentation, rows: TripleRows) -> None:
    """M's rows for other homogeneous q, by elimination on normal
    triples: each candidate is reduced against rows itself, whose get
    gives a triple that is not normal as its row reduced against M."""
    keys, m = rows._keys, rows._m
    p, cap, k = q.field.p, keys.cap, q.alphabet.size

    def images(x):
        # x -| g and g |- x: the middle blocks of KeyCodec.images
        return keys.images(x)[k:3 * k]

    users: dict = {}
    pend: list[list] = [[] for _ in range(cap + 1)]
    for r in q.relators:
        t = r.max_length()
        if t <= cap:
            pend[t].append(_integer_terms(r.terms.items(), p, keys.encode)[1])
    basis: dict[int, list] = {}  # degree -> split basis keys, for scheme instances
    for t in range(1, cap + 1):
        if q.schemes:
            basis[t - 1] = [keys.split(x) for x in rows.basis_keys(keys.offset(t - 1),
                                                                   keys.offset(t))]
            for m1, m2 in _scheme_instances(q.schemes, keys, t, basis):
                pend[t].append(((m1, 1), (m2, -1)))
        for cand in pend[t]:
            _, nf = _reduce_terms(cand, rows, p)
            if nf:
                piv = _insert_row(m, users, nf, p)
                if t < cap:
                    pend[t + 1] += _products(piv, m[piv], images)
        # M's rows of degree t are final: no later pivot is in their tails
        pend[t] = None
        users.clear()
