"""The congruence saturation engine: binomial input, whose ideal is
spanned degree by degree by differences of monomials and by monomials, is
saturated by a union-find over the keys of each degree, with no field
arithmetic.  digrow.presentation._saturation_rows imports this module on
first use, and digrow.bimodule takes its union-find for M on binomial
input.
"""

from __future__ import annotations

from .monomial import KeyCodec
from .presentation import KernelRows, Presentation, _scheme_instances


def _union_find(size: int):
    """(find, union, killed) over the positions 0..size-1: each class is
    rooted at its smallest position, and killed[root] marks a killed
    class; union keeps the kill of either side."""
    parent = list(range(size))
    killed = bytearray(size)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(a, b):
        a, b = find(a), find(b)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a
            killed[a] |= killed[b]

    return find, union, killed


def _class_rows(rows: dict, members, find, killed, minus: int, dead, mark) -> None:
    """Store the rows of one degree's classes, members[i] at position i
    and members ascending: dead[m] = mark for every member m of a killed
    class (1 in a KernelRows' dead bytes, or _KILLED in a dict of rows),
    and for every other member m of a live class the row
    m + (1, {root: minus}) in rows, shared by its class.  A root has
    none."""
    # a root is its class's smallest key, so its tail exists before any
    # other member comes up
    shared: dict = {}
    for i, x in enumerate(members):
        r = find(i)
        if killed[r]:
            dead[x] = mark
        elif r != i:
            rows[x] = shared[r]
        else:
            shared[r] = (1, {x: minus})


def _congruence_rows(q: Presentation, keys: KeyCodec) -> KernelRows:
    """The rows _elimination_rows(q, keys) returns, for binomial q.

    Degree by degree, a union-find (_union_find) over the keys of that
    degree (see KeyCodec), so key order is monomial order.  The ideal at
    degree t is spanned by the differences inside each class and the
    monomials of killed classes; its reduced echelon form has the kernel
    rows _class_rows stores (-1 read mod p over GF(p)).  Classes at degree
    t come from the single-generator images of the rows at degree t - 1,
    read back from rows, the relators of length t and the scheme instances
    of total degree t.
    """
    p, cap, images, offset = q.field.p, keys.cap, keys.images, keys.offset
    minus = -1 % p if p else -1
    relators: dict[int, list] = {}
    for r in q.relators:
        t = r.max_length()  # binomial relators are homogeneous
        if t <= cap:
            relators.setdefault(t, []).append([keys.encode(m) for m in r.terms])

    rows = KernelRows(keys, offset(cap + 1))
    live, dead = rows._live, rows._dead
    basis: dict[int, list] = {}  # degree -> split basis keys, for scheme instances
    for t in range(1, cap + 1):
        off = offset(t)
        size = offset(t + 1) - off
        find, union, killed = _union_find(size)

        root_images: dict = {}
        for x in range(offset(t - 1), off):
            if dead[x]:
                for y in images(x):
                    killed[find(y - off)] = 1
                continue
            row = live.get(x)
            if row is None:  # a root: its class's other members carry the edges
                continue
            (r,) = row[1]
            ys = root_images.get(r)
            if ys is None:
                ys = root_images[r] = images(r)
            for a, b in zip(images(x), ys):
                union(a - off, b - off)
        for terms in relators.get(t, ()):
            if len(terms) == 1:
                killed[find(terms[0] - off)] = 1
            else:
                union(terms[0] - off, terms[1] - off)
        if q.schemes:
            basis[t - 1] = [keys.split(x) for x in rows.basis_keys(offset(t - 1), off)]
            for m1, m2 in _scheme_instances(q.schemes, keys, t, basis):
                union(m1 - off, m2 - off)
        _class_rows(live, range(off, off + size), find, killed, minus, dead, 1)
    return rows
