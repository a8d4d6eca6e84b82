"""Seeded digest of decoded rows, counts and normal forms of non-binomial
presentations.

    PYTHONPATH=src python3 tools/rows_digest.py [--count 600] [--seed 1]

Draws `count` presentations whose relators have two or three terms of
mixed lengths and coefficients such as 1/2, -2/3, 5 and 7/3, over Q,
GF(7) and GF(32003), with random identity schemes and slack, and
saturates each in both modes.  Every decoded row, the decoded basis, the
per-degree counts and the normal form of one seeded element go into a
sha256 digest, printed on the last line; a tally of the draws goes to
stderr.  Every draw is non-binomial in dialgebra mode, so the homogeneous
ones (all but the "inhomogeneous" count) take the bimodule engine there;
"associative image homogeneous" counts the draws whose A_D is exact.
Only the public API is used (`basis_upto`, `BasisTable.rows`,
`BasisTable.basis`, `counts_by_degree`, `normal_form`), so two checkouts
that print the same digest compute the same tables.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from digrow import (
    ASSOCIATIVE,
    DIALGEBRA,
    QQ,
    Alphabet,
    DiElement,
    Disequence,
    PrimeField,
    Presentation,
    associated_associative,
    basis_upto,
    normal_form,
)

FIELDS = (QQ, QQ, PrimeField(7), PrimeField(32003))
COEFFS = tuple(map(Fraction, ("1", "-1", "2", "-3", "5", "1/2", "-2/3", "7/3", "-5/4")))
SCHEMES = ("lcomm", "rcomm", "cross")


def binomial(q: Presentation) -> bool:
    """The congruence-engine predicate: homogeneous, every relator c*m or
    c*m1 - c*m2."""
    # c and -c sum to p: 0 over Q, and p itself for residues in [0, p)
    p = q.field.p
    return q.homogeneous and all(
        len(r.terms) == 1 or (len(r.terms) == 2 and sum(r.terms.values()) == p)
        for r in q.relators
    )


def monomial(rng, alphabet: Alphabet, length: int, associative=False) -> Disequence:
    word = bytes(rng.randrange(alphabet.size) for _ in range(length))
    return Disequence(alphabet, word, 1 if associative else rng.randint(1, length))


def element(rng, alphabet, field, terms: int, top: int, associative=False) -> DiElement:
    out = {}
    for _ in range(terms):
        m = monomial(rng, alphabet, rng.randint(1, top), associative)
        out[m] = field.coerce(rng.choice(COEFFS))
    return DiElement(alphabet, field, out)


def presentation(rng) -> Presentation:
    """A seeded presentation, non-binomial in dialgebra mode."""
    while True:
        k = rng.randint(1, 2)
        alphabet = Alphabet(tuple("ab"[:k]))
        field = rng.choice(FIELDS)
        top = 3 if k == 1 else 2 + (rng.random() < 0.3)
        relators = []
        for _ in range(rng.randint(1, 2)):
            r = element(rng, alphabet, field, rng.randint(2, 3), top)
            if not r.is_zero:
                relators.append(r)
        schemes = tuple(t for t in SCHEMES if rng.random() < 0.3)
        slack = rng.choice((None, None, 0, 1, 2))
        if relators:
            pres = Presentation(alphabet, field, tuple(relators), schemes, slack)
            if not binomial(pres):
                return pres


def lines_of(pres: Presentation, rng):
    """Text lines of one presentation's tables, both modes."""
    k = pres.alphabet.size
    n = 5 if k == 1 else 4
    yield pres.canonical_text()
    for mode in (DIALGEBRA, ASSOCIATIVE):
        table = basis_upto(pres, n, mode)
        yield f"{mode} slack {table.slack} counts {table.counts_by_degree()}"
        for piv, row in table.rows.items():
            yield f"{piv.format()}: {row.format()}"
        yield "basis " + " ".join(m.format() for m in table.basis)
        x = element(rng, pres.alphabet, pres.field, 3, n, mode == ASSOCIATIVE)
        yield f"nf {x.format()} = {normal_form(x, table).format()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    tally = Counter()
    start = time.perf_counter()
    for _ in range(args.count):
        pres = presentation(rng)
        tally[pres.field.name] += 1
        tally["inhomogeneous"] += not pres.homogeneous
        tally["schemes"] += bool(pres.schemes)
        tally["slack set"] += pres.slack is not None
        assoc = associated_associative(pres)
        tally["binomial in associative mode"] += binomial(assoc)
        tally["associative image homogeneous"] += assoc.homogeneous
        for line in lines_of(pres, rng):
            digest.update(line.encode() + b"\n")
    elapsed = time.perf_counter() - start
    print(f"{args.count} presentations (seed {args.seed}): "
          + ", ".join(f"{key} {tally[key]}" for key in sorted(tally)), file=sys.stderr)
    print(f"{elapsed:.1f} s", file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
