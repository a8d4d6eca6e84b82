"""Seeded digest of decoded rows, counts and normal forms of seeded
presentations.

    PYTHONPATH=src python3 tools/rows_digest.py [--count 600] [--seed 1]

Draws `count` presentations whose relators have two or three terms of
mixed lengths and coefficients such as 1/2, -2/3, 5 and 7/3, over Q,
GF(7) and GF(32003), with random identity schemes and slack, and
saturates each in both modes.  Then, from the same seeded stream, it draws
`count` // 2 binomial presentations: relators +-([w]@i - [w']@j) and
+-[w]@i of length 1 to 4 over 1 to 3 letters, random identity schemes,
and no explicit table slack, or one of 1 or 2.  Last, it draws `count` // 2
presentations in the shape of inhomog_ab, which kill most monomials:
relators [g]@1 + c*([v]@i - [v]@j) with g a generator and v of length 2
or 3, random identity schemes and slack.  Every decoded row, the decoded
basis, the per-degree counts and the normal form of one seeded element go
into a sha256 digest, printed on the last line; a tally of the draws goes
to stderr.  "killed keys" counts the rows, over all tables, that are a
single monomial.  Every homogeneous dialgebra table with a relator or a
scheme takes the bimodule engine: the first draws by elimination on
A_D-normal triples (all but the "inhomogeneous" count), the binomial
draws by a union-find on them.  "associative image homogeneous" counts
the first draws whose A_D is exact.  "triple tables" counts the dialgebra
tables the bimodule engine serves, and "triple tables free below the cap"
those whose A_D has no rule below the cap, so that every triple is
normal.  "completions" counts the associative tables that the rules
engine serves (every one whose associative image is homogeneous and has a
relator or a scheme), and "completions with a rule above the relators"
those with a rule longer than every relator and, given schemes, than the
generator commutators: such a rule comes from an overlap composition.
The digest uses only the public API (`basis_upto`, `BasisTable.rows`,
`BasisTable.basis`, `counts_by_degree`, `normal_form`), so two checkouts
that print the same digest compute the same tables; the tally peeks at
the rows a table holds.
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
from digrow.bimodule import TripleRows
from digrow.completion import RuleRows

FIELDS = (QQ, QQ, PrimeField(7), PrimeField(32003))
COEFFS = tuple(map(Fraction, ("1", "-1", "2", "-3", "5", "1/2", "-2/3", "7/3", "-5/4")))
SCHEMES = ("lcomm", "rcomm", "cross")
DEGREE = (0, 5, 4, 3)  # table degree bound by alphabet size


def binomial(q: Presentation) -> bool:
    """The union-find's predicate: homogeneous, every relator c*m or
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


def binomial_presentation(rng) -> Presentation:
    """A seeded binomial presentation."""
    k = rng.randint(1, 3)
    alphabet = Alphabet(tuple("abc"[:k]))
    field = rng.choice(FIELDS)
    relators = []
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(1, 4)
        m1, m2 = monomial(rng, alphabet, length), monomial(rng, alphabet, length)
        c = field.coerce(rng.choice((1, -1)))
        terms = {m1: c} if m1 == m2 or rng.random() < 0.3 else {m1: c, m2: field.coerce(-c)}
        relators.append(DiElement(alphabet, field, terms))
    schemes = tuple(t for t in SCHEMES if rng.random() < 0.4)
    return Presentation(alphabet, field, tuple(relators), schemes)


def killing_presentation(rng) -> Presentation:
    """A seeded presentation in the shape of inhomog_ab: each relator sets
    a generator equal to a longer element."""
    k = rng.randint(1, 2)
    alphabet = Alphabet(tuple("ab"[:k]))
    field = rng.choice(FIELDS)
    relators = []
    for _ in range(rng.randint(1, 2)):
        v = bytes(rng.randrange(k) for _ in range(rng.randint(2, 3)))
        i, j = rng.sample(range(1, len(v) + 1), 2)
        c = rng.choice(COEFFS)
        g = Disequence(alphabet, bytes([rng.randrange(k)]), 1)
        relators.append(DiElement(alphabet, field, {
            g: 1, Disequence(alphabet, v, i): c, Disequence(alphabet, v, j): -c}))
    schemes = tuple(t for t in SCHEMES if rng.random() < 0.3)
    return Presentation(alphabet, field, tuple(relators), schemes,
                        rng.choice((None, None, 0, 1, 2)))


def tally_triples(table, tally: Counter) -> None:
    """Count a dialgebra table the bimodule engine serves, and whether its
    A_D is free below the cap."""
    rows = table._rows
    if isinstance(rows, TripleRows):
        tally["triple tables"] += 1
        tally["triple tables free below the cap"] += rows._free == table._keys.cap


def tally_completion(table, pres: Presentation, tally: Counter) -> None:
    """Count an associative table the rules engine serves, and whether it
    holds a rule above the relators' lengths (2 for the commutators)."""
    rows = table._rows
    if isinstance(rows, RuleRows):
        q = associated_associative(pres)
        top = max([r.max_length() for r in q.relators] + [2 * bool(q.schemes)])
        tally["completions"] += 1
        tally["completions with a rule above the relators"] += any(
            table._keys.length(x) > top for x in rows._rules)


def lines_of(pres: Presentation, rng, tally: Counter, slack=None):
    """Text lines of one presentation's tables, both modes."""
    n = DEGREE[pres.alphabet.size]
    yield pres.canonical_text()
    for mode in (DIALGEBRA, ASSOCIATIVE):
        table = basis_upto(pres, n, mode, slack)
        if mode == ASSOCIATIVE:
            tally_completion(table, pres, tally)
        else:
            tally_triples(table, tally)
        yield f"{mode} slack {table.slack} counts {table.counts_by_degree()}"
        for piv, row in table.rows.items():
            tally["killed keys"] += len(row.terms) == 1
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
        for line in lines_of(pres, rng, tally):
            digest.update(line.encode() + b"\n")
    for _ in range(args.count // 2):
        pres = binomial_presentation(rng)
        slack = rng.choice((None, 1, 2))
        tally["binomial " + pres.field.name] += 1
        digest.update(f"slack {slack}\n".encode())
        for line in lines_of(pres, rng, tally, slack):
            digest.update(line.encode() + b"\n")
    for _ in range(args.count // 2):
        pres = killing_presentation(rng)
        tally["killing " + pres.field.name] += 1
        for line in lines_of(pres, rng, tally):
            digest.update(line.encode() + b"\n")
    elapsed = time.perf_counter() - start
    print(f"{args.count} + {args.count // 2} binomial + {args.count // 2} killing "
          f"presentations (seed {args.seed}): "
          + ", ".join(f"{key} {tally[key]}" for key in sorted(tally)), file=sys.stderr)
    print(f"{elapsed:.1f} s", file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
