"""Output checks that decide whether a verb failed.

A verb fails on an exit code other than the reference's, on stdout bytes
whose digest differs from the reference recorded at the default seed, or on
content that disagrees with an independent source:

- per-degree counts at low degree against the dense oracle in
  tests/oracle.py (growth and basis output, any seed);
- `nf` output against the linear combination of the reference normal forms
  of the pool monomials the seeded expression is made of (any seed).

Literals are parsed here without digrow, so a parser bug in digrow cannot
hide itself.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\*)?\[([^\]]*)\]@(\d+)")


def parse_literal(text: str) -> dict:
    """{(letters, middle): Fraction} of an element literal such as `-2*[a b]@1 + [b]@1`."""
    text = text.strip()
    out: dict = {}
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise ValueError(f"cannot parse element literal {text!r} at {pos}")
        sign, coeff, word, middle = m.groups()
        key = (tuple(word.split()), int(middle))
        s = out.get(key, 0) + Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        if s:
            out[key] = s
        else:
            out.pop(key, None)
        pos = m.end()
    return out


def parse_dpres(text: str):
    """(generator names, relators as literal dicts, schemes) of a .dpres file."""
    names, relators, schemes = (), [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "generators":
            names = tuple(rest.split())
        elif head == "rel":
            relators.append(parse_literal(rest))
        elif head == "idrel":
            schemes.append(rest.strip())
    return names, relators, tuple(schemes)


def file_sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def verb_key(verb) -> str:
    """Content address of a verb: its arguments with the input file's digest
    in place of its path, so identical inputs share one reference."""
    args = [f"sha256:{file_sha(a)}" if a == verb.path else a for a in verb.argv]
    return hashlib.sha256(json.dumps(args).encode()).hexdigest()


class Checker:
    """Content checks of one run; oracle results are cached per input."""

    def __init__(self, root: Path, reference: dict):
        self.reference = reference
        spec = importlib.util.spec_from_file_location("oracle", root / "tests" / "oracle.py")
        self.oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracle)
        self._oracle_cache: dict = {}

    def expected(self, verb) -> dict | None:
        """The reference entry of this verb, if one was recorded."""
        return self.reference["verbs"].get(verb_key(verb))

    def oracle_counts(self, path, degree: int, associative: bool) -> list[int]:
        key = (file_sha(path), degree, associative)
        if key not in self._oracle_cache:
            names, relators, schemes = parse_dpres(Path(path).read_text(encoding="utf-8"))
            self._oracle_cache[key] = self.oracle.o_basis_counts(
                names, relators, schemes, degree, associative=associative)
        return self._oracle_cache[key]

    def content_problems(self, verb, stdout: bytes) -> list[str]:
        """What is wrong with one verb's stdout, judged without the digest."""
        problems = []
        if verb.oracle_degree:
            k = verb.oracle_degree
            assoc = "assoc" in verb.argv
            payload = json.loads(stdout)
            if verb.argv[0] == "growth":
                got = payload["per_degree"][:k]
            else:
                lengths = [len(m[1:m.index("]")].split()) for m in payload["basis"]]
                got = [lengths.count(t) for t in range(1, k + 1)]
            want = self.oracle_counts(verb.path, k, assoc)
            if got != want:
                problems.append(f"counts to degree {k} {got} != oracle {want}")
        if verb.nf_pool_degree:
            payload = json.loads(stdout)
            pool = self.reference["nf_pool"][str(verb.nf_pool_degree)]
            want: dict = {}
            for (word, middle), c in parse_literal(verb.expr).items():
                mono = f"[{' '.join(word)}]@{middle}"
                for key, d in parse_literal(pool[mono]).items():
                    s = want.get(key, 0) + c * d
                    if s:
                        want[key] = s
                    else:
                        want.pop(key, None)
            if parse_literal(payload["input"]) != parse_literal(verb.expr):
                problems.append(f"nf input echoed as {payload['input']!r}")
            if parse_literal(payload["normal_form"]) != want:
                problems.append(f"normal form {payload['normal_form']!r} is not the "
                                f"combination of the reference normal forms")
        return problems
