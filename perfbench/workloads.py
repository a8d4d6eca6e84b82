"""Workload definitions and the seeded input generator.

Each workload is a list of CLI verbs.  `generate` writes every input file a
verb reads into one directory and returns the verbs; digrow only ever sees
those files.  Fixture-based verbs copy the shipped fixture, so their inputs
do not depend on the seed; the dense presentations and the `nf` expression
do.

Run as a script to write the inputs of one workload:

    python3 perfbench/workloads.py --workload dense-growth --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("binomial-growth", "dense-growth", "verify-battery")
DEFAULT_SEED = 1
GF_PRIME = 32003
NF_TERMS = 6
NF_POOL_SIZE = 32

# Degree bounds.  "tiny" keeps every verb under a second, for self-tests.
SIZES = {
    "full": {
        "binomial-growth": {"dialgebra": 12, "assoc": 15},
        "dense-growth": {"growth": 9, "nf": 10},
        "verify-battery": {"comm_a": 192, "cross_a": 128, "free_ab": 12},
    },
    "tiny": {
        "binomial-growth": {"dialgebra": 5, "assoc": 6},
        "dense-growth": {"growth": 5, "nf": 5},
        "verify-battery": {"comm_a": 12, "cross_a": 10, "free_ab": 4},
    },
}

# Supports of the generated three-term relators.  The supports are fixed and
# only the coefficients follow the seed: over Q one random support costs
# anywhere from 1.0 to 2.5 s at degree 10, which would put the choice of seed,
# not the code, into the spread of `wall_s`.  The three shapes put the
# leading term at different middles.
DENSE_SUPPORTS = (
    ("[b a a]@2", "[b b a]@2", "[b b b]@2"),
    ("[a a b]@3", "[a b a]@3", "[b b a]@1"),
    ("[a a a]@2", "[a b b]@3", "[b b b]@3"),
)
DENSE_COEFFS = (2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class Verb:
    """One CLI child: its arguments and what its output is checked against."""

    label: str
    argv: tuple[str, ...]  # arguments after `python -m digrow.cli`
    path: str  # the presentation file the verb reads
    expr: str | None = None  # the nf expression, if any
    oracle_degree: int = 0  # per-degree counts checked up to here; 0 = none
    nf_pool_degree: int = 0  # nf output checked against the pool reference


def nf_pool(degree: int) -> list[str]:
    """Fixed monomials of `inhomog_ab` whose normal forms the reference stores."""
    rng = random.Random(f"nf-pool-{degree}")
    pool: list[str] = []
    while len(pool) < NF_POOL_SIZE:
        length = rng.randint(max(1, degree - 3), degree)
        # mostly a: words with two or more b mostly reduce to 0
        word = " ".join("b" if rng.random() < 0.1 else "a" for _ in range(length))
        mono = f"[{word}]@{rng.randint(1, length)}"
        if mono not in pool:
            pool.append(mono)
    return pool


def _signed_sum(terms) -> str:
    """Element literal of (coefficient, monomial) pairs, e.g. `2*[a]@1 - 3*[b]@1`."""
    out = ""
    for c, mono in terms:
        body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not out:
            out = f"-{body}" if c < 0 else body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


def dense_relators(seed: int) -> list[str]:
    """One seeded three-term homogeneous relator per support, coefficients not +-1."""
    rng = random.Random(f"dense-{seed}")
    return [
        _signed_sum((rng.choice(DENSE_COEFFS) * rng.choice((1, -1)), m) for m in support)
        for support in DENSE_SUPPORTS
    ]


def nf_expression(seed: int, degree: int) -> str:
    """Seeded combination of NF_TERMS distinct pool monomials."""
    rng = random.Random(f"nf-{seed}-{degree}")
    monos = rng.sample(nf_pool(degree), NF_TERMS)
    return _signed_sum((rng.randint(1, 9) * rng.choice((1, -1)), m) for m in monos)


def _fixture_text(root: Path, name: str) -> str:
    return (root / "src" / "digrow" / "fixtures" / f"{name}.dpres").read_text(encoding="utf-8")


def generate(workload: str, seed: int, size: str, root: Path, out: Path) -> list[Verb]:
    """Write the inputs of one workload into `out` and return its verbs."""
    sizes = SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = out / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def fixture(name: str) -> str:
        return write(f"{name}.dpres", _fixture_text(root, name))

    if workload == "binomial-growth":
        comm_ab = fixture("comm_ab")
        d, a = sizes["dialgebra"], sizes["assoc"]
        return [
            Verb(f"growth comm_ab dialgebra n={d}",
                 ("growth", comm_ab, "--max-degree", str(d), "--format", "json"),
                 comm_ab, oracle_degree=min(d, 4)),
            Verb(f"growth comm_ab assoc n={a}",
                 ("growth", comm_ab, "--max-degree", str(a), "--mode", "assoc",
                  "--format", "json"),
                 comm_ab, oracle_degree=min(a, 5)),
        ]
    if workload == "dense-growth":
        n, nf_n = sizes["growth"], sizes["nf"]
        verbs = []
        for i, rel in enumerate(dense_relators(seed), start=1):
            for field, tag in (("Q", "q"), (f"gf {GF_PRIME}", "gfp")):
                path = write(f"dense{i}_{tag}.dpres",
                             f"# generated, seed {seed}\nfield {field}\n"
                             f"generators a b\nrel {rel}\n")
                verbs.append(Verb(f"growth dense{i} {tag} n={n}",
                                  ("growth", path, "--max-degree", str(n), "--format", "json"),
                                  path, oracle_degree=min(n, 6)))
        inhomog = fixture("inhomog_ab")
        expr = nf_expression(seed, nf_n)
        write("nf_expr.txt", expr + "\n")
        verbs.append(Verb(f"nf inhomog_ab n={nf_n}",
                          ("nf", inhomog, "--expr", expr, "--max-degree", str(nf_n),
                           "--format", "json"),
                          inhomog, expr=expr, nf_pool_degree=nf_n))
        return verbs
    if workload == "verify-battery":
        comm_a, cross_a, free_ab = fixture("comm_a"), fixture("cross_a"), fixture("free_ab")
        return [
            Verb(f"verify comm_a n={sizes['comm_a']}",
                 ("verify", comm_a, "--max-degree", str(sizes["comm_a"]), "--format", "json"),
                 comm_a),
            Verb(f"verify cross_a n={sizes['cross_a']}",
                 ("verify", cross_a, "--max-degree", str(sizes["cross_a"])),
                 cross_a),
            Verb(f"basis free_ab n={sizes['free_ab']}",
                 ("basis", free_ab, "--max-degree", str(sizes["free_ab"]), "--format", "json"),
                 free_ab, oracle_degree=min(sizes["free_ab"], 4)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description="write the inputs of one workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for verb in generate(args.workload, args.seed, args.size, Path.cwd(), Path(args.out)):
        print(verb.label)


if __name__ == "__main__":
    main()
