"""Seeded digest of CLI exit codes and output bytes over a fixed call matrix.

    PYTHONPATH=src python3 tools/cli_digest.py [--seed 1] [--verbose]

Runs `digrow.cli.main` in process on
- every shipped fixture x basis/growth/gk x both modes x text/json/csv at
  n = 1, 2, 5 (csv outside growth is an invalid call and is kept as one);
- verify, text and json, at n = 1, 2, 5, 9;
- nf with five seeded expressions per fixture and mode;
- seeded presentations over GF(7), GF(32003) and Q with fractional
  coefficients, identity schemes and a slack line, through every verb,
  also with --slack overrides;
- nf --format json per fixture and mode, verify on inhomog_ab at n = 2
  with --slack 0 (prefix/suffix violations), the three exit-3 refusals
  (degree cap, universe cap, materialize cap) and one --out call per verb;
- basis literals: comm_ab at n = 8 and a seeded presentation over the
  multi-character generators x y1 z_2 with idrel lcomm at n = 4, both in
  both modes x text/json, and inhomog_ab at n = 6 in text/json with the
  default slack and with --slack 0;
- counts past float range: gk free_ab --mode assoc at n = 1200 and 2100,
  and the exit-3 refusal of growth free_ab --mode assoc at n = 20000
  (csv), whose counts have more digits than str() converts;
- verify, text and json, at n = 4 on a seeded two-letter presentation over
  GF(2) and on the three-letter one above, so that with the fixtures the
  axiom check draws over 1, 2 and 3 letters with p = 0, 2 and 7;
- growth on generators a b with the one relator [a a a]@1 at n = 10 in
  both modes, whose A_D has many normal triples that the union-find of
  the triple engine never touches.

Every call adds its argv, exit code, stdout and stderr to one sha256, with
input paths replaced by a placeholder (`verify --format json` echoes the
path); an --out call adds the bytes of the file it wrote, with its path
replaced by a second placeholder.  The last line printed is the digest; two
checkouts that print the same digest behave the same on the matrix.
--verbose prints one line per call first (exit code, digest of that call,
argv) for diffing two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

from digrow import fixture_path
from digrow.cli import load_presentation, main as cli_main

FIXTURES = ("comm_a", "comm_ab", "cross_a", "free_a", "free_ab", "inhomog_ab",
            "middle_cap_a", "zero_a")
MODES = ("dialgebra", "assoc")
COEFFS = ("1", "-1", "2", "-3", "5", "1/2", "-2/3", "7/3", "-5/4")
PLACEHOLDER = "<FILE>"
OUT_PLACEHOLDER = "<OUT>"


def literal(rng, names, terms: int, top: int, assoc: bool, coeffs=COEFFS) -> str:
    """A seeded element literal over the given generator names."""
    out = []
    for i in range(terms):
        length = rng.randint(1, top)
        word = " ".join(rng.choice(names) for _ in range(length))
        middle = 1 if assoc else rng.randint(1, length)
        c = rng.choice(coeffs)
        sign = "-" if c.startswith("-") else "+"
        body = f"{c.lstrip('-')}*[{word}]@{middle}"
        out.append((sign if i or sign == "-" else "") + (" " if i else "") + body)
    return " ".join(out)


def generated(rng, field: str) -> str:
    """A seeded presentation file over `field` with schemes and a slack line."""
    lines = [f"field {field}", "generators a b"]
    for _ in range(rng.randint(1, 2)):
        lines.append("rel " + literal(rng, "ab", rng.randint(2, 3), 3, False))
    lines += [f"idrel {tag}" for tag in ("lcomm", "rcomm", "cross") if rng.random() < 0.4]
    lines.append(f"slack {rng.randint(0, 2)}")
    return "\n".join(lines) + "\n"


def named(rng) -> str:
    """A seeded presentation over multi-character generator names."""
    names = ("x", "y1", "z_2")
    return (f"generators {' '.join(names)}\n"
            f"rel {literal(rng, names, rng.randint(2, 3), 3, False)}\nidrel lcomm\n")


def binary(rng) -> str:
    """A seeded two-letter presentation over GF(2), all coefficients 1."""
    return f"field gf 2\ngenerators a b\nrel {literal(rng, 'ab', 2, 3, False, ('1',))}\n"


def calls(rng, files: list[str], named_path: str, binary_path: str, cube_path: str, out: str):
    """The argv lists of the matrix; files are the generated presentations,
    named_path the presentation over multi-character names, binary_path the
    one over GF(2), cube_path the one with the relator [a a a]@1, and out
    is the path the --out calls write to."""
    for name in FIXTURES:
        path = fixture_path(name)
        for verb in ("basis", "growth", "gk"):
            for mode in MODES:
                for fmt in ("text", "json", "csv"):
                    for n in (1, 2, 5):
                        yield [verb, path, "--max-degree", str(n), "--mode", mode,
                               "--format", fmt]
        for fmt in ("text", "json"):
            for n in (1, 2, 5, 9):
                yield ["verify", path, "--max-degree", str(n), "--format", fmt]
        names = load_presentation(path).alphabet.names
        for mode in MODES:
            for _ in range(5):
                expr = literal(rng, names, rng.randint(1, 3), 4, mode == "assoc")
                yield ["nf", path, "--max-degree", "4", "--mode", mode, f"--expr={expr}"]
    for path in files:
        for verb in ("basis", "growth", "gk"):
            for mode in MODES:
                for n in (3, 5):
                    yield [verb, path, "--max-degree", str(n), "--mode", mode,
                           "--format", "json"]
                yield [verb, path, "--max-degree", "4", "--mode", mode, "--slack", "1"]
        for n in (3, 5):
            yield ["verify", path, "--max-degree", str(n), "--format", "json"]
        yield ["verify", path, "--max-degree", "4", "--slack", "0"]
        for mode in MODES:
            for _ in range(3):
                expr = literal(rng, "ab", rng.randint(1, 3), 4, mode == "assoc")
                yield ["nf", path, "--max-degree", "4", "--mode", mode, f"--expr={expr}"]
    for name in FIXTURES:
        path = fixture_path(name)
        names = load_presentation(path).alphabet.names
        for mode in MODES:
            expr = literal(rng, names, rng.randint(1, 3), 4, mode == "assoc")
            yield ["nf", path, "--max-degree", "4", "--mode", mode, "--format", "json",
                   f"--expr={expr}"]
    inhomog, comm, free = (fixture_path(name) for name in ("inhomog_ab", "comm_ab", "free_ab"))
    for fmt in ("text", "json"):
        yield ["verify", inhomog, "--max-degree", "2", "--slack", "0", "--format", fmt]
    yield ["growth", comm, "--max-degree", "13"]
    yield ["growth", comm, "--mode", "assoc", "--max-degree", "20000"]
    yield ["basis", free, "--mode", "assoc", "--max-degree", "23", "--force"]
    for verb in ("nf", "basis", "growth", "gk", "verify"):
        extra = ["--expr=[a b]@2 - 2*[b a]@1"] if verb == "nf" else []
        yield [verb, inhomog, "--max-degree", "5", "--format", "json", "--out", out, *extra]
    for path, n in ((comm, "8"), (named_path, "4")):
        for mode in MODES:
            for fmt in ("text", "json"):
                yield ["basis", path, "--max-degree", n, "--mode", mode, "--format", fmt]
    for slack in ([], ["--slack", "0"]):
        for fmt in ("text", "json"):
            yield ["basis", inhomog, "--max-degree", "6", "--format", fmt, *slack]
    for n in ("1200", "2100"):
        yield ["gk", free, "--mode", "assoc", "--max-degree", n]
    yield ["growth", free, "--mode", "assoc", "--max-degree", "20000", "--format", "csv"]
    for path in (binary_path, named_path):
        for fmt in ("text", "json"):
            yield ["verify", path, "--max-degree", "4", "--format", fmt]
    for mode in MODES:
        yield ["growth", cube_path, "--max-degree", "10", "--mode", mode]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--verbose", action="store_true", help="one line per call")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i, field in enumerate(("gf 7", "gf 32003", "Q")):
            path = os.path.join(tmp, f"generated_{i}.dpres")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(generated(rng, field))
            files.append(path)
        # its own generator, so the records of the calls before it keep their bytes
        named_path = os.path.join(tmp, "named.dpres")
        with open(named_path, "w", encoding="utf-8") as fh:
            fh.write(named(random.Random(f"named-{args.seed}")))
        binary_path = os.path.join(tmp, "binary.dpres")
        with open(binary_path, "w", encoding="utf-8") as fh:
            fh.write(binary(random.Random(f"binary-{args.seed}")))
        cube_path = os.path.join(tmp, "cube.dpres")
        with open(cube_path, "w", encoding="utf-8") as fh:
            fh.write("generators a b\nrel [a a a]@1\n")
        out_path = os.path.join(tmp, "out.txt")
        for call in calls(rng, files, named_path, binary_path, cube_path, out_path):
            code, out, err = run(call)
            path = call[1]
            shown = " ".join(OUT_PLACEHOLDER if a == out_path else PLACEHOLDER if a == path
                             else a for a in call)
            fields = [shown, str(code), out.replace(path, PLACEHOLDER),
                      err.replace(path, PLACEHOLDER)]
            if out_path in call:
                with open(out_path, encoding="utf-8") as fh:
                    fields.append(fh.read().replace(path, PLACEHOLDER))
                os.remove(out_path)
            record = "\0".join(fields).encode() + b"\n"
            digest.update(record)
            count += 1
            if args.verbose:
                print(f"{code} {hashlib.sha256(record).hexdigest()[:12]} {shown}")
    print(f"{count} calls")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
