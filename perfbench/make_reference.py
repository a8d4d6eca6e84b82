"""Record perfbench/reference.json from the code in src/.

    python3 perfbench/make_reference.py

Stores each verb's exit code and stdout digest, keyed by `check.verb_key`,
for the default seed of every workload at both sizes and, at full size, for
every seed in REFERENCE_SEEDS (only dense-growth's inputs depend on the
seed); and the normal form of every nf pool monomial, from which check.py
derives the expected `nf` output for any seed.  Rerun it only when a change is meant to alter output
bytes, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from check import Checker, verb_key  # noqa: E402
from run import Children, workdir_of  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS, generate, nf_pool  # noqa: E402

# Seeds whose full-size outputs are pinned byte for byte.  At any other seed
# the dense growth counts are checked against the oracle to degree 6 only.
REFERENCE_SEEDS = (*range(1, 41), *range(301, 321))


def main() -> int:
    from digrow.cli import load_presentation
    from digrow.element import parse_element
    from digrow.presentation import basis_upto, normal_form

    pres = load_presentation(ROOT / "src" / "digrow" / "fixtures" / "inhomog_ab.dpres")
    pools = {}
    for degree in sorted({SIZES[s]["dense-growth"]["nf"] for s in SIZES}):
        table = basis_upto(pres, degree)
        pools[str(degree)] = {
            m: normal_form(parse_element(m, pres.alphabet, pres.field), table).format()
            for m in nf_pool(degree)
        }
    reference = {"default_seed": DEFAULT_SEED, "verbs": {}, "nf_pool": pools}
    checker = Checker(ROOT, reference)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = 0
    runs = [(size, w, DEFAULT_SEED) for size in SIZES for w in WORKLOADS]
    runs += [("full", "dense-growth", seed) for seed in REFERENCE_SEEDS if seed != DEFAULT_SEED]
    for size, workload, seed in runs:
        workdir, inputs = workdir_of(workload, size, ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        verbs = generate(workload, seed, size, ROOT, inputs)
        for verb in verbs:
            _, _, code, stdout, _ = Children(workdir, env, time.perf_counter() + 600).run(
                [sys.executable, "-m", "digrow.cli", *verb.argv])
            problems = checker.content_problems(verb, stdout) if code == 0 else ["exit"]
            if problems:
                bad += 1
                print(f"{size} seed {seed} {verb.label}: {problems}", file=sys.stderr)
            reference["verbs"][verb_key(verb)] = {
                "label": f"{workload} {size} seed {seed}: {verb.label}",
                "exit": code,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            }
            print(f"{size} seed {seed} {verb.label}: exit {code}")
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
