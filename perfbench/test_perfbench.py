"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import parse_literal  # noqa: E402
from run import Children  # noqa: E402
from traced import LAYER_METRICS  # noqa: E402
from workloads import SIZES, WORKLOADS, generate, nf_expression  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = {"setup_s", "wall_s", "peak_rss_mb"}


def run_bench(workload, trace, cwd=ROOT, script="perfbench/run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def copy_bench(tmp_path: Path, reference: dict) -> Path:
    """A copy of perfbench/ holding `reference` as its reference.json; its
    run.py, run from the repository root, measures the code in src/."""
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    (copy / "reference.json").write_text(json.dumps(reference))
    return copy


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    verbs_a = generate(workload, 5, "full", ROOT, a)
    verbs_b = generate(workload, 5, "full", ROOT, b)
    generate(workload, 6, "full", ROOT, c)
    assert dir_bytes(a) == dir_bytes(b)
    assert [v.argv[2:] for v in verbs_a] == [v.argv[2:] for v in verbs_b]
    if workload == "dense-growth":
        assert dir_bytes(a) != dir_bytes(c)
    else:
        assert dir_bytes(a) == dir_bytes(c)


def test_dense_relators_match_over_both_fields(tmp_path):
    generate("dense-growth", 3, "full", ROOT, tmp_path)
    for q in tmp_path.glob("dense*_q.dpres"):
        gfp = q.with_name(q.name.replace("_q", "_gfp"))
        rel = [ln for ln in q.read_text().splitlines() if ln.startswith("rel ")]
        assert rel == [ln for ln in gfp.read_text().splitlines() if ln.startswith("rel ")]
        coeffs = parse_literal(rel[0][4:]).values()
        assert len(coeffs) == 3 and all(abs(c) > 1 for c in coeffs)


def test_metric_names():
    names = END_TO_END | {name for name, _, _ in LAYER_METRICS}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names |= {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    names |= {w["name"] for w in spec["workloads"]}
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_parse_literal():
    assert parse_literal("0") == {}
    assert parse_literal("-2*[a b]@1 + [b]@1 - 1/3*[a]@1 + [b]@1") == {
        (("a", "b"), 1): -2, (("b",), 1): 2, (("a",), 1): Fraction(-1, 3)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload, trace):
    res = result_of(run_bench(workload, trace))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = END_TO_END if trace == 0 else {name for name, _, _ in LAYER_METRICS}
    assert set(res["metrics"]) == want
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat():
    a = result_of(run_bench("verify-battery", 1))["metrics"]
    b = result_of(run_bench("verify-battery", 1))["metrics"]
    counts = [name for name, unit, _ in LAYER_METRICS if unit == "count"]
    assert {c: a[c]["value"] for c in counts} == {c: b[c]["value"] for c in counts}
    # each verify saturates each mode twice, in basis_upto and in growth_series;
    # the basis export once
    assert a["presentation.basis_upto_calls"]["value"] == 2 * 4 + 1


def test_corrupted_reference_fails(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    for entry in ref["verbs"].values():
        entry["stdout_sha256"] = "0" * 64
    res = result_of(run_bench("verify-battery", 0, script=copy_bench(tmp_path, ref) / "run.py"))
    assert not res["correct"] and res["failed"] / res["attempted"] > 0


def test_corrupted_nf_pool_fails(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text())
    degree = SIZES["tiny"]["dense-growth"]["nf"]
    (word, middle), _ = next(iter(parse_literal(nf_expression(2, degree)).items()))
    pool = ref["nf_pool"][str(degree)]
    mono = f"[{' '.join(word)}]@{middle}"
    pool[mono] = "[a]@1" if pool[mono] == "0" else pool[mono] + " + [a]@1"
    ref["verbs"] = {}
    res = result_of(run_bench("dense-growth", 0, script=copy_bench(tmp_path, ref) / "run.py"))
    assert not res["correct"] and res["failed"] >= 1


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run_bench("binomial-growth", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_children_are_killed_at_the_deadline(tmp_path):
    kids = Children(tmp_path, None, time.perf_counter() + 0.5)
    wall, _, code, _, timed_out = kids.run([sys.executable, "-c", "import time; time.sleep(30)"])
    assert code != 0 and timed_out and wall < 10
