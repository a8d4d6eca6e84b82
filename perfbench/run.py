"""The digrow benchmark: CLI verbs as fresh child processes.

    python3 perfbench/run.py --workload binomial-growth --seed 1 --seconds 36 --trace 0

Run from the repository root; digrow is imported from src/ (PYTHONPATH=src).
Each workload runs as a closed loop with one client: one `python -m
digrow.cli` child at a time, each timed from outside, its exit code and
stdout checked, its peak RSS read from `os.wait4`.  Passes over the
workload's verbs repeat until the next one would end past `--seconds`.

With `--trace 0` the result holds the end-to-end metrics:

- setup_s: a fresh process imports digrow and parses the verb's inputs, no
  saturation; per verb the median of its probes, summed over the verbs.
  Rounds of probes repeat for SETUP_SECONDS, at least SETUP_MIN_ROUNDS;
- wall_s: wall time of the workload's children, summed over the verbs, each
  verb's median over the passes;
- peak_rss_mb: largest child ru_maxrss, in MiB.

With `--trace 1` each verb of a pass runs twice, plain and traced
(perfbench/traced.py) in turns, and the result holds the per-layer metrics of the
traced runs; trace.overhead_s is traced minus plain wall time.

The last stdout line is one JSON object: correct, attempted, failed (verbs
run and verbs failed, see check.py) and metrics.  `failed / attempted` is
the error rate, also printed on the line before.

A child still running DEADLINE_FACTOR * --seconds + DEADLINE_MARGIN_S after
the start is killed and counts as failed, reported as a timeout rather than
a wrong output.  At the 36 s of BENCHMARK.json that is 158 s, inside the
180 s a run may take.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent

from check import Checker  # noqa: E402
from traced import COUNT_METRICS, LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, generate  # noqa: E402

DEADLINE_FACTOR = 3
DEADLINE_MARGIN_S = 50
SETUP_SECONDS = 5
SETUP_MIN_ROUNDS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def workdir_of(workload: str, size: str, root: Path) -> tuple[Path, Path]:
    """Scratch directory of one workload, and its inputs directory relative to
    `root`: output bytes that echo an input path must not depend on where the
    checkout lives."""
    workdir = BENCH / "out" / f"{workload}-{size}"
    return workdir, Path(os.path.relpath(workdir / "inputs", root))


class Children:
    """Runs child processes one at a time, stdout and stderr to files in
    `workdir`, each killed if it is still running at `deadline`
    (a `time.perf_counter` value)."""

    def __init__(self, workdir: Path, env: dict, deadline: float):
        self.workdir = workdir
        self.env = env
        self.deadline = deadline

    def run(self, cmd) -> tuple[float, int, int, bytes, bool]:
        """Wall seconds, peak RSS in KiB, exit code, stdout of one child, and
        whether it was killed at the deadline."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.deadline - t0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        timed_out = killed.is_set()
        if timed_out:
            print(f"child killed at the deadline after {wall:.1f} s: {' '.join(map(str, cmd))}",
                  file=sys.stderr)
        elif code != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"child exited {code}: {' '.join(map(str, cmd))}\n{tail}", file=sys.stderr)
        return wall, usage.ru_maxrss, code, out_path.read_bytes(), timed_out


class Verdicts:
    """Counts verbs attempted, failed and timed out (a timeout also counts as
    failed: it gave no answer); prints why each failure failed."""

    def __init__(self, checker: Checker, verbs):
        self.checker = checker
        self.verbs = verbs
        self.refs = [checker.expected(v) for v in verbs]
        self.first_digest: list[str | None] = [None] * len(verbs)
        self._content: dict = {}
        self.attempted = 0
        self.failed = 0
        self.timed_out = 0

    def fail(self, what: str, problems: list[str], timed_out: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        self.timed_out += timed_out
        print(f"{'TIMEOUT' if timed_out else 'FAIL'} {what}: {'; '.join(problems)}",
              file=sys.stderr)

    def judge(self, i: int, code: int, stdout: bytes, kind: str, timed_out: bool) -> None:
        verb, ref = self.verbs[i], self.refs[i]
        if timed_out:
            self.fail(f"{kind} {verb.label}", ["killed at the run's deadline"], True)
            return
        digest = hashlib.sha256(stdout).hexdigest()
        problems = []
        want_code = ref["exit"] if ref else 0
        if code != want_code:
            problems.append(f"exit {code}, expected {want_code}")
        if ref and digest != ref["stdout_sha256"]:
            problems.append("stdout differs from the reference")
        if self.first_digest[i] is None:
            self.first_digest[i] = digest
        elif digest != self.first_digest[i]:
            problems.append("stdout differs from this verb's first run")
        if code == 0:
            if (i, digest) not in self._content:
                try:
                    found = self.checker.content_problems(verb, stdout)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    found = [f"unreadable output: {exc!r}"]
                self._content[(i, digest)] = found
            problems += self._content[(i, digest)]
        if problems:
            self.fail(f"{kind} {verb.label}", problems)
        else:
            self.attempted += 1


def run_verb(i, verb, kids, verdicts, trace_id=None) -> tuple[float, int]:
    """Run and judge verb `i`, plain or traced; returns its wall time and RSS."""
    if trace_id is None:
        cmd = [sys.executable, "-m", "digrow.cli", *verb.argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced.py"), str(kids.workdir / f"spans-{i}.json"),
               f"{trace_id}/{i}", *verb.argv]
    wall, rss, code, stdout, timed_out = kids.run(cmd)
    verdicts.judge(i, code, stdout, "plain" if trace_id is None else "traced", timed_out)
    return wall, rss


def setup_seconds(verbs, kids, verdicts) -> float:
    """Sum over the verbs of each verb's median set-up probe.  Rounds (one
    probe per verb) repeat until SETUP_SECONDS have passed, at least
    SETUP_MIN_ROUNDS times; a probe that fails counts as a failed verb."""
    cmds = [[sys.executable, str(BENCH / "setup_probe.py"), v.path] + ([v.expr] if v.expr else [])
            for v in verbs]
    samples = [[] for _ in cmds]
    t0 = time.perf_counter()
    while len(samples[0]) < SETUP_MIN_ROUNDS or time.perf_counter() - t0 < SETUP_SECONDS:
        for verb, cmd, s in zip(verbs, cmds, samples):
            wall, _, code, _, timed_out = kids.run(cmd)
            if code != 0:
                verdicts.fail(f"set-up probe {verb.label}", [f"exit {code}"], timed_out)
            s.append(wall)
    print(f"  set-up: {len(samples[0])} rounds")
    return sum(statistics.median(s) for s in samples)


def passes(seconds: float, one_pass) -> int:
    """Repeat `one_pass` (which returns its wall time) until the next would
    end after `seconds`; at least once."""
    t0 = time.perf_counter()
    walls = []
    while True:
        walls.append(one_pass())
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return len(walls)


def measure_plain(verbs, kids, verdicts, seconds):
    samples = [[] for _ in verbs]
    peak = 0

    def one_pass():
        nonlocal peak
        total = 0.0
        for i, verb in enumerate(verbs):
            wall, rss = run_verb(i, verb, kids, verdicts)
            samples[i].append(wall)
            peak = max(peak, rss)
            total += wall
        return total

    n = passes(seconds, one_pass)
    for verb, s in zip(verbs, samples):
        print(f"  {verb.label}: median {statistics.median(s):.3f} s of {len(s)}")
    setup = setup_seconds(verbs, kids, verdicts)
    metrics = {
        "setup_s": setup,
        "wall_s": sum(statistics.median(s) for s in samples),
        "peak_rss_mb": peak / 1024,
    }
    return metrics, n


def measure_traced(verbs, kids, verdicts, seconds, trace_id):
    runs, plain_walls, traced_walls = [], [], []

    def one_pass():
        # plain and traced run back to back per verb, taking turns to go
        # first, so neither drift in machine speed nor order biases
        # trace.overhead_s
        for f in kids.workdir.glob("spans-*.json"):
            f.unlink()
        tid = f"{trace_id}/{len(runs)}"
        walls = {None: 0.0, tid: 0.0}
        for i, verb in enumerate(verbs):
            order = (None, tid) if (i + len(runs)) % 2 == 0 else (tid, None)
            for t in order:
                walls[t] += run_verb(i, verb, kids, verdicts, t)[0]
        plain, traced = walls[None], walls[tid]
        plain_walls.append(plain)
        traced_walls.append(traced)
        runs.append(layer_metrics(sorted(kids.workdir.glob("spans-*.json"))))
        return plain + traced

    n = passes(seconds, one_pass)
    repeat = all(r[c] == runs[0][c] for r in runs for c in COUNT_METRICS)
    if not repeat:
        print("trace counts differ between passes", file=sys.stderr)
    metrics = {name: statistics.median(r[name] for r in runs) for name, _, _ in LAYER_METRICS}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return metrics, n, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="degree bounds; tiny is for self-tests")
    args = ap.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds + DEADLINE_MARGIN_S
    root = Path.cwd()
    missing = [p for p in ("src/digrow/cli.py", "tests/oracle.py") if not (root / p).is_file()]
    if missing:
        print(f"not a digrow checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        checker = Checker(root, json.load(fh))

    workdir, inputs = workdir_of(args.workload, args.size, root)
    shutil.rmtree(workdir, ignore_errors=True)
    verbs = generate(args.workload, args.seed, args.size, root, inputs)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    kids = Children(workdir, env, deadline)
    verdicts = Verdicts(checker, verbs)
    # untimed: the first import in a fresh checkout compiles bytecode
    kids.run([sys.executable, "-c", "import digrow.cli"])

    repeat = True
    if args.trace:
        trace_id = f"{args.workload}/{args.seed}"
        metrics, n, repeat = measure_traced(verbs, kids, verdicts, args.seconds, trace_id)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        metrics, n = measure_plain(verbs, kids, verdicts, args.seconds)
        units = END_TO_END_UNITS

    error_rate = verdicts.failed / verdicts.attempted
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {error_rate:.6g} "
          f"({verdicts.failed}/{verdicts.attempted} verbs, {verdicts.timed_out} timed out, "
          f"{n} passes, seed {args.seed})")
    print(json.dumps({
        "correct": verdicts.failed == 0 and repeat,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
