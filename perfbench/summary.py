"""Run every workload once and print its end-to-end metrics and error rate.

    python3 perfbench/summary.py

Each workload is one `perfbench/run.py --trace 0` process at the default
seed, measuring for BENCHMARK.json's run_seconds.  For the per-layer
metrics run `perfbench/run.py --trace 1`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--seconds", str(SECONDS), "--trace", "0"],
            capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:16} {name:12} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload:16} {'error_rate':12} {result['failed'] / result['attempted']:14.6g} "
              f"({result['failed']}/{result['attempted']} verbs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
