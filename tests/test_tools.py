"""The seeded behaviour digests in tools/: a change that keeps every exit
code, output byte, kernel row, normal form and basis they cover leaves
their last lines as pinned here.  A change that means to alter behaviour
updates the pin and says which calls or draws moved."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest_tail(script, *args):
    """The last two lines a tools/ script prints, run from the repository
    root with src on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args], cwd=ROOT,
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines()[-2:]


def test_cli_digest():
    assert digest_tail("cli_digest.py") == [
        "702 calls", "2a48f38605025fc98168a956841021e43f1756ba56575922fe58e20dc48300d3"]


def test_rows_digest():
    # the line before the digest is the run's wall time
    assert digest_tail("rows_digest.py", "--seed", "1")[-1] == (
        "0d6425e49a04526ce906a82abab559a7c603f4047486930d323f838e63282f98")
