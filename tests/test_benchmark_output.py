"""The benchmark's output contract: its last line of stdout is the result.

``benchmark/run.py`` promises that the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A line printed after it, or a NaN or Infinity inside it
(not JSON), breaks every reader of the result even when the run exits 0.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def test_traced_run_ends_with_its_result_object():
    # writes its run record only under the git-ignored .bench_run/
    run = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "author_demos",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    last = run.stdout.rstrip("\n").splitlines()[-1]
    result = json.loads(last, parse_constant=_no_constants)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
