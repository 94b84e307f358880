"""The benchmark's output contract: its last line of stdout is the result.

``benchmark/run.py`` promises that the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A line printed after it, or a NaN or Infinity inside it
(not JSON), breaks every reader of the result even when the run exits 0.
So does a metric that reads ``null``: the per-layer tracer reports a
boundary it cannot find in the program as absent, and every metric that
reads it as ``null``.
"""

import importlib
import json
import math
import pathlib
import pkgutil
import subprocess
import sys

import graspsynth

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _no_constants(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def _traced_result(workload):
    # writes its run record only under the git-ignored .bench_run/
    run = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    last = run.stdout.rstrip("\n").splitlines()[-1]
    result = json.loads(last, parse_constant=_no_constants)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            name, metric)
    return result


def test_traced_run_ends_with_its_result_object():
    _traced_result("author_demos")


def test_traced_fit_view_run_ends_with_its_result_object():
    _traced_result("fit_view")


def test_traced_category_transfer_run_ends_with_its_result_object():
    # the retarget and forward-kinematics path under the tracer's wrappers
    _traced_result("category_transfer")


def test_every_traced_boundary_is_in_the_program():
    # a boundary the program no longer has turns its metrics into null
    sys.path.insert(0, str(ROOT / "benchmark"))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "benchmark"))
    for module in pkgutil.walk_packages(graspsynth.__path__, "graspsynth."):
        importlib.import_module(module.name)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer, 1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        value = values.get(metric["name"])
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            metric["name"], value)
