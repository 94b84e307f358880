"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there, with BLAS pinned to one thread and one caller (a closed
loop: each unit starts when the previous one returns). Every time it
reports is in reference seconds, read from ``refclock.RefClock``, which
runs from the first set-up to the last timed unit; the wall times go
to the run record.

``--trace 0`` times set-up in several samples (``setup_s`` is the
median of their per-set-up means), then runs whole rounds of the
workload's units until ``--seconds`` have passed. Every round repeats
the same units, so the mix of units does not depend on the speed of the
machine. It checks every output, requires each repeated unit to give
the output of its round-0 twin, and prints the end-to-end metrics of
``BENCHMARK.json``. Quality metrics are computed from round 0 after the
timed pass.

``--trace 1`` runs set-up and one untimed warm-up round, then round 0
once untraced and once with the per-layer tracer installed (set-up
again included), requires identical outputs from both, and prints the
per-layer metrics and the tracing overhead (traced over untraced time
of round 0).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
(versions, BLAS, load, input sizes, per-unit times) and, when traced,
the spans are written under ``.bench_run/`` in the checkout.
"""

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"       # before numpy loads its BLAS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# a set-up sample repeats set-up until this many seconds have passed, so
# a set-up of a few milliseconds is not timed on its own
SETUP_SAMPLE_S = 0.5
# a quality metric a workload does not produce reads this constant
NOT_APPLICABLE = 1.0


def _fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "graspsynth" / "__init__.py").is_file():
        _fail(f"no program source at {src / 'graspsynth'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import graspsynth
    imported = pathlib.Path(graspsynth.__file__).resolve().parent
    if imported != src / "graspsynth":
        _fail(f"imported graspsynth from {imported}, not {src}")


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def _last_line(text):
    return text.strip().splitlines()[-1]


def _run_unit(unit, r):
    t0 = time.perf_counter()
    try:
        output, error = unit.fn(), None
    except Exception:  # noqa: BLE001 - a raising unit is a failed unit
        output, error = None, traceback.format_exc()
    return {"unit": unit, "output": output, "error": error,
            "span": (t0, time.perf_counter()), "round": r}


def _run_round(workload, state, r, tracer=None):
    """Run one whole round; returns (records, (start, end) readings)."""
    records = []
    t_round = time.perf_counter()
    for unit in workload.round_units(state, r):
        if tracer is not None:
            tracer.unit = unit.uid
        records.append(_run_unit(unit, r))
    return records, (t_round, time.perf_counter())


def _check(workload, state, records):
    """Attach the list of problems found in its output to each record."""
    for rec in records:
        if rec["error"] is not None:
            rec["problems"] = [_last_line(rec["error"])]
            continue
        try:
            rec["problems"] = workload.check(state, rec["unit"], rec["output"])
        except Exception:  # noqa: BLE001 - a check that raises fails the unit
            rec["problems"] = [_last_line(traceback.format_exc())]


def _check_repeats(workload, records, per_round, reference):
    """A repeated unit must give its round-0 twin's output bit for bit.

    ``reference`` is the digest of an untimed first run of unit 0, or
    None if the workload has no warm-up.
    """
    for i, rec in enumerate(records):
        if i < per_round:
            want = reference if i == 0 else None
        else:
            twin = records[i % per_round]
            want = None if twin["problems"] else workload.digest(twin["output"])
        if want is not None and not rec["problems"] and \
                workload.digest(rec["output"]) != want:
            rec["problems"].append("repeat of a unit is not bit-identical")


def _quality(workload, state, records):
    """Quality of round 0 (a fixed set of units); problems if not finite."""
    outputs = [rec["output"] for rec in records
               if rec["round"] == 0 and not rec["problems"]]
    if not outputs:
        return {}, ["round 0 produced no checked output"]
    try:
        values = workload.quality(state, outputs)
    except Exception:  # noqa: BLE001 - a failed quality read fails the run
        return {}, [_last_line(traceback.format_exc())]
    bad = [f"quality {k} = {v}" for k, v in values.items()
           if not math.isfinite(v)]
    return values, bad


def _unit_log(records, clock):
    return [{"unit": rec["unit"].uid, "round": rec["round"],
             "seconds": clock.seconds(*rec["span"]),
             "wall_s": rec["span"][1] - rec["span"][0],
             "info": rec["unit"].info, "problems": rec["problems"]}
            for rec in records]


def _timed_setup(workload, seed, workdir):
    """Run SETUP_SAMPLES set-up samples.

    Returns the last state and, for each sample, the (start, end)
    readings of its set-ups.
    """
    samples, n = [], 0
    for _ in range(SETUP_SAMPLES):
        spans, elapsed = [], 0.0
        while not spans or elapsed < SETUP_SAMPLE_S:
            target = workdir / f"setup{n}"
            target.mkdir()
            t0 = time.perf_counter()
            state = workload.setup(seed, target)
            spans.append((t0, time.perf_counter()))
            elapsed += spans[-1][1] - t0
            n += 1
        samples.append(spans)
    return state, samples


def run_timed(workload, seed, seconds, workdir, spec, clock):
    state, setup_spans = _timed_setup(workload, seed, workdir)

    problems = []
    reference = None
    if workload.warmup:
        warm = _run_unit(workload.round_units(state, 0)[0], 0)
        if warm["error"] is None:
            reference = workload.digest(warm["output"])
        else:
            problems.append(f"warm-up: {_last_line(warm['error'])}")

    # whole rounds of the same units until the time is up
    records = []
    t_pass = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_pass < seconds:
        records += _run_round(workload, state, r)[0]
        r += 1
    t_end = time.perf_counter()
    clock.stop()
    pass_s = clock.seconds(t_pass, t_end)
    setup_times = [statistics.mean(clock.seconds(*span) for span in spans)
                   for spans in setup_spans]

    _check(workload, state, records)
    _check_repeats(workload, records, len(records) // r, reference)
    quality, quality_problems = _quality(workload, state, records)
    problems += quality_problems

    attempted = len(records)
    failed = sum(1 for rec in records if rec["problems"])
    if problems and failed == 0:
        failed = 1              # a run-level problem fails the run
    times = [clock.seconds(*rec["span"]) for rec in records]
    values = {
        "setup_s": statistics.median(setup_times),
        "units_per_min": 60.0 * attempted / pass_s,
        "unit_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    values.update(quality)
    metrics = {}
    for m in spec["end_to_end"]:
        value = values.get(m["name"], NOT_APPLICABLE)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    detail = {"setup_s_samples": setup_times,
              "setups": sum(len(spans) for spans in setup_spans),
              "setup_wall_s_samples": [
                  statistics.mean(b - a for a, b in spans)
                  for spans in setup_spans],
              "pass_s": pass_s, "pass_wall_s": t_end - t_pass,
              "rounds": r, "unit_s_samples": len(times),
              "not_applicable": sorted(set(metrics) - set(values)),
              "units": _unit_log(records, clock), "problems": problems,
              "sizes": workload.sizes(state)}
    return failed == 0 and not problems, attempted, failed, metrics, detail


def run_traced(workload, seed, workdir, spec, clock):
    from tracing import Tracer, layer_metrics

    (workdir / "plain").mkdir()
    state = workload.setup(seed, workdir / "plain")
    # warm-up, so the untraced round is not the first run of the code
    _run_round(workload, state, "warm")
    plain, plain_span = _run_round(workload, state, 0)

    tracer = Tracer()
    (workdir / "traced").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        tracer.install()
        try:
            tracer.unit = "setup"
            traced_state = workload.setup(seed, workdir / "traced")
            traced, traced_span = _run_round(workload, traced_state, 0, tracer)
        finally:
            tracer.uninstall()
    clock.stop()
    tracer.to_reference_time(clock)
    tracer.dump(workdir / "trace.json")

    _check(workload, state, plain)
    _check(workload, traced_state, traced)
    for a, b in zip(plain, traced):
        if not (a["problems"] or b["problems"]) and \
                workload.digest(a["output"]) != workload.digest(b["output"]):
            b["problems"].append("traced output differs from untraced")
    attempted = len(traced)
    failed = sum(1 for a, b in zip(plain, traced)
                 if a["problems"] or b["problems"])

    plain_s, traced_s = clock.seconds(*plain_span), clock.seconds(*traced_span)
    values = layer_metrics(tracer, traced_s / plain_s)
    metrics = {}
    for m in spec["per_layer"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["absent"] = True
    detail = {"plain_s": plain_s, "traced_s": traced_s,
              "plain_wall_s": plain_span[1] - plain_span[0],
              "traced_wall_s": traced_span[1] - traced_span[0],
              "absent_boundaries": tracer.absent, "spans": len(tracer.spans),
              "warnings": {f"{k[0]}:{k[1]}": n
                           for k, n in tracer.warnings.items()},
              "units": _unit_log(traced, clock),
              "plain_units": _unit_log(plain, clock),
              "sizes": workload.sizes(state)}
    return failed == 0, attempted, failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _spec()
    _import_program()
    from refclock import RefClock
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]

    workdir = (ROOT / ".bench_run"
               / f"{workload.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    load_before = os.getloadavg()
    t0 = time.perf_counter()
    clock = RefClock()
    clock.start()
    try:
        if args.trace:
            correct, attempted, failed, metrics, detail = run_traced(
                workload, args.seed, workdir, spec, clock)
        else:
            correct, attempted, failed, metrics, detail = run_timed(
                workload, args.seed, args.seconds, workdir, spec, clock)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(), "loadavg_before": load_before,
              "loadavg_after": os.getloadavg(),
              "run_wall_s": time.perf_counter() - t0,
              "reference_clock": clock.summary(),
              "correct": correct, "metrics": metrics, **detail}
    with open(workdir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for unit in detail["units"]:
        for problem in unit["problems"]:
            print(f"{unit['unit']}: {problem}", file=sys.stderr)
    for problem in detail.get("problems", []):
        print(problem, file=sys.stderr)
    print(f"record: {workdir / 'record.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
