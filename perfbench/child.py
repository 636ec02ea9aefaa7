"""One workload in one fresh interpreter (started by ``run.py``).

Modes:

* ``setup`` -- set up (imports, inputs, warm-up) and report ``setup_s``;
* ``main`` -- set up, then repeat the timed phase until ``--seconds`` have
  passed, checking every repetition's outcome;
* ``main --trace 1`` -- as ``main``, then one more pass (inputs and one
  repetition) with every layer probe installed, reporting per-layer
  metrics and writing the spans out once at the end.

``setup_s`` runs from the launcher's ``time.monotonic()`` just before the
spawn (``--t0``; the clock is system-wide) to inputs ready, so it covers
interpreter start, ``import scipy.stats``, ``import repro``, building the
inputs and the warm-up call.  The result is one JSON document written to
``--out``.  Only the standard library is imported before the timed
imports.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def rss_mb() -> float:
    """Current resident set size of this process, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "main"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import scipy.stats  # noqa: F401  (timed alone: the largest single import)

    scipy_s = time.perf_counter() - start
    start = time.perf_counter()
    import repro

    repro_s = time.perf_counter() - start
    mem_import = rss_mb()

    import workloads  # this directory is sys.path[0]

    workdir = Path(args.workdir)
    workload = workloads.make(args.workload, args.seed, args.profile)
    start = time.perf_counter()
    workload.build_inputs()
    inputs_s = time.perf_counter() - start
    workload.warm_up(workloads.fresh_dir(workdir / "warmup"))
    setup_s = time.monotonic() - args.t0
    mem_setup = rss_mb()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "import_scipy_stats_s": scipy_s,
        "import_repro_s": repro_s,
        "setup_inputs_s": inputs_s,
        "mem_import_mb": mem_import,
        "mem_setup_mb": mem_setup,
        "repro_file": repro.__file__,
    }
    if args.mode == "main":
        with open(args.reference, encoding="utf-8") as handle:
            envelopes = workloads.load_envelopes(json.load(handle), args.profile, args.workload)
        result.update(run_timed(workload, envelopes, args.seconds, workdir))
        if args.trace:
            result["per_layer"] = run_traced(workload, envelopes, workdir, result, args.spans)
        result["peak_rss_mb"] = peak_rss_mb()
        result["provenance"] = provenance(workload)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    return 0


def run_timed(workload, envelopes, seconds: float, workdir: Path) -> dict:
    """Repeat the main phase until ``seconds`` have passed (at least once)."""
    import workloads

    times, problems, outcomes = [], [], []
    failed = 0
    began = time.perf_counter()
    while not times or time.perf_counter() - began < seconds:
        rep_dir = workloads.fresh_dir(workdir / f"rep{len(times)}")
        gc.collect()  # garbage of the previous repetition is not this one's cost
        start = time.perf_counter()
        try:
            outcome = workload.run_once(rep_dir)
        except Exception:  # a repetition that raises is a failed operation
            times.append(time.perf_counter() - start)
            failed += 1
            problems.append(traceback.format_exc(limit=4))
            continue
        times.append(time.perf_counter() - start)
        rep_problems = workloads.check_outcome(workload, outcome, envelopes)
        if outcomes and outcome["values"] != outcomes[0]["values"]:
            rep_problems.append("outcome differs from the first repetition on the same inputs")
        if rep_problems:
            failed += 1
            problems.extend(f"rep {len(times) - 1}: {p}" for p in rep_problems)
        outcomes.append(outcome)
        shutil.rmtree(rep_dir, ignore_errors=True)
    out = {
        "rep_s": times,
        "attempted": len(times),
        "failed": failed,
        "problems": problems,
        "ue_steps_per_rep": workload.ue_steps(),
        "values": outcomes[0]["values"] if outcomes else {},
    }
    if outcomes and "stage_s" in outcomes[0]:
        out["stage_s"] = {
            stage: statistics.median(o["stage_s"][stage] for o in outcomes)
            for stage in outcomes[0]["stage_s"]
        }
        out["resume_s"] = statistics.median(o["resume_s"] for o in outcomes)
        out["bytes_written"] = outcomes[0]["bytes_written"]
    return out


def run_traced(workload, envelopes, workdir: Path, untraced: dict, spans_path) -> dict:
    """One traced pass (inputs + one repetition); returns per-layer metrics."""
    import workloads
    from repro.backends import arena
    from tracer import PROBES, SpanTracer, install, uninstall

    tracer = SpanTracer()
    before = arena.workspace().stats()
    rep_dir = workloads.fresh_dir(workdir / "traced")
    gc.collect()
    patches = install(tracer, PROBES)
    try:
        tracer.call("setup.inputs", workload.build_inputs)
        start = time.perf_counter()
        outcome = tracer.call("rep", workload.run_once, rep_dir)
        traced_s = time.perf_counter() - start
    finally:
        uninstall(patches)
    after = arena.workspace().stats()
    problems = workloads.check_outcome(workload, outcome, envelopes)
    untraced["attempted"] += 1
    if problems:
        untraced["failed"] += 1
        untraced["problems"].extend(f"traced rep: {p}" for p in problems)

    summary = tracer.summary()
    metrics = {}
    for _target, name in PROBES:
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if name.startswith("core."):
            metrics[f"{name}_s"] = row["s"]
        else:
            metrics[f"{name}.calls"] = row["calls"]
            metrics[f"{name}.s"] = row["s"]
    for name in ("ran.step_all", "nn.trainer.fit"):
        metrics[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)
    step_all = tracer.durations("ran.step_all")
    metrics["ran.step_all.p50_ms"] = percentile(step_all, 50) * 1e3
    metrics["ran.step_all.p99_ms"] = percentile(step_all, 99) * 1e3
    metrics["ran.ue_steps"] = metrics.pop("ran.finish_step.calls")
    metrics.pop("ran.finish_step.s")
    step_all_s = metrics["ran.step_all.s"]
    metrics["ran.batched_share"] = (
        metrics["backends.radio_step_multi.s"] / step_all_s if step_all_s > 0 else 0.0
    )
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics["backends.arena.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    stage_s = untraced.get("stage_s", {})
    for stage in ("synthesize", "build_dataset", "train", "evaluate"):
        metrics[f"pipeline.{stage}.s"] = stage_s.get(stage, 0.0)
    metrics["pipeline.resume.s"] = untraced.get("resume_s", 0.0)
    metrics["pipeline.bytes_written"] = untraced.get("bytes_written", 0)
    metrics["import.scipy_stats_s"] = untraced["import_scipy_stats_s"]
    metrics["import.repro_s"] = untraced["import_repro_s"]
    metrics["setup.inputs_s"] = untraced["setup_inputs_s"]
    metrics["mem.import_mb"] = untraced["mem_import_mb"]
    metrics["mem.setup_mb"] = untraced["mem_setup_mb"]
    metrics["trace.overhead_ratio"] = traced_s / statistics.median(untraced["rep_s"])
    if spans_path:
        tracer.write(Path(spans_path))
    return metrics


def provenance(workload) -> dict:
    import numpy

    from repro import backends

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backends.active_name(),
        "backend_requested": backends.requested_name(),
        "seed": workload.seed,
        "profile": workload.profile,
        "inputs": workload.sizes(),
    }


if __name__ == "__main__":
    sys.exit(main())
