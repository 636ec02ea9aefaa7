"""Benchmark launcher: one workload (or both), each in fresh interpreters.

Run from the repository root::

    python3 perfbench/run.py --workload city_campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every run compiles ``src/`` to bytecode (the Python "build"), then starts
``child.py`` in a fresh interpreter with a controlled environment:
``REPRO_PROCS=1``, one BLAS thread, a fixed ``PYTHONHASHSEED``,
observability off and per-run cache, runs and temp directories inside
``.perfbench-out/`` of the checkout, removed afterwards.

``--trace 0`` runs the main child (set-up + repetitions of the timed phase
for ``--seconds``) and ``SETUP_REPEATS - 1`` set-up-only children, and
prints every ``end_to_end`` metric of ``BENCHMARK.json``.  ``--trace 1``
runs the main child with one extra traced pass and prints every
``per_layer`` metric.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; lines before it give
provenance, each metric with its unit and any failed check.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("city_campaign", "table4_pipeline")

#: fresh interpreters that set up per untraced run; setup_s is their median
SETUP_REPEATS = 3
#: wall budget of one child beyond its --seconds (set-up, the last and the traced repetition)
CHILD_SLACK_S = 120.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (broken checkout or child)."""


def child_env(tmp: Path) -> Dict[str, str]:
    """The child's environment: the caller's, minus every ``REPRO_*`` knob,
    plus the isolation and steadiness controls."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for key in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(key, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_PROCS="1",
        REPRO_OBS="off",
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_RUNS_DIR=str(tmp / "runs"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp / "tmp"),
    )
    return env


def build() -> None:
    """Check the checkout holds the program, and byte-compile it."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no program to benchmark: {package.relative_to(ROOT)} is missing")
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        raise BenchError("byte-compiling src/ failed")


def run_child(args: argparse.Namespace, workload: str, mode: str, trace: int, tmp: Path, tag: str) -> Dict:
    work = tmp / tag
    (tmp / "tmp").mkdir(parents=True, exist_ok=True)
    out = tmp / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--trace", str(trace),
        "--profile", args.profile,
        "--reference", str(args.reference),
        "--workdir", str(work),
        "--out", str(out),
    ]
    if trace:
        cmd += ["--spans", str(OUT / "spans" / f"{workload}-seed{args.seed}.npz")]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.run(
        cmd,
        env=child_env(tmp),
        cwd=str(ROOT),
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=args.seconds + CHILD_SLACK_S,
        check=False,
    )
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload} {mode} child exited with code {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    src = (ROOT / "src").resolve()
    if not Path(result["repro_file"]).resolve().is_relative_to(src):
        raise BenchError(f"child imported repro from {result['repro_file']}, not from {src}")
    return result


def source_id() -> Dict[str, str]:
    """git SHA when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def measure(args: argparse.Namespace, workload: str, spec: Dict) -> Dict:
    """Run one workload; returns its result (metrics named as in ``spec``)."""
    tmp = OUT / "tmp" / f"{workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        main = run_child(args, workload, "main", args.trace, tmp, "main")
        values: Dict[str, float] = {}
        if args.trace:
            values.update(main["per_layer"])
            names = spec["per_layer"]
        else:
            setups = [main["setup_s"]] + [
                run_child(args, workload, "setup", 0, tmp, f"setup{i}")["setup_s"]
                for i in range(1, SETUP_REPEATS)
            ]
            time_to_result = statistics.median(main["rep_s"])
            values.update(
                setup_s=statistics.median(setups),
                time_to_result_s=time_to_result,
                peak_rss_mb=main["peak_rss_mb"],
                ue_steps_per_s=main["ue_steps_per_rep"] / time_to_result,
            )
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    detail = {
        "reps": len(main["rep_s"]),
        "rep_s": main["rep_s"],
        "checked_values": main["values"],
    }
    if not args.trace:
        detail["setup_s_each"] = setups
    return {
        "workload": workload,
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "problems": main["problems"],
        "metrics": metrics,
        "provenance": main["provenance"],
        "detail": detail,
    }


def report(result: Dict, prefix: str = "") -> None:
    print(f"== {result['workload']}: {result['attempted']} operations, {result['failed']} failed")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"{prefix}{name} {metric['value']!r} {metric['unit']}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="full", choices=("full", "tiny"))
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        args.reference = args.reference.resolve()
        build()
        host = {"host_cpus": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}
        host.update(source_id())
        workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            result = measure(args, workload, spec)
            result["provenance"].update(host)
            results.append(result)
    except (BenchError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    single = len(results) == 1
    metrics: Dict[str, Dict] = {}
    for result in results:
        prefix = "" if single else f"{result['workload']}."
        report(result, prefix)
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
