"""Self-test of the benchmark, at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Asserts that ``BENCHMARK.json`` is well formed; that every workload, run
untraced and traced, prints every end-to-end / per-layer metric of
``BENCHMARK.json`` with its unit and passes its output checks; that a
deliberately wrong reference makes the checks fail; and that a directory
holding only ``BENCHMARK.json`` and the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-out" / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_spec(spec: dict) -> None:
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    ), sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names), "a name is used twice"
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"] and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"], metric
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"], metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower"), metric
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_metrics(proc: subprocess.CompletedProcess, result: dict, expected: list) -> None:
    lines = proc.stdout.splitlines()
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        printed = [ln for ln in lines if ln.startswith(metric["name"] + " ")]
        assert printed and printed[0].endswith(" " + metric["unit"]), (metric["name"], printed)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--profile", "tiny")
                result = result_of(proc)
                assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
                check_metrics(proc, result, expected)
                if trace == 0:
                    assert all(m["value"] > 0 for m in result["metrics"].values()), result
                print(f"ok {workload} trace={trace}: {result['attempted']} operations", flush=True)

        # a deliberately wrong reference: each envelope moved to where no
        # correct output can be, then only one plausible-looking mistake
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        impossible = json.loads(json.dumps(reference))
        for table in impossible["profiles"]["tiny"].values():
            for key in table:
                table[key] = [-2.0, -1.0]
        subtle = json.loads(json.dumps(reference))
        subtle["profiles"]["tiny"]["city_campaign"]["OpZ/urban.ca_prevalence"] = [0.0, 0.05]
        for label, wrong, workloads in (
            ("impossible", impossible, [w["name"] for w in spec["workloads"]]),
            ("subtle", subtle, ["city_campaign"]),
        ):
            path = SCRATCH / f"reference-{label}.json"
            path.write_text(json.dumps(wrong), encoding="utf-8")
            for workload in workloads:
                proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--profile", "tiny", "--reference", str(path))
                result = result_of(proc)
                assert not result["correct"], f"{label} reference passed on {workload}"
                assert result["failed"] == result["attempted"], result
                assert "CHECK FAILED" in proc.stdout
                print(f"ok {workload}: {label} reference fails every operation", flush=True)

        # only BENCHMARK.json and the benchmark's files: no program to run
        bare = SCRATCH / "bare"
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
        print("ok bare directory: exits", proc.returncode, "without a result", flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
