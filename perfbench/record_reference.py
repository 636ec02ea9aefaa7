"""Record the reference envelopes the output checks compare against.

    python3 perfbench/record_reference.py --profile full --seeds 0-39
    python3 perfbench/record_reference.py --profile tiny --seeds 0-19

Runs one repetition of every workload's main phase per seed, in this
process, and writes into ``reference.json`` (for that profile) each
checked value's envelope over the sweep.  The observed range [lo, hi] is
widened so it also holds at seeds outside the sweep and under a change of
the simulator's noise source, while a broken layer (no carrier
aggregation, throughput off by a large factor, an untrained or diverged
predictor) still falls outside the tight envelopes:

* ``*.ca_prevalence``: by max(0.15, hi - lo) on each side, within [0, 1];
* ``*.max_ccs``: the lower end by one CC (at least 1);
* everything else (throughput in Mbps, RMSE): by max(hi - lo, 25%) on
  each side, not below 0.

Widening by the observed span matters for heavy-tailed groups: with a
fixed 0.15 margin, OpX/highway CA prevalence (0 to 0.27 over seeds 0-39)
read 0.43 at seed 208.

The observed ranges are stored beside the envelopes (``observed``).
"""

from __future__ import annotations

import os
import sys

if os.environ.get("PYTHONHASHSEED") != "0":  # same interpreter controls as run.py
    from run import child_env  # noqa: E402

    tmp = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench-out", "record")
    os.makedirs(os.path.join(tmp, "tmp"), exist_ok=True)
    from pathlib import Path

    os.execve(sys.executable, [sys.executable, *sys.argv], child_env(Path(tmp)))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
PREVALENCE_MARGIN = 0.15
RELATIVE_MARGIN = 0.25


def envelope(key: str, lo: float, hi: float):
    span = hi - lo
    if key.endswith(".ca_prevalence"):
        widen = max(PREVALENCE_MARGIN, span)
        return [max(0.0, lo - widen), min(1.0, hi + widen)]
    if key.endswith(".max_ccs"):
        return [max(1.0, lo - 1.0), hi]
    return [max(0.0, min(lo - span, lo * (1.0 - RELATIVE_MARGIN))), max(hi + span, hi * (1.0 + RELATIVE_MARGIN))]


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="full", choices=sorted(workloads.PROFILES))
    parser.add_argument("--seeds", default="0-39", help="inclusive range, e.g. 0-39")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    reference = (
        json.loads(REFERENCE.read_text(encoding="utf-8"))
        if REFERENCE.exists()
        else {"schema": "perfbench-reference-v1", "profiles": {}, "observed": {}}
    )
    scratch = Path(os.environ["TMPDIR"]).parent / "work"
    for name in args.workload or sorted(workloads.WORKLOADS):
        observed = {}
        zero_ca = {}
        for seed in seeds:
            workload = workloads.make(name, seed, args.profile)
            workload.build_inputs()
            outcome = workload.run_once(workloads.fresh_dir(scratch))
            problems = workload.structural_problems(outcome)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            for key, value in outcome["values"].items():
                lo, hi = observed.get(key, (value, value))
                observed[key] = (min(lo, value), max(hi, value))
                if key.endswith(".ca_prevalence"):
                    zero_ca[key] = zero_ca.get(key, 0) + (value <= 0.0)
            print(f"{name} seed {seed}: {json.dumps(outcome['values'], sort_keys=True)}", flush=True)
        reference["profiles"].setdefault(args.profile, {})[name] = {
            key: envelope(key, lo, hi) for key, (lo, hi) in sorted(observed.items())
        }
        reference["observed"].setdefault(args.profile, {})[name] = {
            "seeds": args.seeds,
            "range": {key: list(span) for key, span in sorted(observed.items())},
            **({"seeds_with_zero_ca": zero_ca} if zero_ca else {}),
        }
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(scratch.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
