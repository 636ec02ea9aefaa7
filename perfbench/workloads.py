"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload runs in a fresh interpreter started by ``child.py``.  Its
``build_inputs`` and ``warm_up`` make up the set-up phase, ``run_once``
is one repetition of the timed operation and returns the outcome that
``check_outcome`` compares against the envelopes in ``reference.json``.

Why these two (see README.md for the layer map):

* ``city_campaign`` -- almost all its time is per-lane ``repro.ran``
  stepping through ``MultiUESimulator``; no nn or trees run.  Highway
  gives fewer candidate cells than urban, and OpX aggregates fewer CCs
  than OpZ, so the step sees different inputs.
* ``table4_pipeline`` -- the seven Table-4 predictors on one sub-dataset,
  three of them through ``run_experiment`` (cold run, then resume): the
  workload where ``repro.nn``, the backend kernels, ``repro.trees`` and
  the pipeline's writes and reads do the work, with traces synthesized
  through the single-lane ``TraceSimulator.run``.  ``city_campaign`` runs
  none of them.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

#: input sizes per profile.  ``full`` is what the benchmark measures;
#: ``tiny`` only exists so ``selftest.py`` can run every workload quickly.
PROFILES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "city_campaign": {"cities": 8, "ues": 8, "steps": 60, "cells": 12, "cohort": 32},
        "table4_pipeline": {
            "n_traces": 4,
            "samples_per_trace": 150,
            "epochs": 12,
            "gbdt_estimators": 2,
            "rf_estimators": 1,
        },
    },
    "tiny": {
        "city_campaign": {"cities": 2, "ues": 4, "steps": 10, "cells": 12, "cohort": 32},
        "table4_pipeline": {
            "n_traces": 2,
            "samples_per_trace": 60,
            "epochs": 2,
            "gbdt_estimators": 1,
            "rf_estimators": 1,
        },
    },
}

CITY_OPERATORS = ("OpX", "OpZ")
CITY_SCENARIOS = ("urban", "highway")


def _deep_config(epochs: int, seed: int):
    from repro.core.predictors import DeepConfig

    # patience == max_epochs: early stopping never fires, so every run
    # trains the same number of epochs
    return DeepConfig(max_epochs=epochs, patience=epochs, seed=seed)


class Workload:
    """One workload at one seed and profile."""

    name = "workload"

    def __init__(self, seed: int, profile: str = "full") -> None:
        self.seed = seed
        self.profile = profile
        self.size: Dict[str, object] = dict(PROFILES[profile][self.name])

    # -- set-up ---------------------------------------------------------
    def build_inputs(self) -> None:
        """Generate the program's inputs from the seed."""

    def warm_up(self, workdir: Path) -> None:
        """One short untimed call through the same code path."""

    # -- main phase -----------------------------------------------------
    def run_once(self, workdir: Path) -> Dict:
        """One repetition of the timed phase; returns its outcome."""
        raise NotImplementedError

    def ue_steps(self) -> int:
        """UE-steps (one UE, one 1-s sample) one repetition delivers."""
        raise NotImplementedError

    def sizes(self) -> Dict[str, Dict[str, object]]:
        """Input sizes with units, for the provenance record."""
        raise NotImplementedError

    # -- checks ---------------------------------------------------------
    def structural_problems(self, outcome: Mapping) -> List[str]:
        """Checks that need no reference value (completeness, statuses)."""
        return []


def check_outcome(
    workload: Workload, outcome: Mapping, envelopes: Mapping[str, Tuple[float, float]]
) -> List[str]:
    """Every problem with one outcome: structural ones, then each checked
    value that is missing, not finite, or outside its reference envelope."""
    problems = list(workload.structural_problems(outcome))
    values: Mapping[str, float] = outcome["values"]
    for key in sorted(envelopes):
        lo, hi = envelopes[key]
        value = values.get(key)
        if value is None:
            problems.append(f"{key}: missing")
        elif not math.isfinite(value):
            problems.append(f"{key}: not finite ({value})")
        elif not lo <= value <= hi:
            problems.append(f"{key}: {value:.6g} outside reference [{lo:.6g}, {hi:.6g}]")
    unexpected = sorted(set(values) - set(envelopes))
    if unexpected:
        problems.append(f"no reference for {unexpected}")
    return problems


class CityCampaign(Workload):
    """``run_city_campaign`` in process: one shard, one process, shared
    12-cell deployments, OpX+OpZ x urban+highway, 60 one-second steps.

    One operation runs ``cities`` campaigns, each with its own seed and so
    its own deployments.  The work a campaign does depends on where its
    cells land (candidate counts, how many CCs aggregate): with the 4
    deployments of one campaign, fading + link-adaptation calls varied by
    8% between seeds (coefficient of variation) and the time by more, so
    an operation averages over 8 campaigns (32 deployments).
    """

    name = "city_campaign"

    def _configs(self, cities: int, ues: int, steps: int):
        from repro.ran.campaign import CityCampaignConfig

        # seed spacing 100 > ues: no two campaigns share a UE seed
        return [
            CityCampaignConfig(
                operators=CITY_OPERATORS,
                scenarios=CITY_SCENARIOS,
                rats=("5G",),
                ues=ues,
                cells=int(self.size["cells"]),
                shards=1,
                cohort=int(self.size["cohort"]),
                duration_s=float(steps),
                dt_s=1.0,
                seed=1000 * self.seed + 100 * city,
            )
            for city in range(cities)
        ]

    def build_inputs(self) -> None:
        self.configs = self._configs(
            int(self.size["cities"]), int(self.size["ues"]), int(self.size["steps"])
        )

    def warm_up(self, workdir: Path) -> None:
        from repro.ran.campaign import run_city_campaign

        run_city_campaign(self._configs(1, 2, 5)[0], state_dir=workdir / "state", processes=1)

    def run_once(self, workdir: Path) -> Dict:
        from repro.ran.campaign import CAStatisticsAccumulator, run_city_campaign

        merged: Dict[str, CAStatisticsAccumulator] = {}
        complete = True
        n_ues = 0
        for i, config in enumerate(self.configs):
            result = run_city_campaign(config, state_dir=workdir / f"state{i}", processes=1)
            complete = complete and result.complete and result.shards_completed == 1
            n_ues += result.n_ues
            for (operator, _rat, scenario), stats in result.stats.items():
                group = f"{operator}/{scenario}"
                merged.setdefault(group, CAStatisticsAccumulator()).merge(stats.accumulator)
        values: Dict[str, float] = {}
        tput_sum = 0.0
        total = 0
        for group, acc in sorted(merged.items()):
            stats = acc.finalize()
            values[f"{group}.ca_prevalence"] = stats.ca_prevalence
            values[f"{group}.peak_tput_mbps"] = stats.peak_tput_mbps
            values[f"{group}.mean_tput_mbps"] = stats.mean_tput_mbps
            values[f"{group}.max_ccs"] = float(stats.max_ccs)
            tput_sum += acc.tput_sum_mbps
            total += acc.total_samples
        values["all.mean_tput_mbps"] = tput_sum / total if total else 0.0
        return {
            "complete": complete,
            "n_ues": n_ues,
            "samples": {group: acc.total_samples for group, acc in merged.items()},
            "values": values,
        }

    def structural_problems(self, outcome: Mapping) -> List[str]:
        cities, ues, steps = (int(self.size[k]) for k in ("cities", "ues", "steps"))
        groups = [f"{op}/{sc}" for op in CITY_OPERATORS for sc in CITY_SCENARIOS]
        problems = []
        if not outcome["complete"]:
            problems.append("a campaign is incomplete")
        if outcome["n_ues"] != cities * len(groups) * ues:
            problems.append(f"n_ues {outcome['n_ues']} != {cities * len(groups) * ues}")
        for group in groups:
            got = outcome["samples"].get(group, 0)
            if got != cities * ues * steps:
                problems.append(f"{group}: {got} samples, expected every UE done ({cities * ues * steps})")
        return problems

    def ue_steps(self) -> int:
        cities, ues, steps = (int(self.size[k]) for k in ("cities", "ues", "steps"))
        return cities * len(CITY_OPERATORS) * len(CITY_SCENARIOS) * ues * steps

    def sizes(self) -> Dict[str, Dict[str, object]]:
        return {
            "campaigns": {"value": self.size["cities"], "unit": "campaign (own seed, own deployments)"},
            "groups": {"value": len(CITY_OPERATORS) * len(CITY_SCENARIOS), "unit": "operator x scenario per campaign"},
            "ues_per_group": {"value": self.size["ues"], "unit": "UE"},
            "steps_per_ue": {"value": self.size["steps"], "unit": "1-s step"},
            "cells_per_group": {"value": self.size["cells"], "unit": "cell (target)"},
            "cohort": {"value": self.size["cohort"], "unit": "UE per SoA step (at most)"},
        }


class Table4Pipeline(Workload):
    """Table 4 on one OpZ driving (long) sub-dataset, end to end.

    ``run_experiment`` synthesizes the traces, builds the dataset and
    trains and evaluates Prophet, LSTM and Prism5G into an empty run
    directory; a second ``run_experiment`` of the same config resumes
    (every stage skipped).  The other four Table-4 predictors (TCN,
    Lumos5G, GBDT, RF) are then fitted and evaluated on the dataset the
    pipeline wrote, with the same split, so all seven are scored on one
    dataset.  Epochs and tree ensembles are reduced so that ``repro.nn``
    and ``repro.trees`` each take about half of the training time.
    """

    name = "table4_pipeline"
    STAGES = ("synthesize", "build_dataset", "train", "evaluate")
    PIPELINE_PREDICTORS = ("Prophet", "LSTM", "Prism5G")

    def _config(self, n_traces: int, samples: int, epochs: int):
        from repro.pipeline import ExperimentConfig

        return ExperimentConfig(
            name="perfbench-table4",
            source="subdataset",
            operator="OpZ",
            mobility="driving",
            timescale="long",
            n_traces=n_traces,
            samples_per_trace=samples,
            predictors=self.PIPELINE_PREDICTORS,
            split="random",
            seed=self.seed,
            deep=_deep_config(epochs, self.seed),
        )

    def _others(self, epochs: int, gbdt: int, rf: int):
        from repro.core.predictors import GBDTPredictor, RFPredictor, create_predictor

        config = _deep_config(epochs, self.seed)
        return {
            "TCN": create_predictor("TCN", config),
            "Lumos5G": create_predictor("Lumos5G", config),
            "GBDT": GBDTPredictor(n_estimators=gbdt),
            "RF": RFPredictor(n_estimators=rf),
        }

    def _run(self, config, others, run_dir: Path) -> Dict:
        import time

        from repro.core.evaluation import evaluate_predictors
        from repro.data.datasets import load_dataset
        from repro.pipeline import run_experiment

        cold = run_experiment(config, out_dir=run_dir)
        start = time.perf_counter()
        resume = run_experiment(config, out_dir=run_dir)
        resume_s = time.perf_counter() - start
        rest = evaluate_predictors(load_dataset(run_dir / "dataset.npz"), others, seed=config.seed)
        rmse = {**cold.rmse, **rest.rmse}
        return {
            "cold_stages": {s.stage: s.status for s in cold.stages},
            "stage_s": {s.stage: s.duration_s for s in cold.stages},
            "resume_all_skipped": resume.all_skipped,
            "resume_matches": resume.rmse == cold.rmse,
            "resume_s": resume_s,
            "bytes_written": dir_bytes(run_dir),
            "predictors": sorted(rmse),
            "values": {f"rmse.{name}": float(value) for name, value in rmse.items()},
        }

    def build_inputs(self) -> None:
        size = self.size
        self.config = self._config(int(size["n_traces"]), int(size["samples_per_trace"]), int(size["epochs"]))

    def warm_up(self, workdir: Path) -> None:
        self._run(self._config(2, 30, 1), self._others(1, 1, 1), workdir / "run")

    def run_once(self, workdir: Path) -> Dict:
        size = self.size
        others = self._others(int(size["epochs"]), int(size["gbdt_estimators"]), int(size["rf_estimators"]))
        return self._run(self.config, others, workdir / "run")

    def structural_problems(self, outcome: Mapping) -> List[str]:
        from repro.core.predictors import TABLE4_LINEUP

        problems = []
        statuses = outcome["cold_stages"]
        for stage in self.STAGES:
            if statuses.get(stage) != "completed":
                problems.append(f"cold run: stage {stage} is {statuses.get(stage)!r}, not 'completed'")
        if not outcome["resume_all_skipped"]:
            problems.append("resume: not all stages skipped")
        if not outcome["resume_matches"]:
            problems.append("resume: RMSE differs from the cold run")
        missing = sorted(set(TABLE4_LINEUP) - set(outcome["predictors"]))
        if missing:
            problems.append(f"predictors missing: {missing}")
        return problems

    def ue_steps(self) -> int:
        # the UE-steps the cold run synthesizes (the resume synthesizes none)
        return int(self.size["n_traces"]) * int(self.size["samples_per_trace"])

    def sizes(self) -> Dict[str, Dict[str, object]]:
        return {
            "traces": {"value": self.size["n_traces"], "unit": "trace"},
            "samples_per_trace": {"value": self.size["samples_per_trace"], "unit": "1-s sample"},
            "deep_epochs": {"value": self.size["epochs"], "unit": "epoch"},
            "gbdt_estimators": {"value": self.size["gbdt_estimators"], "unit": "tree per horizon step"},
            "rf_estimators": {"value": self.size["rf_estimators"], "unit": "tree per horizon step"},
            "predictors": {"value": 7, "unit": "predictor (3 through the pipeline)"},
        }


WORKLOADS = {cls.name: cls for cls in (CityCampaign, Table4Pipeline)}


def make(name: str, seed: int, profile: str = "full") -> Workload:
    return WORKLOADS[name](seed, profile)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def load_envelopes(reference: Mapping, profile: str, workload: str) -> Dict[str, Tuple[float, float]]:
    table = reference["profiles"][profile][workload]
    return {key: (float(lo), float(hi)) for key, (lo, hi) in table.items()}
