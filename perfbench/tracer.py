"""In-memory span tracer that wraps the public entry points of each layer.

The benchmark does not instrument the program: it patches the names the
program's callers look up (class attributes, module-level bindings and
the active compute backend's primitive slots) with thin wrappers that
record one span per call.  Spans live in flat ``array`` columns (name id,
parent id, start, end, nested-flag), so a traced campaign step costs a
few list appends per call and no allocation per span object.  Self time
is a span's duration minus the durations of its direct child spans.

Usage::

    tracer = SpanTracer()
    probes = install(tracer, PROBES)
    try:
        tracer.call("rep", workload)
    finally:
        uninstall(probes)
    summary = tracer.summary()
    tracer.write(path)
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: (target, span name).  Targets are ``module:Attr`` or ``module:Class.method``
#: for code, and ``backend:<primitive>`` for a slot of the active compute
#: backend.  Functions are rebound in every ``repro`` module that imported
#: them by name, because that module-level binding is what the caller
#: looks up (``repro.ran.simulator.phy_throughput_mbps``, not only
#: ``repro.ran.phy.phy_throughput_mbps``).
RAN_PROBES: Tuple[Tuple[str, str], ...] = (
    ("repro.ran.multi_ue:MultiUESimulator.step_all", "ran.step_all"),
    ("repro.ran.cells:Deployment.cells_near", "ran.cells_near"),
    ("repro.ran.propagation:FastFadingProcess.sample", "ran.fading"),
    ("repro.ran.link:LinkAdapter.step", "ran.link"),
    ("repro.ran.scheduler:Scheduler.rb_fraction", "ran.scheduler"),
    ("repro.ran.ca:CAManager.step", "ran.ca"),
    ("repro.ran.phy:phy_throughput_mbps", "ran.phy"),
    ("backend:radio_step_multi", "backends.radio_step_multi"),
    ("backend:radio_step", "backends.radio_step"),
    ("repro.ran.campaign:CAStatisticsAccumulator.update_record", "ran.accumulate"),
    ("repro.ran.cells:build_city_deployment", "ran.deployment"),
    ("repro.ran.simulator:TraceSimulator.run", "ran.trace_run"),
    # one call per UE-step on both the cohort and the single-lane path;
    # only its call count is reported (as ran.ue_steps)
    ("repro.ran.simulator:TraceSimulator._finish_step", "ran.finish_step"),
)

#: the nn entries of ``repro.backends.PRIMITIVES`` (radio ones are above).
NN_PRIMITIVES: Tuple[str, ...] = (
    "affine_forward",
    "affine_backward",
    "lstm_cell_forward",
    "lstm_cell_backward_h",
    "lstm_cell_backward_c",
    "gru_cell_forward",
    "gru_cell_backward",
    "lstm_seq_forward",
    "lstm_seq_backward",
    "gru_seq_forward",
    "gru_seq_backward",
    "lstm_decoder_forward",
    "lstm_decoder_backward",
)

NN_PROBES: Tuple[Tuple[str, str], ...] = tuple(
    (f"backend:{name}", f"backends.{name}") for name in NN_PRIMITIVES
) + (
    ("repro.nn.tensor:Tensor.backward", "nn.backward"),
    ("repro.nn.optim:Adam.step", "nn.optim.step"),
    ("repro.nn.training:Trainer.fit", "nn.trainer.fit"),
)

#: Table 4 line-up name -> predictor class, for ``core.<P>.fit_s`` spans.
PREDICTOR_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("Prophet", "ProphetPredictor"),
    ("LSTM", "LSTMPredictor"),
    ("TCN", "TCNPredictor"),
    ("Lumos5G", "Lumos5GPredictor"),
    ("GBDT", "GBDTPredictor"),
    ("RF", "RFPredictor"),
    ("Prism5G", "Prism5GPredictor"),
)

CORE_PROBES: Tuple[Tuple[str, str], ...] = tuple(
    probe
    for name, cls in PREDICTOR_CLASSES
    for probe in (
        (f"repro.core.predictors:{cls}.fit", f"core.{name}.fit"),
        (f"repro.core.predictors:{cls}.predict", f"core.{name}.predict"),
    )
) + (
    ("repro.trees.tree:DecisionTreeRegressor.fit", "trees.tree_fit"),
    ("repro.trees.tree:DecisionTreeRegressor.predict", "trees.tree_predict"),
    ("repro.forecast.prophet:StructuralProphet.fit", "forecast.prophet.fit"),
)

DATA_PROBES: Tuple[Tuple[str, str], ...] = (
    ("repro.data.windowing:window_traces", "data.window"),
    ("repro.data.cache:TraceCache.put", "data.cache.put"),
    ("repro.data.cache:TraceCache.get", "data.cache.get"),
)

PROBES: Tuple[Tuple[str, str], ...] = RAN_PROBES + NN_PROBES + CORE_PROBES + DATA_PROBES


class SpanTracer:
    """Flat, append-only span store with parent links."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._active: List[int] = []  # per name id: how many spans are open
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper recording one span named ``name`` per call of ``fn``."""
        nid = self.name_id(name)
        names, parents, nested, starts, ends = self.name, self.parent, self.nested, self.start, self.end
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(1 if active[nid] else 0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span named ``name`` (a traced pass's root)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, name: str) -> List[float]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [self.end[i] - self.start[i] for i in range(len(self.start)) if self.name[i] == nid]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: ``calls``, busy seconds ``s`` and ``self_s``.

        Busy time counts only the outermost span of a name, so a
        re-entrant call is not counted twice.  Self time subtracts the
        time covered by direct children.
        """
        n = len(self.start)
        child_time = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child_time[i]
            if not self.nested[i]:
                row["s"] += dur[i]
        return out

    def write(self, path: Path) -> Path:
        """Write every span once, as compressed columns plus the name table."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez_compressed(
                handle,
                names=np.array(self.names),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )
        return path


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    own: bool  #: the attribute was in the owner's own namespace (not inherited)


def _resolve(target: str) -> Tuple[object, str]:
    """``module:Attr`` / ``module:Class.attr`` -> (owner object, attribute)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: SpanTracer, probes: Sequence[Tuple[str, str]]) -> List[_Patch]:
    """Patch every probe target with a tracing wrapper; returns the undo list."""
    from repro import backends

    patches: List[_Patch] = []
    for target, name in probes:
        if target.startswith("backend:"):
            owner, attr = backends.active(), target.split(":", 1)[1]
            original = getattr(owner, attr)
            owners = [owner]
        else:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            owners = [owner]
            if not isinstance(owner, type):
                # a function: rebind it wherever a repro module imported it
                owners += [
                    module
                    for mod_name, module in sorted(sys.modules.items())
                    if mod_name.startswith("repro")
                    and module is not owner
                    and getattr(module, attr, None) is original
                ]
        wrapped = tracer.wrap(original, name)
        for each in owners:
            own = not isinstance(each, type) or attr in each.__dict__
            patches.append(_Patch(each, attr, original, own))
            setattr(each, attr, wrapped)
    return patches


def uninstall(patches: List[_Patch]) -> None:
    """Restore every patched binding (reverse order)."""
    for patch in reversed(patches):
        if patch.own:
            setattr(patch.owner, patch.attr, patch.original)
        else:
            delattr(patch.owner, patch.attr)
    patches.clear()
