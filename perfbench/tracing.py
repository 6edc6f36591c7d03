"""Spans around the package's public functions, installed from outside.

The package imports names directly (``from .nn import loss_and_grad``), so a
wrapper has to replace the function at every module that binds it or it
misses calls. :meth:`Tracer.install` finds those binding sites by identity
across every loaded ``fedunlearn`` module; methods are patched on their
classes. Nothing in the package changes.

Spans live in memory. Fine spans (one per wrapped call, tens of thousands per
stage) are folded into per-name totals as they close: calls, inclusive time
and self time (duration minus the time its child spans cover). Stage spans
are kept whole, each with the forget request (target client) it served, and
everything is written out once the run ends. The tracer's own bookkeeping between a child's start
and end is charged to no layer, so layer self times sum to slightly less
than the stage duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# module -> function name -> span name
FUNCTIONS = {
    "fedunlearn.cli": {"prepare_data": "data.prepare"},
    "fedunlearn.nn.engine": {"loss_and_grad": "engine.loss_and_grad",
                             "forward": "engine.forward"},
    "fedunlearn.nn.params": {"param_linear": "params.param_linear",
                             "save_params": "params.save_load",
                             "load_params": "params.save_load"},
    "fedunlearn.federation": {"local_train": "federation.local_train",
                              "aggregate": "federation.aggregate",
                              "run_fedavg": "federation.run_fedavg"},
    "fedunlearn.unlearning": {"calibrate_update": "unlearning.calibrate_update",
                              "fed_eraser": "unlearning.fed_eraser",
                              "fed_accum": "unlearning.fed_accum",
                              "fed_retrain": "unlearning.fed_retrain"},
    "fedunlearn.evaluation": {"evaluate": "evaluation.evaluate",
                              "train_attack": "evaluation.train_attack",
                              "attack_metrics": "evaluation.attack_metrics",
                              "build_membership_features":
                                  "evaluation.build_membership_features"},
}
# (module, class, method) -> span name
METHODS = {
    ("fedunlearn.nn.params", "ParamSet", "__init__"): "params.paramset_new",
    ("fedunlearn.retention", "RetentionStore", "store_round"): "retention.store_round",
    ("fedunlearn.retention", "RetentionStore", "load_round"): "retention.load_round",
    ("fedunlearn.retention", "RetentionStore", "load_client"): "retention.load_client",
}
# span-name prefix -> layer (module of the package that owns the function)
LAYERS = {"stage": "cli", "data": "data", "engine": "nn.engine", "params": "nn.params",
          "federation": "federation", "retention": "retention",
          "unlearning": "unlearning", "evaluation": "evaluation"}


def layer_of(span: str) -> str:
    return LAYERS[span.split(".", 1)[0]]


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.stage_self: dict[tuple[str, str], float] = defaultdict(float)  # (stage, layer)
        self.counters: Counter = Counter()
        self.stage_spans: list[dict] = []
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._stage = ""
        self._request = 0
        self._restore: list[tuple[object, str, object]] = []
        self._calibrated_rounds: set[tuple[int, int]] = set()

    # -- spans ---------------------------------------------------------------

    def stage(self, stage: str, request: int, fn, *args, **kwargs):
        """Run one benchmark-level stage call, for the forget request naming
        target client `request`, inside a root span."""
        self._stage, self._request = stage, request
        start = time.perf_counter()
        try:
            return self._call(f"stage.{stage}", fn, args, kwargs, None)
        finally:
            self.stage_spans.append({"stage": stage, "request": request, "start": start,
                                     "end": time.perf_counter()})

    def _call(self, name, fn, args, kwargs, after):
        stack = self._stack
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            own = duration - frame[2]
            totals = self.totals[name]
            totals[0] += 1
            totals[1] += duration
            totals[2] += own
            self.stage_self[(self._stage, layer_of(name))] += own
        if after is not None:
            after(result, args, kwargs)
        if stack:
            stack[-1][2] += time.perf_counter() - frame[1]
        return result

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fedunlearn" or n.startswith("fedunlearn.")]
        hooks = {"engine.loss_and_grad": self._after_loss_and_grad,
                 "federation.local_train": self._after_local_train,
                 "unlearning.calibrate_update": self._after_calibrate,
                 "retention.store_round": self._after_store_round,
                 "retention.load_client": self._after_load_client}
        for home, functions in FUNCTIONS.items():
            for attr, name in functions.items():
                original = getattr(sys.modules[home], attr)
                wrapper = self._wrap(name, original, hooks.get(name))
                sites = [m for m in modules if getattr(m, attr, None) is original]
                for module in sites:
                    self._patch(module, attr, wrapper)
                self.counters[f"sites.{name}"] += len(sites)
        for (home, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[home], cls_name)
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr), hooks.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, after):
        signature = inspect.signature(fn)
        hook = None if after is None else (
            lambda result, args, kwargs: after(result, _bound(signature, args, kwargs)))
        call = self._call

        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside every stage: the benchmark's own checks
                return fn(*args, **kwargs)
            return call(name, fn, args, kwargs, hook)

        return wrapper

    # -- counters, taken after the wrapped call returns ----------------------

    def _after_loss_and_grad(self, result, a) -> None:
        if self.inside("federation.local_train"):
            self.counters[f"sgd_steps.{self._stage}"] += 1
            self.counters["sample_grads"] += len(a["batch"])

    def _after_local_train(self, result, a) -> None:
        if self._stage == "eraser":
            self._calibrated_rounds.add((self._request, a["round_index"]))
            self.counters["calibration_steps"] = len(self._calibrated_rounds)

    def _after_calibrate(self, result, a) -> None:
        eps = a["epsilon"]
        if a["norm_mode"] == "global":
            norms = [np.sqrt(sum(float((t * t).sum()) for t in a["fresh"].tensors))]
        else:
            norms = [np.linalg.norm(t) for t in a["fresh"].tensors]
        self.counters["eps_fallbacks"] += sum(1 for n in norms if n <= eps)

    def _after_store_round(self, result, a) -> None:
        # blob layout documented in fedunlearn.retention: round_<t>/client_<k>.fesp
        round_dir = a["self"].root / f"round_{a['round_index']}"
        self.counters["bytes_written"] += sum(
            (round_dir / f"client_{u.client_id}.fesp").stat().st_size for u in a["updates"])

    def _after_load_client(self, result, a) -> None:
        path = a["self"].root / f"round_{a['round_index']}" / f"client_{a['client_id']}.fesp"
        self.counters["bytes_read"] += path.stat().st_size

    # -- results -------------------------------------------------------------

    def stage_shares(self) -> dict[str, dict[str, float]]:
        """Per stage kind: each layer's self time as a share of the stage's time."""
        durations: dict[str, float] = defaultdict(float)
        for span in self.stage_spans:
            durations[span["stage"]] += span["end"] - span["start"]
        shares: dict[str, dict[str, float]] = defaultdict(dict)
        for (stage, layer), own in sorted(self.stage_self.items()):
            shares[stage][layer] = own / durations[stage]
        return dict(shares)

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            "totals": {name: {"calls": c, "incl_s": incl, "self_s": own}
                       for name, (c, incl, own) in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
            "stage_shares": self.stage_shares(),
            "stage_spans": self.stage_spans,
            **extra,
        }
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _bound(signature: inspect.Signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments
