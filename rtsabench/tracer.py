"""Layer tracing from outside the library: wrap public functions where callers look them up.

A wrapper replaces a module attribute (or a class attribute), so every call
that resolves the name at call time goes through it: ``fastpath.rollout``
from ``evaluation``, ``evaluation.run_batch`` from ``sweep_baseline``,
``learning.step`` from ``train``, and so on. Nothing in the library changes.

Coarse calls (a batch, a calibration, a training run) record one span each:
name, start, end, parent span. Per-episode and per-step calls are only
aggregated into (name, parent name) counters of calls and busy seconds, so a
run never holds millions of spans. Everything stays in memory until the
caller writes it out once at the end.

A layer's self time is its busy time minus the busy time of its direct
traced children.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"

ROOT = ""

# (module, attribute, metric name, kind). The module is where the caller
# looks the name up, which is not always where the function is defined.
TARGETS = (
    ("rtsa.scenario", "load_scenario", "scenario.load_scenario", SPAN),
    ("rtsa.evaluation", "run_batch", "evaluation.run_batch", SPAN),
    ("rtsa.evaluation", "confusion", "evaluation.confusion", SPAN),
    ("rtsa.evaluation", "sweep_baseline", "evaluation.sweep_baseline", SPAN),
    ("rtsa.evaluation", "train_policy", "evaluation.train_policy", SPAN),
    ("rtsa.evaluation", "calibrate_wind", "evaluation.calibrate_wind", SPAN),
    ("rtsa.evaluation", "exit_rate", "evaluation.exit_rate", SPAN),
    ("rtsa.evaluation", "warm_start", "learning.warm_start", SPAN),
    ("rtsa.evaluation", "train", "learning.train", SPAN),
    ("rtsa.scenario.Scenario", "with_wind", "scenario.with_wind", COUNT),
    ("rtsa.fastpath", "rollout", "fastpath.rollout", COUNT),
    ("rtsa.evaluation", "sample_wind_field", "sim.sample_wind_field", COUNT),
    ("rtsa.learning", "sample_wind_field", "sim.sample_wind_field", COUNT),
    ("rtsa.learning", "linear_q_update", "learning.linear_q_update", COUNT),
    ("rtsa.learning", "epsilon_greedy", "learning.epsilon_greedy", COUNT),
    ("rtsa.learning", "step", "sim.step", COUNT),
    ("rtsa.learning", "wind_at", "sim.wind_at", COUNT),
    ("rtsa.sim", "wind_at", "sim.wind_at", COUNT),
    ("rtsa.learning", "episode_terminated", "sim.episode_terminated", COUNT),
    ("rtsa.learning", "extract_features", "policy.extract_features", COUNT),
    ("rtsa.learning", "compose_controller", "policy.compose_controller", COUNT),
    ("rtsa.learning", "reward", "policy.reward", COUNT),
    ("rtsa.sim", "path_target", "geometry.path_target", COUNT),
)

_MODE_NAMES = {0: "nominal", 1: "baseline", 2: "weights"}


def _resolve(dotted: str):
    """A module, or a class inside one (``rtsa.scenario.Scenario``)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Spans and counters for one traced run. ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans = []  # (span id, parent span id, name, start, end); root is 0
        self.calls = defaultdict(int)  # (name, parent name) -> calls
        self.busy = defaultdict(float)  # (name, parent name) -> seconds
        self.tally = defaultdict(float)  # observed quantities, e.g. rollout steps
        self._stack = [(ROOT, 0)]  # (name, span id, or None for a counted call)
        self._saved = []
        self._span_ids = itertools.count(1)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for owner_name, attr, name, kind in TARGETS:
            owner = _resolve(owner_name)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, kind))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def _wrap(self, fn, name, kind):
        stack = self._stack
        calls = self.calls
        busy = self.busy
        spans = self.spans
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        span_ids = self._span_ids

        def traced(*args, **kwargs):
            parent = stack[-1][0]
            span_id = next(span_ids) if kind == SPAN else None
            stack.append((name, span_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[name, parent] += 1
                busy[name, parent] += end - start
            if kind == SPAN:
                parent_span = next(sid for _, sid in reversed(stack) if sid is not None)
                spans.append((span_id, parent_span, name, start, end))
            if observe is not None:
                observe(self.tally, args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- totals -------------------------------------------------------------

    def total_calls(self, name: str) -> int:
        return sum(c for (n, _), c in self.calls.items() if n == name)

    def total_busy(self, name: str) -> float:
        return sum(b for (n, _), b in self.busy.items() if n == name)

    def self_time(self, name: str) -> float:
        children = sum(b for (_, p), b in self.busy.items() if p == name)
        return self.total_busy(name) - children

    def calls_under(self, name: str, parent: str) -> int:
        return self.calls.get((name, parent), 0)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in self.spans
            ],
            "counters": [
                {"name": name, "parent": parent, "calls": calls,
                 "busy_s": self.busy[name, parent]}
                for (name, parent), calls in sorted(self.calls.items())
            ],
            "tally": dict(self.tally),
        }


def _observe_rollout(tally, args, kwargs, result, seconds):
    traj, _, _ = result
    mode = _MODE_NAMES[kwargs["policy_mode"]]
    steps = len(traj) - 1
    tally["rollout.steps." + mode] += steps
    tally["rollout.busy_s." + mode] += seconds
    tally["rollout.traj_bytes"] += traj.nbytes


def _observe_run_batch(tally, args, kwargs, result, seconds):
    tally["run_batch.episodes"] += len(result)


def _observe_calibrate(tally, args, kwargs, result, seconds):
    tally["calibrate_wind.iterations"] += result.iterations


def _observe_warm_start(tally, args, kwargs, result, seconds):
    episodes = kwargs["episodes"] if "episodes" in kwargs else args[0]
    tally["warm_start.transitions"] += sum(len(r.trajectory) - 1 for r in episodes)


def _observe_train(tally, args, kwargs, result, seconds):
    _, log = result
    tally["train.episodes"] += len(log)


_OBSERVERS = {
    "fastpath.rollout": _observe_rollout,
    "evaluation.run_batch": _observe_run_batch,
    "evaluation.calibrate_wind": _observe_calibrate,
    "learning.warm_start": _observe_warm_start,
    "learning.train": _observe_train,
}
