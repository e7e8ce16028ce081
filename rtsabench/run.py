#!/usr/bin/env python3
"""rtsa benchmark: the evaluate, learn and calibrate workloads, end to end and layer by layer.

Run from the root of a source checkout (the library is imported from ./src):

    python3 rtsabench/run.py --workload evaluate --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload's call on fresh seeded inputs, one call
at a time, checking each output, until ``--seconds`` have passed, with
tracing off, and reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of the time from process start
  through imports, scenario and weights load and input generation;
- ``wall_s``: median time of one call, to its result (SOC points, trained
  weights or a calibrated wind);
- ``episodes_per_s``: episodes simulated per second of call time;
- ``peak_rss_mb``: peak resident memory of this process.

The host this was written on runs the same code up to 1.9 times slower for
stretches of a second to minutes, as neighbours load it. So every time is
rescaled to a reference host speed: a fixed mix of small work (the canary)
is timed on each side of every call and set-up probe, and the time is
divided by the canary's slowdown against ``REFERENCE_CANARY_S``. The JSON line
carries the rescaled times; the readable lines show both.

``--trace 1`` runs a fixed number of calls (one per TRACE_REP_S seconds of
``--seconds``, so its counts repeat exactly), each once untraced and once
traced, and reports the per-layer metrics. Every output is checked (see
workloads.py); ``error_rate`` is failed checks over checks made. Readable
lines come first, with the highest percentile of the call time that has
ten calls beyond it and the call count; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The traced run also
writes its spans and counters to ``.rtsabench/`` in the checkout.

Load is one process, one thread; the set-up probes are run one after
another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SETUP_SAMPLES = 7  # fresh processes timed for setup_s, after one untimed warm-up
TRACE_REP_S = 1  # the traced run makes one call per this many seconds of --seconds
TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile
# The canary's time on an uncontended core of the host the bounds were set on
# (2-vCPU x86-64 VM, Python 3.11). Only the ratio to it is used.
REFERENCE_CANARY_S = 0.0042

OUT_DIR = Path(__file__).resolve().parent.parent / ".rtsabench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

MODES = ("nominal", "baseline", "weights")
STEP_LAYERS = (
    "sim.step", "sim.wind_at", "sim.episode_terminated", "sim.sample_wind_field",
    "policy.extract_features", "policy.compose_controller", "policy.reward",
    "geometry.path_target",
)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("evaluate", "learn", "calibrate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _median_setup(workload: str, seed: int) -> tuple:
    """Median set-up time of fresh processes: (rescaled, as measured).

    Each probe spawns a process that imports, loads and generates its first
    inputs, then prints the monotonic clock; a canary on each side of the
    probe rescales it to the reference host speed, as ``measure`` does. The
    vCPUs of a shared host are slowed independently, so while probing this
    process is pinned to one CPU, which the probes inherit, and the canary
    runs where the probe ran.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    measured, rescaled = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        for i in range(SETUP_SAMPLES + 1):
            before = canary_s()
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
            seconds = float(proc.stdout.split()[-1]) - start
            slowdown = _slowdown_since(before)
            if i:  # the first probe fills the file cache and writes bytecode
                measured.append(seconds)
                rescaled.append(seconds / slowdown)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(rescaled), statistics.median(measured)


def canary_s() -> float:
    """Time of a fixed mix of small work: how fast the host runs this process right now.

    The mix (an integer loop, scalar float math, three-element numpy updates
    and trajectory-sized allocations) resembles the library's inner loops,
    so its slowdown follows theirs more closely than any one part does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i
    x = 0.0
    for _ in range(10_000):
        x = math.sin(x) * 0.5 + math.sqrt(x * x + 1.0) * 0.1
    v = np.zeros(3)
    target = np.array([1.0, 2.0, 0.0])
    for _ in range(1_000):
        v = v + 0.05 * (target - v)
    for _ in range(200):
        np.empty((2401, 9))[:700].copy()
    return time.perf_counter() - start


def _slowdown_since(before: float) -> float:
    """Host slowdown against the reference over an interval, from canaries on both sides."""
    return (before + canary_s()) / (2 * REFERENCE_CANARY_S)


class Run:
    """Outcome of a run: call times, episodes and checks, folded into the report."""

    def __init__(self, wl, seed: int, reference: dict):
        self.wl = wl
        self.seed = seed
        self.reference = reference
        self.walls = []  # seconds per call, as measured
        self.norm_walls = []  # the same, rescaled to the reference host speed
        self.episodes = 0
        self.checks = []

    def reference_for(self, rep: int):
        if rep == 0 and self.seed == self.reference["seed"]:
            return self.reference[self.wl.name]
        return None

    def call(self, ctx, inp):
        """One timed call; a library error counts as a failed output, not a crash."""
        start = time.perf_counter()
        try:
            out = self.wl.call(ctx, inp)
        except (RuntimeError, ValueError) as exc:
            self.walls.append(time.perf_counter() - start)
            self.checks.append((f"call raised {type(exc).__name__}: {exc}", False))
            return None
        self.walls.append(time.perf_counter() - start)
        self.episodes += self.wl.episodes(inp, out)
        return out

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.checks)


def measure(wl, seed: int, seconds: float, reference: dict):
    """Set up in this process, then call and check until ``seconds`` have passed.

    A canary timed on each side of every call gives the host speed during
    that call; its time divided by the reference canary time rescales the
    call to the reference host speed.
    """
    ctx = wl.setup(seed)
    run = Run(wl, seed, reference)
    rep = 0
    start = time.perf_counter()
    while not run.walls or time.perf_counter() - start < seconds:
        inp = wl.inputs(seed, rep)
        before = canary_s()
        out = run.call(ctx, inp)
        run.norm_walls.append(run.walls[-1] / _slowdown_since(before))
        if out is not None:
            run.checks += wl.check(ctx, inp, out, run.reference_for(rep))
        rep += 1
    return ctx, run


def run_untraced(wl, seed: int, seconds: float, reference: dict):
    """End-to-end metrics, rescaled to the reference host speed, and the same as measured."""
    setup_s, measured_setup_s = _median_setup(wl.name, seed)
    ctx, run = measure(wl, seed, seconds, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rescaled = {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.norm_walls),
        "episodes_per_s": run.episodes / sum(run.norm_walls),
        "peak_rss_mb": peak_rss_mb,
    }
    measured = {
        "setup_s": measured_setup_s,
        "wall_s": statistics.median(run.walls),
        "episodes_per_s": run.episodes / sum(run.walls),
        "peak_rss_mb": peak_rss_mb,
    }
    return ctx, run, rescaled, measured


def run_traced(wl, seed: int, seconds: float, reference: dict):
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        ctx = wl.setup(seed)
    run = Run(wl, seed, reference)
    seconds_by_side = {False: 0.0, True: 0.0}
    for rep in range(max(1, int(seconds // TRACE_REP_S))):
        inp = wl.inputs(seed, rep)
        outs = {}
        # Alternate which goes first, so neither side always runs warm.
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    outs[traced] = run.call(ctx, inp)
            else:
                outs[traced] = run.call(ctx, inp)
            seconds_by_side[traced] += run.walls[-1]
        if outs[True] is not None:
            run.checks += wl.check(ctx, inp, outs[True], run.reference_for(rep))
        if outs[True] is not None and outs[False] is not None:
            run.checks.append(("tracing leaves the output unchanged",
                               wl.summary(outs[True]) == wl.summary(outs[False])))
    return ctx, run, tracer, layer_metrics(tracer, seconds_by_side[True], seconds_by_side[False])


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tr, traced_s: float, plain_s: float) -> dict:
    """Per-layer metrics, name -> (value, unit); counts are exact integers."""
    m = {}

    def calls_and_busy(name):
        m[name + ".calls"] = (tr.total_calls(name), "count")
        m[name + ".busy_s"] = (tr.total_busy(name), "s")

    tally = tr.tally
    steps = {mode: int(tally["rollout.steps." + mode]) for mode in MODES}
    calls_and_busy("fastpath.rollout")
    m["fastpath.rollout.steps"] = (sum(steps.values()), "count")
    for mode in MODES:
        m["fastpath.rollout.us_per_step." + mode] = (
            1e6 * _per(tally["rollout.busy_s." + mode], steps[mode]), "us")
    m["fastpath.rollout.traj_mb"] = (tally["rollout.traj_bytes"] / 1e6, "MB")
    m["fastpath.rollout.wall_share"] = (_per(tr.total_busy("fastpath.rollout"), traced_s), "ratio")

    m["evaluation.run_batch.busy_s"] = (tr.total_busy("evaluation.run_batch"), "s")
    m["evaluation.run_batch.self_s"] = (tr.self_time("evaluation.run_batch"), "s")
    m["evaluation.run_batch.episodes"] = (int(tally["run_batch.episodes"]), "count")
    m["evaluation.confusion.busy_s"] = (tr.total_busy("evaluation.confusion"), "s")
    m["evaluation.calibrate_wind.busy_s"] = (tr.total_busy("evaluation.calibrate_wind"), "s")
    m["evaluation.calibrate_wind.iterations"] = (
        int(tally["calibrate_wind.iterations"]), "count")

    m["scenario.load_scenario.busy_s"] = (tr.total_busy("scenario.load_scenario"), "s")
    m["scenario.with_wind.calls"] = (tr.total_calls("scenario.with_wind"), "count")

    m["learning.warm_start.busy_s"] = (tr.total_busy("learning.warm_start"), "s")
    m["learning.warm_start.self_s"] = (tr.self_time("learning.warm_start"), "s")
    m["learning.warm_start.transitions"] = (int(tally["warm_start.transitions"]), "count")
    calls_and_busy("learning.linear_q_update")
    train_steps = tr.calls_under("sim.step", "learning.train")
    m["learning.train.busy_s"] = (tr.total_busy("learning.train"), "s")
    m["learning.train.self_s"] = (tr.self_time("learning.train"), "s")
    m["learning.train.episodes"] = (int(tally["train.episodes"]), "count")
    m["learning.train.steps"] = (train_steps, "count")
    m["learning.train.us_per_step"] = (
        1e6 * _per(tr.total_busy("learning.train"), train_steps), "us")
    m["learning.epsilon_greedy.busy_s"] = (tr.total_busy("learning.epsilon_greedy"), "s")

    for name in STEP_LAYERS:
        calls_and_busy(name)
    m["trace.overhead_ratio"] = (_per(traced_s, plain_s), "ratio")
    return m


def _tail(walls):
    """(percentile, value) of the highest percentile with TAIL_BEYOND calls beyond it."""
    ordered = sorted(walls)
    if len(ordered) <= TAIL_BEYOND:
        return None
    k = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def main(argv=None) -> int:
    args = _args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"rtsabench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed)
        print(repr(time.monotonic()))
        return 0

    reference = workloads.load_reference()
    print(f"rtsabench: workload {wl.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        ctx, run, tracer, metrics = run_traced(wl, args.seed, args.seconds, reference)
    else:
        ctx, run, rescaled, measured = run_untraced(wl, args.seed, args.seconds, reference)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in rescaled.items()}
    prov = workloads.provenance(ctx, args.seed, len(os.sched_getaffinity(0)))
    print("provenance: " + json.dumps(prov, sort_keys=True))

    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:>14.6g} {unit}")
    else:
        print(f"  {'metric':16s} {'rescaled':>12s} {'as measured':>12s}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:16s} {value:>12.6g} {measured[name]:>12.6g} {unit}")
        print(f"  host slowdown against the reference: {sum(run.walls) / sum(run.norm_walls):.4g}x")
        for label, walls in (("wall_s rescaled", run.norm_walls),
                             ("wall_s as measured", run.walls)):
            tail = _tail(walls)
            tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail
                         else f"no percentile has {TAIL_BEYOND} calls beyond it")
            print(f"  {label} over {len(walls)} calls: median {statistics.median(walls):.6g} s,"
                  f" {tail_text}")
    print(f"  error_rate: {run.failed} of {len(run.checks)} checked outputs failed"
          f" ({_per(run.failed, len(run.checks)):.6g})")
    for name, ok in run.checks:
        if not ok:
            print(f"  FAILED: {name}")

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        payload = {"provenance": prov, "metrics": {k: v for k, (v, _) in metrics.items()}}
        payload.update(tracer.dump())
        path.write_text(json.dumps(payload) + "\n")
        print(f"  spans and counters written to {path.relative_to(OUT_DIR.parent)}")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.checks),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
