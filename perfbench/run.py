"""qnip benchmark: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 10 --trace 0

Workloads: train, extract, vgg16, search (see perfbench/workloads.py).
Run it from the repository root; it imports qnip from ./src.

--trace 0  sets the workload up several times (setup_s is the median),
           warms each phase's unit up once, then spends --seconds on the
           phases' units, each bracketed by a fixed reference unit (see
           Reference). It reports setup_s, round_rel (one unit of every
           phase, in multiples of the reference time; the sum of the
           phases' median ratios) and the process's peak RSS. Each
           phase's raw median rate is printed above the result line.
--trace 1  replays a fixed number of units per phase, once untraced and
           once with spans recorded around qnip's public functions, and
           reports every phase's untraced rate (0 for other workloads'
           phases), per-function calls and self time, computed forward
           costs and the tracing overhead (traced minus untraced wall time
           for the same work). Outputs of both passes must be
           bit-identical.

Both modes run the workload's output checks. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A record of the run, with the
environment and every sample, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = (3, 50)   # at least 3 set-ups, more while they total under SETUP_BUDGET_S
SETUP_BUDGET_S = 2.0
MIN_UNITS = 3
REF_SHARE = 0.5      # reference time after each unit, as a share of the unit's time
REF_WARMUP_S = 0.2


def _import_qnip():
    src = ROOT / "src"
    if not (src / "qnip" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qnip sources under {src}; run from a qnip checkout")
    sys.path.insert(0, str(src))
    import qnip
    if Path(qnip.__file__).resolve().parent != (src / "qnip").resolve():
        sys.exit(f"perfbench: imported qnip from {qnip.__file__}, not from {src}")


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_text, "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def _quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    """Runs units, counting every unit and check as an attempted operation."""

    def __init__(self, workload):
        from workloads import digest
        self.wl = workload
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.counts = {}

    def unit(self, metric, state, i):
        """One unit: (seconds, outcome, digest), or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = metric.run(state, i)
        except Exception:  # a failing unit is a failed operation, not a crash
            self.failed += 1
            print(f"{metric.name} unit {i} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        return time.perf_counter() - t0, out, self.digest(out.value)

    def setup(self, seed, workdir):
        times, state = [], None
        low, high = SETUP_REPEATS
        while len(times) < low or (len(times) < high and sum(times) < SETUP_BUDGET_S):
            state = None  # release the previous inputs before building new ones
            t0 = time.perf_counter()
            state = self.wl.setup(seed, workdir)
            times.append(time.perf_counter() - t0)
        return state, times

    def record_check(self, name, ok, detail):
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok), detail))

    def output_checks(self, state, last, digests):
        try:
            checks, counts = self.wl.check(state, last, digests)
        except Exception:
            traceback.print_exc()
            self.record_check(f"{self.wl.name}.checks_ran", False, "check raised")
            return
        for c in checks:
            self.record_check(*c)
        self.counts.update(counts)

    def determinism(self, metric_name, pairs):
        """Units that saw the same inputs must give the same outputs."""
        seen, bad = {}, set()
        for key, dig in pairs:
            if seen.setdefault(key, dig) != dig:
                bad.add(key)
        self.record_check(f"{self.wl.name}.{metric_name}.repeatable", not bad,
                          f"{len(pairs)} units over {len(seen)} inputs, differing: "
                          f"{sorted(bad)}")
        return seen


class Reference:
    """A fixed block of work, timed between workload units.

    This machine's speed drifts by a third or more over minutes while the
    code stays the same, so a raw unit time says as much about the moment
    as about qnip. After each workload unit, reference blocks run for
    REF_SHARE of the unit's time, so they share the unit's moment and see
    the same preemption and cache pressure; the unit's time is divided by
    the mean block time around it. Each workload supplies its block: a
    couple of milliseconds of plain NumPy and Python doing the same kind
    of work as its phases (see the workloads' ``reference``), because a
    busy machine slows interpreter loops, small arrays, wide GEMMs and
    scattered reads by different amounts. The block never calls qnip, so a
    change to qnip moves the ratio and a change in machine speed cancels.
    """

    def __init__(self, block):
        self.block = block
        self.last = self.run_for(0.0)

    def run_for(self, seconds: float) -> float:
        """Run blocks for at least `seconds` (at least one); mean block time."""
        blocks, t0 = 0, time.perf_counter()
        while True:
            self.block()
            blocks += 1
            spent = time.perf_counter() - t0
            if spent >= seconds:
                return spent / blocks

    def ratio(self, unit_seconds: float) -> float:
        """The unit's time over the mean block time just before and after it."""
        before, self.last = self.last, self.run_for(REF_SHARE * unit_seconds)
        return unit_seconds / ((before + self.last) / 2)


def run_untraced(runner, args, workdir):
    """Set up, warm every phase up once, then interleave the phases' units.

    The next unit always goes to the phase furthest behind its share of
    the time spent so far, so every phase samples the whole run rather
    than one stretch of it. Each unit's time is divided by the reference
    time around it (see Reference); a phase reports the median of those
    ratios, and round_rel sums them: the time of one unit of every phase,
    in multiples of the reference. Raw per-phase rates are reported too.
    """
    state, setup_times = runner.setup(args.seed, workdir)
    phases = runner.wl.metrics()
    pairs = {m.name: [] for m in phases}
    samples = {m.name: [] for m in phases}
    ratios = {m.name: [] for m in phases}
    spent = {m.name: 0.0 for m in phases}
    part_samples, last, failed = {}, {}, set()

    def one(metric, i, timed):
        last[metric.name] = None  # free the previous outputs before the next unit
        result = runner.unit(metric, state, i)
        if result is None:
            failed.add(metric.name)
            return
        seconds, out, dig = result
        pairs[metric.name].append((out.key, dig))
        last[metric.name] = out.value
        if timed:
            ratios[metric.name].append(ref.ratio(seconds))
            spent[metric.name] += seconds
            samples[metric.name].append(out.work / seconds if metric.rate else seconds)
            for step, t in (out.parts or {}).items():
                part_samples.setdefault(step, []).append(t)

    for metric in phases:
        one(metric, 0, timed=False)
    ref = Reference(runner.wl.reference())
    ref.run_for(REF_WARMUP_S)
    ref.last = ref.run_for(0.0)
    deadline = time.perf_counter() + args.seconds
    while True:
        live = [m for m in phases if m.name not in failed]
        short = [m for m in live if len(samples[m.name]) < MIN_UNITS]
        if not live or (not short and time.perf_counter() >= deadline):
            break
        metric = min(short or live, key=lambda m: spent[m.name] / m.share)
        one(metric, len(samples[metric.name]), timed=True)

    digests, phase_values = {}, {}
    for metric in phases:
        digests[metric.name] = runner.determinism(metric.name, pairs[metric.name])
        values = samples[metric.name]
        phase_values[metric.name] = (statistics.median(values) if values else float("nan"),
                                     metric.unit, values)
        values = ratios[metric.name]
        phase_values[f"{metric.name}.rel"] = (
            statistics.median(values) if values else float("nan"), "x", values)
    runner.output_checks(state, last, digests)
    out = {"setup_s": (statistics.median(setup_times), "s", setup_times),
           "round_rel": (sum(phase_values[f"{m.name}.rel"][0] for m in phases), "x", []),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", [])}
    parts = {step: statistics.median(ts) for step, ts in part_samples.items()}
    return out, phase_values, parts, None


def _fixed_pass(runner, args, workdir, tracer=None):
    """Setup plus each metric's trace_units units; returns wall time and outputs."""
    t0 = time.perf_counter()
    state = runner.wl.setup(args.seed, workdir)
    inputs = runner.digest(state)
    outputs, last, work, seconds = {}, {}, {}, {}
    for metric in runner.wl.metrics():
        if tracer is not None:
            tracer.phase = metric.name
        pairs = []
        for i in range(metric.trace_units):
            result = runner.unit(metric, state, i)
            if result is None:
                break
            pairs.append((result[1].key, result[2]))
            last[metric.name] = result[1].value
            work[metric.name] = work.get(metric.name, 0) + result[1].work
            seconds[metric.name] = seconds.get(metric.name, 0.0) + result[0]
        outputs[metric.name] = pairs
    return time.perf_counter() - t0, state, inputs, outputs, last, work, seconds


def run_traced(runner, args, workdir):
    from tracing import SPAN_NAMES, Tracer

    warm_state = runner.wl.setup(args.seed, workdir)
    for metric in runner.wl.metrics():
        runner.unit(metric, warm_state, 0)
    warm_state = None
    wall_u, state, inputs_u, outputs_u, last, work_u, seconds_u = _fixed_pass(
        runner, args, workdir)
    runner.output_checks(state, last, {name: dict(pairs) for name, pairs in outputs_u.items()})
    state = last = None  # the traced pass builds its own inputs
    tracer = Tracer()
    tracer.install()
    try:
        wall_t, _, inputs_t, outputs_t, _, work, _ = _fixed_pass(runner, args, workdir, tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    runner.record_check(f"{runner.wl.name}.trace_inputs_identical", inputs_u == inputs_t,
                        "setup outputs with and without tracing")
    for name, pairs in outputs_u.items():
        runner.record_check(f"{runner.wl.name}.{name}.trace_outputs_identical",
                            pairs == outputs_t.get(name),
                            f"{len(pairs)} units with and without tracing")

    summary = tracer.summary()
    metrics = {}
    # Each phase's own rate (or seconds per unit) from the untraced pass;
    # 0 for the phases of other workloads.
    for metric in all_phases():
        value = 0
        if seconds_u.get(metric.name):
            value = (work_u[metric.name] / seconds_u[metric.name] if metric.rate
                     else seconds_u[metric.name] / metric.trace_units)
        metrics[metric.name] = (value, metric.unit, [])
    for name in SPAN_NAMES:
        calls, self_s = summary[name]
        metrics[f"{name}.calls"] = (calls, "count", [])
        metrics[f"{name}.self_s"] = (self_s, "s", [])
    forwards = summary["engine.forward"][0]
    metrics["engine.forward.macs"] = (tracer.forward_macs / forwards if forwards else 0,
                                      "MAC", [])
    metrics["engine.forward.bytes"] = (tracer.forward_bytes / forwards if forwards else 0,
                                       "B", [])
    for label, phase in (("nip", "nip_ips"), ("rnip5", "rnip5_ips"), ("rnip14", "rnip14_ips")):
        images = work.get(phase, 0)
        metrics[f"engine.forward.calls_per_image.{label}"] = (
            tracer.count("engine.forward", phase) / images if images else 0, "calls/image", [])
    metrics["trace.spans"] = (len(tracer.spans), "count", [])
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s", [])
    return metrics, {}, {}, tracer


def all_phases():
    """Every workload's phases, in a fixed order."""
    from workloads import WORKLOADS
    return [metric for cls in WORKLOADS.values() for metric in cls().metrics()]


def report(runner, args, env, metrics, phases, parts, tracer):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for title, values in (("metrics", metrics), ("phases (not in the result line)", phases)):
        if values:
            print(f"{title}:")
        for name, (value, unit, samples) in values.items():
            line = f"  {name:<44} {value:>14.6g} {unit}"
            if len(samples) > 1:
                q1, q3 = _quartiles(samples)
                line += f"   (median of {len(samples)}; q1 {q1:.6g}, q3 {q3:.6g})"
            if name.endswith((".macs", ".bytes")):
                line += "   (computed from shapes, per call)"
            print(line)
    rows = runner.wl.baseline({k: v[0] for k, v in {**metrics, **phases}.items()},
                              parts, tracer)
    if rows:
        print("baseline cross-check (ROADMAP re-anchor table | this run):")
        for label, base, measured in rows:
            print(f"  {label:<68} {base:>10} | {measured}")
    print(f"checks: {sum(ok for _, ok, _ in runner.checks)} passed, "
          f"{sum(not ok for _, ok, _ in runner.checks)} failed")
    for name, ok, detail in runner.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for name, value in runner.counts.items():
        print(f"count {name}: {value}")
    record = {"env": env, "metrics": {k: {"value": v, "unit": u, "samples": s}
                                      for k, (v, u, s) in metrics.items()},
              "phases": {k: {"value": v, "unit": u, "samples": s}
                         for k, (v, u, s) in phases.items()},
              "parts_s": parts, "baseline": rows, "counts": runner.counts,
              "checks": runner.checks, "attempted": runner.attempted,
              "failed": runner.failed}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    result = {"correct": runner.failed == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "extract", "vgg16", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread unless the caller sets one: a second thread spinning
    # against other processes on a small machine makes runs unsteady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_qnip()
    from workloads import WORKLOADS  # perfbench/ is sys.path[0] when run as a script

    env = environment(args)
    runner = Runner(WORKLOADS[args.workload]())
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, phases, parts, tracer = run_traced(runner, args, workdir)
        else:
            metrics, phases, parts, tracer = run_untraced(runner, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(runner, args, env, metrics, phases, parts, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
