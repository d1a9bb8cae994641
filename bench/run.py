"""nefslope benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload slope-sweep --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer metrics
and writes its spans to ``bench/out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit.  Times
are scaled to a reference machine speed (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import digest, library_drift  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import OP_LIMIT_S, ROOT, SRC, WORKLOADS, OpTimeout, cli_env  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``--seconds`` spent on the one-caller loop; the rest runs two callers.
ONE_CALLER_SHARE = 0.7
#: Operations replayed with tracing in a ``--trace 1`` run.
TRACE_ITEMS = {"cli-surface": 32, "scan-matrix": 24, "slope-sweep": 36, "matrix-ingest": 40}
NULL = NullTracer()


# ---------------------------------------------------------------------------
# Per-operation time limit.

def _on_alarm(signum, frame):
    raise OpTimeout(f"operation ran past {OP_LIMIT_S} s")


def _disarm() -> None:
    while True:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
            return
        except OpTimeout:
            continue


def call_with_limit(fn):
    """Run ``fn`` on the main thread, interrupting it after :data:`OP_LIMIT_S`.

    The timer repeats, so clean-up code that blocks after the first alarm
    (such as a thread pool waiting for a hung worker) is interrupted too.
    """
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S, OP_LIMIT_S)
    try:
        return fn()
    finally:
        _disarm()


# ---------------------------------------------------------------------------
# Outcomes of the timed operations.

class Outcomes:
    """Attempts, failures and the first output for each distinct input."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []
        self.first: dict[int, object] = {}
        self.passes: dict[int, int] = {}
        # Threads left running by an operation that never returned.
        self.abandoned = False

    def add(self, index: int, seconds: float, output=None, error: str | None = None) -> None:
        with self.lock:
            self.attempted += 1
            if error is None and seconds > OP_LIMIT_S:
                error = f"overran {OP_LIMIT_S} s"
            if error is None and index in self.first and output != self.first[index]:
                error = "output differs from an earlier run on the same input"
            if error is not None:
                self.failures.append((index, error))
                return
            self.first.setdefault(index, output)
            self.passes[index] = self.passes.get(index, 0) + 1

    def check(self, workload, items, inject: bool) -> None:
        """Check each distinct output with the oracles; a wrong one fails every run of it."""
        for n, (index, output) in enumerate(sorted(self.first.items())):
            if inject and n == 0:
                output = workload.tamper(output)
            problem = workload.check(items[index], output)
            if problem is not None:
                self.failures.extend([(index, problem)] * self.passes[index])


def one_op(workload, items, index, tracer, jobs, outcomes) -> tuple[float, float]:
    """One operation on the main thread, under the time limit; returns its interval."""
    item = items[index % len(items)]
    start = time.perf_counter()
    output, error = None, None
    try:
        output = call_with_limit(lambda: workload.run(item, tracer, jobs))
    except OpTimeout as exc:
        error = str(exc)
    except Exception:
        error = traceback.format_exc(limit=3)
    end = time.perf_counter()
    outcomes.add(index % len(items), end - start, output, error)
    return start, end


def one_caller(workload, items, seconds, jobs, outcomes, speed) -> tuple[list[float], list[float]]:
    """Closed loop with one caller for ``seconds``; returns the scaled and the measured latencies."""
    start = time.perf_counter()
    intervals = []
    while time.perf_counter() - start < seconds:
        speed.sample_if_due()
        intervals.append(one_op(workload, items, len(intervals), NULL, jobs, outcomes))
    speed.sample()
    return [speed.scaled(s, e) for s, e in intervals], [e - s for s, e in intervals]


def two_callers(workload, items, seconds, outcomes, speed) -> tuple[int, float]:
    """Two callers in lockstep for ``seconds``: each step runs the next two
    operations in two threads and waits for both.

    Returns the operations run and the scaled time of the steps.
    """
    begin = time.perf_counter()
    steps = []
    done = 0
    while time.perf_counter() - begin < seconds and not outcomes.abandoned:
        speed.sample_if_due()
        results: list = [None, None]

        def call(k):
            t0 = time.perf_counter()
            try:
                output, error = workload.run(items[(done + k) % len(items)], NULL, 1), None
            except Exception as exc:
                output, error = None, repr(exc)
            results[k] = (time.perf_counter() - t0, output, error)

        threads = [threading.Thread(target=call, args=(k,), daemon=True) for k in (0, 1)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=OP_LIMIT_S)
        steps.append((start, time.perf_counter()))
        for k, t in enumerate(threads):
            if t.is_alive():
                outcomes.add((done + k) % len(items), OP_LIMIT_S, error=f"overran {OP_LIMIT_S} s")
                outcomes.abandoned = True
            else:
                outcomes.add((done + k) % len(items), *results[k])
        done += 2
    speed.sample()
    return done, sum(speed.scaled(s, e) for s, e in steps)


# ---------------------------------------------------------------------------
# Set-up.

def set_up_once(workload, seed, tracer):
    """Fresh-process import, input generation (checked against the package's
    generators) and one warm-up operation."""
    subprocess.run([sys.executable, "-c", "import nefslope.cli"], env=cli_env(), check=True, timeout=60)
    pools = [stratum.draw(seed, i) for i, stratum in enumerate(workload.strata)]
    drift = library_drift(workload.strata, seed, pools, tracer)
    items = workload.items(pools)
    call_with_limit(lambda: workload.run(items[0], NULL, 1))
    return pools, items, drift


def set_up(workload, seed, tracer, speed):
    import nefslope  # noqa: F401  (the in-process import is paid once, before the timed set-ups)

    times = []
    for _ in range(SETUPS):
        speed.sample()
        start = time.perf_counter()
        pools, items, drift = set_up_once(workload, seed, tracer)
        end = time.perf_counter()
        speed.sample()
        times.append(speed.scaled(start, end))
    return statistics.median(times), pools, items, drift


# ---------------------------------------------------------------------------
# Runs.

def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def untraced_run(workload, items, seconds, inject, speed):
    outcomes = Outcomes()
    latencies, raw = one_caller(workload, items, seconds * ONE_CALLER_SHARE, 1, outcomes, speed)
    rest = seconds * (1 - ONE_CALLER_SHARE)
    if workload.program_jobs:
        busy, _ = one_caller(workload, items, rest, 2, outcomes, speed)
        ops2, elapsed2 = len(busy), sum(busy)
    else:
        ops2, elapsed2 = two_callers(workload, items, rest, outcomes, speed)
    rss = peak_rss_mb(workload)
    outcomes.check(workload, items, inject)
    # Both loops start at the head of the cycle, so the two-caller operations
    # were also timed with one caller: their one-caller time over the
    # two-caller time is the speed-up on the same inputs.
    mean = statistics.mean(latencies)
    one_caller_time = sum(latencies[i] if i < len(latencies) else mean for i in range(ops2))
    speedup = one_caller_time / elapsed2
    per_item = workload.entries_per_item
    # Operations that hang until the time limit can leave a single sample.
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    metrics = {
        "latency_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms_p90": (p90 * 1e3, "ms"),
        "ops_per_s": (per_item / mean, "ops/s"),
        "jobs2_ops_per_s": (per_item / mean * speedup, "ops/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "latency samples": len(latencies),
        "two-caller ops": ops2,
        "two-caller speed-up": round(speedup, 4),
        "unscaled latency_ms_p50": round(statistics.median(raw) * 1e3, 3),
        "speed factor": f"{REFERENCE_S / max(speed.samples):.3f}..{REFERENCE_S / min(speed.samples):.3f}",
    }
    return outcomes, metrics, notes


def traced_run(workload, items, inject, tracer, seed, speed):
    """Per-layer metrics: the workload's own operations with and without spans, then the stage replays."""
    import layers

    chosen = items[: TRACE_ITEMS[workload.name]]
    outcomes = Outcomes()
    untraced = traced = 0.0
    for index in range(len(chosen)):
        speed.sample_if_due()
        start, end = one_op(workload, chosen, index, NULL, 1, outcomes)
        untraced += end - start
        start, end = one_op(workload, chosen, index, tracer, 1, outcomes)
        traced += end - start
    profiles = workload.replay_profiles(chosen)
    for _, profile in profiles:
        speed.sample_if_due()
        call_with_limit(lambda: layers.replay_slope(tracer, profile))
    for model in workload.replay_matrices(chosen):
        speed.sample_if_due()
        call_with_limit(lambda: layers.replay_matrix(tracer, model))
    speed.sample()
    verdicts = call_with_limit(lambda: layers.replay_scan(tracer, profiles))
    speed.sample()
    layers.replay_cli(tracer, workload, chosen, speed)
    speed.sample()
    outcomes.check(workload, chosen, inject)
    summary = tracer.summary(speed.factor)
    metrics = layers.per_layer_metrics(summary, verdicts, (traced - untraced) / untraced * 100)
    out = ROOT / "bench" / "out" / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(out, {"workload": workload.name, "seed": seed, "untraced_s": untraced, "traced_s": traced,
                       "summary": summary, "metrics": metrics})
    notes = {"traced ops": len(chosen), "untraced total s": round(untraced, 4), "traced total s": round(traced, 4),
             "spans": len(tracer.spans), "trace file": str(out.relative_to(ROOT))}
    return outcomes, {k: (v["value"], v["unit"]) for k, v in metrics.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-verdict", action="store_true",
                        help="corrupt the verdict of the first checked output; the run must then report a failure")
    args = parser.parse_args(argv)
    if not (SRC / "nefslope" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nefslope'}; run from a nefslope checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NULL
    speed = Speed()
    setup_s, pools, items, drift = set_up(workload, args.seed, tracer, speed)
    instances = sum(len(p) for p in pools)
    print(f"workload {workload.name}  seed {args.seed}  inputs {digest(pools)} ({instances} instances)")
    if drift:
        print(f"note: nefslope.generators disagrees with the benchmark's own inputs on {drift} instance(s)")
    if args.trace:
        outcomes, metrics, notes = traced_run(workload, items, args.inject_wrong_verdict, tracer, args.seed, speed)
    else:
        outcomes, metrics, notes = untraced_run(workload, items, args.seconds, args.inject_wrong_verdict, speed)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    failed = len(outcomes.failures)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    print(f"  {'fail_ratio':34s} {failed / outcomes.attempted:14.4f} failed/attempted ({failed}/{outcomes.attempted})")
    print("  " + ", ".join(f"{k}: {v}" for k, v in notes.items()))
    for index, problem in outcomes.failures[:5]:
        print(f"  failure on input {index}: {problem.strip().splitlines()[-1]}")
    result = {
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    if outcomes.abandoned:
        # An operation never returned; its thread cannot be joined, so end
        # the process without waiting for it.
        sys.stderr.flush()
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
