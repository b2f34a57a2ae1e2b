"""Benchmark for ptrs: three seeded, closed-loop workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload prove-portfolio --seed 1 --seconds 18 --trace 0

Workloads (see workloads.py): prove-portfolio, simulate-exact, drift-rank.
One client runs one op at a time in this process, through the public entry
points ptrs.cli.main (stdout captured) and ptrs.simulator.drift_harness.

The timed phase runs whole cycles of new ops, as many as fill about
--seconds at the reference speed (workloads.CYCLE_SECONDS), then replays
them in order; each op's latency is the better of its two runs (see
best_of_two).
Every timing is scaled to a reference host speed, measured by a fixed
pure-Python task timed between ops (reference.py).
--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms,
op_tail_ms and peak_rss_mib. --trace 1 runs the same untraced phase, then
replays its ops once more with every layer wrapped (tracing.py) and prints
the per-layer metrics; the spans go to
.bench_out/trace-<workload>-seed<n>.tsv.gz.

Every op's output is checked (oracles.py); a failed op counts in `failed`.
Lines starting with '#' are notes; the last stdout line is the JSON result.
Exits 2 without a result when the checkout has no src/ptrs or problems/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shlex
import statistics
import subprocess
import sys
from collections import defaultdict
from itertools import islice
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 10  # fresh-process set-up probes per run; the median is reported
SETUP_REFERENCE_S = 0.08  # reference task time after each set-up probe
TAIL_BEYOND = 10  # op_tail_ms is the latency with exactly this many slower ops
TRACE_CAP = 1.5  # the traced replay stops after this many times --seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, meter) -> float:
    """Median scaled set-up time over fresh interpreters, after one warm-up probe."""
    probes = []
    for _ in range(SETUP_REPEATS + 1):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append((float(done.stdout.strip().splitlines()[-1]), (start + perf_counter()) / 2))
        meter.run_for(SETUP_REFERENCE_S)
    return statistics.median(seconds * meter.scale(at) for seconds, at in probes[1:])


class Runner:
    """Executes ops and extracts what their checks need."""

    def __init__(self, fixed: dict):
        import ptrs.cli
        import ptrs.simulator

        self.cli = ptrs.cli
        self.simulator = ptrs.simulator
        self.fixed = fixed

    def invoke(self, op):
        """The op itself; module attributes are looked up per call, so a
        traced pass goes through the wrappers."""
        if op.kind == "drift":
            system, cert = self.fixed[op.cert]
            return self.simulator.drift_harness(
                system, cert, trials=op.trials, max_depth=op.max_depth,
                rng=random.Random(op.rng_seed), epsilon=2 * cert.epsilon if op.forged else None,
            )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(op.argv))
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def material(op, result):
        """The part of an op's result its check needs, computed outside the op's latency."""
        import oracles

        if op.kind == "drift":
            return result
        rc, stdout, stderr = result
        check = op.oracle[0]
        if check == "walk":
            return rc, oracles.walk_material(stdout), stderr
        if check == "digest":
            return rc, oracles.stdout_digest(stdout), stderr
        return rc, stdout, stderr


def run_phase(runner: Runner, ops, seconds: float, recorder=None, meter=None):
    """Closed loop: one op at a time until `seconds` of op time have passed.

    Returns (op, latency, check material, error, midpoint) records. Drawing
    the next op (input generation) is outside the clock; extracting check
    material is inside it. With a meter, the reference task runs after each
    op for a share of its time, outside the op's time.
    """
    records, busy = [], 0.0
    for index, op in enumerate(ops):
        if busy >= seconds:
            break
        start = perf_counter()
        try:
            if recorder is None:
                result = runner.invoke(op)
            else:
                recorder.op = index
                result = recorder.call("bench.op", runner.invoke, op)
            latency = perf_counter() - start
            material, error = runner.material(op, result), None
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            latency = perf_counter() - start
            material, error = None, f"{type(exc).__name__}: {exc}"
        busy += perf_counter() - start
        records.append((op, latency, material, error, start + latency / 2))
        if meter is not None:
            meter.after_op(latency)
    return records


def best_of_two(runner: Runner, ops, meter):
    """Runs the ops in order twice.

    On a shared host the same op can take twice as long during a
    neighbour's busy spell, and spells last seconds to minutes. Each run of
    an op is scaled by the reference task's speed around it, and the op's
    latency is the better of its two scaled runs, taken half a phase apart.
    Returns both rounds' records, the per-op best scaled latencies and the
    per-op best wall-clock latencies.
    """
    first = run_phase(runner, ops, math.inf, meter=meter)
    second = run_phase(runner, ops, math.inf, meter=meter)
    pairs = list(zip(first, second))
    best = [min(a[1] * meter.scale(a[4]), b[1] * meter.scale(b[4])) for a, b in pairs]
    return first, second, best, [min(a[1], b[1]) for a, b in pairs]


def check_records(records) -> list[str]:
    import oracles

    walk = oracles.WalkOracle()
    references = None
    problems = []
    for index, (op, _, material, error, _) in enumerate(records):
        if error is None:
            check = op.oracle[0]
            if check == "drift":
                error = oracles.check_drift(op.forged, op.trials, material)
            elif check == "walk":
                error = oracles.check_walk(walk, op.oracle, op.argv, material[0], material[1])
            elif check == "prove":
                error = oracles.check_prove(op.oracle, material[0], material[1])
            else:
                if references is None:
                    references = oracles.load_reference_digests()
                error = oracles.check_digest(references, op.oracle[1], material[0], material[1])
            if error is not None and op.kind == "cli" and material[2]:
                error += f" (stderr: {material[2].strip()[:200]})"
        if error is not None:
            problems.append(f"op {index} {op.label} {' '.join(op.argv)}: {error}")
    return problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with exactly TAIL_BEYOND slower ops, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def traced_pass(runner, workload, seed, ops, wall_best, seconds, labels):
    """Replay the untraced ops with every layer wrapped; per-layer metrics."""
    import tracing
    from workloads import load_fixed

    recorder = tracing.Recorder()
    recorder.install()
    try:
        # the fixed inputs are loaded again under the recorder as op -1
        recorder.call("bench.op", load_fixed, workload)
        traced = run_phase(runner, ops, TRACE_CAP * seconds, recorder)
    finally:
        recorder.uninstall()
    walls = recorder.op_walls()
    replayed = range(len(traced))
    metrics = recorder.layer_metrics()
    metrics["trace.overhead_frac"] = sum(walls[i] for i in replayed) / sum(wall_best[i] for i in replayed) - 1

    own = recorder.self_times()
    per_op: dict[int, float] = defaultdict(float)
    split: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, name in enumerate(recorder.names):
        op = recorder.ops[i]
        per_op[op] += own[i]
        split[labels.get(op, "setup")][name] += own[i]
    worst = max(abs(per_op[op] - wall) for op, wall in walls.items())
    path = OUT / f"trace-{workload}-seed{seed}.tsv.gz"
    recorder.write(path, labels)
    notes = [
        f"traced replay of {len(traced)} of {len(ops)} ops; {len(recorder.names)} spans "
        f"written to {path.relative_to(ROOT)}; largest |sum of self times - op wall| = {worst:.3g} s",
    ]
    for label in sorted(split):
        total = sum(split[label].values())
        top = sorted(split[label].items(), key=lambda kv: -kv[1])[:4]
        notes.append(f"self-time split {label}: " + ", ".join(
            f"{name} {100 * t / total:.1f}%" for name, t in top))
    return traced, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptrs" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: {ROOT} holds no ptrs checkout (src/ptrs and problems/ are missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)  # problem paths in the op streams are relative to the checkout root

    import ptrs
    from workloads import CYCLE_SECONDS, WORKLOADS, load_fixed, op_cycles

    if Path(ptrs.__file__).resolve().parent != SRC / "ptrs":
        print(f"error: imported ptrs from {ptrs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import tracing
    from reference import REFERENCE_S, Meter

    # One CPU for this process and every child it starts (set-up probes,
    # solvers), so the reference task measures the CPU the ops run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    notes = [f"workload {args.workload}, seed {args.seed}, python {platform.python_version()}, "
             f"nproc {os.cpu_count()}, one closed-loop client pinned to cpu {cpu}"]
    meter = Meter()
    setup_s = measure_setup(args.workload, meter) if args.trace == 0 else None

    inputs = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    solver = f"{shlex.quote(sys.executable)} -m ptrs.boxsolver"
    runner = Runner(load_fixed(args.workload))
    tracing.assert_unwrapped()
    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    ops = [op for cycle in islice(op_cycles(args.workload, args.seed, inputs, solver), cycles)
           for op in cycle]
    first, second, best, wall_best = best_of_two(runner, ops, meter)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    labels = {i: op.label for i, op in enumerate(ops)}
    by_label = defaultdict(list)
    for op, latency in zip(ops, best):
        by_label[op.label].append(latency)
    notes.append(f"{cycles} cycles of {len(ops) // cycles} ops; ops by class "
                 "(count, median of scaled best-of-2 ms): " + ", ".join(
        f"{k} {len(v)} {1000 * statistics.median(v):.0f}" for k, v in sorted(by_label.items())))
    notes.append(f"reference task: {len(meter.durations)} runs, median "
                 f"{1000 * statistics.median(meter.durations):.2f} ms against {1000 * REFERENCE_S:.2f} ms; "
                 f"unscaled op p50 {1000 * statistics.median(wall_best):.1f} ms, "
                 f"ops/s {len(wall_best) / sum(wall_best):.3f}")

    traced = []
    if args.trace:
        traced, metrics, trace_notes = traced_pass(
            runner, args.workload, args.seed, ops, wall_best, args.seconds, labels)
        notes.extend(trace_notes)
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in metrics.items()}
    else:
        tail_s, percentile = tail(best)
        notes.append(f"op_tail_ms is p{percentile:.1f} of {len(best)} ops, each the better of 2 scaled runs")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }

    problems = check_records(first + second + traced)
    notes.extend(f"FAILED {p}" for p in problems[:20])
    for note in notes:
        print(f"# {note}")
    attempted = len(first) + len(second) + len(traced)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
