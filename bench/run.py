#!/usr/bin/env python3
"""sicnet benchmark: closed forms, event-chain Monte Carlo, policy Monte Carlo.

Run from the repository root:

    python3 bench/run.py --workload {closed_forms,chain_mc,policy_mc} \\
        --seed N --seconds S --trace {0,1}

A run repeats one pass over the workload's operations (workloads.py) for S
seconds, single-threaded, after one warm-up pass.  The warm-up pass is
checked against references the benchmark computes itself (references.py);
every later pass must reproduce its outputs bit for bit.

With --trace 0 the run prints the end-to-end metrics.  Each operation's
time is scaled to a fixed machine pace: a fixed kernel, benchmark code that
no sicnet change touches, is timed before and after every stretch of
PACE_EVERY_S of work, and the operation's time is multiplied by
PACE_REF_S / (mean of the two).  On a shared machine whose speed drifts by a
third within a minute, that takes the drift out of the figures.  The set-up
probes (setup_probe.py) are scaled the same way.

With --trace 1 the run alternates untraced passes with passes traced by
tracing.py and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A fuller record of the run goes to bench/out/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # single-threaded, in this process and the probes

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
SETUP_PROBES = 7
MIN_PASSES = 5
MIN_TRACED_PASSES = 3  # of each kind, traced and untraced
MAX_RUN_S = 150.0  # stop adding passes past this, whatever the minimums
STDERR_TARGET = 1e-3
PACE_REPS = 3
PACE_EVERY_S = 0.05
PACE_REF_S = 0.003  # pace kernel median on the 2-core machine the bench was tuned on


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("closed_forms", "chain_mc", "policy_mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _pace_kernel() -> float:
    """Fixed interpreter-bound work, as sicnet's loops run it: a Python float
    loop and many numpy calls on small arrays.  It tracks the machine's
    drift as all three workloads feel it; adding a large-array numpy part
    tracked closed_forms and chain_mc worse."""
    s = 0.0
    for i in range(1, 10_000):
        s += math.sqrt(i) / (1.0 + i)
    small = np.linspace(1.0, 2.0, 16)
    for _ in range(200):
        s += float(np.sum(small**-2.0 * np.exp(-small)))
    return s


def machine_pace() -> float:
    """Median seconds of the pace kernel: how fast the machine runs now."""
    times = []
    for _ in range(PACE_REPS):
        t0 = time.perf_counter()
        _pace_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(ops, paced: bool = False):
    """Time each operation; return (times, outputs, paces).

    With ``paced``, the machine pace is sampled before the first operation,
    after every PACE_EVERY_S of work and after the last operation, and each
    operation's pace is the mean of the samples just before and after it.
    Otherwise ``paces`` is None.
    """
    times, outputs, marks, samples = [], [], [], []
    since = math.inf
    for op in ops:
        if paced and since >= PACE_EVERY_S:
            samples.append(machine_pace())
            since = 0.0
        marks.append(len(samples) - 1)
        t0 = time.perf_counter()
        outputs.append(op.call())
        times.append(time.perf_counter() - t0)
        since += times[-1]
    if not paced:
        return times, outputs, None
    samples.append(machine_pace())
    return times, outputs, [0.5 * (samples[m] + samples[m + 1]) for m in marks]


def probe_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sicnet" / "__init__.py").is_file():
        print(f"bench: no sicnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import references
    import tracing
    import workloads

    e2e_units, layer_units = declared_metrics()
    started = time.perf_counter()
    references.self_check()
    ops = workloads.build(args.workload, args.seed)

    # warm-up pass: the one checked against the references
    _, outputs, _ = run_pass(ops)
    digests = [workloads.digest(o) for o in outputs]
    problems = []
    failed_ops = []
    for op, out in zip(ops, outputs):
        found = op.check(out)
        if found and op.known_fault:
            failed_ops.append(op.name)
        else:
            problems += found
    pass_stderrs = [s for o in outputs for s in workloads.stderrs(o)]
    del outputs
    n_passes = 1

    def timed_pass(paced: bool = False):
        nonlocal n_passes
        n_passes += 1
        gc.collect()
        times, outs, paces = run_pass(ops, paced)
        for op, out, d in zip(ops, outs, digests):
            if workloads.digest(out) != d:
                problems.append(f"{op.name}: output differs from the warm-up pass")
        return times, paces

    def more(count: int, least: int) -> bool:
        now = time.perf_counter()
        if now - started > MAX_RUN_S:
            return False
        return now - t_measure < args.seconds or count < least

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": [op.name for op in ops], "failed_ops": failed_ops}
    t_measure = time.perf_counter()
    if args.trace == 0:
        scaled, probes = [], []
        while more(len(scaled), MIN_PASSES) or len(probes) < SETUP_PROBES:
            # two probes before each pass until all are done
            while len(probes) < min(SETUP_PROBES, 2 * len(scaled) + 2):
                before = machine_pace()
                seconds = probe_setup(args.workload)
                probes.append(seconds * PACE_REF_S / (0.5 * (before + machine_pace())))
            times, paces = timed_pass(paced=True)
            scaled.append([t * PACE_REF_S / c for t, c in zip(times, paces)])
        op_medians = [statistics.median(col) for col in zip(*scaled)]
        wall_s = sum(op_medians)
        rms = math.sqrt(sum(s * s for s in pass_stderrs) / len(pass_stderrs)) if pass_stderrs else 0.0
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # closed forms carry no sampling error: one pass is already exact
            "stderr_cost_s": wall_s * max(1.0, (rms / STDERR_TARGET) ** 2),
        }
        units = e2e_units
        record.update(scaled_op_s=scaled, op_median_s=op_medians, setup_probe_s=probes, rms_stderr=rms)
    else:
        with tracing.Tracer(workloads.stderrs, alloc=True) as tr:
            timed_pass()
        peaks = {k: v for k, v in tr.values().items() if k.endswith(".peak_alloc_mb")}
        plain_s, traced_s, layer_passes = [], [], []
        while more(len(traced_s), MIN_TRACED_PASSES):
            plain_s.append(sum(timed_pass()[0]))
            with tracing.Tracer(workloads.stderrs) as tr:
                traced_s.append(sum(timed_pass()[0]))
            layer_passes.append(tr.values())
        values = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
        values.update(peaks)
        values["trace.overhead"] = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        units = layer_units
        record.update(untraced_pass_s=plain_s, traced_pass_s=traced_s, layer_passes=layer_passes)

    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": not problems,
        "attempted": n_passes * len(ops),
        "failed": n_passes * len(failed_ops),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record.update(problems=problems, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in problems[:20]:
        print("PROBLEM:", line)
    print(f"{args.workload}: {n_passes} passes of {len(ops)} operations, "
          f"{len(failed_ops)} failing each pass, {len(problems)} problems")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
