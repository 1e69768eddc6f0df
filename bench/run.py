"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

A run repeats whole passes over the workload's operations until --seconds
have gone by, each pass against a freshly imported dpcolor, in one process
on one thread.  The seed fixes the order of the operations in a pass.
Every answer is judged by check.py; wrong answers and operations that raise
count as failed and are named on stderr.

--trace 0 prints the end-to-end metrics: wall_s (mean time of a pass),
setup_s (median time to import dpcolor and load the inputs, taken before
each pass and at least SETUP_SAMPLES times) and peak_rss_mb.  --trace 1 alternates untraced and traced passes and
prints the per-layer metrics of tracing.py (medians over the traced passes)
plus trace.overhead_s; the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import tracing
import workloads

SETUP_SAMPLES = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(load):
    t0 = perf_counter()
    m = workloads.import_dpcolor()
    ops = load(m)
    return m, ops, perf_counter() - t0


def run_passes(args):
    """Returns (ops of the last pass, per-pass records, setup times, peak RSS in MB)."""
    load = workloads.WORKLOADS[args.workload]
    workloads.import_dpcolor()  # fills the bytecode cache before anything is timed
    order = None
    passes = []
    start = perf_counter()
    while True:
        m, ops, setup = set_up(load)
        if order is None:
            order = list(range(len(ops)))
            random.Random(args.seed).shuffle(order)
        tracer = tracing.Tracer(m) if args.trace and len(passes) % 2 == 1 else None
        raw, errors = [None] * len(ops), {}
        gc.collect()
        t1 = perf_counter()
        for i in order:
            try:
                raw[i] = ops[i].run()
            except Exception as exc:  # counted as a failed operation
                errors[i] = type(exc).__name__
        wall = perf_counter() - t1
        answers = tuple(None if i in errors else op.answer(raw[i]) for i, op in enumerate(ops))
        passes.append({"wall": wall, "setup": setup, "answers": answers, "errors": errors,
                       "tracer": tracer})
        del raw, m
        kinds = {p["tracer"] is not None for p in passes}
        if perf_counter() - start >= args.seconds and len(kinds) == 1 + args.trace:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [p["setup"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(set_up(load)[2])
    return ops, passes, setups, peak_mb


def judge(args, ops, passes):
    """Returns (failed operations, all answers correct), naming each failure."""
    verdicts, named = {}, set()
    failed, correct = 0, True
    for p in passes:
        for i, op in enumerate(ops):
            if i in p["errors"]:
                failed += 1
                message = f"raised {p['errors'][i]}"
            else:
                key = (i, p["answers"][i])
                if key not in verdicts:
                    verdicts[key] = op.check(p["answers"][i])
                if not verdicts[key]:
                    continue
                failed += 1
                correct = False
                message = "; ".join(verdicts[key])
            if (op.label, message) not in named:
                named.add((op.label, message))
                print(f"FAILED {op.label}: {message}", file=sys.stderr)
    input_check = workloads.INPUT_CHECKS.get(args.workload)
    for problem in input_check() if input_check else []:
        print(f"BAD INPUT: {problem}", file=sys.stderr)
        correct = False
    return failed, correct


def trace_metrics(args, passes):
    traced = [p for p in passes if p["tracer"] is not None]
    plain = [p["wall"] for p in passes if p["tracer"] is None]
    per_pass = [p["tracer"].metrics() for p in traced]
    metrics = {}
    for key in tracing.METRICS:
        unit = "s" if key.endswith(".s") else "count"
        metrics[key] = {"value": statistics.median(m[key] for m in per_pass), "unit": unit}
    overhead = statistics.mean(p["wall"] for p in traced) - statistics.mean(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out = workloads.BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "tag"],
        "passes": [p["tracer"].spans for p in traced]}))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    for key in [k for k in os.environ if k.startswith("DPCOLOR_")]:
        del os.environ[key]  # Config.from_env would change budgets and answers
    # setup_s is taken with the bytecode cache warm, also where
    # PYTHONDONTWRITEBYTECODE is set
    sys.dont_write_bytecode = False
    if not (workloads.SRC / "dpcolor" / "__init__.py").is_file():
        print(f"dpcolor sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    ops, passes, setups, peak_mb = run_passes(args)
    failed, correct = judge(args, ops, passes)
    walls = [p["wall"] for p in passes if p["tracer"] is None]
    if args.trace:
        metrics = trace_metrics(args, passes)
    else:
        metrics = {
            "wall_s": {"value": statistics.mean(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(f"# {args.workload}: {len(passes)} passes of {len(ops)} operations; "
          f"untraced pass times {', '.join(f'{w:.3f}' for w in walls)} s")
    print(json.dumps({"correct": correct, "attempted": len(ops) * len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
