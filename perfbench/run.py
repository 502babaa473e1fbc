"""Run one benchmark workload against the vixpricer sources of this checkout.

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 12 --trace 0

One caller drives the package in a closed loop: each operation starts when
the previous one returns. The run sets up (import, config loading, warm-up,
the boundaries the workload quotes against), then repeats whole rounds of
the workload's operations until ``--seconds`` have passed, then checks the
first round's outputs against independent computations and requires every
later call of an operation to reproduce its first output bit for bit.

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

End-to-end times are reference seconds: wall seconds scaled against a
reference kernel run on a timer, between operations and inside them (see
``clock.py``). With ``--trace 0`` the metrics are the end-to-end ones,
timed untraced. With ``--trace 1`` the first half of the time runs
untraced and the second half traced (see ``layertrace.py``); the metrics
are the per-layer ones, per traced round, plus the tracing overhead. The
line before the result is a record of the run: machine, library versions
and the values it produced.
"""

import os

# one thread for every BLAS/OpenMP pool, set before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# The benchmark's own modules (clock, layertrace, workloads) import NumPy and SciPy;
# they are imported inside functions, after the timed package import.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "solve_single_s": "s",
    "solve_mixture_s": "s",
    "american_quotes_per_s": "1/s",
    "european_quotes_per_s": "1/s",
    "futures_quotes_per_s": "1/s",
    "skew_points_per_s": "1/s",
    "mc_policy_paths_per_s": "1/s",
    "mc_terminal_paths_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# end-to-end rate metric -> operation group it divides work by time for
RATES = {
    "american_quotes_per_s": "american",
    "european_quotes_per_s": "european",
    "futures_quotes_per_s": "futures",
    "skew_points_per_s": "skew",
    "mc_policy_paths_per_s": "mc_policy",
    "mc_terminal_paths_per_s": "mc_terminal",
}

def layer_unit(name):
    if name == "trace.overhead":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("boundary", "quotes", "mc_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import vixpricer from this checkout's sources; returns the import time."""
    package = SRC / "vixpricer"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no vixpricer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import vixpricer
    elapsed = time.perf_counter() - start
    if Path(vixpricer.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported vixpricer from {vixpricer.__file__}")
    return elapsed


def set_up(workloads, name, seed, small):
    """Config loading, warm-up and set-up solves; the workload and its boundaries."""
    workload = workloads.build(name, seed, small)
    workloads.warm_up()
    ctx = {}
    for _, solve, _ in workload.setup_solves:
        solve(ctx)
    return workload, ctx


class Rounds:
    """Runs whole rounds and keeps what the metrics and checks need."""

    def __init__(self, workload, ctx, same_output):
        self.ops = workload.ops
        self.calls = workload.calls
        self.ctx = ctx
        self.same_output = same_output
        self.first = None          # label -> output of the first round
        self.records = []          # per round: (start, end) of each call per operation
        self.raised = defaultdict(int)    # calls per label
        self.diverged = defaultdict(int)  # calls per label

    def run(self, seconds, tracer=None, layer_metrics=None):
        deadline = time.perf_counter() + seconds
        while True:
            self.records.append(self._round(tracer, layer_metrics))
            if time.perf_counter() >= deadline:
                return

    def _round(self, tracer, layer_metrics):
        if tracer is not None:
            tracer.reset()
        outputs, times = {}, defaultdict(list)
        # as timeit does, collect between rounds and keep the cyclic garbage
        # collector out of the timed calls, where its pauses land at random
        gc.collect()
        gc.disable()
        try:
            for op in self.calls:
                start = time.perf_counter()
                try:
                    out = op.run(self.ctx)
                except Exception as exc:  # an operation that raises counts as failed
                    self.raised[op.label] += 1
                    print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                times[op.label].append((start, time.perf_counter()))
                first = outputs.setdefault(op.label, out) if self.first is None \
                    else self.first.get(op.label, out)
                if not self.same_output(out, first):
                    self.diverged[op.label] += 1
        finally:
            gc.enable()
        record = {"wall": sum(end - start for calls in times.values() for start, end in calls),
                  "times": dict(times)}
        if tracer is not None:
            record["layers"] = layer_metrics(tracer)
            record["calls"] = dict(tracer.calls)
        if self.first is None:
            self.first = outputs
        return record

    def check(self):
        """Problems per label for the first round's outputs."""
        problems = {}
        for op in self.ops:
            if op.label not in self.first:
                continue
            try:
                found = op.check(self.first[op.label], self.ctx, self.first)
            except Exception as exc:  # a check that cannot run is a failed check
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                problems[op.label] = found
        return problems

    def failed(self, problems):
        failed = 0
        for op in self.ops:
            failed += op.ops * (self.raised[op.label] + self.diverged[op.label])
            if op.label in problems:
                clean = (op.repeat * len(self.records)
                         - self.raised[op.label] - self.diverged[op.label])
                failed += min(op.ops, len(problems[op.label])) * clean
        return failed


def end_to_end_metrics(ops, records, setup_s, probes):
    """Times from the per-operation means over all calls, summed per group.

    Every call of an operation does the same work; the mean of its
    reference seconds averages over the machine's changes of speed that
    the calls, spread over the run, meet.
    """
    group_time, group_work = defaultdict(float), defaultdict(int)
    for op in ops:
        samples = [probes.reference_s(start, end)
                   for r in records for start, end in r["times"].get(op.label, ())]
        if samples:
            group_time[op.group] += statistics.fmean(samples)
            group_work[op.group] += op.work
    values = {
        "setup_s": setup_s,
        "solve_single_s": group_time["solve_single"],
        "solve_mixture_s": group_time["solve_mixture"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric, group in RATES.items():
        values[metric] = (group_work[group] / group_time[group]
                          if group_time[group] > 0 else 0.0)
    return {name: values[name] for name in END_TO_END}


def per_layer_metrics(traced, untraced):
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        # rounds repeat the same calls, so counts are exact; the low median
        # keeps an actual round's count when the first round had cache misses
        out[name] = (statistics.median_low(values) if layer_unit(name) == "count"
                     else statistics.median(values))
    out["trace.overhead"] = (statistics.median(r["wall"] for r in traced)
                             / statistics.median(r["wall"] for r in untraced))
    return out


def produced_values(ops, first):
    """A few outputs of the run, recorded beside its timings."""
    values = {}
    for op in ops:
        out = first.get(op.label)
        if out is None:
            continue
        if op.group.startswith("solve"):
            values[op.label] = ([float(out.values[0]), float(out.upper[0])]
                                if out.upper is not None else float(out.values[0]))
        elif op.group.startswith("mc"):
            values[op.label] = [out.mean, out.std_error]
        elif op.group in ("american", "european") and sum(
                1 for k in values if k.startswith(op.group)) < 3:
            values[op.label] = out
    return values


def machine():
    import numpy
    import scipy
    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None, small=False):
    args = parse_args(argv)
    import_s = import_package()
    import clock
    import layertrace
    import workloads

    # the reference kernel runs only in untraced runs, where its time is
    # taken out of every call's; in a traced run it would add to the spans
    probes = None if args.trace else clock.Probes()
    with probes or contextlib.nullcontext():
        # one cold pass: the first calls and caches that warm-up fills count here
        start = time.perf_counter()
        workload, ctx = set_up(workloads, args.workload, args.seed, small)
        end = time.perf_counter()
        rounds = Rounds(workload, ctx, workloads.same_output)
        if not args.trace:
            rounds.run(args.seconds)
    setup_pass_s = end - start

    run_level = []
    if args.trace:
        rounds.run(0.5 * args.seconds)
        untraced = list(rounds.records)
        with layertrace.Tracer() as tracer:
            rounds.run(0.5 * args.seconds, tracer, layertrace.layer_metrics)
        traced = rounds.records[len(untraced):]
        metrics = per_layer_metrics(traced, untraced)
        units = {name: layer_unit(name) for name in metrics}
        for name in layertrace.REQUIRED_CALLS:
            if any(r["calls"].get(name, 0) == 0 for r in traced):
                run_level.append(f"traced round made no call to {name}")
    else:
        setup_s = import_s + probes.reference_s(start, end)
        metrics = end_to_end_metrics(rounds.ops, rounds.records, setup_s, probes)
        units = END_TO_END

    problems = rounds.check()
    for key, _, check in workload.setup_solves:
        # the set-up boundaries are outputs the quotes rest on
        for problem in check(ctx[key], ctx, {}):
            run_level.append(f"set-up boundary {key}: {problem}")
    for label, found in problems.items():
        print(f"{label}: {'; '.join(found)}", file=sys.stderr)
    for name, value in metrics.items():
        if not (value == value and value > 0.0):
            run_level.append(f"metric {name} is {value}")
    for message in run_level:
        print(message, file=sys.stderr)

    attempted = sum(op.ops for op in rounds.calls) * len(rounds.records)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds.records),
              "setup_pass_s": setup_pass_s, "import_s": import_s, "machine": machine(),
              "round_wall_s": [r["wall"] for r in rounds.records],
              "reference_kernel_s": probes.times if probes else [],
              "values": produced_values(rounds.ops, rounds.first)}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems and not run_level,
        "attempted": attempted,
        "failed": rounds.failed(problems),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
