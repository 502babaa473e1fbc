"""One-off n_steps scaling series of the boundary solve.

    python3 perfbench/scaling.py

Solves the fig1 call boundary at 50, 100 and 200 steps (median of three
solves each), prints the wall time and b(0) per step count and the exponent
of a least-squares power-law fit of time against steps. The backward sweep
evaluates a kernel row over every later step at each step, so the exponent
comes out near 2.

It then solves the fig1 call and the fig7 pair once more at each step count
under the layer tracer and prints each layer's share of the solve's self
time, which shows how far the balance of layers at the benchmark's step
count (``workloads.SOLVE_STEPS``) is from the bundled configs' 200 steps.
Takes about two minutes.
"""

import json
import statistics
import time

import run  # pins the BLAS/OpenMP pools before NumPy is imported

import numpy as np

STEPS = (50, 100, 200)
REPEATS = 3
SHARE_CASES = ("fig1", "fig7")
MIN_SHARE = 0.01


def solve(vp, cfg, n):
    return vp.solve_boundary(cfg.model, cfg.cir, cfg.contract,
                             vp.SolverConfig(n_steps=n), cfg.quadrature)


def main():
    run.import_package()
    import vixpricer as vp
    from vixpricer.cli import load_config

    import layertrace
    import workloads

    workloads.warm_up()
    cfg = load_config("fig1")
    series = []
    for n in STEPS:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            boundary = solve(vp, cfg, n)
            times.append(time.perf_counter() - start)
        series.append({"n_steps": n, "solve_s": statistics.median(times),
                       "b0": float(boundary.values[0])})
        print(json.dumps(series[-1]))
    slope = np.polyfit(np.log(STEPS), np.log([s["solve_s"] for s in series]), 1)[0]
    print(json.dumps({"fitted_exponent": float(slope)}))

    for name in SHARE_CASES:
        cfg = load_config(name)
        for n in STEPS:
            with layertrace.Tracer() as tracer:
                solve(vp, cfg, n)
            total = sum(tracer.self_time.values())
            shares = {layer: round(s / total, 3) for layer, s in
                      sorted(tracer.self_time.items(), key=lambda kv: -kv[1])
                      if s / total >= MIN_SHARE}
            print(json.dumps({"config": name, "n_steps": n, "traced_s": total,
                              "self_time_shares": shares}))


if __name__ == "__main__":
    main()
