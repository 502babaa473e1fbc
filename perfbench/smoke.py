"""Quick smoke test of the benchmark: every workload at a reduced size.

    python3 perfbench/smoke.py

Runs one untraced and one traced round of each workload with solves capped
at 20 steps and Monte Carlo path counts cut fiftyfold, and requires a
correct result with no failed operation, every metric of BENCHMARK.json
printed with its unit, and no metric that the benchmark does not declare.
Takes about a minute.
"""

import contextlib
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, small=True)
    if code != 0:
        raise AssertionError(f"{argv}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == ["boundary", "quotes", "mc_oracle"], workloads
    bad = []
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "0.01",
                    "--trace", str(trace)]
            result = result_of(argv)
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if not result["correct"] or result["failed"] or got != expected:
                bad.append(f"{workload} trace={trace}: correct={result['correct']} "
                           f"failed={result['failed']} metrics differ: "
                           f"{sorted(set(got.items()) ^ set(expected.items()))}")
            print(f"{workload} trace={trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    print("smoke test passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
