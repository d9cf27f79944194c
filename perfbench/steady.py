"""How steady is each end-to-end metric from run to run?

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (``--first-seed`` onwards, one
run at a time, each ``run_seconds`` long) for every workload of
``BENCHMARK.json`` and prints, per end-to-end metric, the median, the
first and third quartiles (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound.  A spread above its
bound is flagged ``WIDE``; ``setup_s`` is exempt, since only its
median is compared between commits.  The share of failed operations
must be the same in every run.  Exits non-zero when a run fails, a
flag is set, or ``BENCHMARK.json`` does not list the metrics
``run.py`` prints.  Two invocations with different ``--first-seed``
give the two sets of runs whose medians must agree within the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    import run  # the metric lists the benchmark prints

    if [m["name"] for m in spec["end_to_end"]] != list(run.E2E_UNITS) or [
        m["name"] for m in spec["per_layer"]
    ] != run.PER_LAYER:
        print("BENCHMARK.json does not list the metrics run.py prints")
        return 1
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    print(f"{'workload':16} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [
            run_once(workload, seed, spec["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1:
            flagged += 1
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid
            flag = "" if name == "setup_s" or spread <= bound else "  WIDE"
            flagged += bool(flag)
            print(f"{workload:16} {name:12} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:6.2f}{flag}")
        sys.stdout.flush()
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
