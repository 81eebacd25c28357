"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py                       # every workload, 10 seeds
    python3 perfbench/steady.py --runs 1              # every workload once
    python3 perfbench/steady.py --workload road --runs 5 --first-seed 100

Each run is a separate ``perfbench/run.py --trace 0`` process with its
own seed and the run length ``BENCHMARK.json`` fixes.  For every
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median
and the metric's bound; ``steady`` means the spread is below a third of
the bound (``setup_s`` is reported but exempt).  The share of failed
operations is printed per workload, and must be identical across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_steady = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = _run(workload, seed, spec["run_seconds"])
            results.append(r)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in r["metrics"].items())
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {values}",
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = (statistics.quantiles(values, n=4)
                           if len(values) > 1 else values * 3)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread < bound / 3
            if name == "setup_s":
                verdict = "exempt"
            else:
                verdict = "steady" if steady else "UNSTEADY"
                all_steady &= steady
            print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
        all_steady &= len(shares) == 1 and all(r["correct"] for r in results)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
