"""Run a set of benchmark runs, one seed each, and print every metric's
median, quartiles and spread (interquartile distance over median).

    python3 perfbench/spread.py --workload rot7 --seeds 1-10 --trace 0

Runs are sequential, each in a fresh process, from the checkout root.  The
last line is a JSON object with the per-metric figures and the failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def figures(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", type=seeds)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    results = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: correct {results[-1]['correct']}", file=sys.stderr)
    summary = {name: figures([r["metrics"][name]["value"] for r in results])
               for name in results[0]["metrics"]}
    for name, f in summary.items():
        print(f"{name:40s} median {f['median']:12.5g}  q1 {f['q1']:12.5g}  "
              f"q3 {f['q3']:12.5g}  spread {f['spread']:.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "correct": all(r["correct"] for r in results),
                      "failed_share": sorted(shares), "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
