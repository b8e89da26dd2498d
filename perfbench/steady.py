"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload predict --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed, one run at a time, with the
run_seconds and bounds of BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartile spread (first to third quartile as a share
of the median) and the bound; a spread above a third of the bound is
flagged, because the acceptance check allows the whole bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, help="override run_seconds")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        wall = time.monotonic() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}: {len(args.seeds)} seeds, {seconds:g} s runs")
    for m in metrics:
        vals = values[m["name"]]
        med = statistics.median(vals)
        line = f"{m['name']:<38} median {med:>14.6g} {m['unit']:<7}"
        if len(vals) >= 2 and med:
            spread = quartile_spread(vals)
            line += f" spread {spread:7.4f}"
            if "bound" in m:
                flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
                line += f" bound {m['bound']:.2f}{flag}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
