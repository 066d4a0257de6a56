"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each metric, (Q3 - Q1) / median over runs with different
seeds, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload mc-deviate --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import quartile_spread  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                              capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items()), flush=True)
        for k, v in out["metrics"].items():
            values[k].append(v["value"])
    print(f"{args.workload}: metric, median, spread (Q3-Q1)/median, bound")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        spread = quartile_spread(v) if len(v) >= 2 else float("nan")
        print(f"  {m['name']:<18} {statistics.median(v):>12.5g} {spread:>8.4f} {m['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
