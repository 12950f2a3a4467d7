"""Spread of the benchmark's metrics across seeds, measured against BENCHMARK.json.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py --workload NAME --seeds 1 2 3 4 5 [--trace 1]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric its median and its quartile spread (Q3 - Q1) / median, from
``statistics.quantiles(values, n=4)``, next to the metric's bound.  With
--repeat, every seed runs twice and the count metrics (unit ``count`` or
``bytes``) must read the same both times.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    mismatched = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} invocations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.repeat:
            again = run_once(args.workload, seed, bench["run_seconds"], args.trace)
            for name, m in result["metrics"].items():
                if m["unit"] in ("count", "bytes") and again["metrics"][name]["value"] != m["value"]:
                    mismatched.append(f"seed {seed}: {name} {m['value']} then {again['metrics'][name]['value']}")
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{args.workload}, {len(args.seeds)} seeds: metric, median, (Q3-Q1)/median, bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:34s} {med:12.6g} {spread:8.4f} {bounds.get(name)}")
    for line in mismatched:
        print(f"count differs between runs of one seed: {line}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
