"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/steadiness.py --workload exact --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median and its spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound. A spread below a third of the bound is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
            return 1
        row = {name: result["metrics"][name]["value"] for name in values}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed}: attempted {result['attempted']} "
              + " ".join(f"{name}={value:.5g}" for name, value in row.items()), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        print(f"{args.workload} {metric['name']}: median {median:.5g} {metric['unit']}, "
              f"spread {spread:.4f} of bound {metric['bound']} "
              f"({'steady' if spread < metric['bound'] / 3 else 'NOT steady'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
