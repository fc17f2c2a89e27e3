"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads baseline tail] [--out FILE]

Each run is a separate process started from the checkout root, as
BENCHMARK.json's command, with seeds 1..runs.  For every end-to-end metric
it prints the median of the runs and the distance between their first and
third quartiles as a share of that median, next to the metric's bound, and
the same spread for the runs' median process CPU time per op, which the
op line prints beside the reference-second figure.
With --out it also writes every run's result and the summary as JSON, so
that two commits can be compared from their files alone.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CPU = re.compile(r"process CPU ([0-9.]+) s")


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    record = {"seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["op_line"] = next(ln for ln in lines if ln.startswith("op_s.p50"))
            result["cpu_s.p50"] = float(CPU.search(result["op_line"]).group(1))
            runs.append(result)
            values = "  ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{result['attempted']} ops; {values}\n  {result['op_line']}", flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            median, iqr = spread([r["metrics"][metric["name"]]["value"] for r in runs])
            summary[metric["name"]] = {"median": median, "iqr_share": iqr,
                                       "bound": metric["bound"]}
            print(f"{name} {metric['name']}: median {median:.5g} {metric['unit']}, "
                  f"spread {iqr:.4f} (bound {metric['bound']})", flush=True)
        median, iqr = spread([r["cpu_s.p50"] for r in runs])
        summary["cpu_s.p50"] = {"median": median, "iqr_share": iqr}
        print(f"{name} process CPU per op: median {median:.5g} s, spread {iqr:.4f}",
              flush=True)
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
