"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1] [--json FILE]

For every workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the interquartile range as a share of
the median, next to the metric's bound from BENCHMARK.json and a third of
it. Runs go one after another through the command in BENCHMARK.json, with
run_seconds from there. --json writes the per-run values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else float("inf"),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {
            name: {
                **spread([r["metrics"][name]["value"] for r in runs]),
                "unit": runs[0]["metrics"][name]["unit"],
                "bound": bounds.get(name),
            }
            for name in names
        }
        report[workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload}: {len(runs)} runs")
        for name, s in summary.items():
            bound = s["bound"]
            limit = f"bound {bound:.3g}, third {bound / 3:.3g}" if bound else "no bound"
            print(f"  {name:<30} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}  ({limit})")
        print(flush=True)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
