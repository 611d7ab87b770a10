#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/seed-commit.json

For every workload and metric this prints the median and the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound from BENCHMARK.json.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary: dict = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, args.seconds, 0))
            values = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}
            print(f"  {workload} seed {seed}: {json.dumps(values)}", file=sys.stderr, flush=True)
        walls = [r["wall_s"] for r in results]
        entry = {
            "run_wall_s": summarize(walls),
            "metrics": {},
            "as_measured": [r["detail"].get("as_measured") for r in results],
            "speed": [r["detail"].get("speed") for r in results],
        }
        print(f"{workload}: {len(results)} runs, wall median {statistics.median(walls):.1f} s")
        for name in results[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
            flag = ""
            if stats["bound"] is not None and name != "setup_s" and stats["spread"] > stats["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:24s} median {stats['median']:12.6g} {stats['unit']:6s} "
                  f"spread {stats['spread']:.4f}  bound {stats['bound']}{flag}")
        summary["workloads"][workload] = entry
        if args.out:
            out = ROOT / args.out
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
