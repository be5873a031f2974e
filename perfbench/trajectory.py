"""Run the benchmark over several seeds and summarise each metric as median and quartiles.

    python3 perfbench/trajectory.py --seeds 1-10 --workloads pds-search,oracle-sweep \
        [--trace] [--out perfbench/BENCH_<commit>.json]

Untraced runs go under "end_to_end" in the --out file and traced runs
under "per_layer"; workloads already in the file and not run are kept.

The spread of a metric is the distance between its first and third
quartile (statistics.quantiles, n=4) as a share of its median; a steady
benchmark keeps it under a third of the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, float]:
    start = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            result, wall_s = run_once(workload, seed, spec["run_seconds"], args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, f"wall {wall_s:.1f}s",
                  json.dumps({k: round(v[-1], 5) for k, v in values.items()}), flush=True)
        report[workload] = {name: dict(summarise(v), values=v) for name, v in values.items()}
        for name, s in report[workload].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"  {workload} {name}: median {s['median']:.6g} spread "
                  f"{s['spread'] if s['spread'] is None else round(s['spread'], 4)} {flag}")
    if args.out:
        out = Path(args.out)
        saved = json.loads(out.read_text()) if out.exists() else {}
        saved.setdefault("per_layer" if args.trace else "end_to_end", {}).update(report)
        saved.setdefault("seeds", {})["per_layer" if args.trace else "end_to_end"] = args.seeds
        saved["run_seconds"] = spec["run_seconds"]
        out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
