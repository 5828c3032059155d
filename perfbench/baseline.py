"""Record perfbench's baseline: every end-to-end metric over several seeds per
workload, and the per-layer metrics of one traced run per workload.

    python3 perfbench/baseline.py [--workloads engines,cli] [--seeds 101-110]
                                  [--seconds 30] [--out perfbench/baseline.json]

Each run is one `run.py` process, one after the other. For every metric the
record holds the median, the quartiles of statistics.quantiles(values, n=4)
and their spread, (q3 - q1) / median; a spread past a third of the metric's
bound in BENCHMARK.json is flagged on standard error. Exits 1 when a run fails
or is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("engines", "reductions", "crosscheck", "cli")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, metadata line) of one run."""
    child = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exited {child.returncode}: {child.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct: {child.stderr[-500:]}")
    return result, json.loads(lines[0])


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record: dict = {
        "about": "perfbench baseline: end-to-end metrics over several seeds per workload "
                 "(median, quartiles, spread = (q3 - q1) / median, every value), and the "
                 "per-layer metrics of one traced run per workload on the first seed. Times "
                 "are at reference speed (see README.md); work counters are exact.",
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in args.seeds:
            result, meta = run(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced, _ = run(workload, args.seeds[0], args.seconds, 1)
        entry = {
            "seeds": args.seeds,
            "tasks_per_pass": meta["tasks_per_pass"],
            "plan": meta["plan"],
            "end_to_end": {name: summary(v, unit) for name, (v, unit) in values.items()},
            "per_layer_first_seed": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        record["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            flag = " OVER A THIRD OF ITS BOUND" if stats["spread"] > bounds[name] / 3 else ""
            print(f"{workload} {name}: median {stats['median']:.6g}, "
                  f"spread {stats['spread']:.3f}{flag}", file=sys.stderr, flush=True)
    record["machine"] = {k: meta[k] for k in ("nproc", "cpus_usable", "cpu_model", "python")}
    record["partlab_commit"] = meta["partlab_commit"]
    record["partlab_src_sha256"] = meta["partlab_src_sha256"]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
