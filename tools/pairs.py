"""Alternated parent/change pairs of one perfbench workload, or of tier-1, and
the gate that a claimed gain in wall_s must pass.

    python tools/pairs.py --parent REV --workload W --seeds A-B --out BENCH_<pr>.json

Both trees are written out into one temporary directory, so that they run
from the same kind of place: the parent as REV by `git archive REV | tar -x`,
and the change as this checkout stands, its tracked files and its untracked
files that .gitignore does not exclude, as `git ls-files` lists them. Each tree
runs its own perfbench/run.py with --trace 0 and BENCHMARK.json's run_seconds,
one run at a time, with PYTHONDONTWRITEBYTECODE=1 so that each run compiles what
it imports, as in a fresh checkout. There is one pair per seed of A-B, at least
two: pair i (from 1) runs both trees on seed number i, the parent first on odd
pairs and the change first on even ones. A run that exits nonzero or is not
correct stops the command with exit 1.

--workload tier1 runs the Tier-1 verify command in place of run.py, in each
tree with that tree's src/ first on PYTHONPATH: `python -m pytest -q
--continue-on-collection-errors`. Its one metric is wall_s, the seconds the
command takes from start to exit; the seeds only number the pairs, and a run
that does not pass every test stops the command with exit 1.

The record in --out names the parent by its commit, and the change by the
commit checked out here with a dirty flag: true when `git status --porcelain`
lists a file, as it does while a change is measured before it is committed.
It holds every end-to-end metric of every pair; per metric and tree, the
median and quartiles (baseline.summary); per metric, the pairs the change wins
and loses, ties counting for neither; and the gate's verdict. The gate passes
when there are at least 10 pairs, the change wins wall_s in at least 9 of
every 10 of them, its median wall_s is below the parent's by more than the
parent's interquartile range, and no metric's median is worse than the
parent's by more than its BENCHMARK.json bound. Every end-to-end metric there is
lower-is-better. The command prints the pairs and the summary table, and exits
0 whether or not the gate passes. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from baseline import WORKLOADS, seed_range, summary  # noqa: E402
from run import cpu_model  # noqa: E402

CLAIM = "wall_s"
MIN_PAIRS = 10
TREES = ("parent", "change")
TIER1 = "tier1"
TIER1_COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(metric values, metadata line) of one run.py process in tree."""
    child = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=tree,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{tree} seed {seed}: exited {child.returncode}: {child.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree} seed {seed}: not correct: {child.stderr[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, json.loads(lines[0])


def run_tier1(tree: Path) -> tuple[dict, dict]:
    """(wall_s, metadata) of one Tier-1 verify run in tree."""
    src = str(tree / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    start = perf_counter()
    child = subprocess.run(
        [sys.executable, *TIER1_COMMAND], capture_output=True, text=True, cwd=tree,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": path},
    )
    wall = perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"{tree} tier-1: exited {child.returncode}: {child.stdout[-500:]}")
    digest = sha256()
    for file in sorted((tree / "src" / "partlab").glob("*.py")):
        digest.update(file.name.encode() + b"\0" + file.read_bytes())
    meta = {
        "partlab_src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
    }
    return {CLAIM: wall}, meta


def write_trees(root: Path, parent_rev: str, tmp: Path) -> dict[str, Path]:
    """The parent and change trees of the git working tree root, written out
    under tmp: parent_rev as committed, and root as it stands."""
    trees = {tree: tmp / tree for tree in TREES}
    trees["parent"].mkdir()
    archive = subprocess.run(["git", "archive", parent_rev], cwd=root, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, capture_output=True, text=True, check=True).stdout
    for name in filter(None, listed.split("\0")):
        source, target = root / name, trees["change"] / name
        if source.is_file():  # a tracked file deleted in the checkout is not
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return trees


def checkout(tree: Path) -> dict:
    """The commit checked out in the git working tree tree, and whether the
    tree has edits on top of it: changed, staged or untracked files."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                              check=True).stdout
    return {"commit": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain"))}


def tally(pairs: list[dict], name: str, unit: str) -> dict:
    """Per tree the summary of metric name over pairs, and the pairs the change
    wins and loses, ties counting for neither."""
    row = {tree: summary([p[tree][name] for p in pairs], unit) for tree in TREES}
    row["wins"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
    row["losses"] = sum(p["change"][name] > p["parent"][name] for p in pairs)
    return row


def tabulate(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """The tally of every metric over pairs of {"parent": {metric: value},
    "change": {metric: value}}; metrics maps each lower-is-better metric's name
    to its BENCHMARK.json entry, with its unit and relative bound."""
    return {name: tally(pairs, name, m["unit"]) for name, m in metrics.items()}


def gate(table: dict, metrics: dict[str, dict]) -> dict:
    """The verdict on a gain in CLAIM, from the table of tabulate(pairs, metrics)."""
    claim = table[CLAIM]
    n = len(claim["parent"]["values"])
    gap = claim["parent"]["median"] - claim["change"]["median"]
    iqr = claim["parent"]["q3"] - claim["parent"]["q1"]
    over_bound = [name for name, row in table.items()
                  if row["change"]["median"] > row["parent"]["median"] * (1 + metrics[name]["bound"])]
    verdict = {
        "claim": CLAIM,
        "wins": claim["wins"],
        "pairs": n,
        "median_gap": gap,
        "parent_iqr": iqr,
        "enough_wins": n >= MIN_PAIRS and 10 * claim["wins"] >= 9 * n,
        "gap_beyond_iqr": gap > iqr,
        "over_bound": over_bound,
    }
    verdict["passed"] = verdict["enough_wins"] and verdict["gap_beyond_iqr"] and not over_bound
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, TIER1))
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds must name at least 2 seeds, to have quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]
               if args.workload != TIER1 or m["name"] == CLAIM}
    seconds = spec["run_seconds"]
    parent_rev = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
                                cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    change = checkout(ROOT)

    pairs, metas = [], {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = write_trees(ROOT, parent_rev, Path(tmp))
        for i, seed in enumerate(args.seeds):
            order = TREES if i % 2 == 0 else TREES[::-1]
            pair: dict = {"pair": i + 1, "seed": seed, "first": order[0]}
            for tree in order:
                if args.workload == TIER1:
                    pair[tree], metas[tree] = run_tier1(trees[tree])
                else:
                    pair[tree], metas[tree] = run(trees[tree], args.workload, seed, seconds)
            pairs.append(pair)
            print(f"pair {i + 1} seed {seed} {order[0]} first: "
                  + ", ".join(f"{name} {pair['parent'][name]:.6g} -> {pair['change'][name]:.6g}"
                              for name in metrics), flush=True)

    table = tabulate(pairs, metrics)
    verdict = gate(table, metrics)
    print(f"\n{'metric':12} {'parent median [q1, q3]':36} {'change median [q1, q3]':36} wins losses")
    for name, row in table.items():
        cells = [f"{row[t]['median']:.6g} [{row[t]['q1']:.6g}, {row[t]['q3']:.6g}] {metrics[name]['unit']}"
                 for t in TREES]
        print(f"{name:12} {cells[0]:36} {cells[1]:36} {row['wins']:4} {row['losses']:6}")
    print(f"gate on {CLAIM}: {'passed' if verdict['passed'] else 'FAILED'} "
          f"({verdict['wins']}/{verdict['pairs']} wins, median gap {verdict['median_gap']:.6g} "
          f"against parent IQR {verdict['parent_iqr']:.6g}, over bound: "
          f"{', '.join(verdict['over_bound']) or 'none'})")

    record = {
        "about": "alternated parent/change pairs of one perfbench workload or of tier-1 "
                 "(tools/pairs.py): "
                 "every end-to-end metric per pair, medians and quartiles per tree, wins "
                 "and losses of the change per metric, and the gate on a gain in wall_s",
        "workload": args.workload,
        "parent": parent_rev,
        "change": change,
        "src_sha256": {tree: metas[tree]["partlab_src_sha256"] for tree in TREES},
        "run_seconds": seconds,
        "machine": {k: metas["change"][k] for k in ("nproc", "cpus_usable", "cpu_model", "python")},
        "pairs": pairs,
        "summary": table,
        "gate": verdict,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
