"""The gate of tools/pairs.py on synthetic pairs and on a recorded A/A set, its
check on --seeds, the command its tier1 workload runs, where it writes the two
trees, and how its record names the change."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = {
    "wall_s": {"unit": "s", "bound": 0.25},
    "peak_rss_mb": {"unit": "MB", "bound": 0.15},
}
PARENT_WALL = [1.79, 1.81, 1.80, 1.78, 1.82, 1.80, 1.79, 1.81, 1.83, 1.77]


def _pairs(change_wall, change_rss=30.0):
    return [
        {"parent": {"wall_s": p, "peak_rss_mb": 30.0},
         "change": {"wall_s": c, "peak_rss_mb": change_rss}}
        for p, c in zip(PARENT_WALL, change_wall)
    ]


def _verdict(pair_list):
    return pairs.gate(pairs.tabulate(pair_list, METRICS), METRICS)


def test_ties_count_for_neither_side():
    verdict = _verdict(_pairs(PARENT_WALL))
    assert (verdict["wins"], verdict["median_gap"]) == (0, 0)
    assert not verdict["enough_wins"] and not verdict["gap_beyond_iqr"]
    assert verdict["over_bound"] == [] and not verdict["passed"]
    row = pairs.tally(_pairs(PARENT_WALL), "wall_s", "s")
    assert (row["wins"], row["losses"]) == (0, 0)


def test_nine_wins_of_ten_pass():
    change = [1.50] * 9 + [1.90]  # the last pair is a loss
    verdict = _verdict(_pairs(change))
    assert verdict["wins"] == 9 and verdict["pairs"] == 10
    assert verdict["enough_wins"] and verdict["gap_beyond_iqr"]
    assert verdict["passed"]
    # one more loss, and the wins fall short
    verdict = _verdict(_pairs([1.50] * 8 + [1.90] * 2))
    assert verdict["wins"] == 8 and not verdict["enough_wins"] and not verdict["passed"]


def test_gap_inside_parent_iqr_fails():
    # every pair a win, but the medians differ by less than the parent's spread
    change = [p - 0.005 for p in PARENT_WALL]
    verdict = _verdict(_pairs(change))
    assert verdict["wins"] == 10 and verdict["enough_wins"]
    assert 0 < verdict["median_gap"] < verdict["parent_iqr"]
    assert not verdict["gap_beyond_iqr"] and not verdict["passed"]


def test_other_metric_past_its_bound_fails():
    change = [1.50] * 10
    assert _verdict(_pairs(change, change_rss=34.0))["passed"]  # +13%
    verdict = _verdict(_pairs(change, change_rss=35.0))  # +17%
    assert verdict["over_bound"] == ["peak_rss_mb"] and not verdict["passed"]


def test_fewer_than_ten_pairs_never_pass():
    # three wins of three, far beyond the parent's spread, are still too few pairs
    verdict = _verdict(_pairs([1.50] * 3))
    assert (verdict["wins"], verdict["pairs"]) == (3, 3)
    assert verdict["gap_beyond_iqr"] and verdict["over_bound"] == []
    assert not verdict["enough_wins"] and not verdict["passed"]


def test_recorded_a_a_pairs_fail_the_gate():
    # BENCH_28_aa.json pairs one clean tree with itself on crosscheck: both
    # sides run the same source, so the gate must not see a gain
    record = json.loads((ROOT / "BENCH_28_aa.json").read_text())
    assert record["change"] == {"commit": record["parent"], "dirty": False}
    assert record["src_sha256"]["parent"] == record["src_sha256"]["change"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    verdict = pairs.gate(pairs.tabulate(record["pairs"], metrics), metrics)
    assert verdict["pairs"] >= pairs.MIN_PAIRS and not verdict["passed"]
    assert verdict == record["gate"]


def test_one_seed_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        pairs.main(["--parent", "HEAD", "--workload", "crosscheck", "--seeds", "41",
                    "--out", str(tmp_path / "bench.json")])
    assert stop.value.code == 2 and "at least 2 seeds" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_tier1_runs_the_tier1_verify_command(tmp_path, monkeypatch):
    # no pytest runs: subprocess.run is replaced by a recorder
    (tmp_path / "src" / "partlab").mkdir(parents=True)
    (tmp_path / "src" / "partlab" / "oracle.py").write_text("ORACLE_CAP = 80\n")
    calls = []

    def recorded(argv, **kwargs):
        calls.append((argv, kwargs))
        return subprocess.CompletedProcess(argv, 0, "544 passed in 10.0s\n", "")

    monkeypatch.setattr(pairs.subprocess, "run", recorded)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    metrics, meta = pairs.run_tier1(tmp_path)
    argv, kwargs = calls[0]
    assert argv == [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONPATH"] == os.pathsep.join((str(tmp_path / "src"), "elsewhere"))
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert list(metrics) == ["wall_s"] and metrics["wall_s"] >= 0
    assert len(meta["partlab_src_sha256"]) == 64
    # a failing tier-1 run is no measurement
    monkeypatch.setattr(
        pairs.subprocess, "run",
        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 1, "1 failed\n", ""),
    )
    with pytest.raises(SystemExit, match="tier-1: exited 1"):
        pairs.run_tier1(tmp_path)


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_both_trees_are_written_out_side_by_side(tmp_path):
    repo, out = tmp_path / "repo", tmp_path / "out"
    repo.mkdir()
    out.mkdir()
    _git(repo, "init", "-q")
    (repo / "src").mkdir()
    (repo / "src" / "engines.py").write_text("SHORT = 32\n")
    (repo / "gone.py").write_text("")
    (repo / ".gitignore").write_text("perfbench/out/\n")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "first")
    head = _git(repo, "rev-parse", "HEAD")
    # uncommitted: an edit, a deletion, a new file, and an ignored one
    (repo / "src" / "engines.py").write_text("SHORT = 64\n")
    (repo / "gone.py").unlink()
    (repo / "src" / "new.py").write_text("NEW = 1\n")
    (repo / "perfbench" / "out").mkdir(parents=True)
    (repo / "perfbench" / "out" / "run.json").write_text("{}")

    trees = pairs.write_trees(repo, head, out)
    assert trees == {"parent": out / "parent", "change": out / "change"}
    assert (trees["parent"] / "src" / "engines.py").read_text() == "SHORT = 32\n"
    assert (trees["parent"] / "gone.py").exists()
    assert (trees["change"] / "src" / "engines.py").read_text() == "SHORT = 64\n"
    assert (trees["change"] / "src" / "new.py").read_text() == "NEW = 1\n"
    assert not (trees["change"] / "gone.py").exists()
    assert not (trees["change"] / "perfbench").exists()
    assert (trees["change"] / ".gitignore").is_file()


def test_change_is_head_with_a_dirty_flag(tmp_path):
    def git(*args):
        return _git(tmp_path, *args)

    git("init", "-q")
    (tmp_path / "engines.py").write_text("SHORT = 32\n")
    git("add", "engines.py")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "HEAD")
    assert pairs.checkout(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "engines.py").write_text("SHORT = 64\n")
    assert pairs.checkout(tmp_path) == {"commit": head, "dirty": True}
    git("checkout", "-q", "engines.py")
    (tmp_path / "new.py").write_text("")
    assert pairs.checkout(tmp_path) == {"commit": head, "dirty": True}
