"""The four workloads: seeded task lists, and task bodies that call partlab's
public functions and check every answer against reference.py.

Each workload is a plan of task families, each with a task count and a size
band. Sizes are drawn one per equal-width stratum of the band, so a seed
changes the inputs but hardly the total work; that keeps runs on different
seeds comparable. The oracle's sizes, whose cost is exponential, are a fixed
grid; there the seed picks the constrained-count arguments and the order. Every task is closed-loop: the runner starts the next one
only after the last returned.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from operator import eq
from pathlib import Path
from time import monotonic
from typing import Callable

import partlab as pl

import reference as R
import speed


class Mismatch(Exception):
    """partlab returned an answer that disagrees with the reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass(frozen=True)
class Task:
    family: str
    run: Callable  # run(tr, want, *args); raises on a wrong answer
    want: Callable  # want(tables, *args) -> the reference answer
    args: tuple


class Tables:
    """Reference tables, computed once per run outside every timed region."""

    def __init__(self, p_max: int, e_max: int, q2_max: int) -> None:
        self.p = R.partition_counts(p_max)
        self.e = R.pentagonal_e(e_max)
        self.f = R.prefix_sums(self.e)
        self.q2 = R.strict_counts(q2_max, least_part=2)


def _sizes(rng: random.Random, plan: dict, family: str) -> list[int]:
    """The seeded sizes of one task family: one uniform draw per equal-width
    stratum of its band.

    The first and last strata take the band's ends, so the largest task, and
    with it peak memory and the latency tail, is the same on every seed.
    """
    count, lo, hi = plan[family]
    width = (hi - lo + 1) / count
    draws = [lo + int((i + rng.random()) * width) for i in range(count)]
    draws[0], draws[-1] = lo, hi
    return draws


def _grid(plan: dict, family: str) -> list[int]:
    """The sizes of a task family whose cost grows exponentially with size:
    evenly spaced over its band, the same on every seed. One step of n moves
    such a task's time by some 15%, so a seeded draw per stratum would move
    the latency tail with the seed rather than with partlab."""
    count, lo, hi = plan[family]
    return [round(lo + i * (hi - lo) / (count - 1)) for i in range(count)]


def _no_want(tables, *args):
    return None


# ------------------------------------------------------------------ engines

ENGINE_BANDS = {
    "euler": (1000, 3000),
    "integral": (400, 1200),
    "sigma": (400, 1200),
    "minpart": (200, 700),
    "bounded": (100, 400),
    "maxpart": (80, 300),
}
ENGINE_TASKS_PER_KIND = 18  # even: each pair of strata gets one sweep, one cold

ENGINES_PLAN = {
    f"engines.{kind}": (ENGINE_TASKS_PER_KIND, lo, hi)
    for kind, (lo, hi) in ENGINE_BANDS.items()
}


def _sweep(engine, n: int) -> list[int]:
    return [engine.p(m) for m in range(n + 1)]


def _run_engine(tr, want, kind: str, n: int, mode: str) -> None:
    engine = pl.make_engine(kind)
    if mode == "sweep":
        got = tr.span("engines.p", _sweep, engine, n, groups=(kind, mode))
    else:
        got = tr.span("engines.p", engine.p, n, groups=(kind, mode))
    tr.count(f"engines.{kind}.recurrent_terms", engine.recurrent_terms)
    expect(got == want, f"{kind} {mode} p({n}) disagrees with coin change")


def _want_engine(tables, kind, n, mode):
    return tables.p[: n + 1] if mode == "sweep" else tables.p[n]


def _build_engines(rng):
    tasks = []
    for kind in ENGINE_BANDS:
        ns = _sizes(rng, ENGINES_PLAN, f"engines.{kind}")
        for i in range(0, len(ns), 2):
            modes = ["sweep", "cold"]
            rng.shuffle(modes)
            for n, mode in zip(ns[i : i + 2], modes):
                tasks.append(Task(f"engines.{kind}", _run_engine, _want_engine, (kind, n, mode)))
    rng.shuffle(tasks)
    return tasks


# --------------------------------------------------------------- reductions

_TERMINATING = (
    pl.Classification.TERMINATING_BELOW,
    pl.Classification.TERMINATING_AT,
)


def _run_eval(tr, want, system, n):
    memo: dict = {}
    got = tr.span("rewrite.eval_atom", pl.eval_atom, system, pl.Primary(n), memo, groups=("eval",))
    tr.count("rewrite.atoms_evaluated", len(memo))
    expect(got == want, f"eval_atom {system.name} P({n}) disagrees with coin change")


def _want_p(tables, system, n, *rest):
    return tables.p[n]


def _extraction_want(tables, name: str, n: int):
    """Direct-recurrence constant and coefficients 1..n: maxpart reads off the
    prefix sums of e with constant 1, minpart e itself with constant 0."""
    if name == "maxpart":
        return 1, tables.f[1 : n + 1]
    return 0, tables.e[1 : n + 1]


def _run_dag(tr, want, system, n):
    dag = tr.span("dag.build_dag", pl.build_dag, system, n, groups=("build",))
    rec = tr.span("dag.extract_from_dag", pl.extract_from_dag, dag, groups=("extract",))
    tr.count("dag.vertices", len(dag.vertices))
    tr.count("dag.edges", len(dag.edges))
    got = (rec.constant, [rec.coeffs[j] for j in range(1, n + 1)])
    expect(got == want, f"{system.name} extraction at n~={n} disagrees with pentagonal e")


def _want_dag(tables, system, n):
    return _extraction_want(tables, system.name, n)


def _encode_all(paths):
    return [pl.code_of_path(p) for p in paths]


def _decode_all(n, codes):
    return [pl.decode_path(n, c) for c in codes]


def _lemma_all(n, codes):
    return [pl.lemma51(n, c) for c in codes]


def _run_paths(tr, want, system, n):
    paths = tr.span(
        "dag.enumerate_terminating_paths", pl.enumerate_terminating_paths, system, n,
        groups=("paths",),
    )
    sums = tr.span("dag.grouped_path_sums", pl.grouped_path_sums, paths, groups=("paths",))
    codes = tr.span("codes.code_of_path", _encode_all, paths)
    walks = tr.span("codes.decode_path", _decode_all, n, codes)
    reports = tr.span("codes.lemma51", _lemma_all, n, codes)
    tr.count("dag.paths", len(paths))
    tr.count("dag.path_vertices", sum(len(p.vertices) for p in paths))
    tr.count("codes.decoded", len(walks))
    expect([sums.get(j, 0) for j in range(1, n + 1)] == want,
           f"path sums at n~={n} disagree with the prefix sums of e")
    for path, code, walk, report in zip(paths, codes, walks, reports):
        bits = code.bits
        expect(R.code_polarity(bits) == path.sign, f"polarity of {bits} is not its path sign")
        expect(walk.classification in _TERMINATING, f"{bits} at n~={n} does not terminate")
        end_n, end_k = walk.walk[-1]
        expect(path.j == n - (end_n - end_k), f"{bits} at n~={n} ends at the wrong terminal")
        low = n - (len(bits) + 1)
        expect(report.terminating and low <= R.code_valuation(bits) <= n,
               f"termination bounds fail for {bits} at n~={n}")


def _want_paths(tables, system, n):
    return tables.f[1 : n + 1]


def _involve_all(j, codes):
    return [pl.involution(j, c) for c in codes]


def _run_involution(tr, want, j):
    here = tr.span("codes.enumerate_Bj", pl.enumerate_Bj, j)
    prev = tr.span("codes.enumerate_Bj", pl.enumerate_Bj, j - 1)
    codes = list(here + prev)
    images = tr.span("codes.involution", _involve_all, j, codes)
    back = tr.span("codes.involution", _involve_all, j, images)
    tr.count("codes.involution_images", len(images) + len(back))
    count_here, count_prev, e_j = want
    expect((len(here), len(prev)) == (count_here, count_prev),
           f"|B_{j}|, |B_{j - 1}| disagree with strict partitions into parts >= 2")
    expect(back == codes, f"involution at j={j} is not self-inverse")
    fixed = 0
    for code, image in zip(codes, images):
        v_code, v_image = R.code_valuation(code.bits), R.code_valuation(image.bits)
        expect(image.bits[:1] == "1" and v_image in (j, j - 1), f"{image.bits} left the domain")
        if image == code:
            fixed += 1
            expect(R.code_polarity(code.bits) == e_j, f"fixed point {code.bits} has the wrong sign")
        elif v_image != v_code:
            expect(R.code_polarity(image.bits) == R.code_polarity(code.bits),
                   f"{code.bits} pairs across valuations with a sign change")
        else:
            expect(R.code_polarity(image.bits) == -R.code_polarity(code.bits),
                   f"{code.bits} pairs within B_{j} without a sign change")
    expect(fixed == abs(e_j), f"{fixed} fixed points at j={j}, want {abs(e_j)}")
    telescoped = sum(R.code_polarity(c.bits) for c in here) - sum(
        R.code_polarity(c.bits) for c in prev
    )
    expect(telescoped == e_j, f"signed sums at j={j} telescope to {telescoped}, want {e_j}")


def _want_involution(tables, j):
    return tables.q2[j], tables.q2[j - 1], tables.e[j]


def _region_atoms(region) -> int:
    side = region.n_max + 1
    return side + side * (region.k_max + 1)


def _run_hygiene(tr, want, system, region):
    orth = tr.span("rewrite.check_orthogonal", pl.check_orthogonal, system, region,
                   groups=("hygiene",))
    atoms = _region_atoms(region)
    if want:
        unit = tr.span("rewrite.check_unitary", pl.check_unitary, system, region,
                       groups=("hygiene",))
        tr.count("rewrite.atoms_checked", 2 * atoms)
        expect(orth.ok and unit.ok, f"{system.name} fails hygiene on bound {region.n_max}")
    else:
        tr.count("rewrite.atoms_checked", atoms)
        expect(not orth.ok, f"overlapping {system.name} not flagged on bound {region.n_max}")


def _want_hygiene(tables, system, region):
    """Built-in systems are orthogonal and unitary; the naive variant is not."""
    return system.name != "minpart-naive"


def _hygiene_systems():
    systems = [pl.builtin_system(name) for name in pl.BUILTIN_NAMES]
    systems.append(pl.builtin_system("maxpart", completion=True))
    systems.append(pl.overlapping_minpart_rules())
    return systems


REDUCTIONS_PLAN = {
    **{f"rewrite.eval.{name}": (10, 60, 150) for name in pl.BUILTIN_NAMES},
    "dag.extract.maxpart": (10, 40, 100),
    "dag.extract.minpart": (10, 40, 100),
    "dag.paths.maxpart": (20, 20, 36),
    "codes.involution": (26, 20, 45),
    "rewrite.hygiene": (5, 30, 50),
}


def _build_reductions(rng):
    systems = {name: pl.builtin_system(name) for name in pl.BUILTIN_NAMES}
    tasks = []
    for name in pl.BUILTIN_NAMES:
        for n in _sizes(rng, REDUCTIONS_PLAN, f"rewrite.eval.{name}"):
            tasks.append(Task(f"rewrite.eval.{name}", _run_eval, _want_p, (systems[name], n)))
    for name in ("maxpart", "minpart"):
        for n in _sizes(rng, REDUCTIONS_PLAN, f"dag.extract.{name}"):
            tasks.append(Task(f"dag.extract.{name}", _run_dag, _want_dag, (systems[name], n)))
    for n in _sizes(rng, REDUCTIONS_PLAN, "dag.paths.maxpart"):
        tasks.append(Task("dag.paths.maxpart", _run_paths, _want_paths, (systems["maxpart"], n)))
    for j in _sizes(rng, REDUCTIONS_PLAN, "codes.involution"):
        tasks.append(Task("codes.involution", _run_involution, _want_involution, (j,)))
    bounds = _sizes(rng, REDUCTIONS_PLAN, "rewrite.hygiene")
    rng.shuffle(bounds)
    for system, bound in zip(_hygiene_systems(), bounds):
        region = pl.Region(n_max=bound, k_max=bound)
        tasks.append(Task("rewrite.hygiene", _run_hygiene, _want_hygiene, (system, region)))
    rng.shuffle(tasks)
    return tasks


# --------------------------------------------------------------- crosscheck

ORACLE_BAND = (28, 42)
COEFF_BAND = (300, 1200)


def _run_oracle(tr, want, fn_name, n, *rest):
    got = tr.span(f"oracle.{fn_name}", getattr(pl, fn_name), n, *rest, groups=("count",))
    expected, covered = want
    tr.count("oracle.calls")
    tr.count("oracle.partitions", covered)
    expect(got == expected, f"{fn_name}{(n, *rest)} disagrees with coin change")


def _want_oracle(tables, fn_name, n, *rest):
    """(answer, partitions the call enumerates): strict calls walk the strict
    family, every other call all of P(n)."""
    if fn_name == "p_oracle":
        return tables.p[n], tables.p[n]
    if fn_name == "s_oracle":
        q = R.strict_counts(n)[n]
        return q, q
    if fn_name == "max_part_histogram":
        return R.max_part_histogram(n), tables.p[n]
    family, constraint, k = rest
    covered = R.strict_counts(n)[n] if family == "S" else tables.p[n]
    return R.constrained_count(n, family, constraint, k), covered


def _list_partitions(n):
    return list(pl.enumerate_partitions(n))


def _run_listing(tr, want, n):
    got = tr.span("oracle.enumerate_partitions", _list_partitions, n, groups=("list",))
    tr.count("oracle.calls")
    tr.count("oracle.partitions", len(got))
    expect(len(got) == want, f"listing of {n} has {len(got)} partitions, want {want}")
    expect(all(a > b for a, b in zip(got, got[1:])),
           f"listing of {n} is not strictly descending lexicographic")
    descending = map(tuple, map(partial(sorted, reverse=True), got))
    expect(set(map(sum, got)) == {n} and all(map(eq, got, descending)),
           f"listing of {n} holds a tuple that is no partition of {n}")


def _want_listing(tables, n):
    return tables.p[n]


_COEFF_ROUTES = {
    "c": ("c_from_product", "c_from_recurrence"),
    "e": ("euler_seq", "e_from_recurrence"),
}


def _run_coeffs(tr, want, series, upto):
    got = [tr.span(f"coefficients.{name}", getattr(pl, name), upto).values
           for name in _COEFF_ROUTES[series]]
    tr.count("coefficients.calls", len(got))
    tr.count("coefficients.terms", sum(len(v) for v in got))
    for name, values in zip(_COEFF_ROUTES[series], got):
        expect(list(values) == want, f"{name}({upto}) disagrees with the pentagonal closed form")


def _want_coeffs(tables, series, upto):
    # c equals the prefix sums of e at every index
    return tables.f[: upto + 1] if series == "c" else tables.e[: upto + 1]


def _run_verify(tr, want, suite):
    report = tr.span("verify.run", pl.run_verify, suite, groups=(suite,))
    tr.count("verify.checks", len(report.checks))
    failing = ", ".join(c.name for c in report.failures)
    expect(report.ok and report.checks, f"verify {suite} failed: {failing}")


_ORACLE_FNS = ("p_oracle", "s_oracle", "count_constrained", "max_part_histogram")
_CONSTRAINTS = ("none", "parts_below", "parts_above", "max_part", "min_part")
ORACLE_TASKS = 10
COEFF_TASKS = 23

CROSSCHECK_PLAN = {
    **{f"oracle.{fn}": (ORACLE_TASKS, *ORACLE_BAND) for fn in _ORACLE_FNS},
    "oracle.enumerate_partitions": (ORACLE_TASKS, *ORACLE_BAND),
    **{f"coefficients.{s}": (COEFF_TASKS, *COEFF_BAND) for s in _COEFF_ROUTES},
    **{f"verify.{suite}": (1, None, None) for suite in pl.SUITES},
}


def _build_crosscheck(rng):
    tasks = []
    for fn in _ORACLE_FNS:
        for i, n in enumerate(_grid(CROSSCHECK_PLAN, f"oracle.{fn}")):
            rest = ()
            if fn == "count_constrained":
                rest = ("PS"[i % 2], _CONSTRAINTS[i % len(_CONSTRAINTS)], rng.randint(1, n // 2))
            tasks.append(Task(f"oracle.{fn}", _run_oracle, _want_oracle, (fn, n, *rest)))
    for n in _grid(CROSSCHECK_PLAN, "oracle.enumerate_partitions"):
        tasks.append(Task("oracle.enumerate_partitions", _run_listing, _want_listing, (n,)))
    for series in _COEFF_ROUTES:
        for upto in _sizes(rng, CROSSCHECK_PLAN, f"coefficients.{series}"):
            tasks.append(Task(f"coefficients.{series}", _run_coeffs, _want_coeffs, (series, upto)))
    for suite in pl.SUITES:
        tasks.append(Task(f"verify.{suite}", _run_verify, _no_want, (suite,)))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------- cli

CLI_TIMEOUT_S = 30.0  # below the runner's per-task limit, so a stuck child is reaped here
PEAK_MARK = "\nperfbench-peak-kb "
# The plab entry point, made to report its own peak resident memory on exit.
# wait4's ru_maxrss cannot serve: it also counts the parent's pages that the
# child was forked with, and the parent is the larger of the two.
CLI_ENTRY = f"""\
import atexit, sys

def report_peak():
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write({PEAK_MARK!r} + peak + "\\n")

atexit.register(report_peak)
from partlab.cli import console_main
console_main()
"""


def spawn(argv, env, cwd, timeout):
    """Run a child to completion; (exit code, stdout, stderr).

    A child that outlives timeout is killed and reported with exit code None.
    """
    timed_out = False
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=cwd) as proc:
        chunks: dict = {proc.stdout: [], proc.stderr: []}
        try:
            with selectors.DefaultSelector() as sel:
                for stream in chunks:
                    sel.register(stream, selectors.EVENT_READ)
                deadline = monotonic() + timeout
                while sel.get_map():
                    ready = sel.select(max(0.0, deadline - monotonic()))
                    if not ready:
                        timed_out = True
                        proc.kill()
                        break
                    for key, _ in ready:
                        data = os.read(key.fd, 1 << 16)
                        if data:
                            chunks[key.fileobj].append(data)
                        else:
                            sel.unregister(key.fileobj)
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.wait()
    out = b"".join(chunks[proc.stdout]).decode()
    err = b"".join(chunks[proc.stderr]).decode()
    return (None if timed_out else proc.returncode), out, err


def _run_cli(tr, want, argv, env, cwd, check):
    code, out, err = tr.span(
        f"cli.{argv[0]}", spawn, [sys.executable, "-c", CLI_ENTRY, *argv], env, cwd,
        CLI_TIMEOUT_S,
    )
    head, mark, peak_kb = err.rpartition(PEAK_MARK)
    if mark:
        err = head
    tr.count("cli.calls")
    expect(code is not None, f"plab {' '.join(argv)} timed out after {CLI_TIMEOUT_S} s")
    if code != 0:
        tr.count("cli.exit_nonzero")
    expect(code == 0, f"plab {' '.join(argv)} exited {code}: {err.strip()[-300:]}")
    expect(bool(mark), f"plab {' '.join(argv)} did not report its peak memory")
    tr.peak_child_kb = max(tr.peak_child_kb, int(peak_kb))
    check(out, want, argv)


def _check_count(out, want, argv):
    if "json" in argv:
        method = argv[argv.index("--method") + 1]
        got = json.loads(out)["counts"][method]
    else:
        got = out.strip()
    expect(got == str(want), f"plab {' '.join(argv)} printed {got[:40]}, want {want}")


def _want_count(tables, argv, *rest):
    return tables.p[int(argv[1])]


def _check_series(out, want, argv):
    if "csv" in argv:
        lines = out.strip().splitlines()
        expect(lines[0] == "index,value", f"plab {' '.join(argv)}: bad CSV header")
        got = [int(line.split(",")[1]) for line in lines[1:]]
    else:
        got = [v for _, v in sorted((int(i), v) for i, v in json.loads(out)["values"].items())]
    expect(got == want, f"plab {' '.join(argv)} disagrees with the pentagonal closed form")


def _want_series(tables, argv, *rest):
    upto = int(argv[2])
    return tables.e[: upto + 1] if argv[1].startswith("e") else tables.f[: upto + 1]


def _check_extraction(out, want, argv):
    data = json.loads(out)
    values = data["coefficients"] if argv[0] == "dag" else data["values"]
    got = (data["constant"], [values[str(j)] for j in range(1, len(want[1]) + 1)])
    expect(got == want, f"plab {' '.join(argv)} disagrees with the pentagonal closed form")
    if "--paths" in argv:
        sums: dict = {}
        for path in data["paths"]:
            sums[path["j"]] = sums.get(path["j"], 0) + path["sign"]
        expect([sums.get(j, 0) for j in range(1, len(want[1]) + 1)] == want[1],
               f"plab {' '.join(argv)}: path sums disagree with the coefficients")


def _want_extraction(tables, argv, *rest):
    name = argv[1].removeprefix("dag-")
    return _extraction_want(tables, name, int(argv[2]))


def _check_dag_plain(out, want, argv):
    constant, _ = want
    head = out.splitlines()[1]
    expect(head.endswith(f"constant {constant}"), f"plab {' '.join(argv)}: {head!r}")


def _check_dag_dot(out, want, argv):
    _, coeffs = want
    names = {line.split('"')[1] for line in out.splitlines() if "[shape=" in line}
    expect(out.startswith("digraph") and out.rstrip().endswith("}"),
           f"plab {' '.join(argv)}: not a DOT graph")
    expect(f"R_{argv[2]}" in names, f"plab {' '.join(argv)}: no root vertex")
    missing = [j for j, c in enumerate(coeffs, 1) if c and f"P_{j}" not in names]
    expect(not missing, f"plab {' '.join(argv)}: no terminal vertex for j in {missing}")


def _check_involution(out, want, argv):
    count, e_j = want
    if "csv" in argv:
        rows = out.strip().splitlines()[1:]
        expect(len(rows) == count, f"plab {' '.join(argv)}: {len(rows)} rows, want {count}")
        signed = {}
        for row in rows:
            _, v, pol, _, _ = row.split(",")
            signed[int(v)] = signed.get(int(v), 0) + int(pol)
        j = int(argv[1])
        got = signed.get(j, 0) - signed.get(j - 1, 0)
    else:
        data = json.loads(out)
        expect(len(data["pairs"]) == count, f"plab {' '.join(argv)}: wrong number of codes")
        got = data["difference"]
    expect(got == e_j, f"plab {' '.join(argv)}: signed sums differ by {got}, want {e_j}")


def _want_involution_cli(tables, argv, *rest):
    j = int(argv[1])
    return tables.q2[j] + tables.q2[j - 1], tables.e[j]


def _check_pentagonal(out, want, argv):
    got = [(row["valuation"], row["polarity"]) for row in json.loads(out)]
    expect(got == want, f"plab {' '.join(argv)} disagrees with the pentagonal numbers")


def _want_pentagonal(tables, argv, *rest):
    count = int(argv[2])
    found = [(v, tables.e[v]) for v in range(2, len(tables.e)) if tables.e[v]]
    return found[:count]


def _check_decode(out, want, argv):
    data = json.loads(out)
    got = (data["valuation"], data["polarity"], data["partition"], len(data["walk"]))
    expect(got == want, f"plab {' '.join(argv)} printed {got}, want {want}")


def _want_decode(tables, argv, *rest):
    bits = argv[3]
    ones = R.one_indices(bits)
    return R.code_valuation(bits), R.code_polarity(bits), ones, len(bits) + 2 - ones[-1]


def _check_encode(out, want, argv):
    data = json.loads(out)
    expect((data["code"], data["valuation"]) == want, f"plab {' '.join(argv)} printed {data}")


def _want_encode(tables, argv, *rest):
    parts = [int(p) for p in argv[2:-2]]
    return R.code_of_parts(parts), sum(parts)


def _check_bj(out, want, argv):
    rows = json.loads(out)
    j = int(argv[2])
    codes = {row["code"] for row in rows}
    expect(len(rows) == want == len(codes), f"plab {' '.join(argv)}: {len(rows)} codes, want {want}")
    expect(all(R.code_valuation(row["code"]) == j == sum(row["partition"]) for row in rows),
           f"plab {' '.join(argv)}: a code of the wrong valuation")


def _want_bj(tables, argv, *rest):
    return tables.q2[int(argv[2])]


def _check_verify(out, want, argv):
    last = out.strip().splitlines()[-1]
    passed, total = last.split()[0].split("/")
    expect(passed == total, f"plab {' '.join(argv)}: {last}")


def _check_bench(out, want, argv):
    rows = json.loads(out)
    got = sorted((row["engine"], row["n"], row["p"]) for row in rows)
    expect(got == want, f"plab {' '.join(argv)}: engines disagree with coin change")


def _want_bench(tables, argv, *rest):
    n = int(argv[1])
    return sorted((str(kind), n, str(tables.p[n])) for kind in pl.EngineKind)


_COUNT_BANDS = {
    "euler": (4, 200, 600),
    "integral": (4, 100, 300),
    "sigma": (4, 100, 300),
    "minpart": (4, 100, 250),
    "bounded": (4, 60, 150),
    "maxpart": (4, 40, 120),
    "oracle": (2, 15, 25),
    **{f"rewrite:{name}": (2, 30, 60) for name in pl.BUILTIN_NAMES},
}
_SERIES = ("e", "f", "c-product", "c-recurrence", "e-recurrence")

CLI_PLAN = {
    **{f"cli.count.{m}": band for m, band in _COUNT_BANDS.items()},
    **{f"cli.coeffs.{kind}": (3, 100, 300) for kind in _SERIES},
    **{f"cli.coeffs.dag-{name}": (3, 20, 40) for name in ("maxpart", "minpart")},
    "cli.dag.maxpart": (4, 10, 24),
    "cli.dag.minpart": (4, 10, 24),
    "cli.involution": (10, 10, 24),
    "cli.codes.pentagonal": (3, 5, 20),
    "cli.codes.decode": (6, 10, 30),
    "cli.codes.encode": (6, 2, 5),
    "cli.codes.bj": (6, 8, 24),
    "cli.verify.claim": (4, None, None),
    "cli.verify.rewrite": (4, None, None),
    "cli.bench": (4, 60, 120),
}


def _build_cli(rng):
    root = Path(pl.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    jobs = []  # (family, argv, check, want)

    for method in _COUNT_BANDS:
        for i, n in enumerate(_sizes(rng, CLI_PLAN, f"cli.count.{method}")):
            fmt = ["--format", "json"] if i % 2 else []
            jobs.append((f"cli.count.{method}", ["count", str(n), "--method", method, *fmt],
                         _check_count, _want_count))
    for kind in _SERIES:
        for i, n in enumerate(_sizes(rng, CLI_PLAN, f"cli.coeffs.{kind}")):
            fmt = ("json", "csv", "json")[i]
            jobs.append((f"cli.coeffs.{kind}", ["coeffs", kind, str(n), "--format", fmt],
                         _check_series, _want_series))
    for name in ("maxpart", "minpart"):
        for n in _sizes(rng, CLI_PLAN, f"cli.coeffs.dag-{name}"):
            jobs.append((f"cli.coeffs.dag-{name}", ["coeffs", f"dag-{name}", str(n)],
                         _check_extraction, _want_extraction))
        for i, n in enumerate(_sizes(rng, CLI_PLAN, f"cli.dag.{name}")):
            argv = ["dag", name, str(n), "--format"]
            if i == 0:
                jobs.append((f"cli.dag.{name}", [*argv, "dot"], _check_dag_dot, _want_extraction))
            elif i == 1:
                jobs.append((f"cli.dag.{name}", [*argv, "plain"], _check_dag_plain,
                             _want_extraction))
            else:
                paths = ["--paths"] if name == "maxpart" else []
                jobs.append((f"cli.dag.{name}", [*argv, "json", *paths], _check_extraction,
                             _want_extraction))
    for i, j in enumerate(_sizes(rng, CLI_PLAN, "cli.involution")):
        jobs.append(("cli.involution", ["involution", str(j), "--format", ("json", "csv")[i % 2]],
                     _check_involution, _want_involution_cli))
    for count in _sizes(rng, CLI_PLAN, "cli.codes.pentagonal"):
        jobs.append(("cli.codes.pentagonal", ["codes", "pentagonal", str(count), "--format", "json"],
                     _check_pentagonal, _want_pentagonal))
    for n in _sizes(rng, CLI_PLAN, "cli.codes.decode"):
        bits = "1" + "".join(rng.choice("01") for _ in range(rng.randint(3, 9)))
        jobs.append(("cli.codes.decode", ["codes", "decode", str(n), bits, "--format", "json"],
                     _check_decode, _want_decode))
    for size in _sizes(rng, CLI_PLAN, "cli.codes.encode"):
        parts = sorted(rng.sample(range(2, 16), size), reverse=True)
        jobs.append(("cli.codes.encode",
                     ["codes", "encode", *map(str, parts), "--format", "json"],
                     _check_encode, _want_encode))
    for j in _sizes(rng, CLI_PLAN, "cli.codes.bj"):
        jobs.append(("cli.codes.bj", ["codes", "bj", str(j), "--format", "json"],
                     _check_bj, _want_bj))
    for suite in ("claim", "rewrite"):
        for _ in range(CLI_PLAN[f"cli.verify.{suite}"][0]):
            jobs.append((f"cli.verify.{suite}", ["verify", suite], _check_verify, _no_want))
    for n in _sizes(rng, CLI_PLAN, "cli.bench"):
        jobs.append(("cli.bench", ["bench", str(n), "--format", "json"], _check_bench, _want_bench))

    rng.shuffle(jobs)
    return [
        Task(family, _run_cli, want, (argv, env, str(root), check))
        for family, argv, check, want in jobs
    ]


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    build: Callable  # build(rng) -> list[Task]
    plan: dict  # family -> (task count, band low, band high)
    table_sizes: tuple  # Tables(p_max, e_max, q2_max)
    kernel: speed.Kernel  # measures the machine's speed for its task times


WORKLOADS = {
    "engines": Workload(_build_engines, ENGINES_PLAN, (3000, 0, 0), speed.PYTHON),
    "reductions": Workload(_build_reductions, REDUCTIONS_PLAN, (150, 100, 45), speed.PYTHON),
    "crosscheck": Workload(_build_crosscheck, CROSSCHECK_PLAN, (42, 1200, 0), speed.PYTHON),
    "cli": Workload(_build_cli, CLI_PLAN, (600, 300, 24), speed.SPAWN),
}


def build(workload: str, seed: int) -> list[Task]:
    """The workload's task list; the same seed gives the same list."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
