"""One-site mutation sweep of src/partlab.

Usage: python tools/mutants.py [MODULE ...]

MODULE is a module name under src/partlab, such as `codes`; with none, every
module is swept. Each mutant changes one site of the module's syntax tree:

  * a comparison `<`/`<=`, `>`/`>=` or `==`/`!=` becomes its partner,
  * a binary or augmented `+`/`-` becomes the other,
  * an integer constant c becomes c + 1,

and is written with ast.unparse. Mutants with the same text count once. The
unmutated unparse must pass the full tier-1 first, or the module is skipped
and the sweep exits 1. Survivors do not change the exit status. These
baseline runs, one per swept module, share the two workers and all run
before any mutant is judged.

A mutant's judge is tests/test_<module>.py run with -x, or for a module
without that file the test files JUDGES lists for it; a module with neither
is an error that names it, and nothing is swept. A mutant its judge does not
kill is rerun against the full tier-1, and one that still passes is a
survivor. A run that takes longer than three times the unmutated tier-1 run
plus 30 s kills the mutant, and so does one that needs more than 2 GiB of
address space (a limit every run inherits from the sweep).
Every run uses --hypothesis-seed=0 and -p no:cacheprovider, without
PLAB_BUDGET and with no hypothesis database carried over from an earlier run.

Two workers each judge mutants in their own copy of the repository, made
without __pycache__ and run with PYTHONDONTWRITEBYTECODE=1: a mutant of the
same size as the module, written within the same second as it, could
otherwise be served the module's stale bytecode. The sweep prints, per
module, the mutant count and each survivor with its line, column and source
text. Only the standard library is used. The package does not import this
file; tests/test_mutants.py loads it to check that every module has a judge.
"""

from __future__ import annotations

import ast
import os
import queue
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "partlab"
WORKERS = 2
# address space per run: a mutant that loops while allocating stops here
MEMORY_LIMIT = 2 << 30
PYTEST = [sys.executable, "-m", "pytest", "-q", "--hypothesis-seed=0", "-p", "no:cacheprovider"]
TIER1 = [*PYTEST, "--continue-on-collection-errors"]
# the test files that judge a module with no tests/test_<module>.py of its own
JUDGES = {
    **dict.fromkeys(["_cmd_bench", "_cmd_codes", "_cmd_coeffs", "_cmd_count", "_cmd_dag",
                     "_cmd_involution", "_cmd_verify"],
                    ["tests/test_cli.py", "tests/test_cli_golden.py"]),
    "__main__": ["tests/test_cli.py"],
    "__init__": ["tests/test_package.py"],
    "_value": ["tests/test_package.py"],
    "errors": ["tests/test_package.py"],
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-",
}


def _sites(tree: ast.AST):
    """Yield (node, field, index) for every mutable site, in walk order.

    index is the position in a Compare's ops, and None elsewhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, "ops", i
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            yield node, "op", None
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, "value", None


def _mutate(node: ast.AST, field: str, index: int | None) -> str:
    """Apply one mutation in place and describe it."""
    if field == "value":
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if field == "ops":
        old = node.ops[index]
        node.ops[index] = SWAPS[type(old)]()
    else:
        old = node.op
        node.op = SWAPS[type(old)]()
    return f"{SYMBOLS[type(old)]} -> {SYMBOLS[SWAPS[type(old)]]}"


def mutants(source: str) -> tuple[str, list[tuple[int, int, str, str]]]:
    """The unmutated unparse, and (line, column, change, text) for each
    distinct mutant; the column is that of the mutated node, from 1."""
    original = ast.unparse(ast.parse(source))
    count = sum(1 for _ in _sites(ast.parse(source)))
    seen = {original}
    out = []
    for i in range(count):
        tree = ast.parse(source)
        node, field, index = next(islice(_sites(tree), i, None))
        change = _mutate(node, field, index)
        text = ast.unparse(tree)
        if text not in seen:
            seen.add(text)
            out.append((node.lineno, node.col_offset + 1, change, text))
    return original, out


def _copy_tree(dst: Path) -> None:
    skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    shutil.copytree(ROOT, dst, ignore=skip)


def _passes(workdir: Path, argv: list[str], limit: float) -> bool:
    """Run argv in workdir; True if it exits 0 within limit seconds."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PLAB_BUDGET"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
    with subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=limit) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False


class Sweep:
    """Worker copies handed out one job at a time."""

    def __init__(self, base: Path) -> None:
        self.free: queue.Queue[Path] = queue.Queue()
        for i in range(WORKERS):
            workdir = base / f"worker{i}"
            _copy_tree(workdir)
            self.free.put(workdir)

    def run(self, module: str, text: str, argv: list[str], limit: float) -> tuple[bool, float]:
        """Whether argv passes with the module's source replaced by text."""
        workdir = self.free.get()
        target = workdir / "src" / "partlab" / f"{module}.py"
        original = target.read_text()
        start = time.perf_counter()
        try:
            target.write_text(text)
            return _passes(workdir, argv, limit), time.perf_counter() - start
        finally:
            target.write_text(original)
            self.free.put(workdir)


def judge_files(module: str) -> list[str] | None:
    """The test files that judge a mutant of module first, relative to the
    repository; None when one of them does not exist."""
    files = JUDGES.get(module, [f"tests/test_{module}.py"])
    return files if all((ROOT / f).is_file() for f in files) else None


def baseline(sweep: Sweep, module: str) -> tuple[bool, float]:
    """Whether tier-1 passes on the module's unmutated unparse, and its seconds."""
    source = (PACKAGE / f"{module}.py").read_text()
    return sweep.run(module, ast.unparse(ast.parse(source)), TIER1, 600)


def sweep_module(sweep: Sweep, pool: ThreadPoolExecutor, module: str, judge: list[str],
                 baseline_run: tuple[bool, float]) -> bool:
    """Sweep one module, given its baseline, and print its mutants and
    survivors; False if skipped."""
    ok, seconds = baseline_run
    if not ok:
        print(f"{module}: SKIPPED, the unmutated unparse fails tier-1", flush=True)
        return False
    source = (PACKAGE / f"{module}.py").read_text()
    lines = source.splitlines()
    _, found = mutants(source)
    limit = 3 * seconds + 30
    passed = list(pool.map(lambda m: sweep.run(module, m[3], judge, limit)[0], found))
    alive = [m for m, p in zip(found, passed) if p]
    passed = list(pool.map(lambda m: sweep.run(module, m[3], TIER1, limit)[0], alive))
    alive = [m for m, p in zip(alive, passed) if p]
    print(f"{module}: {len(found)} mutants, {len(alive)} survivors", flush=True)
    for line, column, change, _ in alive:
        print(f"  {module}.py:{line}:{column}: {change}: {lines[line - 1].strip()}", flush=True)
    return True


def main(argv: list[str]) -> int:
    known = sorted(p.stem for p in PACKAGE.glob("*.py"))
    unknown = [m for m in argv if m not in known]
    if unknown:
        print(f"unknown module(s) {', '.join(unknown)}; choose from {', '.join(known)}",
              file=sys.stderr)
        return 2
    judges = {m: judge_files(m) for m in argv or known}
    unjudged = [m for m, files in judges.items() if files is None]
    if unjudged:
        print(f"no judge for module(s) {', '.join(unjudged)}: add tests/test_<module>.py "
              "or a row of JUDGES", file=sys.stderr)
        return 2
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))  # inherited by every run
    with tempfile.TemporaryDirectory(prefix="mutants-") as base:
        sweep = Sweep(Path(base))
        with ThreadPoolExecutor(WORKERS) as pool:
            baselines = pool.map(lambda module: baseline(sweep, module), judges)
            swept = [sweep_module(sweep, pool, module, [*PYTEST, "-x", *files], run)
                     for (module, files), run in zip(judges.items(), baselines)]
    return 0 if all(swept) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
