"""Layered benchmark for partlab.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a partlab checkout; the package is imported from the
checkout's src/ and nowhere else. One client runs the workload's seeded task
list closed-loop, in whole passes, until the next pass would end after
--seconds, and at least once (twice with --trace 1). Every answer is checked
against perfbench/reference.py. A fixed kernel (speed.py) measures the machine's
speed between every two tasks and inside each, and every time metric is given
at the reference speed it defines.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Run metadata, the sample counts and any
failures go to the lines before it and to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("engines", "reductions", "crosscheck", "cli")
SETUP_PROBES = 11
TASK_TIMEOUT_S = 60


def import_partlab():
    """partlab from this checkout's src/, or exit nonzero."""
    if not (SRC / "partlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no partlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import partlab

    if Path(partlab.__file__).resolve().parent != (SRC / "partlab").resolve():
        raise SystemExit(f"error: imported partlab from {partlab.__file__}, not {SRC}")
    return partlab


def report_setup(workload: str, seed: int) -> None:
    """Cold import and input build in a fresh interpreter, between two runs of
    the speed kernel; prints seconds and the scale to reference speed."""
    before = speed.PYTHON.run()
    t0 = perf_counter()
    import_partlab()
    t1 = perf_counter()
    import workloads

    workloads.build(workload, seed)
    t2 = perf_counter()
    scale = speed.scale([before, speed.PYTHON.run()], speed.PYTHON)
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "scale": scale}))


@dataclass
class Probe:
    setup_s: float  # measured
    import_s: float  # measured
    scale: float  # to reference speed

    @property
    def scaled_setup_s(self) -> float:
        return self.setup_s * self.scale


def probe_setup(workload: str, seed: int) -> Probe:
    """Set-up time of one fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if probe.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {probe.stderr.strip()}")
    times = json.loads(probe.stdout.splitlines()[-1])
    return Probe(times["setup_s"], times["import_s"], times["scale"])


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task ran past {TASK_TIMEOUT_S} s")


@dataclass
class Pass:
    tracer: spans.NoTrace
    latencies: list[float]  # measured, per task
    scales: list[float]  # per task, from measured to reference-speed time
    failures: list[str]

    @property
    def traced(self) -> bool:
        return isinstance(self.tracer, spans.Tracer)

    @property
    def scaled(self) -> list[float]:
        return [t * s for t, s in zip(self.latencies, self.scales)]


def run_pass(tasks, wants, tracer, sampler) -> Pass:
    """One closed-loop pass over the task list, the speed kernel between
    every two tasks and inside each."""
    latencies, scales, failures = [], [], []
    before = sampler.kernel.run()
    for i, (task, want) in enumerate(zip(tasks, wants)):
        tracer.task = i
        # Every task starts from a collected heap, so the collections inside
        # it do not depend on what ran before it.
        gc.collect()
        sampler.start()
        t0 = sampler.clock()
        signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
        try:
            tracer.span("bench.task", task.run, tracer, want, *task.args)
        except Exception as exc:  # every failure is counted and reported
            failures.append(f"task {i} ({task.family}): {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            inside = sampler.stop()
        latencies.append(sampler.clock() - t0)
        after = sampler.kernel.run()
        scales.append(speed.scale([before, *inside, after], sampler.kernel))
        before = after
    return Pass(tracer, latencies, scales, failures)


def task_latencies(passes, scaled: bool = True) -> list[float]:
    """Each task's median latency over the given passes."""
    runs = (p.scaled if scaled else p.latencies for p in passes)
    return [statistics.median(times) for times in zip(*runs)]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "partlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, workload_def, tasks, n_passes: int, cpus, cpu: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "partlab_commit": git_commit(),
        "partlab_src_sha256": source_digest(),
        "tasks_per_pass": len(tasks),
        "passes": n_passes,
        "plan": {
            family: {"tasks": count, "band": [lo, hi]}
            for family, (count, lo, hi) in workload_def.plan.items()
        },
    }


def pin_to_one_cpu() -> int:
    """Keep this process and every child it starts on one CPU, the one the
    speed kernel measures."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args, spec) -> int:
    cpus = os.sched_getaffinity(0)
    cpu = pin_to_one_cpu()
    probes = [probe_setup(args.workload, args.seed)]  # fails fast without partlab
    import_partlab()
    import workloads

    tasks = workloads.build(args.workload, args.seed)
    workload_def = workloads.WORKLOADS[args.workload]
    tables = workloads.Tables(*workload_def.table_sizes)
    wants = [task.want(tables, *task.args) for task in tasks]
    gc.collect()
    gc.freeze()  # set-up objects are never collected; the collections cost tasks less

    signal.signal(signal.SIGALRM, _on_alarm)
    sampler = speed.Sampler(workload_def.kernel)
    min_passes = 2 if args.trace else 1  # a traced run needs an untraced pass too
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        # set-up probes are spread over the run
        probes.append(probe_setup(args.workload, args.seed))
        traced = args.trace == 1 and len(passes) % 2 == 1
        tracer = spans.Tracer(sampler.clock) if traced else spans.NoTrace()
        passes.append(run_pass(tasks, wants, tracer, sampler))
        elapsed = perf_counter() - start
        if passes[-1].failures:
            break
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(args.workload, args.seed))

    failures = [f for p in passes for f in p.failures]
    counters = passes[0].tracer.counters
    if any(p.tracer.counters != counters for p in passes):
        failures.append("work counters differ between passes of the same task list")
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    latencies = task_latencies(untraced)
    raw = task_latencies(untraced, scaled=False)
    # percentiles over every task run of every untraced pass
    samples = [t for p in untraced for t in p.scaled]
    raw_samples = [t for p in untraced for t in p.latencies]
    p90_ms = 1000 * percentile(samples, 90)
    beyond_p90 = sum(1 for t in samples if 1000 * t > p90_ms)

    if args.trace:
        values = dict(counters)
        for name in {k for p in traced for k in p.tracer.busy(p.scales)}:
            values[name] = statistics.median(p.tracer.busy(p.scales)[name] for p in traced)
        values["cli.import_s"] = statistics.median(p.import_s * p.scale for p in probes)
        if traced and untraced:
            values["trace.overhead_s"] = sum(task_latencies(traced)) - sum(latencies)
        declared = spec["per_layer"]
    else:
        if args.workload == "cli":
            peak_kb = max(p.tracer.peak_child_kb for p in passes)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(p.scaled_setup_s for p in probes),
            "wall_s": sum(latencies),
            "task_p50_ms": 1000 * percentile(samples, 50),
            "task_p90_ms": p90_ms,
            "peak_rss_mb": peak_kb / 1024,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "metadata": metadata(args, workload_def, tasks, len(passes), cpus, cpu),
        "failed_frac": failed / attempted,
        "latency_samples": len(samples),
        "samples_beyond_p90": beyond_p90,
        "speed_kernel": workload_def.kernel.name,
        "reference_kernel_s": workload_def.kernel.reference_s,
        "measured": {
            "setup_s": statistics.median(p.setup_s for p in probes),
            "wall_s": sum(raw),
            "task_p50_ms": 1000 * percentile(raw_samples, 50),
            "task_p90_ms": 1000 * percentile(raw_samples, 90),
        },
        "setup_probes": [[p.setup_s, p.import_s, p.scale] for p in probes],
        "pass_walls_s": [sum(p.latencies) for p in passes],
        "pass_traced": [p.traced for p in passes],
        "pass_latencies_s": [p.latencies for p in passes],
        "pass_scales": [p.scales for p in passes],
        "counters": dict(counters),
        "failures": failures[:20],
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        span_file = OUT / f"{stem}-spans.jsonl"
        span_file.unlink(missing_ok=True)
        for i, p in enumerate(passes):
            if p.traced:
                p.tracer.dump(span_file, i)

    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps(record["metadata"]))
    for name, metric in metrics.items():
        print(f"{name:34} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in record["measured"].items():
        print(f"{name + ' (measured)':34} {value:>16.6f}")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted} tasks, "
          f"{len(samples)} latency samples, {beyond_p90} beyond p90)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{workload}: exited {child.returncode}", file=sys.stderr)
            return 1
        print(f"== {workload}")
        print("\n".join(lines[1:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        report_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
