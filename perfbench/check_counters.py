"""One-off check that partlab's work counters match the recorded baseline.

    python3 perfbench/check_counters.py

Sweeps p(0..1000) on a fresh engine of each kind and builds the maxpart and
minpart reduction DAGs at n~ = 100. Prints every counter beside its recorded
value and exits 1 on any mismatch. Counters are machine-independent, so the
values hold on any machine and any Python version.
"""

from __future__ import annotations

import sys

from run import import_partlab

SWEEP_N = 1000
RECURRENT_TERMS = {
    "euler": 33_475,
    "integral": 333_450,
    "sigma": 500_500,
    "minpart": 1_500_500,
    "maxpart": 1_744_008,
    "bounded": 3_786_915,
}
DAG_N = 100
DAG_SIZES = {"maxpart": (6_583, 10_568), "minpart": (7_651, 10_100)}


def main() -> int:
    pl = import_partlab()
    mismatches = 0

    def report(label: str, got, want) -> None:
        nonlocal mismatches
        ok = got == want
        mismatches += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label:34} {got!s:>16}  recorded {want}")

    for kind, want in RECURRENT_TERMS.items():
        engine = pl.make_engine(kind)
        for n in range(SWEEP_N + 1):
            engine.p(n)
        report(f"{kind} recurrent_terms p(0..{SWEEP_N})", engine.recurrent_terms, want)
    for name, want in DAG_SIZES.items():
        dag = pl.build_dag(pl.builtin_system(name), DAG_N)
        report(f"{name} DAG vertices/edges n~={DAG_N}", (len(dag.vertices), len(dag.edges)), want)
    if mismatches:
        print(f"{mismatches} counter(s) differ from the recorded baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
