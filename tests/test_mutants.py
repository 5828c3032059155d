"""The judge table of tools/mutants.py: every module of src/partlab is judged
first by test files that exist, so no mutant falls back to the full tier-1."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_module_has_a_judge():
    modules = sorted(p.stem for p in mutants.PACKAGE.glob("*.py"))
    assert [m for m in modules if mutants.judge_files(m) is None] == []
    # a row only for a module that exists and has no test file of its own
    assert [m for m in mutants.JUDGES
            if m not in modules or (ROOT / "tests" / f"test_{m}.py").exists()] == []


def test_a_module_without_a_judge_is_an_error(monkeypatch, capsys):
    monkeypatch.delitem(mutants.JUDGES, "errors")
    assert mutants.main(["errors"]) == 2
    assert capsys.readouterr().err == (
        "no judge for module(s) errors: add tests/test_<module>.py or a row of JUDGES\n"
    )
