"""The package's export list and its lazy loading."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import partlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = (
    "budget", "codes", "coefficients", "dag", "engines", "errors", "oracle", "rewrite",
    "verify",
)


def test_all_lists_every_public_name_once():
    assert len(partlab.__all__) == len(set(partlab.__all__))
    for name in partlab.__all__:
        getattr(partlab, name)
    public = {
        name
        for name, value in vars(partlab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(partlab.__all__) == public


def _names_used(paths) -> set[str]:
    """Every name read, attribute accessed and string constant in the files."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def _public_methods(cls) -> list[str]:
    """The methods and properties a class defines itself, without fields
    (which are descriptors of other types) and dunders."""
    kinds = (FunctionType, property, staticmethod, classmethod)
    return [
        f"{cls.__name__}.{name}"
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, kinds)
    ]


def test_every_exported_function_is_run():
    # an exported function, or a method or property of an exported class, that
    # neither the package nor perfbench reaches is run by its own tests alone.
    # Names are matched by spelling alone: a method is missed when a name it
    # shares is read somewhere
    modules = [p for p in (SRC / "partlab").glob("*.py") if p.name != "__init__.py"]
    used = _names_used([*modules, *(ROOT / "perfbench").glob("*.py")])
    exported = {n: getattr(partlab, n) for n in partlab.__all__}
    functions = [n for n, value in exported.items() if isinstance(value, FunctionType)]
    classes = [value for value in exported.values() if isinstance(value, type)]
    methods = [m for cls in classes for m in _public_methods(cls)]
    unused = [name for name in functions + methods if name.rpartition(".")[2] not in used]
    assert unused == []


def _fresh(code: str) -> dict:
    """Run code in a new interpreter with this checkout's partlab; it prints
    one JSON line, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('partlab.'))"


def test_import_loads_no_submodule():
    assert _fresh(f"import json, sys\nimport partlab\nprint(json.dumps({LOADED}))") == []


def test_count_loads_only_what_it_runs():
    got = _fresh(
        "import contextlib, io, sys\n"
        "before = {m: m in sys.modules for m in ('dataclasses', 'json')}\n"
        "from partlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['count', '10'])\n"
        "after = {m: m in sys.modules for m in before}\n"
        "import json\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(), 'loaded': " + LOADED + ",\n"
        "    'after': after, 'before': before}))"
    )
    assert (got["code"], got["out"]) == (0, "42\n")
    assert not {"partlab.verify", "partlab.dag", "partlab.rewrite", "partlab.codes"} & set(
        got["loaded"]
    )
    assert got["before"]["dataclasses"] or not got["after"]["dataclasses"]
    assert got["before"]["json"] or not got["after"]["json"]


# One argument list for each subcommand shape that perfbench's cli workload runs.
CLI_SHAPES = (
    *(["count", "12", "--method", f"rewrite:{name}"] for name in ("minpart", "bounded", "maxpart")),
    ["coeffs", "dag-maxpart", "10"],
    ["coeffs", "dag-minpart", "10"],
    ["dag", "maxpart", "8", "--format", "json", "--paths"],
    ["involution", "10", "--format", "csv"],
    ["codes", "pentagonal", "5", "--format", "json"],
    ["codes", "decode", "10", "1011", "--format", "json"],
    ["codes", "encode", "5", "3", "2", "--format", "json"],
    ["codes", "bj", "10", "--format", "json"],
    ["verify", "claim"],
    ["verify", "rewrite"],
    ["bench", "20", "--format", "json"],
)


def test_no_subcommand_loads_dataclasses():
    # dataclasses costs every plab process its import, and inspect's with it
    got = _fresh(
        "import contextlib, io, json, sys\n"
        "heavy = ('dataclasses', 'inspect')\n"
        "before = [m for m in heavy if m in sys.modules]\n"
        "from partlab.cli import main\n"
        "runs = []\n"
        f"for argv in {CLI_SHAPES!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    runs.append([argv, code, [m for m in heavy if m in sys.modules and m not in before]])\n"
        "print(json.dumps(runs))"
    )
    assert [(argv, code) for argv, code, _ in got] == [(list(a), 0) for a in CLI_SHAPES]
    assert [(argv, loaded) for argv, _, loaded in got if loaded] == []


def test_first_access_loads_the_owner_once():
    got = _fresh(
        "import json, sys\nimport partlab\n"
        "first = partlab.valuation\n"
        "print(json.dumps({'loaded': " + LOADED + ",\n"
        "    'cached': 'valuation' in vars(partlab) and partlab.valuation is first,\n"
        "    'owner': first is sys.modules['partlab.codes'].valuation}))"
    )
    assert got["cached"] and got["owner"]
    assert "partlab.codes" in got["loaded"] and "partlab.dag" not in got["loaded"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    module = getattr(partlab, name)
    assert isinstance(module, ModuleType) and module.__name__ == f"partlab.{name}"


def test_run_verify_is_verify_run():
    assert partlab.run_verify is partlab.verify.run


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partlab.no_such_name
    assert not hasattr(partlab, "no_such_name")


def test_dir_lists_the_exports():
    assert set(partlab.__all__) <= set(dir(partlab))
