"""The package's export list and its lazy loading."""

import ast
import inspect
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


def _spelling(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _defaulted(fn) -> set[str]:
    """The names of a function node's defaulted parameters."""
    a = fn.args
    positional = a.posonlyargs + a.args
    named = positional[len(positional) - len(a.defaults) :]
    named += [p for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return {p.arg for p in named}


def _passed(paths) -> dict[str, set]:
    """What some call in the files passes, by the callee's spelling: argument
    positions (ints), keywords (strs), or "*" for every parameter.

    f(a, k=b) and x.f(a, k=b) pass position 0 and k to f. A function passed in
    an argument list, as in span("label", f, a, b), takes the arguments after
    it. A starred argument passes every parameter. An argument that only
    forwards a defaulted parameter of the function it is written in passes
    nothing, so a wrapper cannot make its own default look used.
    """
    passed: dict[str, set] = {}

    def note(callee, args, keywords, forwards):
        if callee is None:
            return
        got = passed.setdefault(callee, set())
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                got.add("*")
            elif not (isinstance(arg, ast.Name) and arg.id in forwards):
                got.add(i)
        for kw in keywords:
            if kw.arg is None:
                got.add("*")
            elif not (isinstance(kw.value, ast.Name) and kw.value.id in forwards):
                got.add(kw.arg)

    def visit(node, forwards):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            forwards = forwards | _defaulted(node)
        elif isinstance(node, ast.Call):
            note(_spelling(node.func), node.args, node.keywords, forwards)
            for i, arg in enumerate(node.args):
                note(_spelling(arg), node.args[i + 1 :], (), forwards)
        for child in ast.iter_child_nodes(node):
            visit(child, forwards)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), set())
    return passed


# perfbench's crosscheck calls the oracle functions as getattr(pl, name)(n,
# *rest), which no spelling follows; rest carries count_constrained's k
PASSED_DYNAMICALLY = {"count_constrained": {"k"}}


def test_every_defaulted_parameter_is_passed():
    # a defaulted parameter of an exported function that no call in the package
    # or perfbench passes is set by its own tests alone
    modules = [p for p in (SRC / "partlab").glob("*.py") if p.name != "__init__.py"]
    passed = _passed([*modules, *(ROOT / "perfbench").glob("*.py")])
    unpassed = []
    for name in partlab.__all__:
        fn = getattr(partlab, name)
        if not isinstance(fn, FunctionType):
            continue
        got = passed.get(name, set()) | passed.get(fn.__name__, set())
        got |= PASSED_DYNAMICALLY.get(name, set())
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is param.empty or "*" in got:
                continue
            by_position = param.kind is not param.KEYWORD_ONLY and i in got
            if not by_position and param.name not in got:
                unpassed.append(f"{name}({param.name}=)")
    assert unpassed == []


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


def test_codes_commands_load_no_reduction_layer():
    # paths come from dag, but decoding and the involution need neither dag
    # nor the rewrite layer beneath it
    got = _fresh(
        "import contextlib, io, json, sys\n"
        "from partlab.cli import main\n"
        "runs = []\n"
        "for argv in (['codes', 'decode', '10', '1011'], ['involution', '7']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        runs.append(main(argv))\n"
        "print(json.dumps({'codes': runs, 'loaded': " + LOADED + "}))"
    )
    assert got["codes"] == [0, 0]
    assert "partlab.codes" in got["loaded"]
    assert not {"partlab.dag", "partlab.rewrite"} & set(got["loaded"])


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
