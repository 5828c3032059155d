"""The package's export list, its lazy loading, and what its source raises and
computes: PartlabErrors and exact integers."""

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


# The raises that are not a PartlabError, by file and the spelling of what is
# raised, each for the protocol that needs that exact type
NOT_PARTLAB_ERRORS = {
    ("cli.py", "ArgumentTypeError"): "argparse's signal from a type= converter: exit 2",
    ("cli.py", "_UsageError"): "a misuse argparse cannot see: main prints it, exit 2",
    ("_cmd_bench.py", "_UsageError"): "an engine list argparse cannot check: exit 2",
    ("_cmd_dag.py", "_UsageError"): "a root index twice, or --completion off maxpart: exit 2",
    ("cli.py", "SystemExit"): "console_main hands main's exit code to the interpreter",
    ("__init__.py", "AttributeError"): "how a module __getattr__ reports an unknown name",
    ("_value.py", "AttributeError"): "how setattr and delattr refuse an immutable value",
}


def _package_trees():
    for path in sorted((SRC / "partlab").glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_every_raise_is_a_partlab_error():
    # what the package raises on purpose is a PartlabError, so plab's exit 3 and
    # a caller's except PartlabError catch no bug; budget.exceeded builds a
    # BudgetExceeded. Every class errors.py defines is built outside it or is
    # a base, so no error class is dead
    classes = [value for value in vars(partlab.errors).values()
               if isinstance(value, type) and value.__module__ == "partlab.errors"]
    ours = {cls.__name__ for cls in classes if issubclass(cls, partlab.PartlabError)}
    bases = {base.__name__ for cls in classes for base in cls.__bases__}
    stray, allowed, built = [], set(), set()
    for file, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and file != "errors.py":
                built.add(_spelling(node.func))
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc and _spelling(exc)
            if (file, name) in NOT_PARTLAB_ERRORS:
                allowed.add((file, name))
            elif name not in ours and name != "exceeded":
                stray.append(f"{file}:{node.lineno} raise {name}")
    assert stray == []
    assert allowed == set(NOT_PARTLAB_ERRORS)
    assert sorted({cls.__name__ for cls in classes} - built - bases) == []


# Each entry point that takes a size, by the argument's name, with one call per
# check of errors.nonnegative; name=None marks a call that passes a wrong type
# elsewhere, with the message its function already gives
SIZES = {
    "Engine.p": ("n", lambda n: partlab.make_engine("euler").p(n)),
    "pentagonal_index": ("n", partlab.pentagonal_index),
    "euler_seq": ("upto", partlab.euler_seq),
    "integrated_f": ("upto", partlab.integrated_f),
    "sigma_table": ("upto", partlab.sigma_table),
    "euler_product": ("upto", partlab.euler_product),
    "c_from_product": ("upto", partlab.c_from_product),
    "f_equals_e_predicate": ("n", partlab.f_equals_e_predicate),
    "p_oracle": ("n", partlab.p_oracle),
    "count_constrained": ("n", lambda n: partlab.count_constrained(n, "S")),
    "decode_path": ("n_tilde", lambda n: partlab.decode_path(n, "1")),
    "lemma51": ("n_tilde", lambda n: partlab.lemma51(n, "1")),
    "enumerate_Bj": ("valuation", partlab.enumerate_Bj),
    "pentagonal_codes": ("count", partlab.pentagonal_codes),
    # run_verify checks every bound before any suite runs
    **{f"VerifyConfig.{field}": (
        field, lambda v, field=field: partlab.run_verify("all", partlab.VerifyConfig(**{field: v}))
    ) for field in partlab.VerifyConfig._fields},
}
# Each entry point that checks an int a rule, a constraint, a region's bound or
# the pairing judges, negative ones included, with errors.integer alone: once
# per call, at entry; both hygiene checks read the bounds through Region.atoms
MINPART, MAXPART = partlab.builtin_system("minpart"), partlab.builtin_system("maxpart")
INTS = {
    "build_dag": ("n_tilde", lambda n: partlab.build_dag(MAXPART, n)),
    "eval_atom-P": ("n", lambda n: partlab.eval_atom(MINPART, partlab.Primary(n))),
    "eval_atom-A": ("k", lambda k: partlab.eval_atom(MINPART, partlab.Auxiliary(5, k))),
    "count_constrained-k": ("k", lambda k: partlab.count_constrained(10, "P", "max_part", k=k)),
    "check_unitary-n_max": (
        "n_max", lambda n: partlab.check_unitary(MINPART, partlab.Region(n, 3))
    ),
    "check_orthogonal-k_max": (
        "k_max", lambda k: partlab.check_orthogonal(MINPART, partlab.Region(3, k))
    ),
    "involution": ("j", lambda j: partlab.involution(j, "101")),
    "dot_name": ("n_tilde", lambda n: partlab.dot_name(partlab.Primary(3), n)),
}
WRONG_TYPES = [
    *(pytest.param(call, value, f"{name} must be an int, got {value!r}", id=f"{where}-{value!r}")
      for where, (name, call) in {**SIZES, **INTS}.items() for value in (True, 1.5, "3", None)
      if (where, value) != ("count_constrained-k", None)),  # k=None is no k
    pytest.param(partlab.PathCode, 101, "code must be over 0/1, got 101", id="PathCode"),
    pytest.param(partlab.valuation, 101, "code must be over 0/1, got 101", id="valuation"),
    pytest.param(partlab.make_engine, ["euler"], "['euler'] is not a valid EngineKind",
                 id="make_engine"),
    pytest.param(partlab.run_verify, ["x"],
                 "unknown suite ['x']; pick from engines, claim, lemmas, involution, rewrite, all",
                 id="run_verify"),
    pytest.param(lambda c: partlab.count_constrained(5, "P", c), ["x"],
                 "unknown constraint ['x']", id="count_constrained-constraint"),
    pytest.param(partlab.from_strict_partition, [2, True],
                 "parts must be positive ints, got (2, True)", id="from_strict_partition"),
    *(pytest.param(partlab.from_strict_partition, value,
                   f"parts must be positive ints, got {value!r}", id=f"from_strict_partition-{value}")
      for value in (None, 5, 1.5, True)),
    *(pytest.param(lambda values: partlab.CoeffSeq("e", values), value,
                   f"e-sequence values must be ints, got {shown}", id=f"CoeffSeq-{value!r}")
      for value, shown in (((1.0, 0.0), [1.0, 0.0]), ((True, False), [True, False]),
                           # the first four values that are no int
                           ((0, 1.0, None, "1", 1, 0.0, False), [1.0, None, "1", 0.0]),
                           (None, None))),
]


@pytest.mark.parametrize(("call", "value", "message"), WRONG_TYPES)
def test_an_argument_of_the_wrong_type_is_invalid(call, value, message):
    # a bool is an int to Python, but no size: True would count as 1
    with pytest.raises(partlab.InvalidArgument) as info:
        call(value)
    assert str(info.value) == message


def test_a_negative_verify_bound_is_refused():
    with pytest.raises(partlab.InvalidArgument) as info:
        partlab.run_verify("all", partlab.VerifyConfig(engine_limit=-5))
    assert str(info.value) == "engine_limit must be nonnegative, got -5"


def test_a_negative_int_argument_is_judged_not_refused():
    # a negative n~ or atom field has no rule; a negative k counts nothing, a
    # negative bound holds no atom, and a negative j's B_j holds no code
    with pytest.raises(partlab.NoRuleApplies, match=r"^maxpart: no rule applies at P\(-1\)$"):
        INTS["build_dag"][1](-1)
    with pytest.raises(partlab.NoRuleApplies, match=r"^minpart: no rule applies at P\(-1\)$"):
        INTS["eval_atom-P"][1](-1)
    with pytest.raises(partlab.NoRuleApplies, match=r"^minpart: no rule applies at A\(5,-2\)$"):
        INTS["eval_atom-A"][1](-2)
    assert INTS["count_constrained-k"][1](-2) == 0
    assert INTS["check_unitary-n_max"][1](-1).violations == []
    assert INTS["check_orthogonal-k_max"][1](-1).overlaps == []
    with pytest.raises(partlab.InvalidArgument,
                       match=r"^'101' \(valuation 6\) outside B_-1 \+ B_-2$"):
        INTS["involution"][1](-1)


def _in_functions(tree):
    """(name of the innermost def around it, or "", node) for every node."""
    stack = [("", tree)]
    while stack:
        where, node = stack.pop()
        yield where, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        stack.extend((where, child) for child in ast.iter_child_nodes(node))


def test_sizes_are_checked_in_one_place():
    # "must be nonnegative" is raised by errors.nonnegative alone and "must be
    # an int" by errors.integer alone, so every size and every int argument
    # follows one rule; cli._nonneg's is argparse's own signal
    raised = []
    for file, tree in _package_trees():
        for where, node in _in_functions(tree):
            if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and ("must be nonnegative" in str(c.value)
                                                 or "must be an int" in str(c.value))
                for c in ast.walk(node)
            ):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((file, where, _spelling(exc)))
    assert sorted(raised) == [
        ("cli.py", "_nonneg", "ArgumentTypeError"),
        ("errors.py", "integer", "InvalidArgument"),
        ("errors.py", "nonnegative", "InvalidArgument"),
    ]


def test_arithmetic_is_exact():
    # no float literal, no true division and no float(); bench rounds its timer's
    # seconds, which is the one float the package makes
    inexact = []
    for file, tree in _package_trees():
        for where, node in _in_functions(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                what = repr(node.value)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                what = "/"
            elif isinstance(node, ast.Call) and _spelling(node.func) in ("float", "round"):
                what = f"{_spelling(node.func)}()"
            else:
                continue
            inexact.append((file, where, what, node.lineno))
    assert [entry[:3] for entry in inexact] == [("_cmd_bench.py", "run", "round()")], inexact


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


def test_each_subcommand_loads_its_own_module_alone():
    # a call compiles and builds the one subcommand it runs, and --help none;
    # each module is dropped after its call, so the next call loads its own
    shapes = [["--help"], ["count", "10"], *map(list, CLI_SHAPES)]
    got = _fresh(
        "import contextlib, io, json, sys\n"
        "from partlab.cli import main\n"
        "runs = []\n"
        f"for argv in {shapes!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    loaded = sorted(m for m in sys.modules if m.startswith('partlab._cmd_'))\n"
        "    runs.append([argv, code, loaded])\n"
        "    for m in loaded:\n"
        "        del sys.modules[m]\n"
        "print(json.dumps(runs))"
    )
    assert got == [
        [argv, 0, [f"partlab._cmd_{argv[0]}"] if argv != ["--help"] else []] for argv in shapes
    ]


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


def test_verify_suites_load_only_the_layers_they_check():
    # claim checks the coefficient series alone; rewrite needs the engines
    # but neither the path codes nor the oracle beneath them
    got = _fresh(
        "import contextlib, io, json, sys\n"
        "from partlab.cli import main\n"
        "runs = {}\n"
        "for suite in ('claim', 'rewrite'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(['verify', suite])\n"
        "    runs[suite] = [code, " + LOADED + "]\n"
        "print(json.dumps(runs))"
    )
    claim_code, after_claim = got["claim"]
    rewrite_code, after_rewrite = got["rewrite"]
    assert (claim_code, rewrite_code) == (0, 0)
    assert "partlab.coefficients" in after_claim
    layers = {f"partlab.{name}" for name in ("codes", "dag", "engines", "oracle", "rewrite")}
    assert not layers & set(after_claim)
    assert {"partlab.dag", "partlab.rewrite"} <= set(after_rewrite)
    assert not {"partlab.codes", "partlab.oracle"} & set(after_rewrite)


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


def test_submodules_load_on_first_access():
    # here every submodule is imported already, so its attribute never reaches
    # the package's __getattr__; in a new interpreter it does
    got = _fresh(
        "import json\nimport partlab\n"
        f"print(json.dumps([getattr(partlab, name).__name__ for name in {SUBMODULES!r}]))"
    )
    assert got == [f"partlab.{name}" for name in SUBMODULES]


def test_run_verify_is_verify_run():
    assert partlab.run_verify is partlab.verify.run_verify


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partlab.no_such_name
    assert not hasattr(partlab, "no_such_name")


def test_dir_lists_the_exports():
    assert set(partlab.__all__) <= set(dir(partlab))
