"""The package's export list and its lazy loading."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import partlab

SRC = Path(__file__).resolve().parents[1] / "src"
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
        "import contextlib, io, json, sys\n"
        "before = 'dataclasses' in sys.modules\n"
        "from partlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['count', '10'])\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(), 'loaded': " + LOADED + ",\n"
        "    'dataclasses': 'dataclasses' in sys.modules, 'before': before}))"
    )
    assert (got["code"], got["out"]) == (0, "42\n")
    assert not {"partlab.verify", "partlab.dag", "partlab.rewrite", "partlab.codes"} & set(
        got["loaded"]
    )
    assert got["before"] or not got["dataclasses"]


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
