"""The plab command line: output formats and exit codes."""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from partlab import BUILTIN_NAMES, ORACLE_CAP, SUITES, EngineKind, dag, engines, verify
from partlab._cmd_verify import SUITE_NAMES, VERIFY_DAG_CAP, VERIFY_ORACLE_CAP
from partlab.cli import (
    ENGINE_NAMES,
    SYSTEM_NAMES,
    build_parser,
    console_main,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "100")
    assert code == 0
    assert out.strip() == "190569292"


def test_count_all_engines_json(capsys):
    code, out, _ = run(capsys, "count", "10", "--method", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10
    assert set(payload["counts"].values()) == {"42"}
    assert set(payload["counts"]) == {
        "euler",
        "integral",
        "sigma",
        "minpart",
        "bounded",
        "maxpart",
    }


def test_count_method_spellings(capsys):
    # --method names an engine, the oracle or a rewrite system
    code, out, _ = run(capsys, "count", "5", "--method", "euler")
    assert (code, out.strip()) == (0, "7")
    code, out, _ = run(capsys, "count", "6", "--method", "oracle")
    assert (code, out.strip()) == (0, "11")
    code, out, _ = run(capsys, "count", "6", "--method", "rewrite:bounded")
    assert (code, out.strip()) == (0, "11")


def test_count_oracle_refuses_large(capsys):
    code, _, err = run(capsys, "count", "90", "--method", "oracle")
    assert code == 3
    assert "80" in err


def test_a_bug_escapes_main(capsys, monkeypatch):
    # exit 3 is a PartlabError; any other exception is a bug and keeps its traceback
    def broken(self, m):
        raise ValueError("not enough values to unpack")

    monkeypatch.setattr(engines.SigmaEngine, "_next", broken)
    with pytest.raises(ValueError, match="^not enough values to unpack$") as raised:
        main(["count", "5", "--method", "sigma"])
    assert type(raised.value) is ValueError
    assert capsys.readouterr().err == ""


def test_count_usage_error(capsys):
    code, _, err = run(capsys, "count", "--", "-3")
    assert code == 2
    assert "nonnegative" in err


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "e", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "index,value",
        "0,-1",
        "1,1",
        "2,1",
        "3,0",
        "4,0",
        "5,-1",
    ]


def test_coeffs_json_default(capsys):
    code, out, _ = run(capsys, "coeffs", "f", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "f"
    assert payload["values"]["0"] == -1
    assert payload["values"]["6"] == 0


def test_coeffs_dag_kinds_agree(capsys):
    code, out, _ = run(capsys, "coeffs", "dag-maxpart", "8")
    payload_dag = json.loads(out)
    code2, out, _ = run(capsys, "coeffs", "f", "8")
    payload_f = json.loads(out)
    assert code == code2 == 0
    assert payload_dag["constant"] == 1
    for j in range(1, 9):
        assert payload_dag["values"][str(j)] == payload_f["values"][str(j)]


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "claim")
    assert code == 0
    assert "checks passed" in out


def test_verify_upto_override(capsys):
    code, out, err = run(capsys, "verify", "claim", "--upto", "60")
    assert code == 0
    assert "checks passed" in out
    assert "warning" in err  # 60 exceeds a default bound


@pytest.mark.parametrize("upto", ["1", "2"])
def test_verify_small_upto_passes(capsys, upto):
    # the naive variant's first overlap, A(3, 2), lies outside bound 2
    code, out, _ = run(capsys, "verify", "--upto", upto)
    assert code == 0, out
    assert "ok   rewrite:overlapping-variant-flagged  (1 overlapping atoms)" in out


def test_verify_failing_check_exits_one(capsys, monkeypatch):
    planted = [verify.Check("claim", "planted", False, "n<=0")]
    monkeypatch.setitem(verify.SUITES, "claim", lambda cfg: planted)
    code, out, _ = run(capsys, "verify", "claim")
    assert code == 1
    assert out == "FAIL claim:planted  (n<=0)\n0/1 checks passed\n"


def test_verify_upto_at_a_default_does_not_warn(capsys):
    # 16 raises no bound: it equals dag_limit's default and is below the rest
    code, out, err = run(capsys, "verify", "--upto", "16")
    assert code == 0, out
    assert err == ""


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "claim", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(check["passed"] for check in payload["checks"])


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "invalid choice" in err


def test_dag_dot(capsys):
    code, out, _ = run(capsys, "dag", "minpart", "2")
    assert code == 0
    assert out.startswith('digraph "minpart_2" {')
    assert '"A_2_2" -> "A_0_1" [label="-"];' in out


def test_dag_json_with_paths(capsys):
    code, out, _ = run(capsys, "dag", "maxpart", "6", "--format", "json", "--paths")
    assert code == 0
    payload = json.loads(out)
    assert payload["constant"] == 1
    assert payload["coefficients"]["2"] == 1
    assert any(v["name"] == "R_6" for v in payload["vertices"])
    assert all(edge["sign"] in (-1, 1) for edge in payload["edges"])
    assert all(set(p) == {"vertices", "sign", "j"} for p in payload["paths"])


def test_dag_paths_build_the_graph_once(capsys, monkeypatch):
    calls = []
    real = dag.build_dag

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dag, "build_dag", counting)
    code, out, _ = run(capsys, "dag", "maxpart", "30", "--format", "json", "--paths")
    assert code == 0 and json.loads(out)["paths"]
    assert len(calls) == 1


def test_dag_single_root_at_zero(capsys):
    code, out, _ = run(capsys, "dag", "maxpart", "0", "--format", "plain")
    assert code == 0
    assert "vertices 1  edges 0" in out


def test_dag_missing_arguments(capsys):
    code, _, err = run(capsys, "dag", "minpart")
    assert code == 2 and "required: n_tilde" in err


def test_dag_completion_misuse(capsys):
    code, _, err = run(capsys, "dag", "minpart", "4", "--completion")
    assert code == 2
    assert "maxpart" in err


def test_involution_csv(capsys):
    code, out, _ = run(capsys, "involution", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "code,valuation,polarity,image,relation"
    assert "1000,5,1,100,same-sign-pair" in lines
    assert "11,5,-1,11,fixed" in lines


def test_involution_relations_match_the_rows(capsys):
    # at j = 9, 1100 <-> 111 is a rule-two pair; every label is checked against
    # the valuation and polarity its own row and its image's row print
    code, out, _ = run(capsys, "involution", "9", "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "code,valuation,polarity,image,relation"
    rows = {}
    for line in lines:
        bits, v, sign, image, relation = line.split(",")
        rows[bits] = (int(v), int(sign), image, relation)
    assert rows["1100"][2:] == ("111", "opposite-sign-pair")
    assert rows["111"][2:] == ("1100", "opposite-sign-pair")
    for bits, (v, sign, image, relation) in rows.items():
        image_v, image_sign = rows[image][:2]
        if image == bits:
            assert relation == "fixed"
        elif image_v == v:
            assert relation == "opposite-sign-pair" and image_sign == -sign
        else:
            assert relation == "same-sign-pair" and image_sign == sign


def test_involution_json_difference(capsys):
    code, out, _ = run(capsys, "involution", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["difference"] == -1  # pentagonal coefficient at 7


def test_codes_decode_json(capsys):
    code, out, _ = run(capsys, "codes", "decode", "10", "1011", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["walk"] == [[10, 2], [8, 3], [9, 4], [5, 5]]
    assert payload["classification"] == "terminating_below_boundary"
    assert payload["terminating"] is True
    assert payload["partition"] == [5, 3, 2]


def test_codes_decode_invalid(capsys):
    code, _, err = run(capsys, "codes", "decode", "10", "000")
    assert code == 3
    assert "error:" in err


def test_codes_encode(capsys):
    code, out, _ = run(capsys, "codes", "encode", "5", "3", "2")
    assert code == 0
    assert out.strip() == "1011"


def test_codes_bj(capsys):
    code, out, _ = run(capsys, "codes", "bj", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["code"] for entry in payload] == ["1000", "11"]


def test_codes_pentagonal(capsys):
    code, out, _ = run(capsys, "codes", "pentagonal", "3")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["1", "011", "1001"]


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "40", "--engine", "euler", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "engine,n,terms,seconds"
    assert lines[1].startswith("euler,40,")


def test_bench_seconds_are_each_sweeps_wall_time(capsys):
    # rounded to microseconds, and no engine's sweep outlasts the whole call
    start = time.perf_counter()
    code, out, _ = run(capsys, "bench", "30", "--format", "json")
    elapsed = time.perf_counter() - start
    seconds = [row["seconds"] for row in json.loads(out)]
    assert code == 0 and len(seconds) == 6
    assert all(0 <= s <= elapsed and round(s, 6) == s for s in seconds)


def test_bench_defaults_to_all(capsys):
    code, out, _ = run(capsys, "bench", "15")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_bench_rejects_unknown_method(capsys):
    code, _, err = run(capsys, "bench", "10", "--engine", "quantum")
    assert code == 2 and "invalid choice: 'quantum'" in err


def test_budget_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "1")
    code, _, err = run(capsys, "count", "30", "--method", "rewrite:minpart")
    assert code == 3
    assert "error:" in err


def test_rewrite_count_stops_at_the_default_atom_budget(capsys):
    code, out, err = run(capsys, "count", "3000", "--method", "rewrite:bounded")
    assert (code, out, err) == (3, "", (
        "error: bounded: evaluating P(3000) reached 400670 atoms, past the atom budget "
        "of 400000 (PLAB_BUDGET can raise it)\n"
    ))


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_malformed_budget_is_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("PLAB_BUDGET", raw)
    code, out, err = run(capsys, "count", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: PLAB_BUDGET") and repr(raw) in err


def test_verify_upto_clamps_oracle(capsys, monkeypatch):
    seen = []

    def fake_run(suite, config):
        seen.append(config)
        return verify.VerifyReport(())

    monkeypatch.setattr(verify, "run_verify", fake_run)
    code, _, err = run(capsys, "verify", "--upto", "1000")
    assert code == 0 and "warning" in err
    assert seen[0].oracle_limit == VERIFY_ORACLE_CAP == 45
    assert seen[0].dag_limit == VERIFY_DAG_CAP == 60
    assert seen[0].engine_limit == seen[0].series_limit == seen[0].region_bound == 1000
    # the involution suite lists B_j from the oracle's strict partitions of j
    assert seen[0].involution_limit == ORACLE_CAP == 80


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "count" in out and "verify" in out


def test_every_readme_example_exits_zero(capsys):
    # the lines of README's sh blocks that start with "plab ", each with its
    # comment stripped and split on blanks, as a shell splits an unquoted $cmd
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [line.split("#")[0].split()
                for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
                for line in block.splitlines() if line.startswith("plab ")]
    assert examples, "README has no plab example"
    for argv in examples:
        code, _, err = run(capsys, *argv[1:])
        assert code == 0, (" ".join(argv), err)


def test_console_main(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["plab", "count", "4"])
    # console_main would reset SIGPIPE for the whole test process
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "5"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_pipe_ends_quietly():
    # about 149 KB of CSV, well past a pipe buffer: plab is still writing
    # when the reader goes away, as under `plab coeffs e 20000 | head -1`
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-c", "from partlab.cli import console_main; console_main()",
            "coeffs", "e", "20000", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"index,value\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert err == b""
    assert code == -signal.SIGPIPE


@pytest.mark.parametrize(
    "module, argv, code, out",
    [
        ("partlab", ["count", "100"], 0, "190569292\n"),
        ("partlab", ["count", "90", "--method", "oracle"], 3, ""),
        ("partlab.cli", ["count", "10"], 0, "42\n"),
    ],
)
def test_python_dash_m(module, argv, code, out):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (code, out), done.stderr


def test_parser_choices_match_the_package():
    # the parser lists names literally, so that building it imports no layer
    assert list(ENGINE_NAMES) == [str(k) for k in EngineKind]
    assert SYSTEM_NAMES == BUILTIN_NAMES
    assert list(SUITE_NAMES) == sorted(SUITES)


def test_parser_is_buildable():
    parser = build_parser()
    args = parser.parse_args(["count", "7"])
    assert args.n == 7 and args.method == "euler"


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def test_every_argument_has_one_spelling(capsys):
    # a value given two ways needs code to reconcile them, and argparse 3.13
    # writes an option with several flags unlike 3.10 to 3.12
    parser = build_parser()
    commands = _subparsers(parser)[0].choices
    for name in commands:
        with pytest.raises(SystemExit):  # printing its help loads the command's module
            parser.parse_args([name, "--help"])
    nested = _subparsers(commands["codes"])[0].choices
    parsers = [parser, *commands.values(), *nested.values()]
    assert len(parsers) == 1 + 7 + 4
    for p in parsers:
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        assert [a.option_strings for a in actions if len(a.option_strings) > 1] == []
        values = [a.dest.removesuffix("_opt") for a in actions]  # no x beside x_opt
        assert len(values) == len(set(values)), (p.prog, values)
