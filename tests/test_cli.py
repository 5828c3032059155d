"""The plab command line: output formats and exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from partlab import BUILTIN_NAMES, ORACLE_CAP, SUITES, EngineKind, dag, verify
from partlab.cli import (
    ENGINE_NAMES,
    SUITE_NAMES,
    SYSTEM_NAMES,
    VERIFY_ORACLE_CAP,
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
    code, out, _ = run(capsys, "count", "10", "--engine", "all", "--format", "json")
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
    # --method and --engine are the same option
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


def test_coeffs_upto_flag(capsys):
    code, out, _ = run(capsys, "coeffs", "e", "--upto", "5", "--format", "csv")
    flag_lines = out.splitlines()
    code2, out, _ = run(capsys, "coeffs", "e", "5", "--format", "csv")
    assert code == code2 == 0
    assert flag_lines == out.splitlines()


def test_coeffs_upto_given_twice_or_not_at_all(capsys):
    code, _, err = run(capsys, "coeffs", "e", "5", "--upto", "5")
    assert code == 2 and "--upto" in err
    code, _, err = run(capsys, "coeffs", "e")
    assert code == 2 and "--upto" in err


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


def test_dag_flag_spelling(capsys):
    code, out, _ = run(capsys, "dag", "--system", "minpart", "--n", "2")
    positional_code, positional_out, _ = run(capsys, "dag", "minpart", "2")
    assert code == positional_code == 0
    assert out == positional_out


@pytest.mark.parametrize("argv", [("--system", "minpart", "2"), ("2", "--system", "minpart")])
def test_dag_mixed_spelling(capsys, argv):
    # argparse puts the 2 in the system's slot; it is read as the root index
    code, out, _ = run(capsys, "dag", *argv)
    positional_code, positional_out, _ = run(capsys, "dag", "minpart", "2")
    assert code == positional_code == 0
    assert out == positional_out


def test_dag_single_root_at_zero(capsys):
    code, out, _ = run(capsys, "dag", "--system", "maxpart", "--n", "0",
                       "--format", "plain")
    assert code == 0
    assert "vertices 1  edges 0" in out


def test_dag_missing_arguments(capsys):
    code, _, err = run(capsys, "dag", "minpart")
    assert code == 2 and "--n" in err


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


def test_bench_defaults_to_all(capsys):
    code, out, _ = run(capsys, "bench", "15")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_bench_methods_flag(capsys):
    code, out, _ = run(
        capsys, "bench", "--upto", "25", "--methods", "euler,integral",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "engine,n,terms,seconds"
    assert [line.split(",")[0] for line in lines[1:]] == ["euler", "integral"]


def test_bench_rejects_unknown_method(capsys):
    code, _, err = run(capsys, "bench", "10", "--methods", "quantum")
    assert code == 2


@pytest.mark.parametrize("methods", ["", " , "])  # "," is a golden row
def test_bench_methods_naming_no_engine(capsys, methods):
    code, out, err = run(capsys, "bench", "5", "--methods", methods)
    assert (code, out) == (2, "")
    assert err == f"error: --methods {methods!r} names no engine\n"


def test_bench_bound_given_twice(capsys):
    code, _, err = run(capsys, "bench", "10", "--upto", "10")
    assert code == 2 and "--upto" in err


def test_budget_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PLAB_BUDGET", "1")
    code, _, err = run(capsys, "count", "30", "--engine", "rewrite:minpart")
    assert code == 3
    assert "error:" in err


def test_rewrite_count_stops_at_the_default_atom_budget(capsys, monkeypatch):
    monkeypatch.delenv("PLAB_BUDGET", raising=False)
    code, out, err = run(capsys, "count", "3000", "--method", "rewrite:bounded")
    assert (code, out) == (3, "")
    assert "atom budget of 400000" in err and "PLAB_BUDGET" in err


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

    monkeypatch.setattr(verify, "run", fake_run)
    code, _, err = run(capsys, "verify", "--upto", "1000")
    assert code == 0 and "warning" in err
    assert seen[0].oracle_limit == VERIFY_ORACLE_CAP
    assert seen[0].engine_limit == 1000
    # the involution suite lists B_j from the oracle's strict partitions of j
    assert seen[0].involution_limit == ORACLE_CAP == 80


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "count" in out and "verify" in out


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
