import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import ptrs.cli
from helpers import certificate_corpus, garbled
from ptrs.boxsolver import any_digits
from ptrs.cli import _colorize, _start_text, load_config, main
from ptrs.prover import ProverConfig, Verdict

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"
FAKE = f"{sys.executable} -m ptrs.fake_solver"

ROOT = Path(__file__).resolve().parent.parent
RW34 = str(ROOT / "problems" / "rw34.wst")
RW14 = str(ROOT / "problems" / "rw14.wst")
COINGAME = str(ROOT / "problems" / "coingame.wst")
RW34_CERT = str(ROOT / "problems" / "rw34.cert")
COINGAME_CERT = str(ROOT / "problems" / "coingame.cert")


def schema(name):
    with open(ROOT / "schemas" / name) as handle:
        return json.load(handle)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prove_yes_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear"
    )
    assert code == 0
    assert out.splitlines()[0] == "YES"
    assert "epsilon = 1/2" in out


def test_prove_maybe_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "prove", RW14, "--solver", BOXSOLVER, "--shapes", "poly-linear"
    )
    assert code == 1
    assert out.splitlines()[0] == "MAYBE"


def test_parse_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.wst"
    bad.write_text("(RULES f(x) -> )\n")
    code, out, err = run_cli(capsys, "prove", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line ")
    missing_code, _, missing_err = run_cli(capsys, "check", RW34, "--certificate", "no-such-file")
    assert missing_code == 2
    assert "error:" in missing_err


def test_check_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "check", RW34, "--certificate", RW34_CERT)
    assert code == 0
    assert out.splitlines()[0] == "YES"
    wrong = tmp_path / "wrong.cert"
    wrong.write_text("poly\n[s](x) = x + 1\n[0] = 0\n")
    code, out, _ = run_cli(capsys, "check", RW14, "--certificate", str(wrong))
    assert code == 1
    assert out.splitlines()[0] == "MAYBE"
    assert "margin" in out


def test_prove_json_matches_schema(capsys):
    code, out, _ = run_cli(
        capsys, "prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear", "--json"
    )
    payload = json.loads(out)
    jsonschema.validate(payload, schema("prove.schema.json"))
    assert code == 0
    assert payload["verdict"] == "YES"
    assert payload["epsilon"] == "1/2"
    assert payload["margins"] == ["1/2"]
    code, out, _ = run_cli(
        capsys, "prove", RW14, "--solver", BOXSOLVER, "--shapes", "poly-linear", "--json"
    )
    payload = json.loads(out)
    jsonschema.validate(payload, schema("prove.schema.json"))
    assert payload["verdict"] == "MAYBE"
    assert payload["attempts"][0]["status"] == "unsat"


def test_check_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "check", COINGAME, "--certificate", COINGAME_CERT, "--json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema("check.schema.json"))
    assert code == 0
    assert payload["margins"] == ["1/2", "8", "2", "2"]


def test_simulate_json_matches_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "rw", "--p", "1/2", "--start", "1", "--steps", "3",
        "--trace", "--json",
    )
    payload = json.loads(out)
    jsonschema.validate(payload, schema("simulate.schema.json"))
    assert code == 0
    assert payload["masses"] == ["1", "1", "1/2", "1/2"]
    assert payload["edl"] == ["0", "1", "3/2", "2"]
    assert payload["trace"][1] == [[["1/2", "0"], ["1/2", "2"]]]
    assert payload["outcomes"] == [[["1/8", "0"], ["1/8", "2"], ["1/8", "2"], ["1/8", "4"]]]


def test_simulate_exhaustive_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "nd", "--start", "a", "--steps", "3",
        "--mode", "exhaustive", "--json",
    )
    payload = json.loads(out)
    jsonschema.validate(payload, schema("simulate.schema.json"))
    assert code == 0
    assert payload["masses"] is None
    assert len(payload["outcomes"]) == 3


def test_simulate_with_certificate_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", RW34, "--start", "s(s(s(s(0))))", "--steps", "30",
        "--collapse", "--cert", RW34_CERT, "--json",
    )
    payload = json.loads(out)
    jsonschema.validate(payload, schema("simulate.schema.json"))
    assert code == 0
    assert payload["certificate"]["bound"] == "8"
    assert payload["certificate"]["holds"] is True


def test_simulate_argument_validation(capsys):
    code, _, err = run_cli(capsys, "simulate", "--family", "rw", "--start", "1")
    assert code == 2 and "--p" in err
    code, _, err = run_cli(
        capsys, "simulate", RW34, "--family", "rw", "--p", "1/2", "--start", "1"
    )
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "simulate", RW34, "--start", "1", "--truncate", "5")
    assert code == 2 and "--truncate" in err
    # flags a built-in family does not read are errors, as they are with FILE
    for family, flag, value in (("nd", "--p", "1/2"), ("nd", "--truncate", "2"), ("payout", "--p", "1/2")):
        code, out, err = run_cli(capsys, "simulate", "--family", family, flag, value, "--start", "a0")
        assert code == 2 and out == "" and flag in err
    code, _, err = run_cli(
        capsys, "simulate", "--family", "rw", "--p", "1/2", "--start", "1",
        "--steps", "60", "--node-budget", "10",
    )
    assert code == 2 and "budget" in err


def test_simulate_cert_needs_a_term_view(capsys):
    # the nd family's objects are names, which no certificate ranks
    code, out, err = run_cli(capsys, "simulate", "--family", "nd", "--start", "a", "--cert", RW34_CERT)
    assert (code, out, err) == (2, "", "error: --cert needs a term-rewriting view of the system\n")


def test_start_bytes_the_locale_left_escaped_are_read_as_utf8(capsys, tmp_path):
    # what an ASCII locale leaves of the UTF-8 bytes of "é(0)" and of the
    # byte 0xff, read in this process
    assert _start_text("\udcc3\udca9(0)") == "é(0)"
    problem = tmp_path / "accent.wst"
    problem.write_text("(VAR x)(RULES é(x) -> x)\n", encoding="utf-8")
    escaped = run_cli(capsys, "simulate", str(problem), "--start", "\udcc3\udca9(0)", "--steps", "2")
    assert escaped == run_cli(capsys, "simulate", str(problem), "--start", "é(0)", "--steps", "2")
    assert escaped[0] == 0
    code, out, err = run_cli(capsys, "simulate", str(problem), "--start", "\udcff(0)", "--steps", "2")
    assert (code, out, err) == (2, "", "error: --start is not UTF-8 text: '\\udcff(0)'\n")


def test_stdout_is_deterministic(capsys):
    args = ("prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    sim = ("simulate", "--family", "rw", "--p", "1/3", "--start", "2", "--steps", "6", "--trace")
    _, first, _ = run_cli(capsys, *sim)
    _, second, _ = run_cli(capsys, *sim)
    assert first == second


def test_emit_smt_stable_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "prove", RW34, "--solver", f"{FAKE} --reply unknown", "--emit-smt", str(a))
    run_cli(capsys, "prove", RW34, "--solver", f"{FAKE} --reply unknown", "--emit-smt", str(b))
    first = (a / "poly-linear.smt2").read_bytes()
    assert first == (b / "poly-linear.smt2").read_bytes()
    assert first.startswith(b"(set-logic")


def test_solver_precedence(capsys, tmp_path, monkeypatch):
    config = tmp_path / "ptrs.conf"
    config.write_text(f"# defaults\nsolver = {FAKE} --reply unsat\n")
    monkeypatch.delenv("PTRS_SOLVER", raising=False)
    args = ("prove", RW34, "--shapes", "poly-linear", "--json", "--config", str(config))
    _, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["attempts"][0]["status"] == "unsat"
    # an empty PTRS_SOLVER counts as unset
    monkeypatch.setenv("PTRS_SOLVER", "")
    _, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["attempts"][0]["status"] == "unsat"
    monkeypatch.setenv("PTRS_SOLVER", f"{FAKE} --reply unknown")
    _, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["attempts"][0]["status"] == "unknown"
    _, out, _ = run_cli(capsys, *args, "--solver", BOXSOLVER)
    assert json.loads(out)["verdict"] == "YES"


def test_prove_with_no_flag_solver_or_config_runs_the_default_config(capsys, monkeypatch):
    monkeypatch.delenv("PTRS_SOLVER", raising=False)
    handed = []
    monkeypatch.setattr(ptrs.cli, "prove", lambda system, config, note: handed.append(config) or Verdict("MAYBE"))
    code, out, _ = run_cli(capsys, "prove", RW34)
    assert (code, out.splitlines()[0], handed) == (1, "MAYBE", [ProverConfig()])


def test_config_file_options(capsys, tmp_path):
    config = tmp_path / "ptrs.conf"
    config.write_text(f"solver = {BOXSOLVER}\ncoeff-bound = 1\nshapes = poly-linear\n")
    code, out, _ = run_cli(capsys, "prove", RW34, "--config", str(config), "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["attempts"][0]["detail"].endswith("0..1") or payload["verdict"] == "YES"
    assert payload["shape"] == "poly-linear"
    assert load_config(str(config))["coeff-bound"] == "1"
    broken = tmp_path / "broken.conf"
    broken.write_text("just words\n")
    code, _, err = run_cli(capsys, "prove", RW34, "--config", str(broken))
    assert code == 2
    assert "key = value" in err


def test_config_keys_the_command_does_not_read_are_errors(capsys, tmp_path):
    config = tmp_path / "ptrs.conf"
    simulate = ("simulate", "--family", "rw", "--p", "1/2", "--start", "1")
    check = ("check", RW34, "--certificate", RW34_CERT)
    config.write_text("# defaults\n\nsteps = 3\n")
    for argv in (simulate, check):
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {config}:3: {argv[0]} ") and "'steps'" in err
    # a misspelt key is not passed over
    config.write_text(f"solver = {BOXSOLVER}\ncoef-bound = 1\n")
    code, out, err = run_cli(capsys, "prove", RW34, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config}:2: prove ") and "'coef-bound'" in err
    # comments and blank lines alone are valid for every command
    config.write_text("# nothing set\n\n   # indented\n")
    prove = ("prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear", "--coeff-bound", "1")
    for argv in (simulate, check, prove):
        assert run_cli(capsys, *argv, "--config", str(config)) == run_cli(capsys, *argv)
        assert run_cli(capsys, *argv)[0] == 0


def test_a_closed_stdout_ends_the_run_quietly(tmp_path):
    # about 880 KB of output, more than a pipe holds, so the run is still
    # writing when the reader stops after two lines
    argv = ["simulate", "--family", "rw", "--p", "1/2", "--start", "1", "--steps", "1000", "--collapse",
            "--node-budget", "100000000"]
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "ptrs", *argv], stdout=subprocess.PIPE, stderr=err)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert lines == [b"start 1, steps 1000, mode outermost\n", b"step 0: mass 1, edl 0\n"]
    # a cut-off run is not a completed one, and nothing is reported
    assert code == 2
    assert (tmp_path / "err").read_bytes() == b""


def test_a_closed_stdout_in_process_leaves_the_streams_alone(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    redirected = []
    monkeypatch.setattr(ptrs.cli.os, "dup2", lambda *fds: redirected.append(fds))
    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["simulate", "--family", "rw", "--p", "1/2", "--start", "1", "--steps", "3"]) == 2
    assert redirected == []
    assert capsys.readouterr().err == ""


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ptrs", "prove", RW34, "--solver", BOXSOLVER,
         "--shapes", "poly-linear"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "YES"


def run_exiting(capsys, *argv):
    """Like run_cli, but an argparse exit gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    env = dict(os.environ, COLUMNS="80")
    env.pop("PTRS_SOLVER", None)
    result = subprocess.run(
        [sys.executable, "-m", "ptrs", *argv], capture_output=True, text=True, timeout=60, env=env
    )
    return result.returncode, result.stdout, result.stderr


def test_the_parser_is_built_once_and_reused_without_residue(capsys, monkeypatch):
    # a tty width would change how usage and help wrap
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("PTRS_SOLVER", raising=False)
    built = []
    build_parser = ptrs.cli.build_parser

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(ptrs.cli, "build_parser", spy)
    ptrs.cli._parser.cache_clear()
    sequence = [
        ("prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear"),
        ("prove", "--coeff-bound", "x"),
        ("simulate", "--family", "rw", "--p", "3/4", "--start", "3", "--steps", "4"),
        ("check", RW34, "--certificate", RW34_CERT),
        ("check",),
        ("prove", "--help"),
    ]
    first = [run_exiting(capsys, *argv) for argv in sequence]
    second = [run_exiting(capsys, *argv) for argv in sequence]
    assert first == second
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 2, 0]
    assert first == [run_module(*argv) for argv in sequence]
    assert len(built) == 1


def test_help_reads_the_width_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "60")
    narrow = run_exiting(capsys, "prove", "--help")
    monkeypatch.setenv("COLUMNS", "200")
    wide = run_exiting(capsys, "prove", "--help")
    assert narrow[0] == wide[0] == 0
    assert max(map(len, narrow[1].splitlines())) <= 60 < max(map(len, wide[1].splitlines()))


def test_importing_the_cli_builds_no_parser():
    # a parser built at import would count in every process's set-up time
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import ptrs.cli\n"
        "print(len(built))\n"
        "ptrs.cli.build_parser()\n"
        "print(len(built))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    # the probe does see builds: the program parser and its 3 subparsers
    assert result.stdout.split() == ["0", "4"]


def _loaded_modules(*imports):
    probe = "".join(f"import {name}\n" for name in ("sys", *imports)) + "print(*sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_importing_the_cli_loads_only_what_every_command_needs():
    # each of these serves one option or path (--parallel, a child solver,
    # --json), which imports it where it runs; site may load some of them
    # itself, so what a bare interpreter loads is the baseline
    on_demand = {"dataclasses", "concurrent.futures", "subprocess", "json", "shlex"}
    bare = _loaded_modules()
    for module in ("ptrs.cli", "ptrs.simulator"):
        assert (_loaded_modules(module) - bare) & on_demand == set(), module
    # the benchmark's tracer wraps functions in these modules after importing ptrs.cli
    traced = {"prover", "smt", "interpretations", "certtext", "wst", "rewriting", "simulator", "multidist", "terms"}
    assert {f"ptrs.{name}" for name in traced} <= _loaded_modules("ptrs.cli")


def test_color_marks_only_a_verdict_head_line():
    for head, code in (("YES", "32"), ("MAYBE", "33"), ("ERROR", "31")):
        assert _colorize(f"{head}\nepsilon = 1\n", True) == f"\x1b[{code}m{head}\x1b[0m\nepsilon = 1\n"
        assert _colorize(f"{head}\nepsilon = 1\n", False) == f"{head}\nepsilon = 1\n"
    for text in ("start 1, steps 3, mode outermost\n", "YES, and more\n", "poly\nYES\n", ""):
        assert _colorize(text, True) == text


def test_verbose_goes_to_stderr(capsys):
    code, out, err = run_cli(
        capsys, "prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear", "-v"
    )
    assert code == 0
    assert "solver:" in err
    assert "solver:" not in out
    assert f"solver: {BOXSOLVER} (in process)\n" in err
    _, quiet_out, _ = run_cli(capsys, "prove", RW34, "--solver", BOXSOLVER, "--shapes", "poly-linear")
    assert quiet_out == out
    command = f"{FAKE} --reply unsat"
    _, _, err = run_cli(capsys, "prove", RW34, "--solver", command, "--shapes", "poly-linear", "-v")
    assert f"solver: {command}\n" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verbose_names_the_shapes_over_the_box_budget(capsys, json_flag):
    matrix = str(ROOT / "problems" / "matrix.wst")
    code, out, err = run_cli(capsys, "prove", matrix, "--solver", BOXSOLVER, *json_flag, "-v")
    assert code == 1
    assert err.splitlines()[2:] == [
        "matrix-2: at least 485735942131712 box points, over the in-process budget of 200000; not encoded",
        "matrix-3: at least 283000561307683769879868280832 box points, over the in-process budget of 200000;"
        " not encoded",
    ]
    assert run_cli(capsys, "prove", matrix, "--solver", BOXSOLVER, *json_flag) == (code, out, "")
    # a child solver is handed every shape
    _, _, child_err = run_cli(capsys, "prove", matrix, "--solver", f"{FAKE} --reply unknown", *json_flag, "-v")
    assert "not encoded" not in child_err


def test_verbose_simulate_notes_a_full_redex_memo_once(capsys, monkeypatch):
    import ptrs.rewriting

    argv = ("simulate", RW34, "--start", "s(s(s(s(s(0)))))", "--steps", "12")
    _, quiet_out, quiet_err = run_cli(capsys, *argv, "-v")
    assert quiet_err == ""
    monkeypatch.setattr(ptrs.rewriting, "MEMO_LIMIT", 3)
    code, out, err = run_cli(capsys, *argv, "-v")
    assert code == 0 and out == quiet_out
    # the run's step table shares the limit and fills first; each says so once
    assert err == f"{TABLE_NOTE}\nnote: redex memo full at 3 nodes; it starts afresh\n"
    assert run_cli(capsys, *argv) == (0, quiet_out, "")


TABLE_NOTE = "note: step table full at 3 objects; the run starts it afresh from the live objects"


@pytest.mark.parametrize("argv", [
    ("--family", "rw", "--p", "3/4", "--start", "5", "--steps", "12", "--collapse"),
    ("--family", "payout", "--start", "a0", "--steps", "9", "--trace"),
])
def test_verbose_simulate_notes_a_restarted_step_table_once(capsys, monkeypatch, argv):
    import ptrs.rewriting

    _, quiet_out, quiet_err = run_cli(capsys, "simulate", *argv, "-v")
    assert quiet_err == ""
    monkeypatch.setattr(ptrs.rewriting, "MEMO_LIMIT", 3)
    assert run_cli(capsys, "simulate", *argv, "-v") == (0, quiet_out, TABLE_NOTE + "\n")
    assert run_cli(capsys, "simulate", *argv) == (0, quiet_out, "")
    code, out, err = run_cli(capsys, "simulate", *argv, "-v", "--json")
    assert code == 0 and err == TABLE_NOTE + "\n" and json.loads(out)["command"] == "simulate"

@pytest.mark.parametrize(
    "argv, flag",
    [
        (("prove", RW34, "--coeff-bound", "-1"), "--coeff-bound"),
        (("prove", RW34, "--smt-timeout", "0"), "--smt-timeout"),
        (("prove", RW34, "--smt-timeout", "-2.5"), "--smt-timeout"),
        (("simulate", "--family", "rw", "--p", "1/2", "--start", "1", "--steps", "-3"), "--steps"),
        (("simulate", "--family", "rw", "--p", "1/2", "--start", "1", "--node-budget", "0"), "--node-budget"),
        (("prove", RW34, "--shapes", ","), "--shapes"),
        (("prove", RW34, "--shapes", ""), "--shapes"),
        (("simulate", "--family", "rw", "--p", "3/4", "--start", "3", "--truncate", "-1"), "--truncate"),
        (("simulate", "--family", "rw", "--p", "1/0", "--start", "3"), "--p"),
        (("simulate", "--family", "rw", "--p", "abc", "--start", "3"), "--p"),
        (("simulate", "--family", "rw", "--p", "5/4", "--start", "3"), "--p"),
        (("prove", RW34, "--smt-timeout", "inf"), "--smt-timeout"),
        (("prove", RW34, "--smt-timeout", "1e7"), "--smt-timeout"),
        (("prove", RW34, "--solver", ""), "--solver"),
        (("prove", RW34, "--solver", "  "), "--solver"),
    ],
)
def test_out_of_range_values_are_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


def test_out_of_range_config_values_are_errors(capsys, tmp_path):
    config = tmp_path / "ptrs.conf"
    config.write_text("coeff-bound = -1\n")
    code, _, err = run_cli(capsys, "prove", RW34, "--config", str(config))
    assert code == 2 and "--coeff-bound" in err
    # a child solver cannot be waited for longer, in process or not
    config.write_text("smt-timeout = 1e7\n")
    code, _, err = run_cli(capsys, "prove", RW34, "--config", str(config))
    assert code == 2 and "--smt-timeout" in err
    # an empty solver names no command; it does not fall back to the default
    for text in ("solver =\n", "solver =   \n"):
        config.write_text(text)
        code, out, err = run_cli(capsys, "prove", RW34, "--config", str(config))
        assert (code, out) == (2, "") and err == "error: --solver names no command: ''\n"
    # a value that is not a number names its key and the file
    for text, flag in (("coeff-bound = abc\n", "--coeff-bound"), ("smt-timeout = soon\n", "--smt-timeout")):
        config.write_text(text)
        code, out, err = run_cli(capsys, "prove", RW34, "--config", str(config))
        assert (code, out) == (2, "") and flag in err and str(config) in err


def test_the_longest_smt_timeout_reaches_a_child_solver(capsys):
    code, out, _ = run_cli(capsys, "prove", RW34, "--coeff-bound", "1", "--smt-timeout", "2147483.647",
                           "--solver", f"{sys.executable} -u -m ptrs.boxsolver")
    assert code == 0 and out.startswith("YES\n")


def test_unexpected_failures_exit_two(capsys, monkeypatch):
    import ptrs.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(ptrs.cli, "run", broken)
    code, out, err = run_cli(capsys, "simulate", "--family", "rw", "--p", "1/2", "--start", "1")
    assert code == 2 and out == ""
    assert err == "error: RuntimeError: boom\n"


def test_uninterpreted_start_symbol_is_an_error(capsys):
    # checked before the run, so -v prints no traceback and nothing is simulated
    code, out, err = run_cli(capsys, "simulate", str(ROOT / "problems" / "matrix.wst"),
                             "--start", "a(a(0))", "--steps", "1", "-v",
                             "--cert", str(ROOT / "problems" / "matrix.cert"))
    assert (code, out) == (2, "")
    assert err == "error: the certificate does not interpret the start term: unknown symbol '0'\n"


def test_start_symbol_at_another_arity_than_interpreted_is_an_error(capsys, tmp_path):
    cert = tmp_path / "extra.cert"
    cert.write_text((ROOT / "problems" / "matrix.cert").read_text() + "[c](x) = [[1, 0], [0, 0]]*x\n")
    code, out, err = run_cli(capsys, "simulate", str(ROOT / "problems" / "matrix.wst"),
                             "--start", "a(a(c))", "--steps", "1", "--cert", str(cert))
    assert (code, out) == (2, "")
    assert err == ("error: the certificate does not interpret the start term: "
                   "symbol 'c' used with 0 arguments, declared arity is 1\n")


def test_deep_starts_simulate(capsys):
    depth = 3000
    start = "s(" * depth + "0" + ")" * depth
    code, out, _ = run_cli(capsys, "simulate", RW34, "--start", start, "--steps", "2", "--collapse")
    assert code == 0
    assert out.splitlines()[3] == "step 2: mass 1, edl 2"
    code, out, _ = run_cli(
        capsys, "simulate", "--family", "rw", "--p", "3/4", "--start", str(depth),
        "--steps", "2", "--cert", RW34_CERT,
    )
    assert code == 0
    assert "edl bound from certificate: 6000" in out


def test_start_term_with_a_wrong_arity_is_an_error(capsys):
    code, out, err = run_cli(capsys, "simulate", RW34, "--start", "s(0,0)")
    assert code == 2 and out == ""
    assert err == (
        "error: line 1, column 1: symbol 's' used with 2 arguments here "
        "but the system declares it with 1\n"
    )


def test_start_term_with_an_undeclared_function_symbol_is_an_error(capsys):
    code, out, err = run_cli(capsys, "simulate", RW34, "--start", "s^5000(0)")
    assert code == 2 and out == ""
    assert err == (
        "error: line 1, column 1: symbol 's^5000' is applied to arguments but the system "
        "does not declare it; new symbols may only be constants\n"
    )
    # rw34.wst declares s but no constant: a fresh 0 is still welcome
    code, out, _ = run_cli(capsys, "simulate", RW34, "--start", "s(0)", "--steps", "1")
    assert code == 0 and out.splitlines()[0] == "start s(0), steps 1, mode outermost"


MATRIX = str(ROOT / "problems" / "matrix.wst")


@pytest.mark.parametrize(
    "problem, certificate, digest, reason",
    [
        (RW14, "poly\n[s](x) = 2*x + 1\n[0] = 0\n",
         "6f743efecd3838ea0b7f1e5c28ce4fe2818908ad7511979d9f8dee4b97b32175",
         "coefficient of x is -5/4, negative"),
        (RW14, "poly\n[s](x) = x + 1\n[0] = 0\n",
         "4edf876d65b87565c29b263ba46a8bd83910ac9ea53ddaf62c42e65325cc9b4a",
         "constant margin is -1/2, not strictly positive"),
        (RW34, "poly\n[s](x) = x\n[0] = 0\n",
         "e4b4dd5830703da54bb9ee5a52f8d38275822b501201591be175ad0062240b57",
         "constant margin is 0, not strictly positive"),
        (MATRIX, "matrix 2\n[a](x) = [[2, 0], [0, 0]]*x + [1, 0]\n[b](x) = [[1, 0], [0, 0]]*x + [0, 0]\n",
         "908a495c18d9549831810f043feb3a45448a73da07e7a20ed6c7720cf03772ad",
         "coefficient of x at entry (1,1) is -1, negative"),
        (RW34, "matrix 2\n[s](x) = [[1, 0], [1, 1]]*x + [1, 0]\n[0] = [0, 0]\n",
         "d57b3448d020268c810df80dbbe6a95564d32e02f760e77b2c26af998fe94bc8",
         "constant difference at component 2 is -1/4, negative"),
        (MATRIX, "matrix 2\n[a](x) = [[1, 1], [0, 0]]*x + [0, 0]\n[b](x) = [[1, 0], [0, 0]]*x + [0, 1]\n",
         "382fe9d9a5c9086f7426a54a0b19b2d690b4e2376d9ce43938b65a74d2c13533",
         "first-component margin is -3/4, not strictly positive"),
    ],
)
def test_check_reports_forged_certificates(capsys, tmp_path, problem, certificate, digest, reason):
    # sha256 of the whole stdout: the verdict, the rule and the first
    # violated entry, which the checker names in the encoder's order
    cert = tmp_path / "forged.cert"
    cert.write_text(certificate)
    code, out, _ = run_cli(capsys, "check", problem, "--certificate", str(cert))
    assert code == 1
    assert out.splitlines()[-1].endswith(f"is not oriented: {reason}")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_reports_negative_coefficients_and_squared_variables(capsys, tmp_path):
    # sha256 of the whole stdout; these certificates fail before or outside
    # orientation, so no rule is reported "not oriented"
    cert = tmp_path / "negative.cert"
    cert.write_text("poly\n[s](x) = 2*x + -1\n[0] = 0\n")
    code, out, _ = run_cli(capsys, "check", RW34, "--certificate", str(cert))
    assert code == 1
    assert out.splitlines()[-1] == "  [s] has negative coefficient -1 on the constant"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e2a2a9d144b5d7bb13af791f76b95b6ace754b6377042d7766b6878d82ed3281"
    problem = tmp_path / "square.wst"
    problem.write_text("(VAR x)\n(RULES\n  f(x,x) -> 1 : x || 1 : f(x,x)\n)\n")
    cert.write_text("poly\n[f](x, y) = x*y + x + y + 1\n")
    code, out, _ = run_cli(capsys, "check", str(problem), "--certificate", str(cert))
    assert code == 1
    assert "variable x would be squared; " in out.splitlines()[-1]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6f5c5c7d29f957fb52c5c7253e7a42841703f12a9beedc6df711a070413deef6"


@pytest.mark.parametrize(
    "problem, solver, flags",
    [
        ("rw34", BOXSOLVER, ["--coeff-bound", "1"]),
        ("matrix", BOXSOLVER, ["--coeff-bound", "1"]),
        ("coingame", f"{BOXSOLVER} --limit 100000000", ["--coeff-bound", "4", "--shapes", "poly-linear"]),
    ],
    ids=["rw34", "matrix", "coingame"],
)
def test_prove_output_is_a_certificate_for_check(capsys, tmp_path, problem, solver, flags):
    wst = str(ROOT / "problems" / f"{problem}.wst")
    code, proved, _ = run_cli(capsys, "prove", wst, "--solver", solver, *flags)
    assert code == 0
    cert = tmp_path / "proved.cert"
    cert.write_text(proved)
    code, checked, _ = run_cli(capsys, "check", wst, "--certificate", str(cert))
    assert code == 0
    # the report of `check` is that of `prove` without the shape line
    shape_line = proved.splitlines()[1] + "\n"
    assert shape_line.startswith("shape: ")
    assert checked == proved.replace(shape_line, "", 1)


def test_prove_and_check_read_and_write_utf8_in_an_ascii_locale(capsys, tmp_path):
    problem = tmp_path / "accent.wst"
    problem.write_text("(VAR x)(RULES é(x) -> x)\n", encoding="utf-8")
    code, proved, _ = run_cli(capsys, "prove", str(problem), "--solver", BOXSOLVER, "--coeff-bound", "1")
    assert code == 0
    cert = tmp_path / "accent.cert"
    cert.write_text(proved, encoding="utf-8")
    config = tmp_path / "accent.conf"
    config.write_text("# café\n", encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    prove_argv = ["prove", str(problem), "--solver", BOXSOLVER, "--coeff-bound", "1"]
    check_argv = ["check", str(problem), "--certificate", str(cert), "--config", str(config)]
    for argv in (prove_argv, check_argv):
        for extra in ([], ["--json"]):
            result = subprocess.run(
                [sys.executable, "-m", "ptrs", *argv, *extra], capture_output=True, timeout=60, env=env
            )
            assert (result.returncode, result.stderr) == (0, b""), argv + extra
            if extra:
                # --json escapes every non-ASCII character
                payload = json.loads(result.stdout)
                assert (payload["verdict"], payload["certificate"]) == ("YES", "poly\n[é](x) = x + 1\n")
            else:
                # the report a UTF-8 locale prints, in UTF-8
                expected = proved if argv is prove_argv else proved.replace("shape: poly-linear\n", "", 1)
                assert result.stdout == expected.encode("utf-8")


def test_a_utf8_start_term_reads_in_an_ascii_locale(tmp_path):
    problem = tmp_path / "accent.wst"
    problem.write_text("(VAR x)(RULES é(x) -> x)\n", encoding="utf-8")
    argv = [sys.executable, "-m", "ptrs", "simulate", str(problem), "--start", "é(0)".encode(), "--steps", "2"]
    ascii_env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    utf8 = subprocess.run(argv, capture_output=True, timeout=60, env=dict(os.environ, LC_ALL="C.UTF-8"))
    assert (utf8.returncode, utf8.stderr) == (0, b"")
    assert utf8.stdout.startswith("start é(0), steps 2".encode())
    ascii = subprocess.run(argv, capture_output=True, timeout=60, env=ascii_env)
    assert (ascii.returncode, ascii.stdout, ascii.stderr) == (0, utf8.stdout, b"")
    # bytes that are no UTF-8 are an error that names the flag
    argv[6] = b"\xff(0)"
    bad = subprocess.run(argv, capture_output=True, timeout=60, env=ascii_env)
    assert (bad.returncode, bad.stdout, bad.stderr) == (2, b"", b"error: --start is not UTF-8 text: '\\udcff(0)'\n")
    # a latin-1 locale decodes every byte, and its reading stands
    assert _start_text("Ã©(0)") == "Ã©(0)"


def test_a_byte_order_mark_starts_no_input_file(capsys, tmp_path):
    problem = tmp_path / "bom.wst"
    problem.write_text("\ufeff" + Path(RW34).read_text(), encoding="utf-8")
    cert = tmp_path / "bom.cert"
    cert.write_text("\ufeff" + Path(RW34_CERT).read_text(), encoding="utf-8")
    config = tmp_path / "bom.conf"
    config.write_text(f"\ufeffcoeff-bound = 1\nsolver = {BOXSOLVER}\nshapes = poly-linear\n", encoding="utf-8")
    plain = run_cli(capsys, "check", RW34, "--certificate", RW34_CERT)
    assert plain[0] == 0
    assert run_cli(capsys, "check", str(problem), "--certificate", str(cert)) == plain
    code, out, err = run_cli(capsys, "prove", RW34, "--config", str(config))
    assert (code, out.splitlines()[:2], err) == (0, ["YES", "shape: poly-linear"], "")


def test_check_and_simulate_answer_garbled_certificates_by_the_protocol(capsys, tmp_path):
    # the shipped certificates and random ones, each also garbled: check
    # answers a verdict line with its exit code and names the line and
    # column of an unreadable certificate; simulate --cert exits 0 or 2
    # with at most one line on stderr
    rng = random.Random(29)
    texts = [(RW34, "s(s(0))", text) for text in certificate_corpus(29, 8)]
    for problem, start in ((RW34, "s(s(0))"), (COINGAME, "?(0)"), (str(ROOT / "problems" / "matrix.wst"), "a(a(0))")):
        text = Path(problem).with_suffix(".cert").read_text()
        texts += [(problem, start, text)] + [(problem, start, garbled(rng, text)) for _ in range(20)]
    check_schema = schema("check.schema.json")
    verdicts = {0: "YES", 1: "MAYBE", 2: "ERROR"}
    cert = tmp_path / "garbled.cert"
    seen = set()
    for problem, start, text in texts:
        cert.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "check", problem, "--certificate", str(cert))
        assert (out.split("\n", 1)[0], err) == (verdicts.get(code), ""), text
        seen.add(code)
        code_json, out, err = run_cli(capsys, "check", problem, "--certificate", str(cert), "--json")
        payload = json.loads(out)
        jsonschema.validate(payload, check_schema)
        assert (code_json, payload["verdict"], err) == (code, verdicts[code], ""), text
        if code == 2:
            assert re.match(r"certificate unreadable: line \d+, column \d+: ", payload["error"]), text
        code, out, err = run_cli(capsys, "simulate", problem, "--start", start, "--steps", "2", "--cert", str(cert))
        if code == 0:
            assert err == "", text
        else:
            assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith("error: "), text
    assert seen == {0, 1, 2}


def test_a_solver_command_with_unbalanced_quotes_is_an_error_every_time(capsys):
    for _ in range(2):
        code, out, err = run_cli(capsys, "prove", RW34, "--solver", "'z3 -in")
        assert (code, out, err) == (2, "", "error: No closing quotation\n")


def test_a_symbol_with_a_bracket_is_proved_and_checked(capsys, tmp_path):
    problem = tmp_path / "bracket.wst"
    problem.write_text("(VAR x)\n(RULES\n  a]b(x) -> 3 : x || 1 : a]b(a]b(x))\n)\n")
    code, proved, _ = run_cli(capsys, "prove", str(problem), "--solver", BOXSOLVER, "--coeff-bound", "2")
    assert code == 0
    assert "[a]b](x) = x + 1" in proved.splitlines()
    cert = tmp_path / "bracket.cert"
    cert.write_text(proved)
    code, checked, _ = run_cli(capsys, "check", str(problem), "--certificate", str(cert))
    assert (code, checked.splitlines()[:3]) == (0, ["YES", "poly", "[a]b](x) = x + 1"])


S5 = "s(" * 5 + "0" + ")" * 5
S100 = "s(" * 100 + "0" + ")" * 100


@pytest.mark.parametrize(
    "digest, argv",
    [
        ("59c23a3b0548537d89595a7da97e8a24c87f28fda9317df43f8096fac0f88941",
         ("--family", "rw", "--p", "3/4", "--start", "5", "--steps", "110", "--collapse")),
        ("d0164a025ec7ff8ee23bd8d2190e57eff086350d9c2ee3532777fd6e84276f05",
         ("--family", "rw", "--p", "2/3", "--start", "5", "--steps", "110", "--collapse")),
        ("96bba2974b87d381a69e20fc7706751dbaed1b480d2f17a6d12b6dd4e3ea4a9c",
         ("--family", "rw", "--p", "3/5", "--start", "5", "--steps", "110", "--collapse")),
        ("debd8acf0d1a84467476a6ef7ac7dc92bd1e4396431e7a85475fab0d07bd7979",
         ("--family", "rw", "--p", "3/4", "--start", "5", "--steps", "110", "--collapse", "--json")),
        ("46d9e49d7234c60c91841bb5723c08aac87fedf234a46750c8460abbdf66989f",
         (RW34, "--start", S5, "--steps", "12")),
        ("77bd36359e2d347c696fb3b1416dce9334dd4fd99c6da8a61d08ce3fde028c0b",
         (RW34, "--start", S5, "--steps", "12", "--mode", "innermost")),
        ("19392442edf2c857979ba685d7160530bef2d66fe899e9493b42bc2b0c6eddfb",
         (RW34, "--start", S5, "--steps", "6", "--mode", "innermost", "--trace", "--json")),
        ("59447388d41fcb2fb89f6941034bcd4f73dea314f49679913c8e7e08c12b8fb5",
         ("--family", "payout", "--start", "a0", "--mode", "exhaustive", "--steps", "8")),
        ("233c07ab58c31e5f24b47fee89d7938294d9a1ae847d49cf3827ef02b6ed8610",
         ("--family", "nd", "--start", "a", "--mode", "exhaustive", "--steps", "4", "--trace")),
        ("e13c07edbedb193c9905aaa7fd639107f675371496aaa1325f0afdb8e6dc7a8a",
         (RW34, "--start", S100, "--steps", "4", "--mode", "innermost", "--collapse")),
        ("45f468e51b135cc096bc702439dbba585838e47a676436497e21f7239c099fe7",
         ("--family", "rw", "--p", "3/5", "--start", "5", "--steps", "20", "--collapse", "--trace")),
        ("f371c3ccd4273800ec500b0357d06ed15a7ca95d9a92328bd3afa360f7f6f0de",
         (RW34, "--start", S5, "--steps", "10", "--collapse", "--json")),
        ("f767774f7426970b1f30a98e1cafd606da3dd3fdf5f573ab5fd40c71b23201b7",
         ("--family", "rw", "--p", "1", "--start", "4", "--steps", "6")),
        ("1e7f49cff3b30a7c2c7d772f520a261ad9f22a04dbc532cd2465fb8c8c1ee311",
         ("--family", "rw", "--p", "0", "--start", "4", "--steps", "6", "--truncate", "9")),
    ],
)
def test_simulate_stdout_is_pinned(capsys, digest, argv):
    # sha256 of the whole stdout: every mass, edl and outcome entry, in
    # order, byte for byte as the exact simulator has always printed them
    code, out, _ = run_cli(capsys, "simulate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, text_digest, json_digest",
    [
        (("--family", "rw", "--p", "3/4", "--start", "5", "--steps", "40"),
         "452141eb15094d23b4a09cd52280573d85409d64d7397055ddac4050ab0d6e6a",
         "45420cc99fd0b09336edb888ec6f3d63f6cfe0a4aa47532e9a5e1f3a0573110e"),
        (("--family", "rw", "--p", "1/2", "--start", "3", "--steps", "30", "--truncate", "8"),
         "f16849d28ffe9346fe57b0913495164f7768a414fbcb738db5d68bfed63fa5b5",
         "b0fac835c2fe98d924665684b0a5891b50e4d32a6195e7fa5e5fd5655f537197"),
        (("--family", "rw", "--p", "2/3", "--start", "7", "--steps", "25", "--truncate", "12"),
         "d26764ce3f539486f6d4d54e6f070b1fc4f69d0ab04bceba0d2abc52efafd3ab",
         "3e77f58965de4efe303d935643c7c15b671b604a63c8b8f2e3f33a67dad01b39"),
        (("--family", "rw", "--p", "1", "--start", "4", "--steps", "6"),
         "f767774f7426970b1f30a98e1cafd606da3dd3fdf5f573ab5fd40c71b23201b7",
         "e412f6b4a232c7c043d95b9614db009a82f79de3203e9d977d5965e553b7bcad"),
        (("--family", "rw", "--p", "0", "--start", "4", "--steps", "6", "--truncate", "9"),
         "1e7f49cff3b30a7c2c7d772f520a261ad9f22a04dbc532cd2465fb8c8c1ee311",
         "906596c6ec82fc48b549851cd86dcf122fb9d6e4ad945000c87389d6268ea72a"),
        (("--family", "nd", "--start", "a", "--steps", "4"),
         "5bb761a5f2ea791356c9e94475613d6c1b462e3609d07968ff1dad6b8a4b0539",
         "fa290a2c8f0302d3cfc34518706955038a0fd8bebc2a1cf324a5fd689dd5dd90"),
        (("--family", "nd", "--start", "a", "--steps", "3", "--mode", "innermost"),
         "c66758e0827e5c4abbaf7380265243a94b6ef39e5fe32a854327b99c52f9e0d4",
         "b3066eef6381ef44f06d2a183910274a2620e66ae15521c887d70ead274e469c"),
        (("--family", "payout", "--start", "a0", "--steps", "12", "--truncate", "4"),
         "8bbc5c8462eefcc7366d4d88001602487be68ec1088befad2e09c2bcfc9a0ef8",
         "9d7e9f1d83f15ed23c4b8558762f90d147a780b36e45b4e075b3393944789e44"),
        (("--family", "payout", "--start", "a1", "--steps", "30"),
         "b8cacac2a8b5133a0d5a7243384f5a0dd44e737d86746c983518b944b125d122",
         "4cfbe0437ed44ecc3f5133990cdb98aceb153281fccb4e25031bd0eabbf02ef7"),
        ((COINGAME, "--start", "?(0)", "--steps", "10"),
         "7ac9f3c6ba914eb9375867a7a855a4a58e1d0b3943058e69ffab4dddf7baa176",
         "252fcb76a455054a4670e16e2db4e5a5ac2005ce5e4ec0b44d156cac7b18935c"),
        ((COINGAME, "--start", "?(s(0))", "--steps", "10", "--mode", "innermost"),
         "607c9bbef0cab4b8e2477138a9a53632108da7a19489b36f31e801e9f6f66255",
         "bcbedeeb4d189c9edce8f01658c124658c090bcfe1376002f2ad35f0344fe765"),
        ((RW34, "--start", S5, "--steps", "12"),
         "2232ff6d09459995aaf79abf3303777fa644a0d4de38576882b2488886651cf4",
         "7c636af7b70d09fa52bf0e24f3590d2173c365840f3789eb76b13eb6ffcaeed9"),
        ((RW34, "--start", S5, "--steps", "12", "--mode", "innermost"),
         "8e31069f57235d91a4a81e601e0cadaaea9042ba2b48fa7c65dc64e8485147c3",
         "36cd118a037be36367024d58e1a8089a2dee776e9362902065c99e4eeebeb207"),
    ],
)
def test_collapsed_simulate_stdout_is_pinned(capsys, argv, text_digest, json_digest):
    # sha256 of the whole stdout of collapsed single-strategy runs, text and
    # --json, recorded before the collapsed step merged while it binds
    for extra, digest in (((), text_digest), (("--json",), json_digest)):
        code, out, _ = run_cli(capsys, "simulate", *argv, "--collapse", *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


@pytest.mark.parametrize(
    "digest, argv",
    [
        ("d1fbe4d7057ad0d45aaaa90640a4592cdc39b3e2134df7502691601c81340891", ("coingame.wst", "--coeff-bound", "1")),
        ("4e92ac68844945d1f0360e1a80c933d4c55e8cbf4466dc13cc60320a811c7e52", ("coingame.wst", "--coeff-bound", "1", "--json")),
        ("52a25108f84ba0664002fcfd687916be48d8890438e6bc3ba104063e72425e41", ("coingame.wst", "--coeff-bound", "2")),
        ("8a6e89e154738cbdb742d9bf7ac773c23dd27a8780807b4434ebec45536a4107", ("coingame.wst", "--coeff-bound", "2", "--json")),
        ("2feff6ca9937df4309049cfab5e336cc8df4868b27ab8b064977cc635e318e51", ("matrix.wst", "--coeff-bound", "1")),
        ("fca67ad946f96df0ac294470ae3cc81f9968cf64badf9bd3334ae428dd8f71de", ("matrix.wst", "--coeff-bound", "1", "--json")),
        ("52a25108f84ba0664002fcfd687916be48d8890438e6bc3ba104063e72425e41", ("matrix.wst", "--coeff-bound", "2")),
        ("45c2e730ec9f6867f209ebe15b7b3aeb704a97b6c68b9743bacef1e28799937b", ("matrix.wst", "--coeff-bound", "2", "--json")),
        ("cdfd743fcc0f22387bf83aec34aa017410d32770cf2a9ac277689f5f7e0687a1", ("rw14.wst", "--coeff-bound", "1")),
        ("753fbddbd0934dc9fdda9756d3c10f87f8b5522fd468aee4e312fec33e88816b", ("rw14.wst", "--coeff-bound", "1", "--json")),
        ("15a9419412ebc1fadc77cf00f2f4d9d9b74b604aab72ceb308f9030d328db5d7", ("rw14.wst", "--coeff-bound", "2")),
        ("013ffc260afaa907b232b44f810a416a138449fcc0dfce95ea5ace8e4cd50418", ("rw14.wst", "--coeff-bound", "2", "--json")),
        ("92823f3cf3540dac66d7a36ccbe5b8b0c352f10081749de0b9f6bbd71dfa6ad4", ("rw34.wst", "--coeff-bound", "1")),
        ("c2b7f0d30c7317d372ceb8ec27fb692b4e738c67e49450b732bfdd0225b6abaf", ("rw34.wst", "--coeff-bound", "1", "--json")),
        ("92823f3cf3540dac66d7a36ccbe5b8b0c352f10081749de0b9f6bbd71dfa6ad4", ("rw34.wst", "--coeff-bound", "2")),
        ("c2b7f0d30c7317d372ceb8ec27fb692b4e738c67e49450b732bfdd0225b6abaf", ("rw34.wst", "--coeff-bound", "2", "--json")),
        # at the default bound, recorded before shapes over the box budget
        # were answered without being encoded
        ("d9bb744411bb650cf422e2125cebc5d996f2f996c2844fe610558aa5ef7124f6", ("coingame.wst",)),
        ("86268270479a4eae3cf57f595740ad5bad5b534465392b8fbf6a6103becb03be", ("coingame.wst", "--json")),
        ("d9bb744411bb650cf422e2125cebc5d996f2f996c2844fe610558aa5ef7124f6", ("coingame.wst", "--parallel")),
        ("a12ec6f4eb7568c2fdb8d04c273a17a1049cbb7075f614052b175442410ab3c3", ("matrix.wst",)),
        ("82aa8640df956c03aa48767624a7f6ff028a7fe65ef0252766c40679b3797617", ("matrix.wst", "--json")),
        ("a12ec6f4eb7568c2fdb8d04c273a17a1049cbb7075f614052b175442410ab3c3", ("rw14.wst",)),
        ("3482abfbbd06a9b17be2cc762748dec51e340f056198b2e6d328bee8b37137c2", ("rw14.wst", "--json")),
        # only poly-linear's box fits the default budget at the default
        # bound, so the parallel winner is fixed
        ("92823f3cf3540dac66d7a36ccbe5b8b0c352f10081749de0b9f6bbd71dfa6ad4",
         ("rw34.wst", "--parallel", "--shapes", "poly-linear,matrix-2,matrix-3")),
    ],
)
def test_prove_stdout_is_pinned(capsys, monkeypatch, digest, argv):
    # sha256 of the whole stdout: verdict, shape, certificate or the outcome
    # of every shape, byte for byte; run from problems/ so that the file
    # name in --json is the same in every checkout
    monkeypatch.chdir(ROOT / "problems")
    code, out, _ = run_cli(capsys, "prove", argv[0], "--solver", BOXSOLVER, *argv[1:])
    assert code in (0, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NINES = "9" * 3000


def test_simulate_reports_numbers_past_the_digit_cap_in_full(capsys, tmp_path, digit_cap):
    # a weight total of 10^3000: after three steps the weights pass 9000 digits
    system = tmp_path / "nines.wst"
    system.write_text(f"(VAR x)\n(RULES\n  s(x) -> 1 : x || {NINES} : s(s(x))\n)\n")
    argv = ("simulate", str(system), "--start", "s(0)", "--steps", "3")
    mass = f"{NINES}/1{'0' * 3000}"
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 6 and lines[5].startswith("outcome: {") and lines[5].endswith("}")
    assert [line.split(",")[0] for line in lines[1:5]] == [
        "step 0: mass 1", "step 1: mass 1", f"step 2: mass {mass}", f"step 3: mass {mass}"]
    assert sys.get_int_max_str_digits() == digit_cap
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["masses"] == ["1", "1", mass, mass]
    with any_digits():
        assert sum(Fraction(weight) for weight, _ in report["outcomes"][0]) == Fraction(mass)
    assert sys.get_int_max_str_digits() == digit_cap


def test_prove_reads_weights_past_the_digit_cap(capsys, tmp_path, digit_cap):
    big = tmp_path / "big.wst"
    big.write_text(f"(VAR x)\n(RULES\n  s(x) -> {'7' * 5000} : x || 1 : s(s(x))\n)\n")
    code, out, err = run_cli(capsys, "prove", str(big), "--solver", BOXSOLVER, "--coeff-bound", "1")
    assert (code, out.splitlines()[:2], err) == (0, ["YES", "shape: poly-linear"], "")
    code, out, _ = run_cli(capsys, "prove", str(big), "--solver", BOXSOLVER, "--coeff-bound", "1", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "YES"
    nines = tmp_path / "nines.wst"
    nines.write_text(f"(VAR x)\n(RULES\n  s(x) -> 1 : x || {NINES} : s(s(x))\n)\n")
    code, out, _ = run_cli(capsys, "prove", str(nines), "--solver", BOXSOLVER)
    assert (code, out.splitlines()[0]) == (1, "MAYBE")
    assert sys.get_int_max_str_digits() == digit_cap
    # and after an error exit and a usage error
    assert run_cli(capsys, "prove", str(tmp_path / "missing.wst"))[0] == 2
    with pytest.raises(SystemExit):
        main(["prove"])
    assert sys.get_int_max_str_digits() == digit_cap


def test_digits_int_cannot_read_are_reported_where_they_stand(capsys, tmp_path):
    # '²' passes str.isdigit() but not int(); each case once ended in
    # "invalid literal for int() with base 10: '²'"
    system = tmp_path / "f.wst"
    system.write_text("(VAR x)\n(RULES f(x) -> ² : x || 1 : f(x))\n", encoding="utf-8")
    cases = [
        (("prove", str(system)), "error: line 2, column 18: expected IDENT, found ':'"),
        (("prove", RW34, "--shapes", "matrix-²"),
         "error: unknown shape 'matrix-²' (expected poly-linear, poly-multilinear-K or matrix-N)"),
        (("simulate", "--family", "payout", "--start", "a²"),
         "error: cannot read start object 'a²' (expected aN or a natural)"),
        (("simulate", "--family", "rw", "--p", "3/4", "--start", "²"),
         "error: cannot read start object '²' (expected a natural)"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", message + "\n"), argv


@pytest.mark.parametrize("start", ["1_0", " +2", "-3", "2 "])
def test_walk_start_is_decimal_digits_only(capsys, start):
    # int() once read these, and the walk went from 10 and 2
    argv = ("simulate", "--family", "rw", "--p", "3/4", "--start", start, "--steps", "1")
    message = f"error: cannot read start object {start!r} (expected a natural)\n"
    assert run_cli(capsys, *argv) == (2, "", message)
