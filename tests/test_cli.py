import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ptrs.cli import load_config, main

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
    monkeypatch.setenv("PTRS_SOLVER", f"{FAKE} --reply unknown")
    _, out, _ = run_cli(capsys, *args)
    assert json.loads(out)["attempts"][0]["status"] == "unknown"
    _, out, _ = run_cli(capsys, *args, "--solver", BOXSOLVER)
    assert json.loads(out)["verdict"] == "YES"


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
    assert err == "note: redex memo full at 3 nodes; further nodes are matched afresh on every visit\n"
    assert run_cli(capsys, *argv) == (0, quiet_out, "")

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


def test_unexpected_failures_exit_two(capsys, monkeypatch):
    import ptrs.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(ptrs.cli, "run", broken)
    code, out, err = run_cli(capsys, "simulate", "--family", "rw", "--p", "1/2", "--start", "1")
    assert code == 2 and out == ""
    assert err == "error: RuntimeError: boom\n"


def test_uninterpreted_start_symbol_is_an_error(capsys):
    code, _, err = run_cli(capsys, "simulate", str(ROOT / "problems" / "matrix.wst"),
                           "--start", "a(a(0))", "--steps", "1",
                           "--cert", str(ROOT / "problems" / "matrix.cert"))
    assert code == 2 and err.startswith("error: KeyError: ")


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
