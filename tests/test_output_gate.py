"""One digest per command class over a seeded corpus of generated systems.

Seeded `random_ptrs` and `looping_ptrs` systems are written to files with
`render_problem` and run through `cli.main` in process, from one directory
so that file names read the same in every checkout:
- `prove` with the box solver at bounds 1 and 2, in text and `--json`;
- `check` of every certificate those runs print;
- `drift_harness` on every certificate those runs print, at the
  certified epsilon and at twice it, at widths 32 and 3: each report's
  trials, checks and violation text;
- `simulate` from seeded `random_term` starts, outermost and innermost,
  collapsed or not;
- `simulate --json` from the same starts, outermost and innermost, plain
  and collapsed with `--trace`;
- `simulate --cert` from the same starts with every certificate those
  prove runs print for the system, in text and `--json`;
- `simulate --family` over the built-in walk, payout and nondeterministic
  systems, in every single-strategy mode, output form and a few lengths;
- `simulate --mode exhaustive` from the same starts and families, collapsed
  or not, with `--trace` and `--json`; the generated systems run at a node
  budget that some of them pass, which exits 2 with no output.
Each class's stdout, in order and with each run's argv and exit code, is
hashed to one sha256. The argv is recorded with the box solver's command,
which names the running interpreter, written as the token `BOXSOLVER`. A change that alters a digest on purpose names the class and
the reason in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from itertools import chain, product

from helpers import looping_ptrs, problem_of, random_ptrs, render_problem
from ptrs.certtext import parse_interpretation
from ptrs.cli import main
from ptrs.interpretations import check_certificate
from ptrs.rewriting import random_term
from ptrs.simulator import drift_harness
from ptrs.wst import elaborate, parse_problem

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"

DIGESTS = {
    "prove": "14e0c7f60895db0439c6f8b2b7f224dda0e078d8ae93198856531644b953afd9",
    "prove-json": "d425b92c36cb262f506b2ddbcb560ec65d0a60e5339a6d2b7f7fca827294f7ed",
    "check": "96eb5b201562bf06ce2eebf02af74ceb5b1b77b2ee0bf5b564ac075bce8aa01e",
    "simulate": "10060ab6af175c542d330f73bf8d84944226ec72c92ebf113f1a01d9a26581e9",
    "family": "48b2c96e978b6386920bcc172e5d54b300235435a7f22602a2ee2faff313aa83",
    "drift": "a83aef7410ddada575b54888ffb0aafa066bb276f56e9d4bb67feca5b3697714",
    "exhaustive": "89ee1c30679595c0c62d9a1620cee7cb2b720cc3c615c35452914b387b05c552",
    "simulate-json": "b98e0aef3e968b0c694b0814f63611891748f86ae604fe48a69f748395fca4f5",
    "simulate-cert": "3934d197c84ca2f5baa0ddde5ec579284682ea83e7a03089ad14a772efaeb3ac",
}

# output forms of the exhaustive runs; all but the first keep a trace
EXHAUSTIVE_FLAGS = ((), ("--collapse", "--trace"), ("--trace", "--json"), ("--collapse", "--trace", "--json"))


def corpus(seed: int = 20261019, count: int = 40):
    rng = random.Random(seed)
    for index in range(count):
        system = (random_ptrs if index % 2 == 0 else looping_ptrs)(rng)
        text = render_problem(problem_of(system))
        signature = parse_problem(text).signature
        starts = [random_term(signature, rng, max_depth=3, variable_pool=()) for _ in range(2)]
        yield f"sys-{index:02d}.wst", text, starts


def drift_reports(text: str, certificate: str, seed: int) -> str:
    """The drift reports of one certificate, one line per setting."""
    system = elaborate(parse_problem(text))
    cert = check_certificate(parse_interpretation(certificate), system)
    lines = []
    for factor in (1, 2):
        for width in (32, 3):
            report = drift_harness(system, cert, trials=20, max_depth=12, rng=random.Random(seed),
                                   epsilon=factor * cert.epsilon, max_width=width)
            lines.append(f"x{factor} width {width}: {report.trials} {report.checks} {report.violation}\n")
    return "".join(lines)


def family_systems():
    """(argv prefix, starts) of every built-in family setting run."""
    for truncate in ((), ("--truncate", "4")):
        for p in ("3/4", "1/2", "1"):
            yield ("--family", "rw", "--p", p, *truncate), ("0", "3")
    for truncate in ((), ("--truncate", "2")):
        yield ("--family", "payout", *truncate), ("a0", "a2", "5")
    yield ("--family", "nd"), ("a", "c")


def run_all(capsys, monkeypatch, tmp_path) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    outs: dict[str, list[str]] = {name: [] for name in DIGESTS}

    def run(cls: str, *argv: str) -> str:
        code = main(list(argv))
        out = capsys.readouterr().out
        shown = " ".join("BOXSOLVER" if arg == BOXSOLVER else arg for arg in argv)
        outs[cls].append(f"{shown}\n{code}\n{out}")
        return out

    certificates = 0
    for name, text, starts in corpus():
        (tmp_path / name).write_text(text)
        certs = []
        for bound in ("1", "2"):
            argv = ("prove", name, "--solver", BOXSOLVER, "--coeff-bound", bound)
            run("prove", *argv)
            report = json.loads(run("prove-json", *argv, "--json"))
            if report["certificate"] is not None:
                cert = f"{name}.{bound}.cert"
                (tmp_path / cert).write_text(report["certificate"])
                certs.append(cert)
                run("check", "check", name, "--certificate", cert)
                run("check", "check", name, "--certificate", cert, "--json")
                drift = drift_reports(text, report["certificate"], seed=certificates)
                outs["drift"].append(f"{cert}\n{drift}")
                certificates += 1
        for start in starts:
            for mode in ("outermost", "innermost"):
                for collapse in ((), ("--collapse",)):
                    run("simulate", "simulate", name, "--start", str(start), "--steps", "3",
                        "--mode", mode, "--trace", *collapse)
                for flags in ((), ("--collapse", "--trace")):
                    run("simulate-json", "simulate", name, "--start", str(start), "--steps", "3",
                        "--mode", mode, "--json", *flags)
            for cert in certs:
                for flags in ((), ("--json",)):
                    run("simulate-cert", "simulate", name, "--start", str(start), "--steps", "3",
                        "--cert", cert, *flags)
            for flags in EXHAUSTIVE_FLAGS:
                run("exhaustive", "simulate", name, "--start", str(start), "--steps", "3",
                    "--mode", "exhaustive", "--node-budget", "300", *flags)
    assert certificates > 0
    for family, starts in family_systems():
        for start in starts:
            for mode in ("outermost", "innermost"):
                for flags in product(((), ("--collapse",)), ((), ("--trace",)), ((), ("--json",))):
                    for steps in ("0", "1", "6"):
                        run("family", "simulate", *family, "--start", start, "--steps", steps,
                            "--mode", mode, *chain.from_iterable(flags))
            for flags in EXHAUSTIVE_FLAGS:
                for steps in ("0", "1", "6"):
                    run("exhaustive", "simulate", *family, "--start", start, "--steps", steps,
                        "--mode", "exhaustive", *flags)
    return {cls: hashlib.sha256("".join(texts).encode()).hexdigest() for cls, texts in outs.items()}


def test_outputs_over_generated_systems_are_pinned(capsys, monkeypatch, tmp_path):
    assert run_all(capsys, monkeypatch, tmp_path) == DIGESTS
