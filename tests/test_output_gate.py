"""One digest per command class over a seeded corpus of generated systems.

Seeded `random_ptrs` and `looping_ptrs` systems are written to files with
`render_problem` and run through `cli.main` in process, from one directory
so that file names read the same in every checkout:
- `prove` with the box solver at bounds 1 and 2, in text and `--json`;
- `check` of every certificate those runs print;
- `simulate` from seeded `random_term` starts, outermost and innermost,
  collapsed or not.
Each class's stdout, in order and with each run's exit code, is hashed to
one sha256. A change that alters a digest on purpose names the class and
the reason in CHANGES.md.
"""

import hashlib
import json
import random
import sys

from helpers import looping_ptrs, problem_of, random_ptrs, render_problem
from ptrs.cli import main
from ptrs.rewriting import random_term
from ptrs.wst import parse_problem

BOXSOLVER = f"{sys.executable} -m ptrs.boxsolver"

DIGESTS = {
    "prove": "9de104825ebc01b343cbe32a400b61da1a00a1dd583dfbba7723d6f6fed140a0",
    "prove-json": "c3b9bc2a30208de15963d13c6e48e557c39f6de1c7b040b218208f2b607dc1c7",
    "check": "96eb5b201562bf06ce2eebf02af74ceb5b1b77b2ee0bf5b564ac075bce8aa01e",
    "simulate": "10060ab6af175c542d330f73bf8d84944226ec72c92ebf113f1a01d9a26581e9",
}


def corpus(seed: int = 20261019, count: int = 40):
    rng = random.Random(seed)
    for index in range(count):
        system = (random_ptrs if index % 2 == 0 else looping_ptrs)(rng)
        text = render_problem(problem_of(system))
        signature = parse_problem(text).signature
        starts = [random_term(signature, rng, max_depth=3, variable_pool=()) for _ in range(2)]
        yield f"sys-{index:02d}.wst", text, starts


def run_all(capsys, monkeypatch, tmp_path) -> dict[str, str]:
    monkeypatch.chdir(tmp_path)
    outs: dict[str, list[str]] = {name: [] for name in DIGESTS}

    def run(cls: str, *argv: str) -> str:
        code = main(list(argv))
        out = capsys.readouterr().out
        outs[cls].append(f"{' '.join(argv)}\n{code}\n{out}")
        return out

    certificates = 0
    for name, text, starts in corpus():
        (tmp_path / name).write_text(text)
        for bound in ("1", "2"):
            argv = ("prove", name, "--solver", BOXSOLVER, "--coeff-bound", bound)
            run("prove", *argv)
            report = json.loads(run("prove-json", *argv, "--json"))
            if report["certificate"] is not None:
                cert = f"{name}.{bound}.cert"
                (tmp_path / cert).write_text(report["certificate"])
                run("check", "check", name, "--certificate", cert)
                run("check", "check", name, "--certificate", cert, "--json")
                certificates += 1
        for start in starts:
            for mode in ("outermost", "innermost"):
                for collapse in ((), ("--collapse",)):
                    run("simulate", "simulate", name, "--start", str(start), "--steps", "3",
                        "--mode", mode, "--trace", *collapse)
    assert certificates > 0
    return {cls: hashlib.sha256("".join(texts).encode()).hexdigest() for cls, texts in outs.items()}


def test_outputs_over_generated_systems_are_pinned(capsys, monkeypatch, tmp_path):
    assert run_all(capsys, monkeypatch, tmp_path) == DIGESTS
