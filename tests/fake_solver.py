"""Scriptable stand-in for an SMT solver, for deterministic tests.

Reads stdin to exhaustion (honouring the one-shot pipe protocol) and prints
a canned reply. It imports nothing from the package, so it runs as a
script wherever the tests are:

    python tests/fake_solver.py --reply sat --model "c0_1=1,c0_k=1"
    python tests/fake_solver.py --reply unsat
    python tests/fake_solver.py --garbage
    python tests/fake_solver.py --reply sat --sleep 30

The tests name it by `helpers.FAKE`.
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fake_solver")
    parser.add_argument("--reply", choices=["sat", "unsat", "unknown"], default="unknown")
    parser.add_argument("--model", default="", help="comma-separated name=value pairs")
    parser.add_argument("--garbage", action="store_true", help="print nonsense instead")
    parser.add_argument("--sleep", type=float, default=0.0)
    parser.add_argument("--exit-code", type=int, default=0)
    args = parser.parse_args(argv)

    sys.stdin.read()
    if args.sleep:
        time.sleep(args.sleep)
    if args.garbage:
        print("segmentation fault (not really)")
        return args.exit_code
    print(args.reply)
    if args.reply == "sat":
        print("(")
        if args.model:
            for pair in args.model.split(","):
                name, _, value = pair.partition("=")
                print(f"  (define-fun {name.strip()} () Int {value.strip()})")
        print(")")
    return args.exit_code


if __name__ == "__main__":
    sys.exit(main())
