"""Record the reference stdout digest and exit code of every digest-checked op.

The simulate-exact workload draws its coingame and exhaustive ops from the
finite tables in workloads.py; this script runs each of them once and
writes bench/reference_digests.json. Run it from the checkout root, at the
commit whose outputs are the reference:

    python3 bench/record_digests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from oracles import REFERENCE_DIGESTS, stdout_digest  # noqa: E402
from workloads import digest_argvs, digest_key  # noqa: E402


def main() -> int:
    from ptrs.cli import main as ptrs_main

    digests = {}
    for argv in digest_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = ptrs_main(list(argv))
        digests[digest_key(argv)] = {"sha256": stdout_digest(out.getvalue()), "exit": rc}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent,
                            capture_output=True, text=True).stdout.strip()
    REFERENCE_DIGESTS.write_text(json.dumps(
        {"commit": commit or None, "python": platform.python_version(), "digests": digests},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests at {commit or 'an unknown commit'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
