"""Set-up time of one workload, measured inside a fresh interpreter.

Usage, from the checkout root:  python3 bench/setup_probe.py WORKLOAD

Prints the seconds spent importing the ptrs modules the workload uses and
loading its fixed inputs through the program (workloads.load_fixed).
Interpreter start-up is not included; the clock starts after it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import load_fixed  # noqa: E402  (does not import ptrs)

if __name__ == "__main__":
    start = time.perf_counter()
    load_fixed(sys.argv[1])
    print(f"{time.perf_counter() - start:.9f}")
