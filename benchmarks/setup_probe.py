"""Fresh-process set-up of one workload: import crosshedge and build the inputs.

run.py times this script from outside (interpreter start to exit) for
``setup_s``.  Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, import_library  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[workload].setup(import_library(HERE.parent), seed)
