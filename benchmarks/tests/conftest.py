import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from workloads import import_library  # noqa: E402


@pytest.fixture(scope="session")
def ch():
    return import_library(BENCH.parent)
