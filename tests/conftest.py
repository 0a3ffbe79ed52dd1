import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracles`

from smoothap.sieve import SieveTable

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def table_1e4():
    return SieveTable(10**4)


@pytest.fixture(scope="session")
def table_1e6():
    return SieveTable(10**6)


@pytest.fixture(scope="session")
def golden_dir():
    GOLDEN_DIR.mkdir(exist_ok=True)
    return GOLDEN_DIR
