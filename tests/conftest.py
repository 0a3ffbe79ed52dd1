import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for `import oracles`

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def no_tmp_file_left(request):
    """Fail a test that leaves a `*.tmp` file (a report never renamed) in its tmp_path."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.tmp"))
    assert not left, f"temporary files left behind: {left}"


@pytest.fixture(scope="session")
def golden_dir():
    GOLDEN_DIR.mkdir(exist_ok=True)
    return GOLDEN_DIR
