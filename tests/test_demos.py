"""Each demo under ``demos/``, run as a script, prints exactly the bytes
recorded in ``tests/golden/demo_<name>.out``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_golden_bytes(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    golden = ROOT / "tests" / "golden" / f"demo_{name}.out"
    assert done.stdout == golden.read_bytes()
