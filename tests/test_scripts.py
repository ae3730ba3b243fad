"""The demo scripts run end to end, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "scripts").glob("*_demo.py"))


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
