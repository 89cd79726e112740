"""Every demo script runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=checkout_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
