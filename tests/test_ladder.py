"""tools/ladder.py: the instance ladder behind ROADMAP's Baseline table."""

import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

LADDER = Path(__file__).resolve().parents[1] / "tools" / "ladder.py"


def _ladder(*names):
    return subprocess.run([sys.executable, str(LADDER), *names],
                          env=checkout_env(), capture_output=True, text=True)


def test_ladder_runs_one_row():
    proc = _ladder("2x2-i1")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["instance", "status", "steps", "F", "seconds", "F*"]
    name, status, steps, F, seconds, ref = row.split()
    assert (name, status, ref) == ("2x2-i1", "converged", "0.297240")
    assert 1 <= int(steps) <= 200
    assert abs(float(F) - float(ref)) <= 1e-6 and float(seconds) >= 0.0


def test_ladder_converges_on_4x4_i0():
    # commodity 3 has a tied path with zero flow at F*, a kink at which the
    # reduced phase can stall
    proc = _ladder("4x4-i0")
    assert proc.returncode == 0, proc.stderr
    name, status, steps, F, seconds, ref = proc.stdout.splitlines()[1].split()
    assert (name, status, ref) == ("4x4-i0", "converged", "0.308594")
    assert abs(float(F) - float(ref)) <= 1e-6


def test_ladder_rejects_an_unknown_row():
    proc = _ladder("2x2-i9")
    assert proc.returncode == 2
    assert "no ladder row named 2x2-i9" in proc.stderr


def test_ladder_converges_on_8x8_i0():
    # the restorations' warm Newton steps resume after each sweep that adds
    # no path, so the run reaches the reference local minimum F*
    proc = _ladder("8x8-i0")
    assert proc.returncode == 0, proc.stderr
    name, status, steps, F, seconds, ref = proc.stdout.splitlines()[1].split()
    assert (name, status, ref) == ("8x8-i0", "converged", "5.539737")
    assert abs(float(F) - 5.539737) <= 1e-6 * 5.539737
