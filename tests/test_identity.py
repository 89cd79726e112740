"""tools/identity.py: the recorded numbers a byte-identity check compares."""

import json
import re
import subprocess
import sys
from pathlib import Path

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]


def test_identity_tool_writes_the_recorded_numbers(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "identity.py"), str(out)],
                          env=checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes = (out / "exit_codes.txt").read_text(encoding="utf-8").splitlines()
    labels = [line.rsplit(" ", 1)[0] for line in codes]
    assert len(labels) == len(set(labels)) == 9
    assert all(line.rsplit(" ", 1)[1] in ("0", "2") for line in codes)
    assert sum(label.startswith("toy@") for label in labels) == 3
    expected = {"exit_codes.txt", "dap-grid.txt", "tap-grid.txt", "lifted.txt",
                "sensitivity.txt", "ladder.txt"}
    expected |= {label + ext for label in labels for ext in (".log", ".report.json")}
    assert {p.name for p in out.iterdir()} == expected
    for label in labels:
        report = json.loads((out / (label + ".report.json")).read_text(encoding="utf-8"))
        assert "wall_time_s" not in report and "input" not in report
        assert "status" in report
        log = (out / (label + ".log")).read_text(encoding="utf-8").splitlines()
        assert log[0].startswith("k\ti\t") and len(log) == 1 + report["inner_attempts"]
    grid = (out / "dap-grid.txt").read_text(encoding="utf-8")
    assert re.fullmatch(r"sha256 [0-9a-f]{64}\nF_final \S+\nstatus \w+\nrestorations( \d+)+\n"
                        r"newton_steps( \d+)+\n", grid)
    lines = grid.splitlines()
    assert len(lines[3].split()) == len(lines[4].split())
    tap = (out / "tap-grid.txt").read_text(encoding="utf-8")
    assert re.fullmatch(r"sha256 [0-9a-f]{64}\npaths sha256 [0-9a-f]{64}\n"
                        r"(\S+ iterations \d+ newton_steps \d+ rgap \S+\n){4}"
                        r"grid6x6-od10-s0 sha256 [0-9a-f]{64} paths [0-9a-f]{64} "
                        r"iterations \d+ newton_steps \d+ rgap \S+\n", tap)
    lifted = (out / "lifted.txt").read_text(encoding="utf-8")
    names = ["jacobian.data float64", "jacobian.indices int32", "jacobian.indptr int32",
             "trial_multipliers float64", "project float64", "project.box float64"]
    assert re.fullmatch("".join(re.escape(name) + r" sha256 [0-9a-f]{64}\n"
                                for name in names), lifted)
    sensitivity = (out / "sensitivity.txt").read_text(encoding="utf-8")
    assert re.fullmatch(r"dap-grid float64 sha256 [0-9a-f]{64}\n"
                        r"grid6x6-od10-s0@0\.9 float64 sha256 [0-9a-f]{64}\n", sensitivity)
    ladder = (out / "ladder.txt").read_text(encoding="utf-8").splitlines()
    names = ["toy@1,2", "toy@1,1.5", "toy@1.8,2"]
    names += ["%dx%d-i%d" % (k, k, i) for k, n in ((2, 6), (3, 3), (4, 3)) for i in range(n)]
    assert [line.split(" ", 1)[0] for line in ladder] == names
    for line in ladder:
        assert re.fullmatch(r"\S+ \w+ (\d+ \S+|None None)", line), line
        if " None" not in line:
            float(line.rsplit(" ", 1)[1])
