"""Command line interface: subcommands, exit codes, reports, logs."""

import json
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (TOY_DOC, TOY_TARGETS, TOY_V, checkout_env,
                      quadratic_toy_document, toy_document)
from odadjust import cli
from odadjust.cli import main
from odadjust.driver import IterationRecord

DATA = Path(__file__).resolve().parent / "data"


def _write(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _input_error(argv, capsys):
    """main exits 1 with an error message and raises nothing."""
    code = main(argv)
    err = capsys.readouterr().err
    return code == 1 and err.startswith("error:")


# the values the mutation sweep puts in place of each document leaf
LEAF_VALUES = (None, "x", [], {}, float("nan"), float("inf"), float("-inf"),
               -1, True, 2.5, 10**400)


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield from _leaf_paths(node[key], path + (key,))
    else:
        yield path


# -- check ----------------------------------------------------------------------

def test_check_prints_dimensions(toy_file, capsys):
    assert main(["check", "--input", toy_file]) == 0
    out = capsys.readouterr().out
    assert out == ("nodes: 3\nlinks: 4\ncommodities: 2\nobserved links: 2\n"
                   "state dimension: 24\nconstraint dimension: 22\n")


def test_check_rejects_bad_documents(tmp_path, capsys):
    assert main(["check", "--input", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["check", "--input", str(bad)]) == 1
    doc = toy_document()
    doc["links"][0]["to"] = 99
    assert main(["check", "--input", _write(tmp_path, doc)]) == 1
    nan = float("nan")
    for key, where, value in [
        ("nodes", 0, {"a": 1}),
        ("nodes", 0, [4]),
        ("links", 0, dict(TOY_DOC["links"][0], coeffs=["x", 1])),
        ("links", 0, dict(TOY_DOC["links"][0], coeffs=[nan, 1.0])),
        ("weights", "eta1", nan),
        ("solver", None, {"max_outer": 2.5}),
        ("solver", None, {"max_outer": True}),
        ("solver", None, [1, 2]),
        ("initial_demand", None, ["a", "b"]),
        # whole numbers too large for a float
        ("links", 0, dict(TOY_DOC["links"][0], coeffs=[10**400, 1.0])),
        ("commodities", 0, dict(TOY_DOC["commodities"][0], target=10**400)),
        ("observations", 0, dict(TOY_DOC["observations"][0], flow=10**400)),
        ("weights", "eta1", 10**400),
        ("initial_demand", None, [10**400, 1.0]),
        ("solver", None, {"eps2": 10**400}),
    ]:
        doc = toy_document()
        if where is None:
            doc[key] = value
        else:
            doc[key][where] = value
        path = _write(tmp_path, doc)
        for command in ("check", "solve", "tap"):
            assert _input_error([command, "--input", path], capsys), (command, key, value)


def test_check_survives_leaf_mutations(tmp_path, capsys):
    base = toy_document()
    base["solver"] = {"max_outer": 5, "eps1": 1e-5}
    base["initial_demand"] = [1.0, 2.0]
    codes = []
    for path in _leaf_paths(base):
        for value in LEAF_VALUES:
            doc = json.loads(json.dumps(base))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            code = main(["check", "--input", _write(tmp_path, doc)])
            err = capsys.readouterr().err
            assert code in (0, 1), (path, value)
            assert (code == 1) == err.startswith("error:"), (path, value, err)
            codes.append(code)
    assert len(codes) >= 200 and 0 in codes and 1 in codes


@pytest.mark.parametrize("argv, code", [
    ([], 1),                                         # no subcommand
    (["check"], 1),                                  # missing --input
    (["tap", "--input", "TOY", "--tol", "abc"], 1),
    (["check", "--input", "TOY", "--bogus"], 1),     # unknown option
    (["--help"], 0),
    (["solve", "--help"], 0),
])
def test_usage_errors_exit_1(argv, code, toy_file, capsys):
    argv = [toy_file if a == "TOY" else a for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith("error:") == (code == 1), err


# -- tap ------------------------------------------------------------------------

def test_tap_prints_equilibrium(toy_file, capsys):
    assert main(["tap", "--input", toy_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    flows = {}
    meta = {}
    for line in lines:
        key, _, val = line.partition(":")
        if key.startswith("link"):
            flows[key.split()[1]] = float(val)
        else:
            meta[key] = val.strip()
    assert_allclose([flows["1"], flows["2"], flows["3"], flows["4"]],
                    TOY_V, atol=1e-6)
    assert float(meta["beckmann"]) == pytest.approx(127.0 / 48.0, rel=1e-6)
    assert float(meta["relative_gap"]) <= 1e-8
    assert int(meta["iterations"]) >= 0


def test_tap_demand_override(toy_file, capsys):
    assert main(["tap", "--input", toy_file, "--demand", "1,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "link 1: 1"
    assert lines[1] == "link 2: 1"


def test_tap_demand_validation(toy_file, capsys):
    assert main(["tap", "--input", toy_file, "--demand", "1,2,3"]) == 1
    assert main(["tap", "--input", toy_file, "--demand=-1,1"]) == 1
    assert main(["tap", "--input", toy_file, "--demand", "a,b"]) == 1
    assert main(["tap", "--input", toy_file, "--demand", ""]) == 1
    capsys.readouterr()
    for extra in (["--demand", "1,nan"], ["--demand", "1,,2"],
                  ["--demand", ",1,2"], ["--demand", "1,2,"],
                  ["--tol", "-1"], ["--tol", "nan"],
                  ["--max-iter", "0"], ["--max-iter", "2.5"]):
        assert _input_error(["tap", "--input", toy_file] + extra, capsys), extra


def test_tap_budget_exit_code(tmp_path, capsys):
    path = _write(tmp_path, quadratic_toy_document())
    assert main(["tap", "--input", path, "--tol", "1e-30", "--max-iter", "1"]) == 2
    capsys.readouterr()


# -- solve ----------------------------------------------------------------------

def test_solve_report_content(toy_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["solve", "--input", toy_file,
                 "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["status"] == "converged"
    assert report["nodes"] == 3 and report["links"] == 4
    assert report["commodities"] == 2
    assert_allclose(report["d_final"], TOY_TARGETS, atol=0.05)
    assert_allclose(report["v_final"], TOY_V, atol=0.05)
    assert report["F_final"] <= 0.01
    assert report["objective_check"] == pytest.approx(
        report["eta1"] * report["F1"] + report["eta2"] * report["F2"],
        abs=1e-8)
    assert report["initial_demand"] == report["target_demand"]
    assert report["solver"]["max_outer"] == 200
    assert report["wall_time_s"] >= 0.0
    assert report["inner_attempts"] >= report["outer_iterations"] - 1


def test_solve_without_commodities_converges(toy_file, tmp_path, capsys):
    # with nothing to adjust, solve ends converged after one outer step,
    # exits 0 and writes the report a toy run writes, with no demand
    doc = {"nodes": [1, 2],
           "links": [{"id": 1, "from": 1, "to": 2, "coeffs": [1.0, 1.0]}],
           "commodities": [], "observations": [{"link": 1, "flow": 2.0}]}
    path = _write(tmp_path, doc)
    report_path, log_path = tmp_path / "report.json", tmp_path / "log.tsv"
    toy_path = tmp_path / "toy.json"
    assert main(["check", "--input", path]) == 0
    assert main(["tap", "--input", path]) == 0
    assert main(["solve", "--input", path, "--report", str(report_path),
                 "--log", str(log_path)]) == 0
    assert main(["solve", "--input", toy_file, "--report", str(toy_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report.keys() == json.loads(toy_path.read_text(encoding="utf-8")).keys()
    assert report["status"] == "converged"
    assert report["commodities"] == 0
    assert report["outer_iterations"] == 1 and report["inner_attempts"] == 0
    assert report["d_final"] == [] and report["v_final"] == [0.0]
    assert report["F_final"] == report["F1"] == 4.0
    assert len(log_path.read_text(encoding="utf-8").splitlines()) == 1   # the header


# fails in the first restoration on the quadratic toy: one sweep leaves a gap
FAILING_SOLVE = ["--initial-demand", "1,2", "--set", "tap_max_iter=1",
                 "--set", "tap_tol=1e-30"]


def test_solve_failure_still_writes_report(tmp_path, capsys):
    path = _write(tmp_path, quadratic_toy_document())
    report_path = tmp_path / "report.json"
    log_path = tmp_path / "trace.tsv"
    code = main(["solve", "--input", path, "--report", str(report_path),
                 "--log", str(log_path)] + FAILING_SOLVE)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "restoration" in err
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["status"] == "error"
    assert report["reason"] in err
    assert report["input"] == path
    assert (report["nodes"], report["links"], report["commodities"]) == (3, 4, 2)
    assert (report["eta1"], report["eta2"]) == (0.5, 0.5)
    assert report["target_demand"] == [1.5, 1.75]
    assert report["initial_demand"] == [1.0, 2.0]
    assert report["solver"]["tap_max_iter"] == 1
    assert report["solver"]["tap_tol"] == 1e-30
    assert "d_final" not in report
    names = [f.name for f in fields(IterationRecord)]
    assert log_path.read_text(encoding="utf-8") == "\t".join(names) + "\n"


@pytest.mark.parametrize("flag, where, extra", [
    ("--report", "missing/report.json", []),
    ("--log", "missing/trace.tsv", []),
    ("--log", ".", []),
    ("--report", "missing/report.json", FAILING_SOLVE),
], ids=["report", "log", "log-directory", "report-of-failed-solve"])
def test_solve_unwritable_output_exits_1(flag, where, extra, tmp_path,
                                         capsys, monkeypatch):
    # the output paths are checked before the solver runs, also when the
    # solve would fail and write an error report
    path = _write(tmp_path, quadratic_toy_document())
    calls = []
    real = cli.solve_dap
    monkeypatch.setattr(cli, "solve_dap",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    code = main(["solve", "--input", path, flag, str(tmp_path / where)] + extra)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot write")
    assert calls == []


def test_solve_rejects_report_and_log_on_one_file(tmp_path, capsys, monkeypatch):
    # two handles on one file would overwrite each other's output; the same
    # file named twice, by another spelling or through a symlink, is an
    # input error before the solve
    path = _write(tmp_path, quadratic_toy_document())
    out = tmp_path / "out.json"
    (tmp_path / "link.json").symlink_to(out)
    calls = []
    monkeypatch.setattr(cli, "solve_dap", lambda *a, **kw: calls.append(1))
    for log in (out, tmp_path / "." / "out.json", tmp_path / "link.json"):
        assert main(["solve", "--input", path, "--report", str(out),
                     "--log", str(log)]) == 1
        assert capsys.readouterr().err.startswith("error: --report and --log")
    assert calls == [] and not out.exists()


def _parallel_links(big, target):
    """Two parallel links of constant travel time big, one commodity."""
    return {"nodes": [1, 2],
            "links": [{"id": 1, "from": 1, "to": 2, "coeffs": [big]},
                      {"id": 2, "from": 1, "to": 2, "coeffs": [big]}],
            "commodities": [{"origin": 1, "destination": 2, "target": target}],
            "observations": [], "weights": {"eta1": 1, "eta2": 1}}


def test_overflowing_link_times_name_their_cause(tmp_path, capsys):
    # a link's travel time overflows to inf at this demand, so no path has a
    # finite cost although the destination is reachable; the run stops with
    # one error line and no NumPy warning
    one_link = {"nodes": [1, 2],
                "links": [{"id": 1, "from": 1, "to": 2, "coeffs": [1e300, 1e300]}],
                "commodities": [{"origin": 1, "destination": 2, "target": 1e10}],
                "observations": [], "weights": {"eta1": 1, "eta2": 1}}
    # each time is finite, but t.v and the Beckmann integral are not
    too_much = _parallel_links(1e300, 1e10)
    # the equilibrium is finite, but |C(s)| at the zero start overflows a
    # plain 2-norm
    finite = _parallel_links(1e300, 1.0)
    report_path = tmp_path / "report.json"
    log_path = tmp_path / "log.tsv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for doc, cause in ((one_link, "travel times are not finite"),
                           (too_much, "travel times are too large")):
            path = _write(tmp_path, doc)
            assert main(["tap", "--input", path]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert cause in err
            assert main(["solve", "--input", path, "--report", str(report_path)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")
            report = json.loads(report_path.read_text(encoding="utf-8"))
            assert report["status"] == "error"
            assert cause in report["reason"]
            assert report["reason"] in err
        path = _write(tmp_path, finite)
        assert main(["tap", "--input", path]) == 0
        assert main(["solve", "--input", path, "--report", str(report_path),
                     "--log", str(log_path)]) == 0
        assert capsys.readouterr().err == ""
    assert caught == []
    rows = log_path.read_text(encoding="utf-8").splitlines()
    assert rows[1].split("\t")[2] == "1.41421356e+300"      # normC_s, sqrt(2)*1e300


def test_infinite_link_time_derivative_is_a_stated_failure(tmp_path, capsys):
    # t' overflows at the restored flow 0.5 although t does not, so the
    # sensitivity of the restored point has no value: exit 2, the reason in
    # the report, and no NumPy warning
    doc = {"nodes": [1, 2],
           "links": [{"id": "a", "from": 1, "to": 2, "coeffs": [0, 1e308, 8e307]}],
           "commodities": [{"origin": 1, "destination": 2, "target": 0.5}],
           "observations": [{"link": "a", "flow": 0.4}]}
    report_path = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--input", _write(tmp_path, doc),
                     "--report", str(report_path)])
    err = capsys.readouterr().err
    assert caught == []
    assert code == 2
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["status"] == "error"
    assert "derivative is not finite" in report["reason"]
    assert err == "error: %s\n" % report["reason"]


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError("non-strict JSON constant %s" % name)
    return json.loads(text, parse_constant=reject)


def test_objective_overflow_is_a_stated_failure(tmp_path, capsys):
    # on the 2x2 grid, a huge weight or observed flow makes F overflow at
    # the start, so the run ends with exit 2 and its reason; huge costs
    # overflow the projection's ratio test, which is harmless.  No run prints
    # a NumPy warning or writes non-strict JSON
    grid = json.loads((DATA / "grid2x2_1.json").read_text(encoding="utf-8"))
    weight, flow, costs = (json.loads(json.dumps(grid)) for _ in range(3))
    weight["weights"]["eta1"] = 1e308
    flow["observations"][0]["flow"] = 1e308
    costs["links"][0]["coeffs"] = [1e308, 1e308]
    report_path = tmp_path / "report.json"
    log_path = tmp_path / "log.tsv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for doc, stops in ((weight, True), (flow, True), (costs, False)):
            code = main(["solve", "--input", _write(tmp_path, doc), "--set", "max_outer=3",
                         "--report", str(report_path), "--log", str(log_path)])
            err = capsys.readouterr().err
            report = _strict_json(report_path.read_text(encoding="utf-8"))
            assert code == 2
            if stops:
                assert report["status"] == "error"
                assert "objective F is not finite" in report["reason"]
                assert err == "error: %s\n" % report["reason"]
            else:
                assert report["status"] == "max_outer" and err == ""
            assert "nan" not in log_path.read_text(encoding="utf-8")
    assert caught == []


def test_deeply_nested_json_is_an_input_error(tmp_path):
    # json's decoder recurses once per nesting level, so this document
    # raises RecursionError, which each command reports as malformed input
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for command in ("check", "tap", "solve"):
        proc = subprocess.run([sys.executable, "-m", "odadjust.cli", command,
                               "--input", str(path)],
                              capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 1, command
        assert proc.stderr.startswith("error:"), command
        assert "Traceback" not in proc.stderr, command


def test_solve_initial_demand_flag(toy_file, tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["solve", "--input", toy_file, "--report", str(report_path),
                 "--initial-demand", "1,2"])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["initial_demand"] == [1.0, 2.0]
    assert report["status"] == "converged"
    assert abs(report["d_final"][0] - 1.5) <= 0.05
    assert abs(report["d_final"][1] - 1.75) <= 0.05


def test_solve_document_settings_and_overrides(tmp_path, capsys):
    doc = toy_document()
    doc["solver"] = {"max_outer": 1}
    doc["initial_demand"] = [1.0, 2.0]
    path = _write(tmp_path, doc)
    report_path = tmp_path / "r1.json"
    assert main(["solve", "--input", path, "--report", str(report_path)]) == 2
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["status"] == "max_outer"
    assert report["solver"]["max_outer"] == 1
    assert report["initial_demand"] == [1.0, 2.0]
    # command line overrides win over document settings
    report_path2 = tmp_path / "r2.json"
    assert main(["solve", "--input", path, "--report", str(report_path2),
                 "--set", "max_outer=200"]) == 0
    report2 = json.loads(report_path2.read_text(encoding="utf-8"))
    assert report2["solver"]["max_outer"] == 200
    assert report2["status"] == "converged"


def test_solve_set_validation(toy_file, capsys):
    assert main(["solve", "--input", toy_file, "--set", "bogus=1"]) == 1
    assert main(["solve", "--input", toy_file, "--set", "eps1=abc"]) == 1
    assert main(["solve", "--input", toy_file, "--set", "eps1"]) == 1
    capsys.readouterr()
    for setting in ("max_outer=nan", "max_outer=inf", "max_outer=2.5",
                    "max_outer=0", "eps2=nan", "eps2=-inf"):
        assert _input_error(["solve", "--input", toy_file, "--set", setting],
                            capsys), setting


def test_parser_is_built_once_and_keeps_no_state(toy_file, tmp_path):
    # main reuses one parser per process; a --set given to one call is not
    # in the next call's arguments or settings
    assert cli._build_parser() is cli._build_parser()
    first = cli._build_parser().parse_args(["solve", "--input", toy_file,
                                            "--set", "max_outer=1"])
    again = cli._build_parser().parse_args(["solve", "--input", toy_file])
    assert first.set == ["max_outer=1"] and again.set == []
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["solve", "--input", toy_file, "--report", str(r1),
                 "--set", "max_outer=1"]) == 2
    assert main(["solve", "--input", toy_file, "--report", str(r2)]) == 0
    report1 = json.loads(r1.read_text(encoding="utf-8"))
    report2 = json.loads(r2.read_text(encoding="utf-8"))
    assert report1["solver"]["max_outer"] == 1
    assert report2["solver"]["max_outer"] == 200
    assert report2["status"] == "converged"


def test_removed_settings_are_input_errors(toy_file, tmp_path, capsys):
    # the method's constants live in odadjust.driver, not in IRConfig
    assert main(["solve", "--input", toy_file, "--set", "eta=2"]) == 1
    assert capsys.readouterr().err.startswith("error: bad solver settings")
    doc = toy_document()
    doc["solver"] = {"max_inner": 5}
    path = _write(tmp_path, doc, "removed.json")
    for command in ("check", "solve"):
        assert main([command, "--input", path]) == 1
        assert capsys.readouterr().err.startswith("error: bad solver settings")
    report_path = tmp_path / "report.json"
    main(["solve", "--input", toy_file, "--report", str(report_path),
          "--set", "max_outer=1"])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert sorted(report["solver"]) == [
        "eps1", "eps2", "max_outer", "tap_max_iter", "tap_tol"]


def test_solve_writes_iteration_log(toy_file, tmp_path, capsys):
    log_path = tmp_path / "trace.tsv"
    report_path = tmp_path / "report.json"
    assert main(["solve", "--input", toy_file, "--report", str(report_path),
                 "--log", str(log_path), "--initial-demand", "1,2"]) == 0
    lines = log_path.read_text(encoding="utf-8").splitlines()
    names = [f.name for f in fields(IterationRecord)]
    assert lines[0] == "\t".join(names)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert len(lines) - 1 == report["inner_attempts"]
    row = lines[1].split("\t")
    assert len(row) == len(names)
    int(row[0]), int(row[1])                 # k and i are integers
    assert row[10] in ("0", "1")             # accepted flag
    float(row[2])


def test_solve_logs_are_deterministic(toy_file, tmp_path, capsys):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for p in paths:
        assert main(["solve", "--input", toy_file, "--log", str(p),
                     "--initial-demand", "1,2"]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_console_entry_point(toy_file):
    proc = subprocess.run([sys.executable, "-m", "odadjust.cli",
                           "check", "--input", toy_file],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert "state dimension: 24" in proc.stdout


def _scipy_modules_after(code):
    """The scipy modules loaded once a fresh interpreter has run code."""
    code += "\nprint('scipy:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


def test_import_leaves_heavy_scipy_modules_unloaded(toy_file):
    # import, parsing, the structure layouts, assignment, multiplier
    # recovery and the solver's outer steps run on NumPy alone, so none of
    # them, and none of the check, tap and solve commands, loads any scipy
    # module
    assert _scipy_modules_after(
        "import odadjust\n"
        "net = odadjust.parse_network(open(%r).read())\n"
        "S = odadjust.build_structure(net)\n"
        "sol = odadjust.solve_tap(net, net.target_demands)\n"
        "odadjust.recover_multipliers(net, S, sol.X, net.link_times(sol.v))"
        % toy_file) == []
    run = "from odadjust.cli import main\nassert main(%r) == 0"
    for command in ("check", "tap", "solve"):
        assert _scipy_modules_after(run % [command, "--input", toy_file]) == [], command


def test_solve_initial_demand_validation(toy_file, capsys):
    assert main(["solve", "--input", toy_file,
                 "--initial-demand", "1,2,3"]) == 1
    assert main(["solve", "--input", toy_file,
                 "--initial-demand=-1,2"]) == 1
    capsys.readouterr()
    for demand in ("nan,1", "1,inf", "a,1", "1,2,", "1,,2", ",1,2", ""):
        assert _input_error(["solve", "--input", toy_file,
                             "--initial-demand", demand], capsys), demand
