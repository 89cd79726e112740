"""The three workloads: their instances, the calls they time, their checks.

Every call goes through a public entry point of the package, looked up on
its module at call time so that the tracer's wrappers are seen:
tap.solve_tap, driver.solve_dap and cli.main.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import check_dap, check_flows, check_report
from instances import (TOY_DOC, TOY_STARTS, Instance, grid_instance, relabel,
                       start_objective)

TAP_TOL = 1e-8
# two outer steps keep one operation near 5 s, so a run gets four or more
# passes; with four steps (10 s) the spread between runs doubled
DAP_GRID_OUTER = 2


@dataclass
class Outcome:
    problems: list
    F_end: float = math.nan
    nonzero_exit: bool = False     # the CLI ended with exit code 2


@dataclass
class Op:
    label: str
    F_start: float
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    why: str
    instances: Callable        # rng -> list of Instance
    ops: Callable              # (instances, nets, workdir) -> list of Op


def _tap_grid_instances(rng):
    return [grid_instance(k, n_od, s, rng)
            for k, n_od in ((4, 4), (5, 6)) for s in (0, 1)]


def _tap_grid_ops(instances, nets, workdir):
    from odadjust import tap

    def op(inst, net):
        def check(sol):
            problems = [] if sol.converged else ["solve_tap did not converge"]
            problems += check_flows(inst, inst.prior, sol.X, TAP_TOL)
            return Outcome(problems, F_end=inst.objective(inst.prior, sol.v))

        return Op(inst.name, start_objective(inst, inst.prior),
                  lambda: tap.solve_tap(net, net.target_demands, tol=TAP_TOL),
                  check)

    return [op(inst, net) for inst, net in zip(instances, nets)]


def _dap_small_instances(rng):
    toy = Instance.from_doc("toy", relabel(TOY_DOC, rng))
    return [toy] + [grid_instance(2, 2, s, rng) for s in range(6)]


def _dap_small_ops(instances, nets, workdir):
    from odadjust import cli
    from odadjust.oracles import oracle_tap

    def op(inst, net, d0=None):
        start = inst.prior if d0 is None else np.asarray(d0, dtype=float)
        label = "%s@%s" % (inst.name, ",".join("%g" % x for x in start))
        stem = os.path.join(workdir, label)
        argv = ["solve", "--input", stem + ".json", "--report", stem + ".report.json",
                "--log", stem + ".log"]
        if d0 is not None:
            argv += ["--initial-demand", ",".join(repr(float(x)) for x in start)]
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            fh.write(inst.text)

        def check(code):
            if code not in (0, 2) or not os.path.exists(stem + ".report.json"):
                return Outcome(["cli exit %r without a report" % (code,)])
            with open(stem + ".report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            with open(stem + ".log", encoding="utf-8") as fh:
                log_rows = fh.read().count("\n") - 1
            os.remove(stem + ".report.json")
            os.remove(stem + ".log")
            problems = []
            if (code == 0) != (report["status"] == "converged"):
                problems.append("exit %d with status %s" % (code, report["status"]))
            if log_rows != report["inner_attempts"]:
                problems.append("log has %d rows for %d attempts"
                                % (log_rows, report["inner_attempts"]))
            ref = (oracle_tap(net, np.asarray(report["d_final"]))
                   if inst.n_nodes <= 8 else None)
            problems += check_report(inst, report, TAP_TOL, ref)
            return Outcome(problems, F_end=report["F_final"], nonzero_exit=code != 0)

        return Op(label, start_objective(inst, start), lambda: cli.main(argv), check)

    return ([op(instances[0], nets[0], d0) for d0 in TOY_STARTS]
            + [op(inst, net) for inst, net in zip(instances[1:], nets[1:])])


def _dap_grid_instances(rng):
    return [grid_instance(3, 3, 2, rng)]


def _dap_grid_ops(instances, nets, workdir):
    from odadjust import driver

    cfg = driver.IRConfig(max_outer=DAP_GRID_OUTER)

    def op(inst, net):
        def check(res):
            problems = check_dap(inst, res.d_final, res.X_final, res.F_final,
                                 cfg.tap_tol)
            return Outcome(problems, F_end=res.F_final)

        return Op(inst.name, start_objective(inst, inst.prior),
                  lambda: driver.solve_dap(net, cfg), check)

    return [op(inst, net) for inst, net in zip(instances, nets)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "tap-grid",
            "cold solve_tap at tol 1e-8 on 4x4 and 5x5 grids: all work is in "
            "tap, none in kkt, projection or driver",
            _tap_grid_instances, _tap_grid_ops),
        Workload(
            "dap-small",
            "odadjust solve through cli.main on the toy and six 2x2 grids: many "
            "cheap outer steps, so KKT assembly, small projections and CLI logging",
            _dap_small_instances, _dap_small_ops),
        Workload(
            "dap-grid",
            "solve_dap on a 3x3 grid for 2 outer steps: warm-startable restorations "
            "and a dense projection of state dimension 174",
            _dap_grid_instances, _dap_grid_ops),
    )
}
