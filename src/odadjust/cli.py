"""Command line front end: solve / tap / check over a JSON network document.

Exit codes: 0 success, 1 input or usage problem, 2 solver did not converge.
A failed solve still writes its report, with status "error".  All numbers
written to reports and logs carry 9 significant digits, so repeated runs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import fields

import numpy as np

from .driver import STATUS_CONVERGED, IRConfig, IterationRecord, solve_dap
from .errors import InputError, OdAdjustError
from .network import _decode, aggregate_flows, parse_network
from .tap import solve_tap

_NUM_FMT = "%.9g"


def _fmt(x):
    return _NUM_FMT % float(x)


def _round9(x):
    return float(_NUM_FMT % float(x))


def _parse_number(text, what):
    try:
        return float(text)
    except ValueError as exc:
        raise InputError("%s needs a numeric value, got %r" % (what, text)) from exc


def _parse_demand_string(text):
    return [_parse_number(tok, "demand list %r" % text) for tok in text.split(",")]


def _parse_set_overrides(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise InputError("--set expects key=value, got %r" % pair)
        key, _, val = pair.partition("=")
        key = key.strip()
        out[key] = _parse_number(val, "setting %r" % key)
    return out


def _config(settings):
    """IRConfig from outside settings; IRConfig checks every value."""
    if not isinstance(settings, dict):
        raise InputError("solver settings must be an object")
    try:
        return IRConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise InputError("bad solver settings: %s" % exc) from exc


def _given_demands(net, values, what):
    """Demand vector from outside input: one finite, nonnegative number per commodity."""
    if not isinstance(values, list) or len(values) != net.n_commodities:
        raise InputError("%s needs a list of %d demands" % (what, net.n_commodities))
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in values):
        raise InputError("%s must hold numbers, got %r" % (what, values))
    d = np.array(values, dtype=float)
    if not np.all(np.isfinite(d)) or np.any(d < 0.0):
        raise InputError("%s must be finite and nonnegative, got %r" % (what, values))
    return d


def _load(path):
    """Network, solver settings and initial demands (by default the targets) of
    a document, all validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read input file %r: %s" % (path, exc)) from exc
    doc = _decode(text)
    net = parse_network(doc)
    settings = doc.get("solver", {})
    _config(settings)
    d0 = doc.get("initial_demand")
    d0 = net.target_demands if d0 is None else _given_demands(net, d0, "initial_demand")
    return net, settings, d0


def run_check(args):
    """Validate the document and print instance dimensions."""
    net, _, _ = _load(args.input)
    print("nodes: %d" % net.n_nodes)
    print("links: %d" % net.n_links)
    print("commodities: %d" % net.n_commodities)
    print("observed links: %d" % len(net.observations))
    print("state dimension: %d" % net.state_dim)
    print("constraint dimension: %d" % net.n_constraints)
    return 0


def run_tap(args):
    """Solve one equilibrium assignment and print the link flows."""
    net, _, _ = _load(args.input)
    d = (net.target_demands if args.demand is None
         else _given_demands(net, _parse_demand_string(args.demand), "--demand"))
    cfg = _config({"tap_tol": args.tol, "tap_max_iter": args.max_iter})
    sol = solve_tap(net, d, tol=cfg.tap_tol, max_iter=cfg.tap_max_iter)
    for lk, flow in zip(net.links, sol.v):
        print("link %s: %s" % (lk.id, _fmt(flow)))
    print("beckmann: %s" % _fmt(sol.beckmann))
    print("relative_gap: %s" % _fmt(sol.rgap))
    print("iterations: %d" % sol.iterations)
    print("newton_steps: %d" % sol.newton_steps)
    return 0 if sol.converged else 2


def _log_row(rec):
    row = []
    for f in fields(rec):
        val = getattr(rec, f.name)
        if f.type is bool:
            row.append("1" if val else "0")
        elif f.type is int:
            row.append("%d" % val)
        else:
            row.append(_fmt(val))
    return "\t".join(row) + "\n"


def _open_output(outputs, path):
    """path opened for writing and registered on the ExitStack, or None; a path
    that cannot be written is an input error."""
    if path is None:
        return None
    try:
        return outputs.enter_context(open(path, "w", encoding="utf-8"))
    except OSError as exc:
        raise InputError("cannot write %r: %s" % (path, exc.strerror or exc)) from exc


def _write_report(fh, report):
    text_out = json.dumps(report, indent=2)
    if fh is not None:
        fh.write(text_out + "\n")
    else:
        print(text_out)


def run_solve(args):
    """Run the full demand adjustment and emit a JSON report.

    The report and log files are opened before the solve starts.  When the
    solver raises, the report still carries the inputs and settings, with
    status "error" and the reason, and the error propagates.  --report and
    --log must name different files: two handles on one file overwrite
    each other.
    """
    if (args.report is not None and args.log is not None
            and os.path.realpath(args.report) == os.path.realpath(args.log)):
        raise InputError("--report and --log name the same file %r" % args.log)
    net, settings, d0 = _load(args.input)
    ircfg = _config({**settings, **_parse_set_overrides(args.set)})
    if args.initial_demand is not None:
        d0 = _given_demands(net, _parse_demand_string(args.initial_demand),
                            "--initial-demand")
    report = {
        "input": args.input,
        "nodes": net.n_nodes,
        "links": net.n_links,
        "commodities": net.n_commodities,
        "eta1": _round9(net.eta1),
        "eta2": _round9(net.eta2),
        "target_demand": [_round9(x) for x in net.target_demands],
        "initial_demand": [_round9(x) for x in d0],
    }
    solver = {f.name: getattr(ircfg, f.name) for f in fields(IRConfig)}

    with ExitStack() as outputs:
        log_fh = _open_output(outputs, args.log)
        report_fh = _open_output(outputs, args.report)
        if log_fh:
            log_fh.write("\t".join(f.name for f in fields(IterationRecord)) + "\n")

        def sink(rec):
            if log_fh is not None:
                log_fh.write(_log_row(rec))

        t_start = time.perf_counter()
        try:
            res = solve_dap(net, ircfg, d0=d0, sink=sink)
        except OdAdjustError as exc:
            _write_report(report_fh, {**report, "status": "error",
                                      "reason": str(exc), "solver": solver})
            raise
        wall = time.perf_counter() - t_start

        v_final = aggregate_flows(net, res.X_final)
        e_obs = v_final[net.obs_links] - net.obs_flows
        e_dem = res.d_final - net.target_demands
        f1 = float(e_obs @ e_obs)
        f2 = float(e_dem @ e_dem)

        _write_report(report_fh, {
            **report,
            "status": res.status,
            "outer_iterations": res.outer_iterations,
            "inner_attempts": len(res.history),
            "d_final": [_round9(x) for x in res.d_final],
            "v_final": [_round9(x) for x in v_final],
            "F_final": _round9(res.F_final),
            "F1": _round9(f1),
            "F2": _round9(f2),
            "objective_check": _round9(net.eta1 * f1 + net.eta2 * f2),
            "wall_time_s": _round9(wall),
            "solver": solver,
        })
    return 0 if res.status == STATUS_CONVERGED else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1); argparse's own code 2 is the
    solver-failure code here."""

    def error(self, message):
        raise InputError("%s\n%s" % (message, self.format_usage().rstrip()))


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state in it, not even in the --set list, which argparse copies before
    appending."""
    parser = _Parser(
        prog="odadjust",
        description="Adjust origin-destination demands to observed link flows "
                    "under user equilibrium.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the demand adjustment")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--report", default=None,
                         help="write the JSON report here instead of stdout")
    p_solve.add_argument("--log", default=None,
                         help="write one TSV row per optimization attempt")
    p_solve.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a solver setting")
    p_solve.add_argument("--initial-demand", default=None, metavar="D1,D2,...",
                         help="starting demands (defaults to the targets)")

    p_tap = sub.add_parser("tap", help="solve one equilibrium assignment")
    p_tap.add_argument("--input", required=True)
    p_tap.add_argument("--demand", default=None, metavar="D1,D2,...",
                       help="demands to assign (defaults to the targets)")
    p_tap.add_argument("--tol", type=float, default=1e-8)
    p_tap.add_argument("--max-iter", type=float, default=50000)

    p_check = sub.add_parser("check", help="validate a document and print sizes")
    p_check.add_argument("--input", required=True)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        run = {"check": run_check, "tap": run_tap, "solve": run_solve}[args.command]
        return run(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OdAdjustError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
