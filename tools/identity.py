"""Write the recorded numbers of the solver, for a byte-identity check.

    python3 tools/identity.py OUT_DIR

Runs, at seed 0 and with one BLAS thread, the 9 `odadjust solve` operations
of the benchmark's dap-small workload, the dap-grid `solve_dap` run, the
4 tap-grid `solve_tap` calls, a cold `solve_tap` on the 6x6 grid with 10
OD pairs (instance 0, not relabelled) and the small `tools/ladder.py` rows,
all on the package in this checkout's src.
OUT_DIR receives:

- `<op>.log` and `<op>.report.json` for each dap-small operation, the
  report without `wall_time_s` and `input` (a time and a temporary path);
- `exit_codes.txt`: one `<op> <code>` line per operation, in run order;
- `dap-grid.txt`: the SHA-256 of d, X, F, status and history of the
  dap-grid run, then its F and status, then the iterations of each of its
  restoration assignments, in call order, then how many of each one's
  iterations were Newton steps; the solver keeps no multiplier estimate,
  so no mu enters the hash;
- `tap-grid.txt`: the SHA-256 of X, v, relative gap and iteration count of
  the 4 tap-grid `solve_tap` calls, then the SHA-256 of their `paths`
  (commodities, path tuples and flows, in dict order), then each call's
  iterations, Newton steps among them and gap, then one line with the 6x6
  call's own two SHA-256s of the same, its iterations, Newton steps and
  gap;
- `lifted.txt`: at the dap-grid run's first restored point z, which the
  solver's lifted code no longer reads, one `<name> <dtype> sha256 <hex>`
  line each for the `data`, `indices` and `indptr` of `eval_C_jacobian`,
  for `trial_multipliers`' mu, and for `project(tangent_space(z), b)`
  without and with a box of radius 0.01, b = z - grad F(z); the box binds;
- `sensitivity.txt`: one `<name> <dtype> sha256 <hex>` line each for the
  `equilibrium_sensitivity` Z at that same z (`dap-grid`) and at a restore
  of the 6x6 grid with 10 OD pairs (instance 0) at 0.9 times its target
  demands (`grid6x6-od10-s0@0.9`);
- `ladder.txt`: one `<name> <status> <steps> <repr(F)>` line for each
  `tools/ladder.py` row up to 4x4 (the toy from its three starts, 2x2
  i0-i5, 3x3 i0-i2 and 4x4 i0-i2), without its seconds; the larger rows,
  which take most of the ladder's time, stay with `tools/ladder.py`.

Run it on two checkouts; `diff -r OUT_A OUT_B` is then the check that a
change leaves every recorded number as it was.
"""

import os

# one BLAS thread, fixed before numpy loads, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

from instances import TOY_STARTS, grid_instance  # noqa: E402
from workloads import DAP_GRID_OUTER, TAP_TOL, WORKLOADS  # noqa: E402

SEED = 0
VOLATILE = ("wall_time_s", "input")
# the tools/ladder.py rows that ladder.txt records
SMALL_RUNGS = ("toy@", "2x2-", "3x3-", "4x4-")


def dap_small(out_dir):
    """Run the dap-small operations into out_dir; returns (label, code) pairs."""
    from odadjust import cli

    instances = WORKLOADS["dap-small"].instances(np.random.default_rng(SEED))
    runs = [(instances[0], d0) for d0 in TOY_STARTS]
    runs += [(inst, None) for inst in instances[1:]]
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for inst, d0 in runs:
            start = inst.prior if d0 is None else d0
            label = "%s@%s" % (inst.name, ",".join("%g" % x for x in start))
            doc = os.path.join(tmp, label + ".json")
            with open(doc, "w", encoding="utf-8") as fh:
                fh.write(inst.text)
            report = os.path.join(tmp, label + ".report.json")
            log = os.path.join(out_dir, label + ".log")
            argv = ["solve", "--input", doc, "--report", report, "--log", log]
            if d0 is not None:
                argv += ["--initial-demand", ",".join(repr(float(x)) for x in d0)]
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append((label, cli.main(argv)))
            with open(report, encoding="utf-8") as fh:
                fields = json.load(fh)
            for key in VOLATILE:
                fields.pop(key, None)
            with open(os.path.join(out_dir, label + ".report.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(fields, fh, indent=2)
                fh.write("\n")
    return codes


def dap_grid_digest():
    """SHA-256 of the dap-grid result, its F, its status, and the iterations
    and Newton steps of each restoration assignment."""
    from odadjust import IRConfig, driver, parse_network, solve_dap

    inst, = WORKLOADS["dap-grid"].instances(np.random.default_rng(SEED))
    iterations, solve_tap = [], driver.solve_tap

    def counted(*args, **kwargs):
        sol = solve_tap(*args, **kwargs)
        iterations.append((sol.iterations, sol.newton_steps))
        return sol

    driver.solve_tap = counted
    try:
        res = solve_dap(parse_network(inst.text), IRConfig(max_outer=DAP_GRID_OUTER))
    finally:
        driver.solve_tap = solve_tap
    h = hashlib.sha256()
    for arr in (res.d_final, res.X_final):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(repr(float(res.F_final)).encode())
    h.update(res.status.encode())
    for rec in res.history:
        h.update(repr(dataclasses.astuple(rec)).encode())
    return h.hexdigest(), res.F_final, res.status, iterations


def _tap_digest(h, hp, inst):
    """Solve inst cold at the benchmark's tolerance into the hash h, and its
    path flows into hp; returns the call's iterations, Newton steps and gap
    as a line tail."""
    from odadjust import parse_network, solve_tap

    net = parse_network(inst.text)
    sol = solve_tap(net, net.target_demands, tol=TAP_TOL)
    for arr in (sol.X, sol.v):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(repr((float(sol.rgap), sol.iterations)).encode())
    hp.update(repr([(i, list(flows.items())) for i, flows in sol.paths.items()]).encode())
    return "iterations %d newton_steps %d rgap %r\n" % (sol.iterations, sol.newton_steps,
                                                        float(sol.rgap))


def tap_grid_digest():
    """SHA-256s of the tap-grid solutions and of their path flows, one line
    per call, and the line of the 6x6 call."""
    h, hp = hashlib.sha256(), hashlib.sha256()
    lines = ["%s %s" % (inst.name, _tap_digest(h, hp, inst))
             for inst in WORKLOADS["tap-grid"].instances(np.random.default_rng(SEED))]
    large, large_paths = hashlib.sha256(), hashlib.sha256()
    inst = grid_instance(6, 10, 0)
    tail = _tap_digest(large, large_paths, inst)
    lines.append("%s sha256 %s paths %s %s" % (inst.name, large.hexdigest(),
                                               large_paths.hexdigest(), tail))
    return h.hexdigest(), hp.hexdigest(), lines


def lifted_lines():
    """The lifted.txt lines: hashes of J, mu and two projections at the
    dap-grid run's first restored point."""
    from odadjust import IRConfig, eval_C_jacobian, parse_network
    from odadjust.driver import restore, trial_multipliers
    from odadjust.kkt import grad_F_state, tangent_space
    from odadjust.projection import project

    inst, = WORKLOADS["dap-grid"].instances(np.random.default_rng(SEED))
    net = parse_network(inst.text)
    z, _, _ = restore(net, net.target_demands, IRConfig())
    J = eval_C_jacobian(net, z)
    space = tangent_space(net, z)
    b = z - grad_F_state(net, z)
    named = [("jacobian.data", J.data), ("jacobian.indices", J.indices),
             ("jacobian.indptr", J.indptr),
             ("trial_multipliers", trial_multipliers(net, z)),
             ("project", project(space, b)), ("project.box", project(space, b, 0.01))]
    return ["%s %s sha256 %s\n" % (name, arr.dtype, hashlib.sha256(arr.tobytes()).hexdigest())
            for name, arr in named]


def sensitivity_lines():
    """The sensitivity.txt lines: hashes of Z at the dap-grid run's first
    restored point and at a restore of the 6x6 grid at 0.9 times its
    targets."""
    from odadjust import IRConfig, parse_network
    from odadjust.driver import restore
    from odadjust.kkt import equilibrium_sensitivity

    inst, = WORKLOADS["dap-grid"].instances(np.random.default_rng(SEED))
    large = grid_instance(6, 10, 0)
    lines = []
    for name, text, scale in (("dap-grid", inst.text, 1.0),
                              (large.name + "@0.9", large.text, 0.9)):
        net = parse_network(text)
        z, paths, _ = restore(net, scale * net.target_demands, IRConfig())
        Z = equilibrium_sensitivity(net, z, paths)
        lines.append("%s %s sha256 %s\n" % (name, Z.dtype,
                                             hashlib.sha256(Z.tobytes()).hexdigest()))
    return lines


def ladder_lines():
    """The ladder.txt lines: status, outer steps and F of the ladder's rows
    up to 4x4."""
    import ladder

    lines = []
    for name, make, d0 in ladder.runs():
        if name.startswith(SMALL_RUNGS):
            status, steps, F, _ = ladder.solve(make(), d0)
            lines.append("%s %s %s %r\n" % (name, status, steps, F))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to write into; created if missing")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)
    codes = dap_small(args.out_dir)
    with open(os.path.join(args.out_dir, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.writelines("%s %d\n" % pair for pair in codes)
    digest, F, status, iterations = dap_grid_digest()
    with open(os.path.join(args.out_dir, "dap-grid.txt"), "w", encoding="utf-8") as fh:
        fh.write("sha256 %s\nF_final %r\nstatus %s\nrestorations %s\nnewton_steps %s\n"
                 % (digest, F, status, " ".join(str(n) for n, _ in iterations),
                    " ".join(str(k) for _, k in iterations)))
    digest, paths_digest, lines = tap_grid_digest()
    with open(os.path.join(args.out_dir, "tap-grid.txt"), "w", encoding="utf-8") as fh:
        fh.write("sha256 %s\npaths sha256 %s\n" % (digest, paths_digest))
        fh.writelines(lines)
    with open(os.path.join(args.out_dir, "lifted.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(lifted_lines())
    with open(os.path.join(args.out_dir, "sensitivity.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(sensitivity_lines())
    with open(os.path.join(args.out_dir, "ladder.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(ladder_lines())
    return 0


if __name__ == "__main__":
    sys.exit(main())
