"""Run the solver on the instance ladder and print one row per run.

    python3 tools/ladder.py [NAME ...]

Runs `solve_dap` with the default `IRConfig` (200 outer steps at most), with
one BLAS thread, on:

- the benchmark's toy from its three perturbed starts (`toy@1,2`, ...);
- the grids `2x2-i0` ... `2x2-i5` (2 OD pairs), `3x3-i0` ... `3x3-i2`
  (3 OD pairs), `4x4-i0` ... `4x4-i2` (4 OD pairs), `5x5-i0` (6 OD
  pairs), `6x6-i0` ... `6x6-i2` (10 OD pairs) and `8x8-i0` (20 OD pairs),
  each from its prior, as `bench/instances.grid_instance(k, n_od, i)`
  generates it, not relabelled.  The whole ladder takes about half a
  minute, most of it in `8x8-i0`.

Each row gives the name, the status (or the name of the exception a run
raised), the outer steps, the final F, the seconds and the reference F*, a
local minimum of F(d, v_eq(d)) over d >= 0 ("-" where none is recorded):
Nelder-Mead on `bench/instances.equilibrium` for the 2x2 rows, ROADMAP's
Baseline table for the larger ones.  NAME arguments run only those rows.
"""

import os

# one BLAS thread, fixed before numpy loads, as in the benchmark
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from instances import TOY_DOC, TOY_STARTS, Instance, grid_instance  # noqa: E402

# grid side, OD pairs and instance numbers of each rung
GRIDS = ((2, 2, range(6)), (3, 3, range(3)), (4, 4, range(3)), (5, 6, range(1)),
         (6, 10, range(3)), (8, 20, range(1)))
REFERENCE_F = {
    "2x2-i0": 0.275759, "2x2-i1": 0.297240, "2x2-i2": 0.130576,
    "2x2-i3": 0.181222, "2x2-i4": 0.847134, "2x2-i5": 0.0,
    "3x3-i0": 0.787177, "3x3-i1": 0.213684, "3x3-i2": 0.695752,
    "4x4-i0": 0.308594, "4x4-i1": 1.098547, "4x4-i2": 0.640976,
    "5x5-i0": 1.981860, "6x6-i0": 1.739299, "8x8-i0": 5.539737,
}


def runs():
    """(name, instance maker, start demands or None for the prior), in
    ladder order; an instance is generated only when its row runs."""
    toy = functools.partial(Instance.from_doc, "toy", TOY_DOC)
    out = [("toy@%g,%g" % d0, toy, d0) for d0 in TOY_STARTS]
    out += [("%dx%d-i%d" % (k, k, i), functools.partial(grid_instance, k, n_od, i), None)
            for k, n_od, seeds in GRIDS for i in seeds]
    return out


def solve(inst, d0):
    """(status, outer steps, F, seconds) of one default-settings run."""
    from odadjust import OdAdjustError, parse_network, solve_dap

    net = parse_network(inst.text)
    start = time.perf_counter()
    try:
        res = solve_dap(net, d0=d0)
    except OdAdjustError as exc:
        return type(exc).__name__, None, None, time.perf_counter() - start
    return res.status, res.outer_iterations, res.F_final, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="rows to run; all when omitted")
    args = parser.parse_args(argv)
    chosen = [run for run in runs() if not args.names or run[0] in args.names]
    unknown = set(args.names) - {name for name, _, _ in chosen}
    if unknown:
        parser.error("no ladder row named %s" % ", ".join(sorted(unknown)))
    print("%-10s %-14s %5s %10s %8s %10s"
          % ("instance", "status", "steps", "F", "seconds", "F*"))
    for name, make, d0 in chosen:
        status, steps, F, secs = solve(make(), d0)
        ref = REFERENCE_F.get(name)
        print("%-10s %-14s %5s %10s %8.2f %10s"
              % (name, status, "-" if steps is None else steps,
                 "-" if F is None else "%.6f" % F, secs,
                 "-" if ref is None else "%.6f" % ref), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
