"""Benchmark of the odadjust package, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is tap-grid, dap-small or dap-grid (see BENCHMARK.json and
bench/README.md); `all` runs the three, each in its own process.  The run
builds its inputs from the seed, times the workload's pass over them for
about S seconds, checks every output independently and prints the metrics,
one per line, then one JSON object as the last line.  With --trace 0 those
are the end-to-end metrics; with --trace 1 a traced pass follows the
untraced ones and the per-layer metrics are printed instead.  The exit code
is 0 when every output passed its checks and non-zero otherwise.
"""

import os

# one BLAS thread, fixed before numpy loads: unpinned timings measure the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 7
# seconds one calibration loop takes on the reference host; see host_speed()
CAL_REF_S = 0.2

END_TO_END = {"setup_s": "s", "wall_s": "s", "solve_s.p50": "s",
              "F_rel": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = (
    "tap.solve_tap.calls", "tap.solve_tap.s", "tap.sweeps",
    "tap.relative_gap.calls", "tap.relative_gap.s", "tap.self_s",
    "driver.restore.calls", "driver.restore.s", "driver.cauchy_direction.s",
    "driver.find_candidate.s", "driver.trial_multipliers.s", "driver.self_s",
    "driver.outer_iterations", "driver.inner_attempts", "driver.accept_ratio",
    "projection.project.calls", "projection.project.s",
    "projection.min_norm_solve.calls", "projection.min_norm_solve.s",
    "projection.self_s",
    "kkt.eval_C_jacobian.calls", "kkt.eval_C_jacobian.s", "kkt.tangent_space.s",
    "kkt.eval_L.calls", "kkt.eval_L.s", "kkt.recover_multipliers.s", "kkt.self_s",
    "network.parse_network.s", "network.build_structure.s", "network.self_s",
    "cli.main.s", "cli.self_s",
    "trace.wall_s", "trace.overhead_s", "trace.coverage", "fail_ratio",
)


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".calls", "sweeps", "iterations", "attempts")):
        return "count"
    return "ratio"


def blas_threads():
    """Thread count each OpenBLAS copy bundled with numpy and scipy reports."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "blas_threads": blas_threads()}


def setup_seconds(paths, host):
    """Import + parse + build of every input, in fresh processes: raw seconds
    and seconds scaled by the host-speed samples on either side."""
    raw, cal = [], [host.sample()]
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, os.path.join(BENCH, "setup_probe.py")] + paths,
                             capture_output=True, text=True, check=True, timeout=120)
        raw.append(float(out.stdout.split()[-1]))
        cal.append(host.sample())
    return raw, host.scale(raw, cal)


class HostSpeed:
    """Calibration of the shared host's speed, which drifts by up to 2x
    within a minute.

    One sample times fixed reference work mixing what the package spends its
    time on: the benchmark's own equilibrium solver on a 3x3 grid
    (interpreted loops, small numpy operations, csgraph shortest paths) and
    dense least-squares solves of the size the 3x3 projection makes.  Each
    timed item runs between two samples and is scaled to a host where one
    sample takes CAL_REF_S.
    """

    def __init__(self):
        import numpy as np
        from instances import grid_instance
        self._inst = grid_instance(3, 3, 0)
        self._J = np.random.default_rng(0).random((171, 174))
        self.samples = []

    def sample(self):
        import numpy as np
        from instances import equilibrium
        t0 = time.perf_counter()
        equilibrium(self._inst, self._inst.prior)
        for _ in range(8):
            np.linalg.lstsq(self._J, np.ones(171), rcond=None)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    @staticmethod
    def scale(times, cal):
        """times[i] ran between samples cal[i] and cal[i + 1]."""
        return [t * 2.0 * CAL_REF_S / (a + b) for t, a, b in zip(times, cal, cal[1:])]


def run_pass(ops, host):
    """One timed pass over the operations, then the checks (untimed).

    Host-speed samples run between the operations; the pass's wall time is
    the sum of the operations' own times.
    """
    from workloads import Outcome
    results, intervals, cal = [], [], [host.sample()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append(op.run())
        except (Exception, SystemExit) as exc:   # an operation that raises fails
            results.append(exc)
        intervals.append((t0, time.perf_counter()))
        cal.append(host.sample())
    times = [b - a for a, b in intervals]
    outcomes = []
    for op, res in zip(ops, results):
        if isinstance(res, BaseException):
            outcomes.append(Outcome(["raised %s: %s" % (type(res).__name__, res)]))
            continue
        try:
            outcomes.append(op.check(res))
        except (KeyError, OSError, TypeError, ValueError) as exc:   # malformed output
            outcomes.append(Outcome(["check raised %s: %s" % (type(exc).__name__, exc)]))
    return {"intervals": intervals, "wall": sum(times), "times": times,
            "scaled": host.scale(times, cal), "outcomes": outcomes}


def result_counters(counts):
    """Tracer hooks that add up counts taken from return values."""
    def on_solve_tap(sol):
        counts["tap.sweeps"] += sol.iterations

    def on_solve_dap(res):
        counts["driver.outer_iterations"] += res.outer_iterations
        counts["driver.inner_attempts"] += len(res.history)
        counts["accepted"] += sum(1 for rec in res.history if rec.accepted)

    return {"tap.solve_tap": on_solve_tap, "driver.solve_dap": on_solve_dap}


def run_workload(args):
    sys.path.insert(0, SRC)
    import numpy as np
    from tracing import Tracer, layer_metrics, load_layers, package_bindings, unwound
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print("workload %s seed %d seconds %d trace %d" % (wl.name, args.seed, args.seconds, args.trace))
    print("why %s" % wl.why)
    env = environment()
    print("env %s" % json.dumps(env, sort_keys=True))

    instances = wl.instances(np.random.default_rng(args.seed))
    digest = hashlib.sha256("".join(i.sha256 for i in instances).encode()).hexdigest()
    for inst in instances:
        print("input %s sha256 %s" % (inst.name, inst.sha256))
    print("inputs_sha256 %s" % digest)

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as workdir:
        paths = []
        for inst in instances:
            paths.append(os.path.join(workdir, inst.name + ".json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(inst.text)
        host = HostSpeed()
        setup_raw, setup_scaled = setup_seconds(paths, host)

        import odadjust
        if os.path.dirname(os.path.abspath(odadjust.__file__)) != os.path.join(SRC, "odadjust"):
            raise RuntimeError("imported odadjust from %s, not from src/" % odadjust.__file__)
        load_layers()
        before = package_bindings()
        counts = {"tap.sweeps": 0, "driver.outer_iterations": 0,
                  "driver.inner_attempts": 0, "accepted": 0}
        tracer = Tracer(on_return=result_counters(counts)) if args.trace else None

        if tracer:
            tracer.install()
        nets = [odadjust.parse_network(inst.text) for inst in instances]
        for net in nets:
            odadjust.build_structure(net)
        if tracer:
            tracer.uninstall()
        ops = wl.ops(instances, nets, workdir)

        passes = []
        budget = args.seconds / 2.0 if args.trace else args.seconds
        t_loop = time.perf_counter()
        while not passes or time.perf_counter() - t_loop < budget:
            passes.append(run_pass(ops, host))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = None
        if tracer:
            tracer.install()
            try:
                traced = run_pass(ops, host)
            finally:
                tracer.uninstall()

    clean = unwound(before)
    all_passes = passes + ([traced] if traced else [])
    outcomes = [o for p in all_passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    nonzero = sum(1 for o in outcomes if o.nonzero_exit and not o.problems)
    for p_i, p in enumerate(all_passes):
        tag = "traced" if p is traced else "pass %d" % p_i
        for op, t, o in zip(ops, p["times"], p["outcomes"]):
            state = "; ".join(o.problems) if o.problems else ("exit 2" if o.nonzero_exit else "ok")
            print("op %s %s raw %.4f s %s" % (tag, op.label, t, state))
    if not clean:
        print("error: tracer wrappers left on the package")

    F_final = sum(o.F_end for o in passes[0]["outcomes"])
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(sum(p["scaled"]) for p in passes),
        "solve_s.p50": statistics.median(t for p in passes for t in p["scaled"]),
        "F_rel": F_final / sum(op.F_start for op in ops),
        "peak_rss_mb": peak_rss_mb,
    }
    fail_ratio = (failed + nonzero) / attempted
    print("host samples: median %.4f s of %d; times are scaled to a host where a sample "
          "takes %g s" % (statistics.median(host.samples), len(host.samples), CAL_REF_S))
    print("metric setup_s %.4f s (median of %d fresh processes, raw %s)"
          % (metrics["setup_s"], len(setup_raw), " ".join("%.4f" % t for t in setup_raw)))
    print("metric wall_s %.4f s (median of %d passes, raw %s)"
          % (metrics["wall_s"], len(passes), " ".join("%.4f" % p["wall"] for p in passes)))
    print("metric solve_s.p50 %.4f s (n=%d)" % (metrics["solve_s.p50"], len(ops) * len(passes)))
    print("metric F_final %.9g (sum over the pass)" % F_final)
    print("metric F_rel %.9g ratio (F_final over F at the starts)" % metrics["F_rel"])
    print("metric fail_ratio %.4f ratio (%d raised or failed a check, %d exited 2, of %d)"
          % (fail_ratio, failed, nonzero, attempted))
    print("metric peak_rss_mb %.1f MB" % peak_rss_mb)

    if tracer:
        layer = layer_metrics(tracer.spans, traced["intervals"])
        layer.update({k: v for k, v in counts.items() if k != "accepted"})
        layer["driver.accept_ratio"] = (counts["accepted"] / counts["driver.inner_attempts"]
                                        if counts["driver.inner_attempts"] else 0.0)
        # raw seconds, like the spans
        layer["trace.wall_s"] = traced["wall"]
        layer["trace.overhead_s"] = traced["wall"] - statistics.median(p["wall"] for p in passes)
        layer["fail_ratio"] = fail_ratio
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, "spans-%s-seed%d.json" % (wl.name, args.seed))
        tracer.dump(spans_path)
        for name in sorted(layer):
            print("layer %s %.6g %s" % (name, layer[name], unit_of(name)))
        print("spans %d written to %s" % (len(tracer.spans), os.path.relpath(spans_path, ROOT)))
        metrics.update(layer)
        reported = {name: {"value": layer.get(name, 0), "unit": unit_of(name)}
                    for name in PER_LAYER}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()}

    correct = failed == 0 and clean
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "env": env, "inputs_sha256": digest,
                       "host_samples": host.samples, "setup_raw": setup_raw,
                       "pass_times_raw": [p["times"] for p in all_passes],
                       "inputs": {i.name: i.sha256 for i in instances},
                       "correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


def run_all(args):
    from workloads import WORKLOADS
    summary, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if out.returncode in (0, 1) and lines else None
        status = status or out.returncode
    print(json.dumps(summary))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tap-grid", "dap-small", "dap-grid", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None,
                        help="also write the full record (metrics, digests, env) here")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "odadjust", "__init__.py")):
        print("error: no package source at %s" % os.path.join(SRC, "odadjust"), file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
