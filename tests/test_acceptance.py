"""End-to-end acceptance gate.

Each test exercises one externally visible requirement at its stated tolerance
and emits one PASS/FAIL line; the lines are collected into an "acceptance
criteria" section of the terminal summary.  Numbering is stable so runs can be
compared over time.
"""

import json
import time

import numpy as np

from conftest import (
    ACCEPTANCE_LINES,
    TOY_TARGETS,
    TOY_V,
    random_network,
    random_state,
    random_tangent_instance,
    toy_document,
)
from odadjust import (
    IRConfig,
    eval_C,
    eval_C_jacobian,
    eval_L,
    eval_L_grad,
    parse_network,
    solve_dap,
    solve_tap,
)
from odadjust.cli import main as cli_main
from odadjust.driver import (OMEGA0, OMEGA_RATIO, STATUS_CONVERGED, THETA_INIT,
                             restore)
from odadjust.kkt import eval_F, grad_F_state
from odadjust.oracles import fd_gradient, oracle_project, oracle_tap
from odadjust.projection import project
from odadjust.tap import beckmann_objective


def _toy():
    return parse_network(json.dumps(toy_document()))


def _report(ok, label):
    line = "%s  %s" % ("PASS" if ok else "FAIL", label)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


_RUNS = {}


def _adjustment_runs():
    """Demand adjustments from the three perturbed starts, cached."""
    if not _RUNS:
        net = _toy()
        for d0 in ((1.0, 2.0), (1.0, 1.5), (1.8, 2.0)):
            t0 = time.perf_counter()
            res = solve_dap(net, d0=d0)
            _RUNS[d0] = (res, time.perf_counter() - t0)
    return _RUNS


def test_01_toy_equilibrium():
    net = _toy()
    t0 = time.perf_counter()
    sol = solve_tap(net, TOY_TARGETS.copy(), tol=1e-8)
    elapsed = time.perf_counter() - t0
    err = np.abs(sol.v - TOY_V).max()
    ok = sol.converged and sol.rgap <= 1e-8 and err <= 1e-5 and elapsed < 1.0
    _report(ok, "[1] toy equilibrium: gap %.1e, flow error %.1e, %.3f s"
            % (sol.rgap, err, elapsed))


def test_02_adjustment_outcome_band():
    ok = True
    details = []
    for d0, (res, wall) in _adjustment_runs().items():
        derr = np.abs(res.d_final - TOY_TARGETS).max()
        good = res.F_final <= 0.01 and derr <= 0.05 and wall < 60.0
        ok = ok and good
        details.append("from (%g,%g): %s, F %.1e, demand error %.1e, %.2f s"
                       % (d0[0], d0[1], res.status, res.F_final, derr, wall))
    _report(ok, "[2] demand adjustment: " + "; ".join(details))


def test_03_flat_start_termination():
    net = _toy()
    res = solve_dap(net, d0=[1.0, 1.0])
    ok = res.status == STATUS_CONVERGED and res.F_final <= 0.03
    _report(ok, "[3] flat start (1,1): %s via projected-gradient test, F %.1e"
            % (res.status, res.F_final))


def test_04_restoration_quality():
    net = _toy()
    cfg = IRConfig()
    rng = np.random.default_rng(2024)
    worst_c = worst_slip = 0.0
    beta_ok = True
    for _ in range(20):
        d = rng.uniform(0.5, 3.0, size=2)
        z, _, _ = restore(net, d, cfg)
        worst_c = max(worst_c, float(np.abs(eval_C(net, z)).max()))
        X, beta = z[net.slices[1]], z[net.slices[3]]
        beta_ok = beta_ok and bool(np.all(beta >= 0.0))
        slip = abs(float(beta @ X)) / (1.0 + np.abs(X).sum())
        worst_slip = max(worst_slip, slip)
    ok = worst_c <= 1e-6 and beta_ok and worst_slip <= 1e-6
    _report(ok, "[4] restoration on 20 random demands: worst residual %.1e, "
                "worst relative slip %.1e" % (worst_c, worst_slip))


def test_05_assignment_matches_oracle():
    rng = np.random.default_rng(42)
    worst_beck = worst_flow = 0.0
    all_ok = True
    t0 = time.perf_counter()
    for _ in range(50):
        net = random_network(rng)
        sol = solve_tap(net, net.target_demands)
        v_ref = oracle_tap(net, net.target_demands)
        b_ref = beckmann_objective(net, v_ref)
        rb = abs(sol.beckmann - b_ref) / max(1.0, abs(b_ref))
        rf = float(np.abs(sol.v - v_ref).max())
        worst_beck, worst_flow = max(worst_beck, rb), max(worst_flow, rf)
        all_ok = all_ok and sol.converged and rb <= 1e-6 and rf <= 1e-3
    elapsed = time.perf_counter() - t0
    _report(all_ok, "[5] 50 random assignments vs oracle: worst objective "
                    "diff %.1e, worst flow diff %.1e, %.1f s"
            % (worst_beck, worst_flow, elapsed))


def _gradient_case(net, rng):
    s = random_state(rng, net)
    mu = rng.normal(size=net.n_constraints)

    g_f = grad_F_state(net, s)
    fd_f = fd_gradient(
        lambda vec: eval_F(net, vec[net.slices[0]], vec[net.slices[1]]), s)
    rel_f = np.abs(g_f - fd_f).max() / max(1.0, np.abs(g_f).max())

    g_l = eval_L_grad(net, s, mu)
    fd_l = fd_gradient(
        lambda vec: eval_L(net, vec, mu), s)
    rel_l = np.abs(g_l - fd_l).max() / max(1.0, np.abs(g_l).max())

    J = eval_C_jacobian(net, s)
    c0 = eval_C(net, s)
    w = rng.normal(size=net.state_dim)
    w /= np.linalg.norm(w)

    def residual(h):
        c1 = eval_C(net, s + h * w)
        return float(np.linalg.norm(c1 - c0 - h * (J @ w)))

    r1, r2 = residual(1e-3), residual(5e-4)
    quad_ok = r1 <= 1e-14 or 3.0 <= r1 / max(r2, 1e-300) <= 5.0
    return rel_f, rel_l, quad_ok


def test_06_derivative_accuracy():
    rng = np.random.default_rng(7)
    toy = _toy()
    cubic = parse_network(json.dumps({
        "nodes": [1, 2, 3, 4],
        "links": [
            {"id": 1, "from": 1, "to": 2, "coeffs": [1.0, 0.5, 0.0, 0.2]},
            {"id": 2, "from": 2, "to": 4, "coeffs": [0.5, 1.0]},
            {"id": 3, "from": 1, "to": 3, "coeffs": [2.0, 0.0, 0.3]},
            {"id": 4, "from": 3, "to": 4, "coeffs": [0.2, 0.8]},
            {"id": 5, "from": 4, "to": 1, "coeffs": [1.0, 1.0]},
        ],
        "commodities": [
            {"origin": 1, "destination": 4, "target": 2.0},
            {"origin": 2, "destination": 3, "target": 1.0},
        ],
        "observations": [{"link": 2, "flow": 1.2}],
        "weights": {"eta1": 1.0, "eta2": 2.0},
    }))
    worst_f = worst_l = 0.0
    all_quad = True
    for net in (toy, cubic):
        for _ in range(10):
            rel_f, rel_l, quad_ok = _gradient_case(net, rng)
            worst_f, worst_l = max(worst_f, rel_f), max(worst_l, rel_l)
            all_quad = all_quad and quad_ok
    ok = worst_f <= 1e-5 and worst_l <= 1e-5 and all_quad
    _report(ok, "[6] derivatives at 20 random states: objective gradient "
                "error %.1e, Lagrangian gradient error %.1e, quadratic "
                "Taylor decay %s" % (worst_f, worst_l, all_quad))


def test_07_projection_properties():
    rng = np.random.default_rng(20240817)
    worst_oracle = worst_idem = worst_exp = worst_feas = 0.0
    for _ in range(50):
        T, b, box = random_tangent_instance(rng)
        w = project(T, b, box)
        wo = oracle_project(T.z, T.J, T.lower, box, b)
        worst_oracle = max(worst_oracle, float(np.abs(w - wo).max()))
        worst_idem = max(worst_idem, float(np.abs(project(T, w, box) - w).max()))
        b2 = b + rng.normal(size=b.size) * 0.5
        w2 = project(T, b2, box)
        worst_exp = max(worst_exp, float(np.linalg.norm(w2 - w)
                                         - np.linalg.norm(b2 - b)))
        feas = float(np.abs(np.asarray(T.J) @ (w - T.z)).max(initial=0.0))
        finite = np.isfinite(T.lower)
        if finite.any():
            feas = max(feas, float((T.lower[finite] - w[finite]).max(initial=0.0)))
        if box is not None:
            feas = max(feas, float(np.abs(w - T.z).max() - box))
        worst_feas = max(worst_feas, feas)
    ok = (worst_oracle <= 1e-6 and worst_idem <= 1e-8
          and worst_exp <= 1e-10 and worst_feas <= 1e-8)
    _report(ok, "[7] projection on 50 random instances: oracle gap %.1e, "
                "idempotence %.1e, expansion excess %.1e, feasibility %.1e"
            % (worst_oracle, worst_idem, worst_exp, worst_feas))


def test_08_merit_bookkeeping():
    ok = True
    checked = 0
    for _, (res, _) in _adjustment_runs().items():
        prev_theta = THETA_INIT
        for rec in res.history:
            if not rec.accepted:
                continue
            checked += 1
            ok = ok and rec.ared >= 0.1 * rec.pred - 1e-12
            ok = ok and rec.pred >= 0.5 * (rec.normC_s - rec.normC_z) - 1e-12
            omega = OMEGA0 * OMEGA_RATIO ** rec.k
            ok = ok and rec.theta <= min(1.0, prev_theta) + omega + 1e-12
            prev_theta = rec.theta
    ok = ok and checked > 0
    _report(ok, "[8] merit bookkeeping: %d accepted steps satisfy the "
                "reduction and penalty-weight rules" % checked)


def test_09_deterministic_logs(tmp_path, capsys):
    doc_path = tmp_path / "net.json"
    doc_path.write_text(json.dumps(toy_document()), encoding="utf-8")
    ok = True
    for tag, d0 in (("a", "1,2"), ("b", "1,1.5"), ("c", "1.8,2")):
        logs = []
        for run in range(2):
            log = tmp_path / ("%s%d.tsv" % (tag, run))
            code = cli_main(["solve", "--input", str(doc_path),
                             "--log", str(log), "--initial-demand", d0,
                             "--report", str(tmp_path / "r.json")])
            ok = ok and code == 0
            logs.append(log.read_bytes())
        ok = ok and logs[0] == logs[1] and len(logs[0]) > 0
    capsys.readouterr()
    _report(ok, "[9] repeated runs from all three starts write byte-identical "
                "iteration logs")
