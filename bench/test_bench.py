"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import odadjust  # noqa: E402
from checks import check_flows  # noqa: E402
from instances import TOY_DOC, Instance, equilibrium, grid_instance  # noqa: E402
from tracing import (Span, Tracer, layer_metrics, load_layers,  # noqa: E402
                     package_bindings, self_times, unwound)
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_digests(name):
    build = WORKLOADS[name].instances
    first = [i.sha256 for i in build(np.random.default_rng(7))]
    again = [i.sha256 for i in build(np.random.default_rng(7))]
    other = [i.sha256 for i in build(np.random.default_rng(8))]
    assert first == again
    assert first != other


def test_relabelled_instance_is_the_same_network():
    a = grid_instance(2, 2, 3)
    b = grid_instance(2, 2, 3, np.random.default_rng(1))
    assert a.sha256 != b.sha256
    assert np.array_equal(a.coeffs, b.coeffs) and np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.tails, b.tails) and np.array_equal(a.origins, b.origins)


def test_equilibrium_matches_the_oracle_and_passes_the_checks():
    from odadjust.oracles import oracle_tap

    inst = Instance.from_doc("toy", TOY_DOC)
    v = equilibrium(inst, inst.prior)
    assert np.abs(v - oracle_tap(odadjust.parse_network(inst.text), inst.prior)).max() < 1e-6
    sol = odadjust.solve_tap(odadjust.parse_network(inst.text), inst.prior, tol=1e-10)
    assert check_flows(inst, inst.prior, sol.X, 1e-8) == []
    # all demand on the direct links is off equilibrium and breaks nothing else
    X = np.array([1.5, 0.0, 0.0, 0.0, 0.0, 1.75, 0.0, 0.0])
    problems = check_flows(inst, inst.prior, X, 1e-8)
    assert len(problems) == 1 and "relative gap" in problems[0]


def test_tracer_sees_consumer_modules_and_unwinds():
    from odadjust import driver, tap

    load_layers()
    before = package_bindings()
    original = tap.solve_tap
    tracer = Tracer()
    tracer.install()
    try:
        assert tap.solve_tap is not original
        assert driver.solve_tap is tap.solve_tap is odadjust.solve_tap
        net = odadjust.parse_network(json.dumps(TOY_DOC))
        tap.solve_tap(net, net.target_demands)
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"network.parse_network", "tap.solve_tap", "tap.relative_gap"} <= names
    assert all(getattr(mod, attr) is obj for mod, attr, obj in before)
    assert len(package_bindings()) == len(before)
    assert unwound(before)


def test_self_time_arithmetic():
    spans = [
        Span("driver.solve_dap", 0.0, 10.0, -1),
        Span("tap.solve_tap", 1.0, 4.0, 0),
        Span("tap.relative_gap", 2.0, 3.0, 1),
        Span("projection.project", 5.0, 7.0, 0),
        Span("projection.min_norm_solve", 5.5, 6.5, 3),
        Span("projection.min_norm_solve", 6.0, 6.8, 3),   # overlaps its sibling
        Span("cli.main", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 0.7, 1.0, 0.8, 1.0])
    m = layer_metrics(spans, [(0.0, 8.0), (10.0, 20.0)])
    assert m["tap.self_s"] == pytest.approx(3.0)
    assert m["projection.self_s"] == pytest.approx(2.5)
    assert m["driver.solve_dap.s"] == pytest.approx(10.0)
    assert m["projection.min_norm_solve.calls"] == 2
    assert m["trace.coverage"] == pytest.approx(9.0 / 18.0)
