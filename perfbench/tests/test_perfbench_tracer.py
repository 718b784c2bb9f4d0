"""Outside-in tracer: patch and restore, spans, self-time arithmetic."""

import types

import numpy as np
import pytest

from perfbench import layers
from perfbench.tracer import Tracer, self_times


class Box:
    def __init__(self, k):
        self.k = k

    def scale(self, x):
        return self.k * x

    @staticmethod
    def double(x):
        return 2 * x

    def via_instance(self, x):
        return self.double(x)


def _module():
    mod = types.ModuleType("fake")
    mod.add = lambda a, b: a + b
    return mod


def test_patch_records_spans_and_restore_puts_back_raw_attributes():
    mod = _module()
    raw = {name: Box.__dict__[name] for name in ("scale", "double", "__init__")}
    raw_add = mod.add
    tracer = Tracer()
    tracer.patch(mod, "add", "fake.add")
    tracer.patch(Box, "scale", "box.scale")
    tracer.patch(Box, "double", "box.double")
    tracer.patch(Box, "__init__", "box.init")
    assert isinstance(Box.__dict__["double"], staticmethod)
    box = Box(3)
    assert box.scale(2) == 6
    assert box.via_instance(5) == 10  # staticmethod still gets no instance
    assert Box.double(4) == 8
    assert mod.add(1, 2) == 3
    tracer.restore()
    for name, value in raw.items():
        assert Box.__dict__[name] is value
    assert mod.add is raw_add
    _, calls = tracer.self_times()
    assert calls == {"fake.add": 1, "box.scale": 1, "box.double": 2,
                     "box.init": 1}


def test_after_hook_counts_and_replaces_result():
    tracer = Tracer()

    def after(args, kwargs, result):
        tracer.counts["items"] += len(args[0])
        return result, tracer.wrap(lambda: sum(args[0]), "inner")

    outer = tracer.wrap(lambda xs: len(xs), "outer", after)
    n, later = outer([1, 2, 3])
    assert n == 3 and later() == 6
    assert tracer.counts["items"] == 3
    assert tracer.self_times()[1] == {"outer": 1, "inner": 1}


def test_exception_closes_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    with tracer.span("after"):
        pass
    parent, _, start, end = tracer.arrays()
    assert list(parent) == [-1, -1]
    assert np.all(end >= start)


def test_self_times_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds leaf [2, 3],
    # b holds leaf [6, 8].  Both leaves share one name.
    parent = [-1, 0, 1, 0, 3]
    name = [0, 1, 2, 1, 2]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    own, calls = self_times(parent, name, start, end, 3)
    np.testing.assert_allclose(own, [10 - 3 - 4, (3 - 1) + (4 - 2), 1 + 2])
    assert list(calls) == [1, 2, 2]
    assert own.sum() == pytest.approx(10.0)


def test_nested_spans_and_within():
    tracer = Tracer()
    with tracer.span("plan"):
        with tracer.span("nlp.minimize"):
            with tracer.span("eval"):
                pass
        with tracer.span("eval"):
            pass
    assert list(tracer.arrays()[0]) == [-1, 0, 1, 0]
    assert list(tracer.within("nlp.minimize")) == [False, False, True, False]


def test_install_restores_every_splinetraj_attribute():
    from splinetraj import (bspline, cli, collision, kinematics, nlp, planner,
                            spline_algebra)

    owners = [bspline, cli, collision, nlp, planner, spline_algebra,
              bspline.BSpline, spline_algebra.FitOperator,
              kinematics.NumericFK, planner.FKSiteCache,
              planner.PlanningProblem, collision.SignedDistanceField]
    owners += [getattr(planner, f) for f in layers.FAMILIES]
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for name in ("body_positions", "body_position_grads",
                     "vertex_positions"):
            assert isinstance(kinematics.NumericFK.__dict__[name], staticmethod)
        assert cli.solve is not planner.solve
    finally:
        tracer.restore()
    for owner, snapshot in zip(owners, before):
        assert dict(vars(owner)) == snapshot


def test_traced_plan_attributes_its_time_to_layers(tmp_path):
    from splinetraj import parse_scenario
    from splinetraj.cli import run

    from perfbench.workloads import generate

    scenario = generate("mobile_sdf")[1]  # one obstacle on the line
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span(layers.PLAN):
            run(tracer.wrap(parse_scenario, layers.PARSE)(scenario),
                output_dir=tmp_path, samples=50)
    finally:
        tracer.restore()
    m = layers.layer_metrics(tracer)
    assert m["trace.plans"] == 1
    assert m["trace.attributed_ratio"] > 0.95
    assert m["planner.SDFClearanceFamily.vjp_calls"] > 0
    assert m["collision.sdf_query_points"] > 0
    assert m["nlp.inner_iterations"] > 0
    assert 0 < m["planner.evaluate_reuse_ratio"] < 1
    assert m["kinematics.fk_state_calls"] == 0
    assert set(m) <= set(layers.metric_units())
