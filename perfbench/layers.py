"""Which splinetraj callables the tracer wraps, and the per-layer metrics.

Each name is patched where its caller looks it up: ``cli.run`` finds
``assemble``, ``solve``, ``verify`` and ``export_trajectory`` in the
``cli`` module, the solver finds ``minimize`` in ``nlp``, and
``basis_matrix`` is imported by name into ``planner`` and
``spline_algebra`` besides its home in ``bspline``.  Methods are patched
on their classes, so every instance sees the wrapper.

Every metric is a mean per traced plan.  Times are self times: a span's
duration minus the spans it encloses.
"""

from __future__ import annotations

import numpy as np

from .tracer import Tracer

FAMILIES = (
    "DerivBoxFamily",
    "CoeffBoxFamily",
    "ChainRateFamily",
    "ChainAccelFamily",
    "SDFClearanceFamily",
    "PlaneRobotSideFamily",
    "PlaneObstacleSideFamily",
    "PlaneNormFamily",
)

# Span names the benchmark records around its own calls.
PLAN = "plan"
PARSE = "scenario.parse"
RUN = "cli.run"


def _count(tracer: Tracer, key: str, measure):
    """An ``after`` hook that adds ``measure(args, result)`` to a counter."""

    def after(args, kwargs, result):
        tracer.counts[key] += measure(args, result)
        return result

    return after


def _solution_counts(tracer: Tracer):
    def after(args, kwargs, solution):
        tracer.counts["nlp.outer_iterations"] += solution.outer_iterations
        tracer.counts["nlp.inner_iterations"] += solution.inner_iterations
        return solution

    return after


def _wrap_vjp(tracer: Tracer, name: str):
    def after(args, kwargs, result):
        residuals, vjp = result
        return residuals, tracer.wrap(vjp, name)

    return after


def install(tracer: Tracer) -> None:
    """Patch every traced splinetraj callable; undo with ``tracer.restore``."""
    from splinetraj import bspline, cli, collision, kinematics, nlp, planner
    from splinetraj import spline_algebra

    tracer.patch(cli, "assemble", "planner.assemble")
    tracer.patch(cli, "solve", "nlp.solve", _solution_counts(tracer))
    tracer.patch(cli, "verify", "planner.verify")
    tracer.patch(cli, "export_trajectory", "cli.export")
    tracer.patch(nlp, "minimize", "nlp.minimize")
    tracer.patch(planner.PlanningProblem, "objective", "nlp.objective")
    tracer.patch(planner, "build_sdf", "collision.build_sdf")
    for module in (bspline, planner, spline_algebra):
        tracer.patch(module, "basis_matrix", "bspline.basis_matrix")
    tracer.patch(bspline.BSpline, "eval", "bspline.eval")

    fit = spline_algebra.FitOperator
    tracer.patch(fit, "__init__", "spline_algebra.fit_operator_build")
    tracer.patch(fit, "fit_coefficients", "spline_algebra.fit",
                 _count(tracer, "spline_algebra.fit_values",
                        lambda args, _: np.size(args[1])))
    tracer.patch(fit, "adjoint_apply", "spline_algebra.adjoint")

    nfk = kinematics.NumericFK
    sites = _count(tracer, "kinematics.fk_state_sites",
                   lambda args, _: np.shape(args[1])[0])
    tracer.patch(nfk, "shared_state", "kinematics.fk_state", sites)
    tracer.patch(nfk, "chain_state", "kinematics.fk_state", sites)
    tracer.patch(nfk, "body_positions", "kinematics.body_positions")
    tracer.patch(nfk, "body_position_grads", "kinematics.body_position_grads")
    tracer.patch(nfk, "vertex_positions", "kinematics.vertex_positions")
    tracer.patch(planner.FKSiteCache, "state", "kinematics.fk_cache")

    tracer.patch(collision.SignedDistanceField, "query_extended",
                 "collision.sdf_query",
                 _count(tracer, "collision.sdf_query_points",
                        lambda args, _: np.shape(args[1])[0]))

    for fam in FAMILIES:
        tracer.patch(getattr(planner, fam), "evaluate",
                     f"planner.{fam}.evaluate",
                     _wrap_vjp(tracer, f"planner.{fam}.vjp"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "scenario.parse_s": "s",
        "planner.assemble_s": "s",
        "collision.build_sdf_s": "s",
        "spline_algebra.fit_operator_build_s": "s",
        "spline_algebra.fit_operator_builds": "count",
    }
    for fam in FAMILIES:
        units[f"planner.{fam}.evaluate_s"] = "s"
        units[f"planner.{fam}.evaluate_calls"] = "count"
        units[f"planner.{fam}.vjp_s"] = "s"
        units[f"planner.{fam}.vjp_calls"] = "count"
    units.update({
        "planner.evaluate_reuse_ratio": "ratio",
        "planner.verify_s": "s",
        "cli.export_s": "s",
        "cli.run_s": "s",
        "bspline.eval_s": "s",
        "bspline.eval_calls": "count",
        "bspline.basis_matrix_s": "s",
        "bspline.basis_matrix_calls": "count",
        "collision.sdf_query_s": "s",
        "collision.sdf_query_calls": "count",
        "collision.sdf_query_points": "count",
        "kinematics.fk_state_s": "s",
        "kinematics.fk_state_calls": "count",
        "kinematics.fk_state_sites": "count",
        "kinematics.body_positions_s": "s",
        "kinematics.body_position_grads_s": "s",
        "kinematics.vertex_positions_s": "s",
        "kinematics.fk_cache_hit_ratio": "ratio",
        "spline_algebra.fit_s": "s",
        "spline_algebra.fit_calls": "count",
        "spline_algebra.fit_values": "count",
        "spline_algebra.adjoint_s": "s",
        "spline_algebra.adjoint_calls": "count",
        "nlp.outer_iterations": "count",
        "nlp.inner_iterations": "count",
        "nlp.lbfgsb_calls": "count",
        "nlp.lbfgsb_self_s": "s",
        "nlp.outer_self_s": "s",
        "nlp.objective_calls": "count",
        "trace.plans": "count",
        "trace.plan_s.p50": "s",
        "trace.overhead_s": "s",
        "trace.attributed_ratio": "ratio",
    })
    return units


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-plan layer metrics from the spans of the traced plans.

    The ``trace.*`` metrics that compare traced and untraced plans are
    left to the caller.
    """
    own, calls = tracer.self_times()
    plans = calls.get(PLAN, 0)
    if plans == 0:
        raise ValueError("no traced plan recorded")

    def s(name):
        return own.get(name, 0.0) / plans

    def c(name):
        return calls.get(name, 0) / plans

    m = {
        "scenario.parse_s": s(PARSE),
        "planner.assemble_s": s("planner.assemble"),
        "collision.build_sdf_s": s("collision.build_sdf"),
        "spline_algebra.fit_operator_build_s": s("spline_algebra.fit_operator_build"),
        "spline_algebra.fit_operator_builds": c("spline_algebra.fit_operator_build"),
    }
    for fam in FAMILIES:
        for op in ("evaluate", "vjp"):
            m[f"planner.{fam}.{op}_s"] = s(f"planner.{fam}.{op}")
            m[f"planner.{fam}.{op}_calls"] = c(f"planner.{fam}.{op}")

    parent, name, _, _ = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    evaluate_ids = [ids[f"planner.{f}.evaluate"] for f in FAMILIES
                    if f"planner.{f}.evaluate" in ids]
    is_evaluate = np.isin(name, evaluate_ids)
    n_evaluate = int(is_evaluate.sum())
    in_lbfgsb = int((is_evaluate & tracer.within("nlp.minimize")).sum())
    m["planner.evaluate_reuse_ratio"] = in_lbfgsb / n_evaluate if n_evaluate else 0.0

    m.update({
        "planner.verify_s": s("planner.verify"),
        "cli.export_s": s("cli.export"),
        "cli.run_s": s(RUN),
        "bspline.eval_s": s("bspline.eval"),
        "bspline.eval_calls": c("bspline.eval"),
        "bspline.basis_matrix_s": s("bspline.basis_matrix"),
        "bspline.basis_matrix_calls": c("bspline.basis_matrix"),
        "collision.sdf_query_s": s("collision.sdf_query"),
        "collision.sdf_query_calls": c("collision.sdf_query"),
        "collision.sdf_query_points":
            tracer.counts["collision.sdf_query_points"] / plans,
        "kinematics.fk_state_s": s("kinematics.fk_state"),
        "kinematics.fk_state_calls": c("kinematics.fk_state"),
        "kinematics.fk_state_sites":
            tracer.counts["kinematics.fk_state_sites"] / plans,
        "kinematics.body_positions_s": s("kinematics.body_positions"),
        "kinematics.body_position_grads_s": s("kinematics.body_position_grads"),
        "kinematics.vertex_positions_s": s("kinematics.vertex_positions"),
    })

    lookups = calls.get("kinematics.fk_cache", 0)
    if lookups and "kinematics.fk_state" in ids:
        misses = int(np.sum((name == ids["kinematics.fk_state"])
                            & (parent >= 0)
                            & (name[np.maximum(parent, 0)]
                               == ids["kinematics.fk_cache"])))
        m["kinematics.fk_cache_hit_ratio"] = 1.0 - misses / lookups
    else:
        m["kinematics.fk_cache_hit_ratio"] = 0.0

    m.update({
        "spline_algebra.fit_s": s("spline_algebra.fit"),
        "spline_algebra.fit_calls": c("spline_algebra.fit"),
        "spline_algebra.fit_values":
            tracer.counts["spline_algebra.fit_values"] / plans,
        "spline_algebra.adjoint_s": s("spline_algebra.adjoint"),
        "spline_algebra.adjoint_calls": c("spline_algebra.adjoint"),
        "nlp.outer_iterations": tracer.counts["nlp.outer_iterations"] / plans,
        "nlp.inner_iterations": tracer.counts["nlp.inner_iterations"] / plans,
        "nlp.lbfgsb_calls": c("nlp.minimize"),
        "nlp.lbfgsb_self_s": s("nlp.minimize"),
        "nlp.outer_self_s": s("nlp.solve"),
        "nlp.objective_calls": c("nlp.objective"),
        "trace.plans": float(plans),
    })
    plan_total = sum(own.values())
    m["trace.attributed_ratio"] = (
        (plan_total - own[PLAN]) / plan_total if plan_total > 0 else 0.0
    )
    return m
