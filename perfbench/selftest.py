"""The benchmark's own tests.

Each workload runs at a tiny size and passes its checks; each check fails
on a deliberately perturbed mean, covariance, residual or report cell;
the tracer restores the program and counts what it should; and the
command prints the metrics ``BENCHMARK.json`` names.  Run from the
checkout root:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import bootstrap

bootstrap.use_checkout_program()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eqkf import harness  # noqa: E402
from eqkf.constrained import EqualityConstraint  # noqa: E402
from eqkf.kalman import Measurement, StateEstimate  # noqa: E402

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def track_small():
    wl = workloads.build("track_small", 3, "tiny")
    return wl, wl.run_op()


@pytest.fixture(scope="module")
def mc_sweep():
    wl = workloads.build("mc_sweep", 3, "tiny")
    return wl, wl.run_op()


def _scenario(wl, op, name, feedback=True):
    for doc, outputs in zip(wl.docs, op.outputs):
        if doc["name"] == name and doc.get("feedback", True) == feedback:
            return doc, outputs
    raise KeyError(name)


def _perturb(report, method, step, **changes):
    """The report with one record's fields replaced (``changes`` maps field
    to a function of the old value)."""
    records = tuple(
        dataclasses.replace(r, **{f: fn(getattr(r, f)) for f, fn in changes.items()})
        if (r.method, r.step) == (method, step) else r
        for r in report.records
    )
    return dataclasses.replace(report, records=records)


@pytest.mark.parametrize("name", ["track_small", "track_wide"])
def test_tiny_track_workload_passes_and_repeats(name):
    wl = workloads.build(name, 5, "tiny")
    first = wl.run_op()
    assert wl.check(first) == []
    assert wl.same(wl.run_op(), first)
    assert first.estimates == sum(len(r.records) for _, r, _, _ in first.outputs)


def test_tiny_mc_sweep_passes(mc_sweep):
    wl, op = mc_sweep
    assert wl.check(op) == []
    assert wl.same(op, op)
    assert op.estimates == 3 * wl.trials * 6


def test_seed_makes_the_inputs():
    assert workloads.documents("track_wide", 4, "tiny") == workloads.documents(
        "track_wide", 4, "tiny")
    assert workloads.documents("track_wide", 4, "tiny") != workloads.documents(
        "track_wide", 5, "tiny")
    seeds = [d["seed"] for d in workloads.documents("track_small", 4)]
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("feedback", [True, False])
def test_perturbed_mean_fails(track_small, feedback):
    wl, op = track_small
    doc, (sim, report, csv_text, structured) = _scenario(wl, op, "line_2d", feedback)
    bad = _perturb(report, "fusion", 3, mean=lambda m: m + np.array([1e-6, 0.0]))
    failures = reference.check_track(doc, sim, bad, csv_text, structured)
    assert any("fusion: mean departs" in f for f in failures)


def test_perturbed_wide_mean_fails():
    wl = workloads.build("track_wide", 5, "tiny")
    op = wl.run_op()
    doc, (sim, report, csv_text, structured) = wl.docs[0], op.outputs[0]
    bad = _perturb(report, "soft_augmented", 2, mean=lambda m: m * (1 + 1e-7))
    failures = reference.check_track(doc, sim, bad, csv_text, structured)
    assert any("soft_augmented: mean departs" in f for f in failures)


def test_negative_covariance_eigenvalue_fails(track_small):
    wl, op = track_small
    doc, (sim, report, csv_text, structured) = _scenario(wl, op, "line_2d")
    bad = _perturb(report, "restricted_gain", 2, cov_min_eig=lambda _: -1e-6)
    failures = reference.check_track(doc, sim, bad, csv_text, structured)
    assert any("restricted_gain: a covariance has min eigenvalue" in f for f in failures)


def test_hard_method_off_the_constraint_fails(track_small):
    wl, op = track_small
    doc, (sim, report, csv_text, structured) = _scenario(wl, op, "line_2d")
    bad = _perturb(report, "augmented", 4, constraint_residual=lambda _: 1e-6)
    failures = reference.check_track(doc, sim, bad, csv_text, structured)
    assert any("augmented: constraint residual" in f for f in failures)


def test_circle_residual_order_is_checked(track_small):
    wl, op = track_small
    doc, (sim, report, csv_text, structured) = _scenario(wl, op, "circle")
    swapped = dataclasses.replace(report, records=tuple(
        dataclasses.replace(r, method={"projection": "unconstrained",
                                       "unconstrained": "projection"}[r.method])
        for r in report.records
    ))
    failures = reference.check_circle("circle", reference.records_by_method(swapped))
    assert any("smaller residual" in f for f in failures)
    assert any("RMS" in f for f in failures)


def test_changed_csv_cell_fails(track_small):
    wl, op = track_small
    doc, (sim, report, csv_text, structured) = _scenario(wl, op, "soft_line_2d")
    lines = csv_text.splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3) + "\n"
    lines[5] = ",".join(cells)
    failures = reference.check_track(doc, sim, report, "".join(lines), structured)
    assert failures == ["csv: row for step 3 method soft_augmented differs from its record"]
    reordered = csv_text.replace("err_norm,constraint_residual", "constraint_residual,err_norm")
    assert reference.check_csv(reordered, report.records, 2) == [
        "csv: header differs from the documented column order"]


def test_changed_structured_mean_fails(track_small):
    wl, op = track_small
    doc, (sim, report, csv_text, structured) = _scenario(wl, op, "soft_line_2d")
    parsed = json.loads(structured)
    parsed["records"][0]["mean"][0] += 1e-9
    failures = reference.check_track(doc, sim, report, csv_text, json.dumps(parsed))
    assert failures == ["structured: records differ from the run's records"]


def test_perturbed_mc_covariance_and_statistics_fail(mc_sweep):
    wl, op = mc_sweep
    reports, ratio = op.outputs
    docs = [wl.docs[index] for index, _ in workloads.MC_RUNS]
    shifted = [dataclasses.replace(reports[0], reported_covariance=np.asarray(
        reports[0].reported_covariance) * (1 + 1e-6))] + list(reports[1:])
    assert any("reported covariance departs" in f
               for f in reference.check_mc(docs, shifted, ratio, wl.trials))
    biased = list(reports)
    biased[1] = dataclasses.replace(reports[1], max_relative_deviation=0.06)
    assert any("deviates" in f for f in reference.check_mc(docs, biased, ratio, wl.trials))
    assert any("ratio" in f for f in reference.check_mc(docs, reports, 0.02, wl.trials))


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "eqkf" or name.startswith("eqkf."))
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_the_program_and_keeps_outputs(track_small):
    wl, op = track_small
    before = _bindings()
    inits = {cls: cls.__dict__["__init__"] for cls in (StateEstimate, EqualityConstraint)}
    tracer = tracing.Tracer()
    with tracer:
        assert harness.run_scenario is not before[("eqkf.harness", "run_scenario")]
        traced = wl.run_op()
    assert _bindings() == before
    assert all(cls.__dict__["__init__"] is init for cls, init in inits.items())
    assert wl.same(traced, op)

    metrics = tracer.metrics(0, tracer.span_count, 1)
    recorded_elsewhere = {"run.emit_report.csv_bytes", "run.emit_report.structured_bytes",
                          "trace.overhead_s"}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]} - recorded_elsewhere
    assert metrics["run.run_scenario.calls"] == 4
    assert metrics["run.advance_method.calls"] == op.estimates
    assert metrics["method.fusion.step_us_p50"] > 0
    duration, self_time = tracer.self_times()
    parents = np.array(tracer.parents)
    assert (self_time <= duration).all()
    assert np.isclose(self_time.sum(), duration[parents < 0].sum())


def test_tracer_counts_degenerate_fallbacks():
    config = harness.config_from_document(workloads.documents("track_small", 1, "tiny")[0])
    model = config.model_at(0)
    spec = next(s for s in config.methods if s.name == "restricted_gain")
    state = config.initial_estimate
    # A measurement equal to the predicted observation has zero innovation.
    z = Measurement(model.observation @ model.transition @ state.mean, step=1)
    tracer = tracing.Tracer()
    with tracer:
        harness.advance_method(state, z, model, spec, config)
    metrics = tracer.metrics(0, tracer.span_count, 1)
    assert metrics["constrained.restricted_gain_update.degenerate"] == 1
    assert metrics["constrained.project.calls"] == 1


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_named_metric(trace, kind):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_small", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
