"""Scenario configs, truth simulation, method runs, report emission, and
the command-line front end."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqkf import kalman, predict, restricted_gain_update, update_joseph
from eqkf.errors import ParseError, ScenarioStepError, UnsupportedFormat, ValidationError
from eqkf.harness import (
    METHOD_NAMES,
    bundled_scenario_names,
    config_from_document,
    load_bundled_scenario,
    load_config,
    method_spec,
    run_scenario,
    simulate_truth,
)
from eqkf.harness.config import METHODS
from eqkf.harness.run import RNG_ALGORITHM, advance_method, emit_report
from eqkf.oracle import random_constrained_instance


def minimal_doc(**overrides):
    doc = {
        "steps": 3,
        "model": {
            "transition": [[1.0]],
            "process_noise": [[0.1]],
            "observation": [[1.0]],
            "measurement_noise": [[0.5]],
        },
        "initial_truth": [0.0],
        "initial_estimate": {"mean": [0.0], "covariance": [[1.0]]},
    }
    doc.update(overrides)
    return doc


def planar_constrained_doc(**overrides):
    doc = {
        "steps": 5,
        "seed": 3,
        "model": {
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "process_noise": [[0.02, 0.0], [0.0, 0.02]],
            "observation": [[1.0, 0.0], [0.0, 1.0]],
            "measurement_noise": [[0.04, 0.0], [0.0, 0.04]],
        },
        "constraint": {"kind": "affine", "matrix": [[1.0, 1.0]], "rhs": [0.0]},
        "initial_truth": [0.5, -0.5],
        "initial_estimate": {
            "mean": [0.4, -0.3],
            "covariance": [[0.5, 0.0], [0.0, 0.5]],
        },
        "methods": ["unconstrained", "projection"],
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_defaults_are_applied(self):
        config = config_from_document(minimal_doc())
        assert config.name == "scenario"
        assert config.seed == 0
        assert config.feedback is True
        assert [m.label for m in config.methods] == ["unconstrained"]

    def test_missing_steps_is_named(self):
        doc = minimal_doc()
        del doc["steps"]
        with pytest.raises(ParseError, match="steps"):
            config_from_document(doc)

    def test_ragged_matrix_is_named(self):
        doc = minimal_doc()
        doc["model"]["transition"] = [[1.0, 0.0], [1.0]]
        with pytest.raises(ParseError, match="transition"):
            config_from_document(doc)

    def test_unknown_method_is_rejected(self):
        with pytest.raises(ParseError, match="methods"):
            config_from_document(minimal_doc(methods=["kalman_smoother"]))

    def test_non_object_document_is_rejected(self):
        with pytest.raises(ParseError):
            config_from_document([1, 2, 3])

    def test_dependent_constraint_rows(self):
        doc = planar_constrained_doc()
        doc["constraint"] = {
            "kind": "affine",
            "matrix": [[1.0, 1.0], [2.0, 2.0]],
            "rhs": [0.0, 0.0],
        }
        doc["initial_truth"] = [0.0, 0.0]
        with pytest.raises(ValidationError, match="rank"):
            config_from_document(doc)

    def test_infeasible_initial_truth(self):
        doc = planar_constrained_doc(initial_truth=[1.0, 1.0])
        with pytest.raises(ValidationError, match="initial truth"):
            config_from_document(doc)

    def test_initial_covariance_must_be_positive_definite(self):
        doc = minimal_doc()
        doc["initial_estimate"]["covariance"] = [[0.0]]
        with pytest.raises(ValidationError, match="positive definite"):
            config_from_document(doc)

    def test_soft_method_requires_soft_noise(self):
        doc = planar_constrained_doc(methods=["soft_augmented"])
        with pytest.raises(ValidationError, match="soft_noise"):
            config_from_document(doc)

    def test_duplicate_method_labels(self):
        doc = planar_constrained_doc(methods=["projection", "projection"])
        with pytest.raises(ValidationError, match="duplicate"):
            config_from_document(doc)

    def test_constrained_method_requires_a_constraint(self):
        doc = minimal_doc(methods=["augmented"])
        with pytest.raises(ValidationError, match="constraint"):
            config_from_document(doc)

    def test_unknown_constraint_kind(self):
        doc = planar_constrained_doc()
        doc["constraint"] = {"kind": "orbit", "rhs": [1.0]}
        with pytest.raises(ParseError, match="kind"):
            config_from_document(doc)

    def test_method_table_tags_round_trip(self):
        assert METHOD_NAMES == (
            "unconstrained",
            "augmented",
            "fusion",
            "projection",
            "restricted_gain",
            "soft_augmented",
        )
        for tag in METHODS:
            spec = method_spec(tag)
            assert spec.label == tag
            assert method_spec(spec.to_document()).label == tag

    def test_projection_weight_entries(self):
        assert method_spec("projection").label == "projection"
        assert method_spec("projection_identity").label == "projection_identity"
        entry = {"method": "projection", "weight": "identity"}
        assert method_spec(entry).label == "projection_identity"
        entry = {"method": "projection", "weight": [[2.0, 0.0], [0.0, 1.0]]}
        assert method_spec(entry).label == "projection_custom"

    def test_document_round_trip(self):
        config = config_from_document(planar_constrained_doc())
        again = config_from_document(config.to_document())
        assert again.to_document() == config.to_document()

    def test_load_config_parses_json_text(self):
        config = load_config(json.dumps(minimal_doc(name="tiny")))
        assert config.name == "tiny"
        assert config.steps == 3


class TestBundledScenarios:
    def test_expected_names_present(self):
        names = set(bundled_scenario_names())
        assert names == {
            "circle", "cv_2d", "line_2d", "mc_line_2d", "mc_scalar", "soft_line_2d",
        }

    def test_all_bundled_scenarios_load(self):
        for name in bundled_scenario_names():
            config = load_bundled_scenario(name)
            assert config.steps > 0

    def test_sphere_constraint_keeps_truth_on_the_circle(self):
        config = load_bundled_scenario("circle")
        sim = simulate_truth(config)
        for state in sim.truth:
            assert config.true_residual(state) <= 1e-11


class TestSimulation:
    def test_same_seed_reproduces_truth_and_measurements(self):
        config = load_bundled_scenario("line_2d")
        a = simulate_truth(config)
        b = simulate_truth(config)
        assert np.array_equal(a.truth, b.truth)
        for za, zb in zip(a.measurements, b.measurements):
            assert np.array_equal(za.value, zb.value)

    def test_shapes_and_step_indices(self):
        config = config_from_document(planar_constrained_doc())
        sim = simulate_truth(config)
        assert sim.truth.shape == (config.steps + 1, 2)
        assert len(sim.measurements) == config.steps
        assert [z.step for z in sim.measurements] == list(range(1, config.steps + 1))

    def test_linear_constraint_holds_along_the_trajectory(self):
        config = config_from_document(planar_constrained_doc(steps=40))
        sim = simulate_truth(config)
        for state in sim.truth:
            assert abs(state.sum()) <= 1e-12

    def test_noiseless_simulation_follows_the_dynamics(self):
        doc = minimal_doc(steps=4)
        doc["model"]["transition"] = [[1.1]]
        doc["model"]["process_noise"] = [[0.0]]
        doc["model"]["measurement_noise"] = [[0.0]]
        doc["initial_truth"] = [2.0]
        sim = simulate_truth(config_from_document(doc))
        assert_allclose(sim.truth.ravel(), [2.0 * 1.1**k for k in range(5)])
        for k, z in enumerate(sim.measurements, start=1):
            assert_allclose(z.value, sim.truth[k])


class TestRunScenario:
    def test_record_count_is_steps_times_methods(self):
        config = config_from_document(planar_constrained_doc(steps=4))
        report = run_scenario(config)
        assert len(report.records) == 4 * 2

    def test_zero_steps_yields_header_only_csv(self):
        config = config_from_document(minimal_doc(steps=0))
        report = run_scenario(config)
        assert report.records == ()
        text = emit_report(report)
        assert text == (
            "step,method,t0,m0,err_norm,constraint_residual,cov_min_eig,cov_asym\n"
        )

    def test_equivalent_methods_stay_together(self):
        config = load_bundled_scenario("line_2d")
        report = run_scenario(config)
        divergence = report.summary.divergence
        assert divergence["augmented|fusion"] <= 1e-6
        assert divergence["augmented|projection"] <= 1e-6
        assert divergence["fusion|projection"] <= 1e-6
        assert divergence["restricted_gain|projection_identity"] <= 1e-7

    def test_numerical_failure_reports_step_and_method(self):
        # a full-rank hard constraint zeroes the covariance; with no
        # process noise the second step's constraint Gram matrix is
        # singular
        doc = {
            "steps": 3,
            "model": {
                "transition": [[1.0]],
                "process_noise": [[0.0]],
                "observation": [[1.0]],
                "measurement_noise": [[1.0]],
            },
            "constraint": {"kind": "affine", "matrix": [[1.0]], "rhs": [0.0]},
            "initial_truth": [0.0],
            "initial_estimate": {"mean": [0.0], "covariance": [[1.0]]},
            "methods": ["augmented"],
        }
        config = config_from_document(doc)
        with pytest.raises(ScenarioStepError) as excinfo:
            run_scenario(config)
        assert excinfo.value.step == 2
        assert excinfo.value.method == "augmented"

    def test_constrained_method_without_a_constraint_fails_typed(self):
        # the loader rejects this pairing; a config built by hand meets it at step 1
        config = dataclasses.replace(load_bundled_scenario("cv_2d"),
                                     methods=(method_spec("augmented"),))
        with pytest.raises(ScenarioStepError, match="constraint") as excinfo:
            run_scenario(config)
        assert excinfo.value.step == 1

    def test_feedback_off_keeps_the_recursion_unconstrained(self):
        config = config_from_document(planar_constrained_doc(feedback=False))
        spec = next(m for m in config.methods if m.label == "projection")
        sim = simulate_truth(config)
        model = config.model_at(0)
        reported, next_state = advance_method(
            config.initial_estimate, sim.measurements[0], model, spec, config
        )
        plain, _ = update_joseph(
            predict(config.initial_estimate, model), sim.measurements[0], model
        )
        assert np.array_equal(next_state.mean, plain.mean)
        assert np.array_equal(next_state.covariance, plain.covariance)
        assert abs(reported.mean.sum()) <= 1e-9
        assert abs(plain.mean.sum()) > 1e-6

    @pytest.mark.parametrize("label", ["augmented", "projection", "restricted_gain"])
    def test_feedback_off_reuses_the_update_the_method_computed(self, label, monkeypatch):
        doc = planar_constrained_doc(feedback=False, methods=[label])
        config = config_from_document(doc)
        sim = simulate_truth(config)
        model = config.model_at(0)
        pred = predict(config.initial_estimate, model)
        plain, _ = update_joseph(pred, sim.measurements[0], model)
        calls = []
        joseph = kalman._joseph_update

        def counting_joseph(*args):
            calls.append(args)
            return joseph(*args)

        # no second Joseph update for the continuing state
        monkeypatch.setattr(kalman, "_joseph_update", counting_joseph)
        _, next_state = advance_method(
            config.initial_estimate, sim.measurements[0], model, config.methods[0], config
        )
        assert len(calls) == 1
        assert np.array_equal(next_state.mean, plain.mean)
        assert np.array_equal(next_state.covariance, plain.covariance)

    def test_each_reported_covariance_is_decomposed_once(self, monkeypatch):
        # n = 3, so each min eigenvalue is one eigvalsh call; the record reuses
        # the one its StateEstimate check made
        doc = {
            "steps": 4,
            "seed": 5,
            "model": {
                "transition": np.eye(3).tolist(),
                "process_noise": (0.02 * np.eye(3)).tolist(),
                "observation": [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                "measurement_noise": (0.04 * np.eye(2)).tolist(),
            },
            "constraint": {"kind": "affine", "matrix": [[1.0, 1.0, 1.0]], "rhs": [1.0]},
            "initial_truth": [0.5, 0.25, 0.25],
            "initial_estimate": {"mean": [0.4, 0.3, 0.2], "covariance": np.eye(3).tolist()},
            "methods": list(METHODS),
            "soft_noise": [[0.01]],
        }
        config = config_from_document(doc)
        sim = simulate_truth(config)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        report = run_scenario(config, sim)
        assert len(report.records) == 4 * len(METHODS)
        assert calls == [(3, 3)] * len(report.records)

    def test_restricted_gain_row_equals_the_public_update_bit_for_bit(self):
        row = METHODS["restricted_gain"].update
        config = load_bundled_scenario("line_2d")
        sim = simulate_truth(config)
        instances = []
        state = config.initial_estimate
        for k, z in enumerate(sim.measurements):
            model = config.model_at(k)
            pred = predict(state, model)
            c = config.linear_constraint_at(pred.mean)
            instances.append((pred, model, z, c))
            state = restricted_gain_update(pred, z, model, c)[1].estimate
        for seed in range(50):
            pred, model, z, c = random_constrained_instance(seed)
            instances.append((pred, model, z, c))
        for pred, model, z, c in instances:
            (mean, cov), (plain_mean, plain_cov) = row(
                pred.mean, pred.covariance, z.value, model, c, None, None
            )
            result = restricted_gain_update(pred, z, model, c)[1]
            assert np.array_equal(mean, result.estimate.mean)
            assert np.array_equal(cov, result.estimate.covariance)
            assert np.array_equal(plain_mean, result.unconstrained.mean)
            assert np.array_equal(plain_cov, result.unconstrained.covariance)

    def test_feedback_mode_changes_reports_but_not_truth(self):
        base = planar_constrained_doc(steps=8)
        on = run_scenario(config_from_document(base))
        off = run_scenario(config_from_document({**base, "feedback": False}))
        truth_on = [r.truth for r in on.records]
        truth_off = [r.truth for r in off.records]
        for a, b in zip(truth_on, truth_off):
            assert np.array_equal(a, b)
        means_differ = any(
            not np.array_equal(a.mean, b.mean)
            for a, b in zip(on.records, off.records)
            if a.method == "projection"
        )
        assert means_differ


class TestReports:
    def test_csv_column_order(self):
        config = config_from_document(planar_constrained_doc(steps=2))
        text = emit_report(run_scenario(config))
        header = text.splitlines()[0]
        assert header == (
            "step,method,t0,t1,m0,m1,err_norm,constraint_residual,"
            "cov_min_eig,cov_asym"
        )

    def test_csv_rows_are_sorted_and_floats_round_trip(self):
        config = config_from_document(planar_constrained_doc(steps=3))
        report = run_scenario(config)
        lines = emit_report(report).splitlines()[1:]
        keys = []
        for line in lines:
            cells = line.split(",")
            keys.append((int(cells[0]), cells[1]))
        assert keys == sorted(keys)
        by_key = {(rec.step, rec.method): rec for rec in report.records}
        first = lines[0].split(",")
        rec = by_key[(int(first[0]), first[1])]
        assert float(first[4]) == rec.mean[0]
        assert float(first[6]) == rec.err_norm

    def test_structured_report_embeds_rng_and_round_trips(self):
        config = config_from_document(planar_constrained_doc(steps=3))
        report = run_scenario(config)
        doc = json.loads(emit_report(report, "structured"))
        assert doc["rng"] == RNG_ALGORITHM
        assert len(doc["records"]) == 6
        echoed = config_from_document(doc["config"])
        again = emit_report(run_scenario(echoed))
        assert again == emit_report(report)

    def test_unknown_format_is_rejected(self):
        config = config_from_document(minimal_doc(steps=1))
        with pytest.raises(UnsupportedFormat):
            emit_report(run_scenario(config), "yaml")

    def test_repeated_runs_are_identical(self):
        config = config_from_document(planar_constrained_doc())
        first = emit_report(run_scenario(config))
        second = emit_report(run_scenario(config))
        assert first == second


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "eqkf", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCli:
    def test_run_writes_csv_to_stdout(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc()), encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 0
        assert proc.stdout.startswith("step,method,t0,m0,")
        assert len(proc.stdout.splitlines()) == 4

    def test_malformed_json_exits_with_parse_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"steps\": 3,", encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert "invalid document at line" in proc.stderr

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                minimal_doc(initial_estimate={"mean": [0.0], "covariance": [[0.0]]}),
                "positive definite",
            ),
            (
                planar_constrained_doc(
                    methods=[{"method": "projection", "weight": [[1, 0], [0, -1]]}]
                ),
                "positive definite",
            ),
            (
                planar_constrained_doc(
                    methods=[{"method": "projection", "weight": [[1, 2], [0, 1]]}]
                ),
                "symmetric",
            ),
            (
                planar_constrained_doc(
                    constraint={
                        "kind": "affine",
                        "matrix": [[1.0, 0.0], [0.0, 1.0]],
                        "rhs": [0.5, -0.5],
                    },
                    methods=["soft_augmented"],
                    soft_noise=[[1.0, 0.5], [0.0, 1.0]],
                ),
                "symmetric",
            ),
        ],
        ids=["initial_covariance", "indefinite_weight", "asymmetric_weight",
             "asymmetric_soft_noise"],
    )
    def test_validation_failure_exits_with_parse_code(self, tmp_path, doc, message):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert message in proc.stderr

    def test_missing_file_exits_with_parse_code(self, tmp_path):
        proc = run_cli("run", str(tmp_path / "missing.json"))
        assert proc.returncode == 2

    def test_numerical_failure_exits_with_run_code(self, tmp_path):
        doc = {
            "steps": 3,
            "model": {
                "transition": [[1.0]],
                "process_noise": [[0.0]],
                "observation": [[1.0]],
                "measurement_noise": [[1.0]],
            },
            "constraint": {"kind": "affine", "matrix": [[1.0]], "rhs": [0.0]},
            "initial_truth": [0.0],
            "initial_estimate": {"mean": [0.0], "covariance": [[1.0]]},
            "methods": ["augmented"],
        }
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 3
        assert "step 2" in proc.stderr

    def test_overrides_shrink_the_run(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(planar_constrained_doc()), encoding="utf-8")
        proc = run_cli("run", str(path), "--steps", "2",
                       "--methods", "projection", "--seed", "9")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 3
        assert all(line.split(",")[1] == "projection" for line in lines[1:])

    def test_structured_format_flag(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc(steps=1)), encoding="utf-8")
        proc = run_cli("run", str(path), "--format", "structured")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["rng"] == RNG_ALGORITHM

    def test_output_files_are_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(planar_constrained_doc()), encoding="utf-8")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli("run", str(path), "--out", str(out_a)).returncode == 0
        assert run_cli("run", str(path), "--out", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
