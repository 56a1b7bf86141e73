"""Scenario configs, truth simulation, method runs, report emission, and
the command-line front end."""

import dataclasses
import json
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eqkf import (
    IDENTITY,
    EqualityConstraint,
    Measurement,
    ProjectionSpec,
    StateEstimate,
    SystemModel,
    augmented_update,
    constrained,
    fusion_constrained_update,
    kalman,
    matops,
    oracle,
    predict,
    project,
    restricted_gain_update,
    soft_augmented_update,
    update_fusion,
    update_joseph,
)
from eqkf.errors import (
    FilterError,
    IndefiniteCovariance,
    ParseError,
    ScenarioStepError,
    SingularAugmentedInnovation,
    SingularConstraintGram,
    SingularCovariance,
    SingularInnovationCovariance,
    UnsupportedFormat,
    ValidationError,
)
from eqkf.harness import (
    METHOD_NAMES,
    bundled_scenario_names,
    bundled_scenario_text,
    checks,
    cli,
    config_from_document,
    load_bundled_scenario,
    load_config,
    method_spec,
    run_scenario,
    simulate,
    simulate_truth,
)
from eqkf.harness import run as run_module
from eqkf.harness.config import METHODS
from eqkf.harness.run import RNG_ALGORITHM, advance_method, emit_report
from eqkf.oracle import empirical_covariance_check, random_constrained_instance

from helpers import line_constraint, scaled_instance


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


def line_2d_doc(**overrides):
    doc = json.loads(bundled_scenario_text("line_2d"))
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

    @pytest.mark.parametrize("kind", ["sphere", "product"])
    @pytest.mark.parametrize("indices", [["a", "b"], [0.7, 1.2], [True, False]])
    def test_constraint_indices_must_be_integers(self, kind, indices):
        doc = planar_constrained_doc(
            constraint={"kind": kind, "indices": indices, "rhs": [0.0]},
            initial_truth=[0.0, 0.0],
        )
        with pytest.raises(ParseError, match="constraint.indices"):
            config_from_document(doc)

    @pytest.mark.parametrize("matrix, accepted", [
        ([[1.0, 0.0], [0.0, -1e-10]], True),
        ([[1e-3, 1e-10], [0.0, 1e-3]], False),
        ([[1.0, 0.0], [0.0, -1e-6]], False),
        ([[1.0, 0.0], [0.0, 1.0]], True),
    ], ids=["roundoff_negative", "small_asymmetric", "indefinite", "identity"])
    def test_noise_and_weights_follow_one_covariance_rule(self, matrix, accepted):
        # R, the soft noise, the constraint noise and (if definite) the
        # projection weight are judged by one rule, kalman._check_covariance
        eye = np.eye(2).tolist()
        doc = planar_constrained_doc(
            constraint={"kind": "affine", "matrix": eye, "rhs": [0.5, -0.5]},
            methods=["soft_augmented"],
            soft_noise=matrix,
        )
        pred = kalman.StateEstimate([0.4, -0.3], 0.5 * np.eye(2))
        model = kalman.SystemModel(eye, 0.02 * np.eye(2), eye, 0.04 * np.eye(2))
        c = EqualityConstraint(eye, [0.5, -0.5])

        def soft_update():
            try:
                soft_augmented_update(pred, kalman.Measurement([0.5, -0.5]), model, c, matrix)
            except IndefiniteCovariance as exc:
                # the noise passed; the posterior is judged on its own scale
                assert "soft_augmented posterior" in str(exc)

        checks = {
            "measurement_noise": lambda: kalman.SystemModel(eye, eye, eye, matrix),
            "soft_noise": lambda: config_from_document(doc),
            "constraint_noise": soft_update,
        }
        if np.linalg.eigvalsh(matrix)[0] > 0.0:
            checks["weight"] = lambda: ProjectionSpec(weight=matrix)
        outcome = {}
        for name, build in checks.items():
            try:
                build()
                outcome[name] = True
            except (ValueError, ValidationError) as exc:
                assert "symmetric" in str(exc) or "positive" in str(exc)
                outcome[name] = False
        assert outcome == dict.fromkeys(checks, accepted)

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
        entry = {"method": "projection", "weight": [[1.0, 0.0], [0.0, 1e-14]]}
        with pytest.raises(ValidationError, match="numerically singular"):
            method_spec(entry)

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

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    def test_every_bundled_record_has_an_exactly_symmetric_covariance(self, feedback):
        for name in bundled_scenario_names():
            config = dataclasses.replace(load_bundled_scenario(name), feedback=feedback)
            records = run_scenario(config).records
            assert records and all(rec.cov_asym == 0.0 for rec in records), name

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
        joseph = kalman._joseph

        def counting_joseph(*args):
            calls.append(args)
            return joseph(*args)

        # no second Joseph update for the continuing state
        monkeypatch.setattr(kalman, "_joseph", counting_joseph)
        _, next_state = advance_method(
            config.initial_estimate, sim.measurements[0], model, config.methods[0], config
        )
        assert len(calls) == 1
        assert np.array_equal(next_state.mean, plain.mean)
        assert np.array_equal(next_state.covariance, plain.covariance)

    def test_each_reported_covariance_is_decomposed_once(self, monkeypatch):
        # n = 3, so each min eigenvalue is one ?syevr call; the record reuses
        # the one that advance_method's check of the kernel's covariance made
        # (kalman._estimate), and four steps repeat no covariance stage.  A
        # row that shares its partner's stage reports the partner's checked
        # covariance object.
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
        syevr = matops._SYEVR

        def counting_syevr(a, *args, **kwargs):
            calls.append(a.shape)
            return syevr(a, *args, **kwargs)

        monkeypatch.setattr(matops, "_SYEVR", counting_syevr)
        reported = [call[4].covariance for call in _recorded_run(config, monkeypatch, sim)]
        assert len(reported) == 4 * len(METHODS)
        assert calls == [(3, 3)] * len({id(cov) for cov in reported})
        assert len({id(cov) for cov in reported}) == 4 * (len(METHODS) - 2)

    def test_explicit_weight_is_factored_once_per_run(self, monkeypatch):
        doc = json.loads(bundled_scenario_text("line_2d"))
        doc["methods"] = [{"method": "projection", "weight": [[2.0, 0.3], [0.3, 1.0]]}]
        config = config_from_document(doc)
        calls = []
        cond = np.linalg.cond

        def counting_cond(*args, **kwargs):
            calls.append(1)
            return cond(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        run_scenario(config)
        assert calls == []

    def test_restricted_gain_row_equals_the_public_update_bit_for_bit(self):
        spec = method_spec("restricted_gain")
        instances = _line_2d_and_random_instances(
            lambda pred, z, model, c: restricted_gain_update(pred, z, model, c)[1]
        )
        for pred, model, z, c in instances:
            (mean, cov), (plain_mean, plain_cov) = _run_row(spec, pred, z, model, c)
            result = restricted_gain_update(pred, z, model, c)[1]
            plain = update_joseph(pred, z, model)[0]
            assert np.array_equal(mean, result.estimate.mean)
            assert np.array_equal(cov, result.estimate.covariance)
            assert np.array_equal(plain_mean, plain.mean)
            assert np.array_equal(plain_cov, plain.covariance)

    def test_explicit_weight_row_equals_the_public_update_bit_for_bit(self):
        line_weight = [[2.0, 0.3], [0.3, 1.0]]
        line_spec = ProjectionSpec(line_weight)
        instances = _line_2d_and_random_instances(
            lambda pred, z, model, c: project(update_joseph(pred, z, model)[0], c, line_spec)
        )
        rng = np.random.default_rng(83)
        for pred, model, z, c in instances:
            weight = line_weight
            if pred.dim != 2:
                g = rng.standard_normal((pred.dim, pred.dim))
                weight = g @ g.T + 0.5 * np.eye(pred.dim)
            spec = method_spec({"method": "projection", "weight": np.asarray(weight).tolist()})
            (mean, cov), (plain_mean, plain_cov) = _run_row(spec, pred, z, model, c)
            plain = update_joseph(pred, z, model)[0]
            result = project(plain, c, ProjectionSpec(spec.weight))
            assert np.array_equal(mean, result.estimate.mean)
            assert np.array_equal(cov, result.estimate.covariance)
            assert np.array_equal(plain_mean, plain.mean)
            assert np.array_equal(plain_cov, plain.covariance)

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


def _same_bytes(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _reused_stages(config, sim, monkeypatch) -> dict[str, int]:
    """Per method label, how many steps of ``run_scenario`` ran the mean stage alone."""
    hits = {spec.label: 0 for spec in config.methods}
    step = run_module._step

    def counting(mean, cov, z, model, spec, config, stage=None):
        hits[spec.label] += stage is not None
        return step(mean, cov, z, model, spec, config, stage)

    monkeypatch.setattr(run_module, "_step", counting)
    run_scenario(config, sim)
    monkeypatch.setattr(run_module, "_step", step)
    return hits


def _n8_config(feedback: bool):
    """An affine scenario at n = 8 with every method, from the first
    ``random_constrained_instance`` of that dimension."""
    pred, model, _, c = next(
        instance for instance in map(random_constrained_instance, range(200))
        if instance[0].dim == 8
    )
    q = c.constraint_dim
    return config_from_document({
        "steps": 4,
        "feedback": feedback,
        "model": {
            "transition": model.transition.tolist(),
            "process_noise": model.process_noise.tolist(),
            "observation": model.observation.tolist(),
            "measurement_noise": model.measurement_noise.tolist(),
        },
        "constraint": {"kind": "affine", "matrix": c.matrix.tolist(), "rhs": c.rhs.tolist()},
        "initial_truth": (c.matrix.T @ c.rhs).tolist(),
        "initial_estimate": {"mean": pred.mean.tolist(), "covariance": pred.covariance.tolist()},
        "methods": list(METHODS),
        "soft_noise": (0.05 * np.eye(q)).tolist(),
    })


class TestStageReuse:
    """``run_scenario`` reuses a covariance stage whose input covariance
    repeats byte for byte; nothing it reports may change."""

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_records_equal_a_loop_that_reuses_nothing(self, name, feedback, monkeypatch):
        config = dataclasses.replace(load_bundled_scenario(name), feedback=feedback)
        sim = simulate_truth(config)
        covariances = {spec.label: [] for spec in config.methods}
        advance = run_module.advance_method

        def recording(state, z, model, spec, config, **memory):
            out = advance(state, z, model, spec, config, **memory)
            covariances[spec.label].append(out[0].covariance)
            return out

        monkeypatch.setattr(run_module, "advance_method", recording)
        report = run_scenario(config, sim)
        monkeypatch.setattr(run_module, "advance_method", advance)
        for spec in config.methods:
            records = [r for r in report.records if r.method == spec.label]
            state = config.initial_estimate
            for k, (record, cov) in enumerate(zip(records, covariances[spec.label])):
                estimate, state = advance_method(
                    state, sim.measurements[k], config.model_at(k), spec, config
                )
                assert _same_bytes(record.mean, estimate.mean)
                assert _same_bytes(record.cov_min_eig, estimate.cov_min_eig)
                assert _same_bytes(record.cov_asym, estimate.cov_asym)
                assert _same_bytes(cov, estimate.covariance)
            assert len(records) == config.steps

    @pytest.mark.parametrize("tag", list(METHODS))
    def test_every_row_equals_its_public_update_bit_for_bit(self, tag):
        # The row, given what a run passes it, and the public update return
        # byte-equal estimates (and the row's unconstrained update equals
        # update_joseph's).  On the hard instances both may instead raise the
        # same FilterError type; the R = 0 instances raise on every row.
        def public(pred, z, model, c):
            return {
                "unconstrained": lambda: update_joseph(pred, z, model)[0],
                "augmented": lambda: augmented_update(pred, z, model, c).estimate,
                "fusion": lambda: fusion_constrained_update(pred, z, model, c).estimate,
                "projection": lambda: project(update_joseph(pred, z, model)[0], c).estimate,
                "projection_identity": lambda: project(
                    update_joseph(pred, z, model)[0], c, ProjectionSpec(IDENTITY)
                ).estimate,
                "restricted_gain": lambda: restricted_gain_update(pred, z, model, c)[1].estimate,
                "soft_augmented": lambda: soft_augmented_update(
                    pred, z, model, c, 0.25 * np.eye(c.constraint_dim)
                ).estimate,
            }[tag]()

        def row(pred, z, model, c):
            (mean, cov), unconstrained = _run_row(
                spec, pred, z, model, c, 0.25 * np.eye(c.constraint_dim)
            )
            assert (unconstrained is None) == (not METHODS[tag].forms_unconstrained)
            pairs = [(mean, cov)] + ([unconstrained] if unconstrained is not None else [])
            return [kalman._estimate(*pair, pred.step, tag) for pair in pairs]

        def expected(pred, z, model, c):
            return [public(pred, z, model, c)] + (
                [update_joseph(pred, z, model)[0]] if METHODS[tag].forms_unconstrained else []
            )

        def assert_equal(got, want):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a.mean, b.mean)
                assert np.array_equal(a.covariance, b.covariance)

        def outcome(call, *instance):
            try:
                return call(*instance)
            except FilterError as exc:
                return type(exc)

        spec = method_spec(tag)
        instances = _line_2d_and_random_instances(
            lambda pred, z, model, c: SimpleNamespace(estimate=public(pred, z, model, c))
        )
        assert len(instances) == 100
        for pred, model, z, c in instances:
            assert_equal(row(pred, z, model, c), expected(pred, z, model, c))
        hard = _hard_instances()
        for k, (pred, model, z, c) in enumerate(hard):
            got = outcome(row, pred, z, model, c)
            want = outcome(expected, pred, z, model, c)
            if isinstance(got, type) or isinstance(want, type):
                assert got is want
                continue
            assert k < len(hard) - 2, "an R = 0 instance was updated"
            assert_equal(got, want)

    def test_a_line_2d_run_checks_at_most_half_its_estimates(self, monkeypatch):
        # Without reuse every estimate's covariance is checked once.
        doc = json.loads(bundled_scenario_text("line_2d"))
        doc["steps"] = 100
        config = config_from_document(doc)
        assert sorted(spec.label for spec in config.methods) == sorted(METHODS)
        sim = simulate_truth(config)
        calls = []
        check = kalman._check_covariance

        def counting(*args, **kwargs):
            calls.append(args[1])
            return check(*args, **kwargs)

        monkeypatch.setattr(kalman, "_check_covariance", counting)
        report = run_scenario(config, sim)
        assert len(report.records) == 700
        assert 0 < len(calls) <= len(report.records) // 2

    def test_a_per_step_model_list_never_reuses_a_stage(self, monkeypatch):
        doc = json.loads(bundled_scenario_text("line_2d"))
        doc["steps"] = 100
        single = config_from_document(doc)
        doc["model"] = [doc["model"]] * 100
        listed = config_from_document(doc)
        sim = simulate_truth(single)
        assert all(count >= 50 for count in _reused_stages(single, sim, monkeypatch).values())
        assert set(_reused_stages(listed, sim, monkeypatch).values()) == {0}
        assert emit_report(run_scenario(listed, sim)) == emit_report(run_scenario(single, sim))

    def test_circle_reuses_only_its_unconstrained_stage(self, monkeypatch):
        config = load_bundled_scenario("circle")
        for feedback in (True, False):
            config = dataclasses.replace(config, feedback=feedback)
            hits = _reused_stages(config, simulate_truth(config), monkeypatch)
            assert hits["projection"] == 0
            assert hits["unconstrained"] > 0

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    def test_estimates_own_read_only_arrays(self, feedback):
        config = _n8_config(feedback)
        model = config.model_at(0)
        z = Measurement(np.linspace(-1.0, 1.0, model.measurement_dim), step=1)
        for spec in config.methods:
            memory = (set(), {})
            # a first sighting, a second that stores the stage, and a reuse
            for _ in range(3):
                for estimate in advance_method(
                    config.initial_estimate, z, model, spec, config, _memory=memory
                ):
                    for array in (estimate.mean, estimate.covariance):
                        assert array.flags.owndata and not array.flags.writeable
            assert len(memory[1]) == 1
        # fusion's mean stage returns a view into its (k + n) x (n + 1) solve,
        # which an estimate must not pin
        c = config.constraint
        stage = kalman._fusion_stage(config.initial_estimate.covariance, model, c.matrix)
        mean, _ = kalman._fusion_solve(stage, config.initial_estimate.mean, z.value, c.rhs)
        assert mean.base is not None

    def test_only_byte_equal_covariances_share_a_stage(self):
        # two covariances with one diagonal: the diagonal's hash is what a run
        # remembers, and the full bytes decide every reuse
        config = load_bundled_scenario("line_2d")
        model, spec = config.model_at(0), method_spec("augmented")
        z = Measurement([0.3, -0.1], step=1)
        states = [StateEstimate([0.1, 0.2], [[1.0, r], [r, 1.0]]) for r in (0.2, -0.2)]
        memory = (set(), {})
        for state in states + states + states:
            fresh = advance_method(state, z, model, spec, config)
            remembered = advance_method(state, z, model, spec, config, _memory=memory)
            for a, b in zip(fresh, remembered):
                assert _same_bytes(a.mean, b.mean) and _same_bytes(a.covariance, b.covariance)
        assert memory[0] == {hash(states[0].covariance.diagonal().tobytes())}
        assert set(memory[1]) == {state.covariance.tobytes() for state in states}

    @pytest.mark.parametrize("kernel, part", [
        ("_correct", 1), ("_joseph", 2), ("_fusion_solve", 0), ("_fusion_solve", 1),
    ])
    def test_a_non_finite_kernel_result_raises_the_typed_error(self, kernel, part, monkeypatch):
        config = load_bundled_scenario("line_2d")
        spec = method_spec("fusion" if kernel == "_fusion_solve" else "unconstrained")
        original = getattr(kalman, kernel)

        def poisoned(*args):
            out = list(original(*args))
            out[part] = np.full_like(out[part], np.nan)
            return tuple(out)

        monkeypatch.setattr(kalman, kernel, poisoned)
        z = Measurement(np.ones(config.model_at(0).measurement_dim), step=1)
        with pytest.raises(IndefiniteCovariance, match="non-finite"):
            advance_method(config.initial_estimate, z, config.model_at(0), spec, config)


def _recorded_run(config, monkeypatch, sim=None):
    """``run_scenario(config, sim)`` with each ``advance_method`` call's state,
    measurement, model and method label, and the two estimates it returned."""
    calls = []
    advance = run_module.advance_method

    def recording(state, z, model, spec, config, **memory):
        out = advance(state, z, model, spec, config, **memory)
        calls.append((state, z, model, spec.label, *out))
        return out

    monkeypatch.setattr(run_module, "advance_method", recording)
    run_scenario(config, sim)
    monkeypatch.setattr(run_module, "advance_method", advance)
    return calls


class TestOneProjectionStage:
    """Augmentation, the restricted gain and the unconstrained row share the
    projection's covariance stage; what they report must not change."""

    @pytest.mark.parametrize("name", ["line_2d", "soft_line_2d", "circle"])
    def test_feedback_off_continues_from_update_joseph(self, name, monkeypatch):
        config = dataclasses.replace(load_bundled_scenario(name), feedback=False)
        calls = _recorded_run(config, monkeypatch)
        assert {call[3] for call in calls} == {spec.label for spec in config.methods}
        for state, z, model, label, _, following in calls:
            expected, _ = update_joseph(predict(state, model), z, model)
            assert _same_bytes(following.mean, expected.mean), label
            assert _same_bytes(following.covariance, expected.covariance), label

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    def test_equivalent_rows_report_equal_covariance_bytes_on_line_2d(
        self, feedback, monkeypatch
    ):
        config = dataclasses.replace(load_bundled_scenario("line_2d"), feedback=feedback)
        covariances = {spec.label: [] for spec in config.methods}
        for *_, label, reported, _ in _recorded_run(config, monkeypatch):
            covariances[label].append(reported.covariance.tobytes())
        assert len(covariances["augmented"]) == config.steps
        assert covariances["augmented"] == covariances["projection"]
        assert covariances["restricted_gain"] == covariances["projection_identity"]

    def test_equivalent_updates_return_equal_covariance_bytes(self):
        for seed in range(50):
            pred, model, z, c = random_constrained_instance(seed)
            plain, _ = update_joseph(pred, z, model)
            augmented = augmented_update(pred, z, model, c).estimate
            restricted = restricted_gain_update(pred, z, model, c)[1].estimate
            projected = project(plain, c).estimate
            identity = project(plain, c, ProjectionSpec(IDENTITY)).estimate
            assert _same_bytes(augmented.covariance, projected.covariance), seed
            assert _same_bytes(restricted.covariance, identity.covariance), seed

    def test_unconstrained_row_raises_on_a_singular_innovation_covariance(self):
        pred = StateEstimate([0.3, -0.3], 0.5 * np.eye(2), step=1)
        model = SystemModel(np.eye(2), 0.01 * np.eye(2), [[0.0, 0.0]], [[0.0]])
        with pytest.raises(SingularInnovationCovariance) as info:
            _run_row(method_spec("unconstrained"), pred, Measurement([0.0]), model, None)
        assert type(info.value) is SingularInnovationCovariance


class TestSharedStage:
    """Augmentation runs the projection's covariance stage and the restricted
    gain the identity projection's (``Method.shares``).  ``run_scenario`` runs
    each such stage once per step; the later row runs its mean stage alone
    and reports its partner's checked covariance object."""

    @pytest.mark.parametrize(
        "feedback, joseph", [(True, 4), (False, 6)], ids=["feedback-on", "feedback-off"]
    )
    def test_each_step_runs_a_shared_stage_once(self, feedback, joseph, monkeypatch):
        # Of the seven rows, six run a Joseph stage (soft_augmented's on its
        # stacked rows) and four a projection stage, one per row without
        # sharing.  With feedback off, fusion and soft_augmented also run the
        # unconstrained stage for the estimate they continue from (8 without
        # sharing).
        config = _n8_config(feedback)
        current, steps = [0], {"_joseph": [], "_project_stage": []}
        advance = run_module.advance_method

        def stepping(state, *args, **kwargs):
            current[0] = state.step + 1
            return advance(state, *args, **kwargs)

        def counted(name, fn):
            def wrapper(*args):
                steps[name].append(current[0])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(run_module, "advance_method", stepping)
        monkeypatch.setattr(kalman, "_joseph", counted("_joseph", kalman._joseph))
        monkeypatch.setattr(
            constrained, "_project_stage", counted("_project_stage", constrained._project_stage)
        )
        run_scenario(config)
        assert config.steps == 4
        for k in range(2, config.steps + 1):
            assert steps["_joseph"].count(k) == joseph
            assert steps["_project_stage"].count(k) == 2

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    def test_a_later_row_reports_its_partners_covariance_object(self, feedback, monkeypatch):
        config = _n8_config(feedback)
        estimates = {
            (state.step + 1, label): (reported, following)
            for state, _, _, label, reported, following in _recorded_run(config, monkeypatch)
        }
        for k in range(1, config.steps + 1):
            for later, earlier in (
                ("projection", "augmented"), ("restricted_gain", "projection_identity")
            ):
                for a, b in zip(estimates[k, later], estimates[k, earlier]):
                    assert a.covariance is b.covariance
                    assert a.cov_min_eig == b.cov_min_eig


    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    def test_reports_do_not_depend_on_which_row_runs_a_shared_stage(self, feedback):
        config = _n8_config(feedback)
        reordered = dataclasses.replace(config, methods=config.methods[::-1])
        sim = simulate_truth(config)
        reports = [run_scenario(c, sim) for c in (config, reordered)]
        assert emit_report(reports[0]) == emit_report(reports[1])
        assert reports[0].summary.to_document() == reports[1].summary.to_document()


def _run_row(spec, pred, z, model, c, soft_noise=None):
    """The two stages of the ``METHODS`` row of ``spec`` on one prediction, with
    the arguments a scenario run passes."""
    row = METHODS[spec.name]
    a, b = (c.matrix, c.rhs) if row.needs_constraint else (None, None)
    stage = row.covariance(pred.covariance, model, a, spec._projection, soft_noise)
    return row.mean(stage, pred.mean, z.value, model, a, b)


def _hard_instances():
    """``(pred, model, z, c)`` of scaled-probe instances, as drawn and with one
    eigenvalue of ``P`` zeroed: those the constrained tests name, seed 3, whose
    innovation form is degenerate, and seed 2251, whose ``S`` is numerically
    singular.  Then ``random_kalman_instance`` seeds 27 and 37 with ``R = 0``,
    whose ``S = H P H'`` (m = 3 > n = 2) is singular to roundoff."""
    instances = [scaled_instance(seed) for seed in (1, 3, 10, 295, 389, 530, 1782, 2251)]
    instances += [scaled_instance(seed, dropped=1) for seed in (0, 2, 14, 48)]
    for seed in (27, 37):
        pred, model, z = oracle.random_kalman_instance(seed)
        model = dataclasses.replace(model, measurement_noise=np.zeros((3, 3)))
        instances.append((pred, model, z, line_constraint()))
    return instances


def _line_2d_and_random_instances(update):
    """``(pred, model, z, c)`` of each ``line_2d`` step, the recursion carried
    on by the estimate of ``update(pred, z, model, c)``, then of the first 50
    ``random_constrained_instance`` seeds."""
    config = load_bundled_scenario("line_2d")
    sim = simulate_truth(config)
    instances = []
    state = config.initial_estimate
    for k, z in enumerate(sim.measurements):
        model = config.model_at(k)
        pred = predict(state, model)
        c = config.constraint
        instances.append((pred, model, z, c))
        state = update(pred, z, model, c).estimate
    return instances + [random_constrained_instance(seed) for seed in range(50)]


class TestRelinearizedRows:
    """A constrained row gets its rows ``A x = b`` as arrays from the
    constraint's ``_rows``; a relinearized constraint builds no
    ``EqualityConstraint`` and tests no rank, so the kernels' guards judge the
    rows."""

    @staticmethod
    def _circle_doc(**overrides):
        doc = json.loads(bundled_scenario_text("circle"))
        doc.update({"methods": list(METHODS), "soft_noise": [[0.01]], **overrides})
        return doc

    @pytest.mark.parametrize("feedback", [True, False], ids=["feedback-on", "feedback-off"])
    def test_a_relinearized_run_builds_no_constraint_value_type(self, feedback, monkeypatch):
        config = config_from_document(self._circle_doc(feedback=feedback))
        sim = simulate_truth(config)
        counts = {"__post_init__": 0, "matrix_rank": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        init, rank = EqualityConstraint.__post_init__, np.linalg.matrix_rank
        monkeypatch.setattr(EqualityConstraint, "__post_init__", counted("__post_init__", init))
        monkeypatch.setattr(np.linalg, "matrix_rank", counted("matrix_rank", rank))
        run_scenario(config, sim)
        assert counts == {"__post_init__": 0, "matrix_rank": 0}
        # the public linearization still builds one and tests its rank
        constrained.linearize(config.constraint, config.initial_truth)
        assert counts == {"__post_init__": 1, "matrix_rank": 1}

    @pytest.mark.parametrize("tag, error", [
        ("augmented", SingularAugmentedInnovation),
        ("fusion", SingularCovariance),
        ("projection", SingularConstraintGram),
        ("projection_identity", SingularConstraintGram),
        ("restricted_gain", SingularConstraintGram),
    ])
    def test_a_vanishing_jacobian_stops_a_hard_row_at_its_kernel_guard(
        self, tag, error, tmp_path, capsys
    ):
        # the circle's Jacobian [2 x, 2 y] is zero at the predicted mean [0, 0]
        doc = self._circle_doc(steps=3, methods=["unconstrained", tag])
        doc["initial_estimate"]["mean"] = [0.0, 0.0]
        with pytest.raises(ScenarioStepError) as info:
            run_scenario(config_from_document(doc))
        assert (info.value.step, info.value.method, type(info.value.cause)) == (1, tag, error)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "zero.csv")]) == 3
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_a_vanishing_jacobian_leaves_the_soft_row_unconstrained(self, tmp_path, capsys):
        # the zero row's pseudo-measurement has noise 0.01, so the stacked
        # innovation covariance stays positive definite and the row adds nothing
        doc = self._circle_doc(steps=3, methods=["unconstrained", "soft_augmented"])
        doc["initial_estimate"]["mean"] = [0.0, 0.0]
        path, out = tmp_path / "zero.json", tmp_path / "zero-report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", str(path), "--format", "structured", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        assert len(records) == 6
        first = {rec["method"]: rec for rec in records if rec["step"] == 1}
        assert dict(first["soft_augmented"], method=None) == dict(
            first["unconstrained"], method=None
        )

    def test_an_overflowing_prediction_cannot_be_linearized(self, tmp_path, capsys):
        # F = 2 I takes the mean [1e308, 1e308] past the largest float, so the
        # point the rows are taken about is not finite
        doc = self._circle_doc(steps=3, methods=["projection"])
        doc["model"]["transition"] = [[2.0, 0.0], [0.0, 2.0]]
        doc["initial_estimate"]["mean"] = [1e308, 1e308]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "huge.csv")]) == 3
        err = capsys.readouterr().err
        assert err == ("error: step 1, method projection: cannot linearize the constraint "
                       "at x_ref: x_ref has non-finite entries\n")


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
            (minimal_doc(seed=-1), "field 'seed': expected a non-negative integer"),
            (
                planar_constrained_doc(
                    constraint={"kind": "product", "indices": ["a", "b"], "rhs": [0.0]},
                    initial_truth=[0.0, 0.0],
                ),
                "constraint.indices",
            ),
            (
                planar_constrained_doc(
                    constraint={"kind": "sphere", "indices": [0.7, 1.2], "rhs": [0.5]},
                ),
                "constraint.indices",
            ),
            (
                planar_constrained_doc(
                    constraint={"kind": "sphere", "indices": [0, 0], "rhs": [0.5]},
                ),
                "sphere indices must be distinct",
            ),
            (
                planar_constrained_doc(
                    methods=[{"method": "projection", "weight": [[1e-3, 1e-10], [0.0, 1e-3]]}]
                ),
                "symmetric",
            ),
            (
                planar_constrained_doc(
                    methods=[{"method": "projection", "weight": [[1.0, 0.0], [0.0, 1e-14]]}]
                ),
                "weight is numerically singular",
            ),
            # json reads and writes NaN and Infinity
            (
                line_2d_doc(initial_truth=[np.inf, -np.inf]),
                "'initial_truth': entries must be finite",
            ),
            (
                line_2d_doc(initial_truth=[np.nan, 0.0]),
                "'initial_truth': entries must be finite",
            ),
            (
                line_2d_doc(constraint={"kind": "sphere", "rhs": [np.inf]}),
                "'constraint.rhs': entries must be finite",
            ),
            (
                line_2d_doc(
                    constraint={"kind": "sphere", "rhs": [1.0], "center": [np.nan, 0.0]}
                ),
                "'constraint.center': entries must be finite",
            ),
            (
                line_2d_doc(
                    constraint={"kind": "product", "indices": [0, 1], "rhs": [np.inf]}
                ),
                "'constraint.rhs': entries must be finite",
            ),
            (line_2d_doc(soft_noise=[[np.inf]]), "'soft_noise': entries must be finite"),
            (line_2d_doc(soft_noise=[[np.nan]]), "'soft_noise': entries must be finite"),
            # an integer beyond the largest float
            (line_2d_doc(initial_truth=[10**400, 0]), "'initial_truth': entries must be finite"),
            # an integer of more digits than int() converts (json.dumps cannot
            # write it either, so the document is text)
            (
                json.dumps(line_2d_doc(initial_truth=[7, 0])).replace(
                    '"initial_truth": [7, 0]', '"initial_truth": [' + "7" * 5000 + ", 0]"
                ),
                "invalid document",
            ),
            # beyond numpy's index range: rejected before any allocation
            (line_2d_doc(steps=10**20), "field 'steps'"),
        ],
        ids=["initial_covariance", "indefinite_weight", "asymmetric_weight",
             "asymmetric_soft_noise", "negative_seed", "string_indices",
             "fractional_indices", "repeated_sphere_indices",
             "small_asymmetric_weight", "ill_conditioned_weight",
             "infinite_truth", "nan_truth", "infinite_sphere_rhs", "nan_sphere_center",
             "infinite_product_rhs", "infinite_soft_noise", "nan_soft_noise",
             "huge_integer_truth", "long_integer_truth", "huge_steps"],
    )
    def test_validation_failure_exits_with_parse_code(self, tmp_path, doc, message):
        path = tmp_path / "invalid.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_failed_truth_simulation_exits_with_run_code(self, tmp_path, monkeypatch, capsys):
        # with no iterations allowed, projecting the circle's truth fails
        monkeypatch.setattr(simulate, "_MAX_PROJECTION_ITERATIONS", 0)
        path = tmp_path / "circle.json"
        path.write_text(bundled_scenario_text("circle"), encoding="utf-8")
        assert cli.main(["run", str(path), "--steps", "2"]) == 3
        err = capsys.readouterr().err
        assert "truth projection onto the constraint did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "unconstrained"])
    def test_overflowing_truth_simulation_exits_with_run_code(self, tmp_path, capsys,
                                                              constrained):
        # an unstable model: the truth grows by 1.5 a step and overflows at step 1752
        doc = line_2d_doc(steps=2000)
        doc["model"]["transition"] = [[1.5, 0.0], [0.0, 1.5]]
        if not constrained:
            doc.update(constraint=None, methods=["unconstrained"])
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert "truth simulation: the truth of step 1752 is not finite" in err
        assert "Traceback" not in err

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

    def test_check_runs_the_fast_battery(self, capsys):
        assert cli.main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("PASS ") for line in lines) == 14
        assert lines[-1] == "14/14 checks passed"

    def test_a_failing_check_exits_with_check_code(self, monkeypatch, capsys):
        failing = checks.CheckResult("broken", False, "deviation 1 (tol 0)", 0.0)
        monkeypatch.setattr(checks, "run_default_checks", lambda fast: [failing])
        assert cli.main(["check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [failing.line(), "0/1 checks passed"]

    def test_an_overflowing_restricted_gain_stays_on_the_constraint(self, tmp_path, capsys):
        # v' S^-1 v overflows, which takes the identity projection's mean
        doc = line_2d_doc(steps=40)
        doc["initial_estimate"]["mean"] = [1e300, 1e300]
        path, out = tmp_path / "huge.json", tmp_path / "huge-report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["run", str(path), "--format", "structured", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        means = {}
        for rec in records:
            means.setdefault(rec["method"], []).append(rec["mean"])
        assert len(means["restricted_gain"]) == 40
        assert means["restricted_gain"] == means["projection_identity"]
        assert any(rec["err_norm"] == np.inf for rec in records)

    @pytest.mark.parametrize("methods", [None, ["projection"], ["unconstrained"]],
                             ids=["bundled", "projection", "unconstrained"])
    def test_an_overflowing_relinearization_exits_with_run_code(self, tmp_path, capsys,
                                                                methods):
        doc = json.loads(bundled_scenario_text("circle"))
        doc.update(steps=5, initial_estimate=dict(doc["initial_estimate"], mean=[1e200, 1e200]))
        if methods is not None:
            doc["methods"] = methods
        path, out = tmp_path / "huge.json", tmp_path / "huge-report.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["run", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if methods == ["unconstrained"]:
            # nothing relinearizes; the record's residual overflows to inf
            assert code == 0 and err == ""
            rows = out.read_text(encoding="utf-8").splitlines()[1:]
            assert [row.split(",")[-3] for row in rows] == ["inf"] * 5
        else:
            assert code == 3
            assert "step 1, method projection: cannot linearize" in err

    def test_output_files_are_byte_identical_across_runs(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(planar_constrained_doc()), encoding="utf-8")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli("run", str(path), "--out", str(out_a)).returncode == 0
        assert run_cli("run", str(path), "--out", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()


def test_filter_steps_look_up_no_lapack_routine(monkeypatch):
    # The kernels call LAPACK through handles bound once at import.  Any
    # get_lapack_funcs call during a step, by a kernel or by a scipy.linalg
    # wrapper that looks its routine up per call, fails here.
    config = load_bundled_scenario("line_2d")
    sim = simulate_truth(config)
    model = config.model_at(0)

    def lookup(*args, **kwargs):
        raise AssertionError(f"LAPACK routines {args[0]} looked up during a filter step")

    original = scipy.linalg.get_lapack_funcs
    for name, module in list(sys.modules.items()):
        if name.startswith("scipy.linalg") and vars(module).get("get_lapack_funcs") is original:
            monkeypatch.setattr(module, "get_lapack_funcs", lookup)
    for tag in METHODS:
        spec = method_spec(tag)
        advance_method(config.initial_estimate, sim.measurements[0], model, spec, config)
    pred = predict(config.initial_estimate, model)
    update_fusion(pred, sim.measurements[0], model)
    fusion_constrained_update(pred, sim.measurements[0], model, config.constraint)
    one_step = dataclasses.replace(config, steps=1)
    empirical_covariance_check(one_step, "augmented", 1000, seed=0)


class TestCheckInstances:
    INSTANCE_CHECKS = (
        checks.check_equivalence, checks.check_feasibility, checks.check_shrinkage,
        checks.check_block_inverse, checks.check_posterior_chains, checks.check_lagrange,
        checks.check_soft_limits,
    )
    COUNTED = (
        (oracle, "random_constrained_instance"),
        (kalman, "update_joseph"),
        (constrained, "augmented_update"),
        (constrained, "fusion_constrained_update"),
        (constrained, "restricted_gain_update"),
    )

    def test_the_battery_builds_and_updates_each_seed_once(self, monkeypatch):
        checks._instance.cache_clear()
        checks._hard_updates.cache_clear()
        calls = dict.fromkeys((name for _, name in self.COUNTED), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in self.COUNTED:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        cold = [check(instances=20) for check in self.INSTANCE_CHECKS]
        assert all(result.passed for result in cold)
        assert calls == dict.fromkeys(calls, 20)
        warm = [check(instances=20) for check in self.INSTANCE_CHECKS]
        assert [r.detail for r in warm] == [r.detail for r in cold]
        assert calls == dict.fromkeys(calls, 20)

    def test_the_block_inverse_check_fails_on_a_wrong_block(self, monkeypatch):
        exact = constrained.block_s_inverse

        def off(*args):
            blocks = exact(*args)
            return dataclasses.replace(blocks, lower_right=1.001 * blocks.lower_right)

        monkeypatch.setattr(constrained, "block_s_inverse", off)
        result = checks.check_block_inverse(instances=5)
        assert result.passed is False

    def test_the_identity_check_fails_on_swapped_kronecker_factors(self, monkeypatch):
        exact = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: exact(b, a))
        result = checks.check_identities(instances=5)
        assert result.passed is False

    def test_a_nan_deviation_fails_its_check(self, monkeypatch):
        # max(0.0, nan) is 0.0: a fold through max or min would pass a NaN
        passed, detail = checks._worst_deviation(lambda seed: [float("nan")], 1, 1e-9)
        assert not passed and "worst deviation nan" in detail
        monkeypatch.setattr(checks, "_rel", lambda a, b: float("nan"))
        result = checks.check_equivalence(instances=2)
        assert result.passed is False
        assert "mean dev nan" in result.detail and "identity projection nan" in result.detail
        monkeypatch.setattr(checks, "min_eigenvalue", lambda p: float("nan"))
        result = checks.check_shrinkage(instances=2)
        assert result.passed is False and "P_post - Pc is nan" in result.detail
