"""Reference implementations: dense KKT/Lagrange solves, the random
instance generators, the Monte-Carlo covariance check, and the array step
it shares with scenario runs."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqkf import (
    IDENTITY,
    EqualityConstraint,
    Measurement,
    ProjectionSpec,
    StateEstimate,
    innovate,
    predict,
    project,
    restricted_gain_update,
    update_joseph,
)
from eqkf import kalman
from eqkf.errors import DegenerateResidual, DimensionMismatch, IndefiniteCovariance, SingularKkt
from eqkf.harness import config_from_document, load_bundled_scenario, run
from eqkf.harness.run import advance_method
from eqkf.oracle import (
    SEEDS,
    KktSystem,
    dense_kkt_project,
    dense_lagrange_solve,
    empirical_covariance_check,
    random_constrained_instance,
    random_kalman_instance,
)

from helpers import estimate, line_constraint, rel, worked_planar_instance


class TestDenseKktProject:
    def test_euclidean_split(self):
        system = KktSystem(np.eye(2), line_constraint(b=1.0), [1.0, 1.0])
        assert_allclose(dense_kkt_project(system), [0.5, 0.5])

    def test_weighted_projection_matches_library_path(self):
        w = np.diag([1.0, 2.0])
        system = KktSystem(w, line_constraint(), [1.0, 1.0])
        x = dense_kkt_project(system)
        # stationarity solved by hand: heavier weight moves less
        assert_allclose(x, [-1.0 / 3.0, 1.0 / 3.0])
        est = estimate([1.0, 1.0], np.eye(2))
        via_project = project(est, line_constraint(), ProjectionSpec(weight=w))
        assert rel(x, via_project.estimate.mean) < 1e-9
        # feasibility and stationarity of the dense solution
        assert abs(x.sum()) < 1e-10
        gradient = 2.0 * w @ (x - np.array([1.0, 1.0]))
        # the gradient must lie in the row space of the constraint
        assert abs(gradient[0] - gradient[1]) < 1e-10

    def test_feasible_target_is_returned(self):
        system = KktSystem(np.diag([3.0, 1.0]), line_constraint(b=2.0), [1.5, 0.5])
        assert_allclose(dense_kkt_project(system), [1.5, 0.5], atol=1e-12)

    def test_ill_conditioned_system_is_rejected(self):
        # the weight is near-singular along a direction the constraint
        # leaves free, so the assembled system is near-singular too
        free_direction = EqualityConstraint([[0.0, 1.0]], [0.0])
        system = KktSystem(np.diag([1e-14, 1.0]), free_direction, [1.0, 1.0])
        with pytest.raises(SingularKkt):
            dense_kkt_project(system)


class TestDenseLagrangeSolve:
    def test_zero_residual_gives_zero_solution(self):
        pred, z, model, c = worked_planar_instance()
        innov = innovate(pred, z, model)
        correction, multipliers = dense_lagrange_solve(innov, c, np.zeros(1))
        assert_allclose(correction, np.zeros(2))
        assert_allclose(multipliers, np.zeros(1))

    def test_planar_worked_values(self):
        pred, z, model, c = worked_planar_instance()
        innov = innovate(pred, z, model)
        post, _ = update_joseph(pred, z, model)
        residual = c.matrix @ post.mean - c.rhs
        correction, _ = dense_lagrange_solve(innov, c, residual)
        assert_allclose(correction.reshape(2, 1, order="F"), [[-0.25], [-0.25]])

    def test_solution_satisfies_the_assembled_system(self):
        for seed in range(20):
            pred, model, z, c = random_constrained_instance(seed, n_max=5,
                                                            m_max=3, q_max=2)
            innov = innovate(pred, z, model)
            post, _ = update_joseph(pred, z, model)
            residual = c.matrix @ post.mean - c.rhs
            correction, multipliers = dense_lagrange_solve(innov, c, residual)
            n = pred.dim
            m = innov.residual.size
            nu = innov.residual.reshape(m, 1)
            # reassemble the optimality system independently of the oracle
            top = np.hstack([
                2.0 * np.kron(innov.residual_cov, np.eye(n)),
                np.kron(nu, c.matrix.T),
            ])
            bottom = np.hstack([
                np.kron(nu.T, c.matrix),
                np.zeros((c.constraint_dim, c.constraint_dim)),
            ])
            system = np.vstack([top, bottom])
            solution = np.concatenate([correction, multipliers])
            rhs = np.concatenate([np.zeros(m * n), -residual])
            gap = np.linalg.norm(system @ solution - rhs)
            assert gap <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    def test_the_column_major_gain_change_lands_the_mean_on_the_constraint(self):
        # the multiplier rows read (v' kron A) vec(dK) = A dK v, so the
        # correction is vec(dK) stacked by columns
        several = 0
        for seed in range(60):
            pred, model, z, c = random_constrained_instance(seed)
            if model.measurement_dim < 2:
                continue
            several += 1
            innov = innovate(pred, z, model)
            post, _ = update_joseph(pred, z, model)
            residual = c.matrix @ post.mean - c.rhs
            correction, _ = dense_lagrange_solve(innov, c, residual)
            change = correction.reshape(pred.dim, innov.residual.size, order="F")
            mean = post.mean + change @ innov.residual
            assert np.abs(c.matrix @ mean - c.rhs).max() <= 1e-9 * (1.0 + np.abs(c.rhs).max())
        assert several >= 20

    def test_no_constraint_rows_give_a_zero_correction_and_no_multipliers(self):
        pred, model, z, _ = random_constrained_instance(5)
        innov = innovate(pred, z, model)
        free = EqualityConstraint(np.zeros((0, pred.dim)), np.zeros(0))
        correction, multipliers = dense_lagrange_solve(innov, free, np.zeros(0))
        assert_allclose(correction, np.zeros(pred.dim * innov.residual.size))
        assert multipliers.shape == (0,)

    def test_rejects_a_residual_of_the_wrong_length(self):
        pred, z, model, c = worked_planar_instance()
        innov = innovate(pred, z, model)
        with pytest.raises(DimensionMismatch):
            dense_lagrange_solve(innov, c, np.zeros(2))


class TestInstanceGenerators:
    def test_published_seed_list(self):
        assert SEEDS == tuple(range(1000))

    def test_same_seed_reproduces_the_instance(self):
        a = random_constrained_instance(17)
        b = random_constrained_instance(17)
        assert np.array_equal(a[0].mean, b[0].mean)
        assert np.array_equal(a[0].covariance, b[0].covariance)
        assert np.array_equal(a[1].observation, b[1].observation)
        assert np.array_equal(a[2].value, b[2].value)
        assert np.array_equal(a[3].matrix, b[3].matrix)

    def test_instances_are_well_conditioned(self):
        for seed in range(50):
            pred, model, z = random_kalman_instance(seed)
            assert 2 <= pred.dim <= 6
            assert 1 <= model.measurement_dim <= 4
            assert np.linalg.cond(pred.covariance) <= 1e4 * (1 + 1e-9)

    def test_constraint_rows_are_orthonormal(self):
        for seed in range(50):
            pred, _, _, c = random_constrained_instance(seed)
            q = c.constraint_dim
            assert 1 <= q <= min(3, pred.dim - 1)
            assert rel(c.matrix @ c.matrix.T, np.eye(q)) < 1e-12


def _scalar_config(q=1.0, r=1.0, prior=1.0, steps=4):
    return config_from_document({
        "steps": steps,
        "seed": 0,
        "model": {
            "transition": [[1.0]],
            "process_noise": [[q]],
            "observation": [[1.0]],
            "measurement_noise": [[r]],
        },
        "initial_truth": [0.0],
        "initial_estimate": {"mean": [0.0], "covariance": [[prior]]},
        "methods": ["unconstrained"],
    })


class TestEmpiricalCovarianceCheck:
    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            empirical_covariance_check(_scalar_config(), "unconstrained", trials=10)

    def test_noise_free_scenario_has_no_error_spread(self):
        # the prior must be positive definite, so "exact" means vanishing
        config = config_from_document({
            "steps": 2,
            "seed": 0,
            "model": {
                "transition": [[1.0]],
                "process_noise": [[0.0]],
                "observation": [[1.0]],
                "measurement_noise": [[1e-12]],
            },
            "initial_truth": [0.3],
            "initial_estimate": {"mean": [0.3], "covariance": [[1e-18]]},
            "methods": ["unconstrained"],
        })
        report = empirical_covariance_check(config, "unconstrained", trials=1000)
        assert np.abs(report.sample_covariance).max() <= 1e-16

    def test_scalar_variance_tracks_reported_covariance(self):
        config = _scalar_config()
        report = empirical_covariance_check(config, "unconstrained",
                                            trials=4000, seed=5)
        assert report.max_relative_deviation < 0.1
        assert report.trials == 4000

    def test_constrained_errors_vanish_along_constraint_rows(self):
        doc = {
            "steps": 3,
            "seed": 0,
            "model": {
                "transition": [[1.0, 0.0], [0.0, 1.0]],
                "process_noise": [[0.02, 0.0], [0.0, 0.02]],
                "observation": [[1.0, 0.0]],
                "measurement_noise": [[0.01]],
            },
            "constraint": {"kind": "affine", "matrix": [[1.0, 1.0]], "rhs": [0.0]},
            "initial_truth": [0.5, -0.5],
            "initial_estimate": {
                "mean": [0.4, -0.4],
                "covariance": [[0.5, 0.0], [0.0, 0.5]],
            },
            "methods": ["unconstrained", "projection"],
        }
        config = config_from_document(doc)
        constrained = empirical_covariance_check(config, "projection",
                                                 trials=2000, seed=7)
        unconstrained = empirical_covariance_check(config, "unconstrained",
                                                   trials=2000, seed=7)
        assert constrained.constraint_row_rms <= 1e-6
        assert unconstrained.constraint_row_rms > 1e-2

    def test_rejects_transitions_that_leave_the_constraint_set(self):
        doc = {
            "steps": 2,
            "seed": 0,
            "model": {
                "transition": [[2.0, 0.0], [0.0, 2.0]],
                "process_noise": [[0.01, 0.0], [0.0, 0.01]],
                "observation": [[1.0, 0.0]],
                "measurement_noise": [[0.01]],
            },
            "constraint": {"kind": "affine", "matrix": [[1.0, 1.0]], "rhs": [1.0]},
            "initial_truth": [0.5, 0.5],
            "initial_estimate": {
                "mean": [0.5, 0.5],
                "covariance": [[0.25, 0.0], [0.0, 0.25]],
            },
            "methods": ["projection"],
        }
        config = config_from_document(doc)
        with pytest.raises(ValueError):
            empirical_covariance_check(config, "projection", trials=1000)

    def test_rejects_nonlinear_constraints(self):
        with pytest.raises(ValueError, match="nonlinear"):
            empirical_covariance_check(load_bundled_scenario("circle"), "projection",
                                       trials=1000)

    @pytest.mark.parametrize("feedback", [True, False])
    @pytest.mark.parametrize("method", load_bundled_scenario("line_2d").methods,
                             ids=lambda spec: spec.label)
    def test_batched_trials_match_the_per_step_path(self, method, feedback):
        config = dataclasses.replace(load_bundled_scenario("line_2d"), feedback=feedback)
        report = empirical_covariance_check(config, method, trials=1000, seed=3)
        assert report.trials == 1000
        # no covariance reads the data, so one per-step run reports the same one
        state = config.initial_estimate
        for k in range(config.steps):
            model = config.model_at(k)
            reported, state = advance_method(
                state, Measurement(np.ones(model.measurement_dim), step=k + 1),
                model, method, config,
            )
        assert np.array_equal(report.reported_covariance, reported.covariance)

    @pytest.mark.parametrize("scenario, method", [("mc_line_2d", "projection"),
                                                  ("line_2d", "restricted_gain")])
    def test_same_seed_gives_identical_reports(self, scenario, method):
        config = load_bundled_scenario(scenario)
        first, second = (empirical_covariance_check(config, method, trials=2000, seed=9)
                         for _ in range(2))
        for field in dataclasses.fields(first):
            a, b = getattr(first, field.name), getattr(second, field.name)
            assert np.array_equal(a, b), field.name


class TestArrayStep:
    """``run._step`` on a ``(T, n)`` stack of means against ``advance_method``
    once per mean."""

    @pytest.mark.parametrize("feedback", [True, False])
    @pytest.mark.parametrize("method", load_bundled_scenario("line_2d").methods,
                             ids=lambda spec: spec.label)
    def test_stacked_means_match_separate_runs(self, method, feedback):
        config = dataclasses.replace(load_bundled_scenario("line_2d"), feedback=feedback)
        rng = np.random.default_rng(29)
        start = config.initial_estimate
        means = start.mean + 0.3 * rng.standard_normal((50, start.dim))
        states = [StateEstimate(mean, start.covariance) for mean in means]
        cov = start.covariance
        for k in range(config.steps):
            model = config.model_at(k)
            z = 0.5 * rng.standard_normal((len(states), model.measurement_dim))
            (reported, reported_cov), (means, cov), _ = run._step(
                means, cov, z, model, method, config
            )
            got = []
            for t, state in enumerate(states):
                estimate, states[t] = advance_method(
                    state, Measurement(z[t], step=k + 1), model, method, config
                )
                got.append(estimate.mean)
                assert np.array_equal(reported_cov, estimate.covariance)
                assert np.array_equal(cov, states[t].covariance)
            # relative to the largest mean of the step, as report columns are
            for stacked, single in ((reported, np.array(got)),
                                    (means, np.array([s.mean for s in states]))):
                assert np.abs(stacked - single).max() <= 1e-12 * np.abs(single).max()

    @pytest.mark.parametrize("feedback", [True, False])
    def test_an_indefinite_posterior_raises_the_typed_error(self, feedback, monkeypatch):
        config = dataclasses.replace(load_bundled_scenario("line_2d"), feedback=feedback)
        spec = next(s for s in config.methods if s.name == "fusion")
        # the fusion mean stage returns the posterior covariance it solved for
        n = config.state_dim
        monkeypatch.setattr(
            kalman, "_fusion_solve", lambda stage, mean, *_: (mean, -stage[0][:n, :n])
        )
        z = Measurement(np.ones(2), step=1)
        with pytest.raises(IndefiniteCovariance, match="fusion posterior"):
            advance_method(config.initial_estimate, z, config.model_at(0), spec, config)
        with pytest.raises(IndefiniteCovariance, match="fusion posterior"):
            empirical_covariance_check(config, spec, trials=1000)

    def test_zero_innovation_row_takes_the_identity_projection(self):
        config = load_bundled_scenario("line_2d")
        spec = next(s for s in config.methods if s.name == "restricted_gain")
        model, c = config.model_at(0), config.constraint
        start = config.initial_estimate
        rng = np.random.default_rng(31)
        means = start.mean + 0.3 * rng.standard_normal((4, start.dim))
        predicted = means @ model.transition.T
        z = predicted @ model.observation.T + 0.2 * rng.standard_normal((4, 2))
        z[1] = predicted[1] @ model.observation.T  # a zero innovation
        (reported, cov), _, _ = run._step(means, start.covariance, z, model, spec, config)
        assert np.isfinite(reported).all()
        for t in range(4):
            pred = predict(StateEstimate(means[t], start.covariance), model)
            measurement = Measurement(z[t], step=1)
            post, _ = update_joseph(pred, measurement, model)
            projected = project(post, c, ProjectionSpec(weight=IDENTITY)).estimate
            assert np.array_equal(cov, projected.covariance)
            if t == 1:
                with pytest.raises(DegenerateResidual):
                    restricted_gain_update(pred, measurement, model, c)
                assert rel(reported[t], projected.mean) < 1e-12
            else:
                _, result = restricted_gain_update(pred, measurement, model, c)
                assert rel(reported[t], result.estimate.mean) < 1e-12
