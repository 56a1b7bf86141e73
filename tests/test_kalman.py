"""Unconstrained filter: prediction, innovation, and the two equivalent
update forms."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqkf import (
    InnovationStats,
    Measurement,
    StateEstimate,
    SystemModel,
    innovate,
    predict,
    update_fusion,
    update_joseph,
)
from eqkf.errors import DimensionMismatch, SingularInnovationCovariance
from eqkf import kalman
from eqkf.matops import min_eigenvalue, solve_spd
from eqkf.oracle import random_kalman_instance

from helpers import estimate, rel


class TestConstruction:
    def test_state_estimate_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            StateEstimate([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_state_estimate_rejects_indefinite_covariance(self):
        # eigenvalues -1 and 3
        with pytest.raises(ValueError):
            StateEstimate([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_state_estimate_allows_singular_covariance(self):
        # hard-constrained posteriors are rank deficient by design
        est = StateEstimate([1.0, -1.0], [[0.5, -0.5], [-0.5, 0.5]])
        assert est.dim == 2

    def test_state_estimate_rejects_non_finite_mean(self):
        with pytest.raises(ValueError):
            StateEstimate([np.nan, 0.0], np.eye(2))

    def test_system_model_rejects_asymmetric_process_noise(self):
        with pytest.raises(ValueError):
            SystemModel(np.eye(2), [[1.0, 0.2], [0.0, 1.0]], [[1.0, 0.0]], [[1.0]])

    def test_system_model_rejects_indefinite_measurement_noise(self):
        with pytest.raises(ValueError):
            SystemModel(np.eye(2), np.eye(2), [[1.0, 0.0]], [[-1.0]])

    def test_system_model_rejects_mismatched_observation(self):
        with pytest.raises(ValueError):
            SystemModel(np.eye(2), np.eye(2), [[1.0, 0.0, 0.0]], [[1.0]])

    def test_measurement_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Measurement([np.inf], step=1)

    def test_state_estimate_keeps_the_figures_its_check_computed(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 6):
            g = rng.standard_normal((n, n))
            cov = g @ g.T
            cov[0, -1] += 1e-13  # asymmetry within the check's allowance
            est = StateEstimate(np.zeros(n), cov)
            assert est.cov_min_eig == min_eigenvalue(est.covariance)
            assert est.cov_asym == float(np.abs(cov - cov.T).max())
            # the figures are not fields: equality and repr are unchanged
            assert [f.name for f in dataclasses.fields(est)] == ["mean", "covariance", "step"]
            assert "cov_" not in repr(est)

    def test_innovation_stats_require_positive_definite_covariance(self):
        with pytest.raises(ValueError):
            InnovationStats([1.0], [[0.0]], [[0.5], [0.0]])


class TestPredict:
    def test_identity_dynamics_leave_estimate_unchanged(self):
        est = estimate([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]], step=4)
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]])
        out = predict(est, model)
        assert_allclose(out.mean, est.mean)
        assert_allclose(out.covariance, est.covariance)
        assert out.step == 5

    def test_shear_dynamics(self):
        est = estimate([1.0, 2.0], np.eye(2))
        model = SystemModel([[1.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)),
                            [[1.0, 0.0]], [[1.0]])
        out = predict(est, model)
        assert_allclose(out.mean, [3.0, 2.0])
        assert_allclose(out.covariance, [[2.0, 1.0], [1.0, 1.0]])

    def test_zero_transition_injects_pure_noise(self):
        q = np.array([[0.3, 0.1], [0.1, 0.2]])
        est = estimate([5.0, -3.0], np.eye(2))
        model = SystemModel(np.zeros((2, 2)), q, [[1.0, 0.0]], [[1.0]])
        out = predict(est, model)
        assert_allclose(out.mean, [0.0, 0.0])
        assert_allclose(out.covariance, q)

    def test_dimension_mismatch(self):
        est = estimate([1.0, 2.0, 3.0], np.eye(3))
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            predict(est, model)


class TestInnovate:
    def test_scalar_equal_variances(self):
        pred = estimate([0.0], [[1.0]])
        model = SystemModel([[1.0]], [[0.0]], [[1.0]], [[1.0]])
        innov = innovate(pred, Measurement([2.0], 1), model)
        assert_allclose(innov.residual, [2.0])
        assert_allclose(innov.residual_cov, [[2.0]])
        assert_allclose(innov.gain, [[0.5]])

    def test_partial_observation(self):
        pred = estimate([0.0, 0.0], np.eye(2))
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]])
        innov = innovate(pred, Measurement([2.0], 1), model)
        assert_allclose(innov.residual, [2.0])
        assert_allclose(innov.residual_cov, [[2.0]])
        assert_allclose(innov.gain, [[0.5], [0.0]])

    @pytest.mark.parametrize(
        "cov, observation, noise",
        [
            # observation row of zeros with zero noise leaves nothing to filter
            (np.eye(2), [[0.0, 0.0]], [[0.0]]),
            # rank-one S whose Cholesky factorization succeeds through roundoff
            (np.outer([0.7, 0.1], [0.7, 0.1]), np.eye(2), np.zeros((2, 2))),
        ],
        ids=["zero_observation", "roundoff_cholesky"],
    )
    def test_degenerate_residual_covariance(self, cov, observation, noise):
        pred = estimate([0.0, 0.0], cov)
        model = SystemModel(np.eye(2), np.zeros((2, 2)), observation, noise)
        with pytest.raises(SingularInnovationCovariance):
            innovate(pred, Measurement(np.ones(len(observation)), 1), model)


class TestUpdateJoseph:
    def test_scalar_equal_variance_fusion(self):
        """Equal prior and measurement variance meet at the midpoint with
        half the variance."""
        pred = estimate([0.0], [[1.0]])
        model = SystemModel([[1.0]], [[0.0]], [[1.0]], [[1.0]])
        est, innov = update_joseph(pred, Measurement([2.0], 1), model)
        assert_allclose(est.mean, [1.0])
        assert_allclose(est.covariance, [[0.5]])
        assert_allclose(innov.gain, [[0.5]])

    def test_uninformative_measurement_changes_nothing(self):
        pred = estimate([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[1e12]])
        est, _ = update_joseph(pred, Measurement([100.0], 1), model)
        assert rel(est.mean, pred.mean) < 1e-3
        assert rel(est.covariance, pred.covariance) < 1e-3

    def test_partial_observation_posterior(self):
        pred = estimate([0.0, 0.0], np.eye(2))
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]])
        est, _ = update_joseph(pred, Measurement([2.0], 1), model)
        assert_allclose(est.mean, [1.0, 0.0])
        assert_allclose(est.covariance, [[0.5, 0.0], [0.0, 1.0]])

    def test_matches_simple_form_with_optimal_gain(self):
        for seed in range(25):
            pred, model, z = random_kalman_instance(seed)
            est, innov = update_joseph(pred, z, model)
            i_kh = np.eye(pred.dim) - innov.gain @ model.observation
            simple = i_kh @ pred.covariance
            assert rel(est.covariance, 0.5 * (simple + simple.T)) < 1e-9


class TestUpdateFusion:
    def test_scalar_equal_variance_fusion(self):
        pred = estimate([0.0], [[1.0]])
        model = SystemModel([[1.0]], [[0.0]], [[1.0]], [[1.0]])
        est = update_fusion(pred, Measurement([2.0], 1), model)
        assert_allclose(est.mean, [1.0])
        assert_allclose(est.covariance, [[0.5]])

    def test_agrees_with_joseph_update(self):
        for seed in range(40):
            pred, model, z = random_kalman_instance(seed)
            joseph, _ = update_joseph(pred, z, model)
            fused = update_fusion(pred, z, model)
            assert np.linalg.norm(fused.mean - joseph.mean) <= 1e-8 * (
                1.0 + np.linalg.norm(joseph.mean)
            )
            assert rel(fused.covariance, joseph.covariance) < 1e-8

    def test_rejects_empty_measurement_model(self):
        pred = estimate([0.0, 0.0], np.eye(2))
        model = SystemModel(np.eye(2), np.zeros((2, 2)),
                            np.zeros((0, 2)), np.zeros((0, 0)))
        with pytest.raises(DimensionMismatch):
            update_fusion(pred, Measurement(np.zeros(0), 1), model)

    def test_factors_each_matrix_once(self, monkeypatch):
        # one solve for the stacked noise, one for the normal matrix
        factored = []

        def counting_solve_spd(m, rhs, **kwargs):
            factored.append(kwargs["name"])
            return solve_spd(m, rhs, **kwargs)

        monkeypatch.setattr(kalman, "solve_spd", counting_solve_spd)
        pred, model, z = random_kalman_instance(0)
        update_fusion(pred, z, model)
        assert factored == ["stacked noise covariance", "fusion normal matrix"]


def test_posterior_never_exceeds_prior():
    """The update can only remove uncertainty: P_prior - P_post stays PSD."""
    for seed in range(40):
        pred, model, z = random_kalman_instance(seed)
        est, _ = update_joseph(pred, z, model)
        gap = pred.covariance - est.covariance
        assert min_eigenvalue(gap) >= -1e-9 * np.trace(pred.covariance)


def test_symmetry_survives_long_recursions():
    rng = np.random.default_rng(61)
    n = 4
    ortho, _ = np.linalg.qr(rng.standard_normal((n, n)))
    model = SystemModel(0.95 * ortho, 0.01 * np.eye(n),
                        rng.standard_normal((1, n)), [[1.0]])
    state = estimate(rng.standard_normal(n), np.eye(n))
    worst = 0.0
    for k in range(1, 1001):
        pred = predict(state, model)
        state, _ = update_joseph(pred, Measurement(rng.standard_normal(1), k), model)
        p = state.covariance
        worst = max(worst, np.abs(p - p.T).max() / max(np.abs(p).max(), 1e-300))
    assert worst <= 1e-12
