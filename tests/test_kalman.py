"""Unconstrained filter: prediction, innovation, and the two equivalent
update forms."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqkf import (
    EqualityConstraint,
    InnovationStats,
    Measurement,
    StateEstimate,
    SystemModel,
    augmented_update,
    fusion_constrained_update,
    innovate,
    predict,
    restricted_gain_update,
    soft_augmented_update,
    update_fusion,
    update_joseph,
)
from eqkf.errors import (
    DimensionMismatch,
    FilterError,
    IndefiniteCovariance,
    SingularAugmentedInnovation,
    SingularInnovationCovariance,
)
from eqkf import kalman, matops
from eqkf.matops import min_eigenvalue
from eqkf.oracle import random_constrained_instance, random_kalman_instance

from helpers import estimate, rel, scaled_instance


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

    @pytest.mark.parametrize("n", [1, 2, 3, 96])
    def test_covariance_check_measures_what_the_public_helpers_measure(self, n):
        # the check works on the array it is given, without the public
        # coercion, and must still report min_eigenvalue's figure bit for bit
        rng = np.random.default_rng(n)
        for trial in range(20):
            g = rng.standard_normal((n, n))
            cov = g @ g.T if trial % 2 else g[:, : max(n - 1, 1)] @ g[:, : max(n - 1, 1)].T
            if trial % 4 == 3:
                cov[0, -1] += 1e-13 * np.abs(cov).max()  # within the allowance
            low, asym = kalman._check_covariance(cov, "c")
            assert low == min_eigenvalue(cov)
            assert asym == np.abs(cov - cov.T).max()

    def test_covariance_check_still_rejects_beyond_its_allowances(self):
        with pytest.raises(ValueError, match="not symmetric"):
            kalman._check_covariance(np.array([[1.0, 0.0], [1e-6, 1.0]]), "c")
        with pytest.raises(ValueError, match="not positive semidefinite"):
            kalman._check_covariance(np.diag([1.0, -1e-6]), "c")
        # a negative eigenvalue within -1e-9 trace - 1e-12 max(1, max |c|) passes
        assert kalman._check_covariance(np.diag([1.0, -1e-10]), "c")[0] < 0.0
        with pytest.raises(ValueError, match="not positive definite"):
            kalman._check_covariance(np.diag([1.0, 0.0]), "c", require_pd=True)

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

    @pytest.mark.parametrize("seed", [27, 37])
    def test_a_numerically_singular_s_raises_on_both_gain_paths(self, seed):
        # With R = 0 and m = 3 > n = 2, S = H P H' is singular, yet its
        # Cholesky factorization succeeds through roundoff: the smallest
        # relative pivot l_ii^2 / s_ii is 4.1e-16 (seed 27) or 6.2e-14 (seed 37)
        pred, model, z = random_kalman_instance(seed)
        model = dataclasses.replace(model, measurement_noise=np.zeros((3, 3)))
        assert (pred.dim, model.measurement_dim) == (2, 3)
        for call in (
            lambda: update_joseph(pred, z, model),
            lambda: kalman._joseph(pred.covariance, model.observation, model.measurement_noise),
        ):
            with pytest.raises(SingularInnovationCovariance, match="numerically singular") as info:
                call()
            assert type(info.value) is SingularInnovationCovariance

    def test_a_badly_scaled_but_regular_s_is_accepted(self):
        # S = diag(1, 1e13) has condition 1e13, but its equilibrated form is I:
        # the guard judges S's rows relative to their own scale
        pred = estimate([0.0, 0.0], np.eye(2))
        model = SystemModel(np.eye(2), np.zeros((2, 2)), np.eye(2), np.diag([0.0, 1e13 - 1.0]))
        innov = innovate(pred, Measurement([1.0, 1.0], 1), model)
        assert_allclose(innov.gain, np.diag([1.0, 1e-13]))

    def test_the_s_guard_refuses_no_well_conditioned_s_and_every_singular_one(self):
        # The guard's estimate m / min(l_ii^2 / s_ii) is at most m times the
        # 2-norm condition of the equilibrated S, so an S whose condition is
        # at most CONDITION_LIMIT / m is never refused.  An S whose condition
        # passes 1 / eps is singular at working precision; the scaled probe
        # has such S on both gain paths, the update's and the soft update's
        # stacked [H; A] with noise R + 0.25 I.  In between the guard may go
        # either way, as the Gram and weight guards do.  Kept S include some
        # whose raw condition passes CONDITION_LIMIT: the rows are judged on
        # their own scale.
        eps = np.finfo(float).eps
        refused = singular = ill_scaled = 0
        for seed in [*range(1000), 2569]:
            pred, model, z, c = scaled_instance(seed)
            m, q = model.measurement_dim, c.constraint_dim
            stacked = np.block([
                [model.measurement_noise, np.zeros((m, q))],
                [np.zeros((q, m)), 0.25 * np.eye(q)],
            ])
            for h, r in (
                (model.observation, model.measurement_noise),
                (np.vstack([model.observation, c.matrix]), stacked),
            ):
                s = h @ pred.covariance @ h.T + r
                d = 1.0 / np.sqrt(np.diag(s))
                cond = np.linalg.cond(d[:, None] * s * d)
                singular += cond > 1.0 / eps
                try:
                    kalman._gain(pred.covariance, h, r)
                except SingularInnovationCovariance:
                    refused += 1
                    assert cond > matops.CONDITION_LIMIT / len(s)
                else:
                    assert cond <= 1.0 / eps
                    ill_scaled += np.linalg.cond(s) > matops.CONDITION_LIMIT
        assert singular and refused > singular and ill_scaled

    def test_a_probe_s_singular_at_working_precision_is_refused_by_every_gain_update(self):
        # Scaled-probe seed 2569: P has eigenvalues 1.6e2 to 4.3e16 and R is
        # of order 1, so S = H P H' + R is regular, but the roundoff of H P H'
        # swamps R: the equilibrated S has condition 4.1e17.  Without the
        # guard update_joseph returned a mean 130 % away from the information
        # form's, which does not form S and still updates.
        pred, model, z, c = scaled_instance(2569)
        for call, error in (
            (lambda: update_joseph(pred, z, model), SingularInnovationCovariance),
            (lambda: kalman._joseph(pred.covariance, model.observation,
                                    model.measurement_noise), SingularInnovationCovariance),
            (lambda: augmented_update(pred, z, model, c), SingularAugmentedInnovation),
            (lambda: restricted_gain_update(pred, z, model, c), SingularInnovationCovariance),
            (lambda: soft_augmented_update(pred, z, model, c, 0.25 * np.eye(1)),
             SingularAugmentedInnovation),
        ):
            with pytest.raises(error) as raised:
                call()
            assert type(raised.value) is error
        assert np.isfinite(update_fusion(pred, z, model).mean).all()
        assert fusion_constrained_update(pred, z, model, c).estimate.dim == pred.dim


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

    def test_singular_prediction_covariance_agrees_with_joseph(self):
        # P need not be invertible: only the saddle matrix must be regular
        for seed in range(40):
            pred, model, z = random_kalman_instance(seed)
            vals, vecs = np.linalg.eigh(pred.covariance)
            vals[0] = 0.0
            p = (vecs * vals) @ vecs.T
            singular = StateEstimate(pred.mean, 0.5 * (p + p.T), pred.step)
            joseph, _ = update_joseph(singular, z, model)
            fused = update_fusion(singular, z, model)
            assert rel(fused.mean, joseph.mean) < 1e-9
            assert rel(fused.covariance, joseph.covariance) < 1e-9

    def test_noise_free_measurement_agrees_with_joseph(self):
        # R = 0 with at most n measured rows; the posterior may be zero, so
        # the covariance is compared on the scale of the prediction
        checked = 0
        for seed in range(40):
            pred, model, z = random_kalman_instance(seed)
            if model.measurement_dim > pred.dim:
                continue
            exact = dataclasses.replace(
                model, measurement_noise=np.zeros_like(model.measurement_noise)
            )
            joseph, _ = update_joseph(pred, z, exact)
            fused = update_fusion(pred, z, exact)
            assert np.linalg.norm(fused.mean - joseph.mean) <= 1e-9 * (
                1.0 + np.linalg.norm(joseph.mean)
            )
            gap = np.abs(fused.covariance - joseph.covariance).max()
            assert gap <= 1e-9 * np.abs(pred.covariance).max()
            checked += 1
        assert checked >= 30

    def test_factors_the_saddle_matrix_once(self, monkeypatch):
        factored = []
        sytrf = matops._SYTRF

        def counting_sytrf(*args, **kwargs):
            factored.append(args[0].shape)
            return sytrf(*args, **kwargs)

        monkeypatch.setattr(matops, "_SYTRF", counting_sytrf)
        pred, model, z = random_kalman_instance(0)
        update_fusion(pred, z, model)
        k = 2 * pred.dim + z.dim
        assert factored == [(k, k)]

    def test_is_constrained_fusion_without_constraint_rows(self):
        for seed in range(40):
            pred, model, z = random_kalman_instance(seed)
            empty = EqualityConstraint(np.zeros((0, pred.dim)), np.zeros(0))
            fused = update_fusion(pred, z, model)
            result = fusion_constrained_update(pred, z, model, empty)
            assert np.array_equal(fused.mean, result.estimate.mean)
            assert np.array_equal(fused.covariance, result.estimate.covariance)


def test_posterior_never_exceeds_prior():
    """The update can only remove uncertainty: P_prior - P_post stays PSD."""
    for seed in range(40):
        pred, model, z = random_kalman_instance(seed)
        est, _ = update_joseph(pred, z, model)
        gap = pred.covariance - est.covariance
        assert min_eigenvalue(gap) >= -1e-9 * np.trace(pred.covariance)


def test_joseph_covariance_is_exactly_symmetric():
    for seed in range(50):
        pred, model, z = random_kalman_instance(seed)
        est, _ = update_joseph(pred, z, model)
        assert est.cov_asym == 0.0, seed


def test_prediction_covariance_is_exactly_symmetric():
    for seed in range(50):
        est, model, _ = random_kalman_instance(seed)
        rng = np.random.default_rng((seed, 2))
        transition = rng.standard_normal((est.dim, est.dim))
        moved = dataclasses.replace(model, transition=transition)
        assert predict(est, moved).cov_asym == 0.0, seed


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


@pytest.mark.parametrize("call, mean_scale, f_scale, h_scale, error, message", [
    pytest.param(lambda pred, z, model: predict(pred, model), 1e300, 1e10, 1.0,
                 IndefiniteCovariance, "prediction: mean has non-finite entries",
                 id="predict"),
    pytest.param(innovate, 1e300, 1.0, 1e10,
                 FilterError, "innovation: residual z - H x has non-finite entries",
                 id="innovate"),
    pytest.param(update_joseph, 1e300, 1.0, 1e10,
                 FilterError, "innovation: residual z - H x has non-finite entries",
                 id="update_joseph"),
    pytest.param(update_fusion, 1e300, 1.0, 1e10,
                 IndefiniteCovariance, "posterior: mean has non-finite entries",
                 id="update_fusion"),
    pytest.param(update_fusion, 1e308, 1.0, 1.0,
                 IndefiniteCovariance, "posterior: mean has non-finite entries",
                 id="update_fusion-refinement"),
    # S = H P H' + R overflows to inf, whose relative pivot inf / inf is NaN
    pytest.param(update_joseph, 1.0, 1.0, 1e160,
                 SingularInnovationCovariance, "numerically singular",
                 id="update_joseph-overflowing-s"),
    pytest.param(lambda pred, z, model: _joseph_as_run(pred, model), 1.0, 1.0, 1e160,
                 SingularInnovationCovariance, "numerically singular",
                 id="run-joseph-overflowing-s"),
])
def test_an_overflowing_input_raises_a_typed_error_and_no_warning(
    call, mean_scale, f_scale, h_scale, error, message
):
    # The suite turns warnings into errors, so an overflow inside the call
    # that surfaced as a RuntimeWarning would fail here.
    pred, model, z, _ = random_constrained_instance(3)
    huge = StateEstimate(pred.mean * mean_scale, pred.covariance, pred.step)
    scaled = dataclasses.replace(model, transition=f_scale * model.transition,
                                 observation=h_scale * model.observation)
    with pytest.raises(error, match=message) as raised:
        call(huge, z, scaled)
    # Where S is positive definite the residual must not read as a singular
    # innovation covariance (a subclass of FilterError).
    assert type(raised.value) is error


def _joseph_as_run(pred, model):
    """The covariance stage a scenario run takes for an update, under the
    run's ``np.errstate(over="ignore")``."""
    with np.errstate(over="ignore"):
        return kalman._joseph(pred.covariance, model.observation, model.measurement_noise)
