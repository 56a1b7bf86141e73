"""Constrained update methods: augmentation, projection, restricted gain,
fusion, the stable covariance forms, linearization, and soft constraints."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eqkf import (
    IDENTITY,
    EqualityConstraint,
    Measurement,
    NonlinearConstraint,
    ProjectionSpec,
    StateEstimate,
    SystemModel,
    augmented_update,
    block_s_inverse,
    constrain_posterior,
    fusion_constrained_update,
    gamma_projector,
    innovate,
    joseph_constrained_cov,
    linearize,
    project,
    restricted_gain_update,
    soft_augmented_update,
    solve_lagrange_system,
    update_fusion,
    update_joseph,
)
from eqkf import constrained, kalman, matops
from eqkf.errors import (
    DegenerateResidual,
    DimensionMismatch,
    FilterError,
    IndefiniteCovariance,
    RankDeficientJacobian,
    SingularAugmentedInnovation,
    SingularConstraintGram,
    SingularCovariance,
    SingularInnovationCovariance,
    SingularWeight,
)
from eqkf.matops import min_eigenvalue, pseudo_inverse
from eqkf.oracle import dense_lagrange_solve, random_constrained_instance

from helpers import estimate, line_constraint, rel, scaled_instance, worked_planar_instance


class TestEqualityConstraint:
    def test_rejects_dependent_rows(self):
        with pytest.raises(ValueError):
            EqualityConstraint([[1.0, 1.0], [2.0, 2.0]], [0.0, 0.0])

    def test_rejects_more_rows_than_states(self):
        with pytest.raises(ValueError):
            EqualityConstraint([[1.0], [0.0], [1.0]], [0.0, 0.0, 0.0])

    def test_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError):
            EqualityConstraint([[1.0, 1.0]], [0.0, 1.0])

    def test_empty_constraint_is_allowed(self):
        c = EqualityConstraint(np.zeros((0, 3)), np.zeros(0))
        assert c.constraint_dim == 0
        assert c.residual_norm([1.0, 2.0, 3.0]) == 0.0

    def test_updates_store_nothing_on_the_constraint(self):
        # every weight is factored inside the projection stage; the frozen
        # constraint holds its two fields and nothing computed from them
        for seed in range(5):
            pred, model, z, c = random_constrained_instance(seed)
            post, _ = update_joseph(pred, z, model)
            _hard_results(pred, z, model, c)
            project(post, c, ProjectionSpec(IDENTITY))
            innov = innovate(pred, z, model)
            solve_lagrange_system(innov, c, c.matrix @ post.mean - c.rhs)
            assert set(vars(c)) == {"matrix", "rhs"}


class TestConstrainPosterior:
    def test_weighted_pull_onto_line(self):
        est = estimate([1.0, 2.0], np.diag([2.0, 1.0]))
        result = constrain_posterior(est, line_constraint(b=2.0))
        assert_allclose(result.estimate.mean, [1.0 / 3.0, 5.0 / 3.0])
        assert_allclose(
            result.estimate.covariance,
            [[2.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 2.0 / 3.0]],
        )

    def test_feasible_mean_is_kept_but_covariance_shrinks(self):
        est = estimate([1.5, 0.5], [[1.0, 0.2], [0.2, 1.0]])
        result = constrain_posterior(est, line_constraint(b=2.0))
        assert_allclose(result.estimate.mean, est.mean, atol=1e-12)
        shrunk = est.covariance - result.estimate.covariance
        assert np.trace(shrunk) > 0.1
        assert min_eigenvalue(shrunk) >= -1e-12

    def test_symmetric_split(self):
        est = estimate([1.0, 1.0], np.eye(2))
        result = constrain_posterior(est, line_constraint(b=1.0))
        assert_allclose(result.estimate.mean, [0.5, 0.5])

    def test_reports_residual_norm(self):
        est = estimate([1.0, 2.0], np.diag([2.0, 1.0]))
        result = constrain_posterior(est, line_constraint(b=2.0))
        assert result.constraint_residual <= 1e-9 * 3.0

    def test_constraint_removing_the_dominant_direction(self):
        # Eigenvalues 0.035 and 3.1e11, and the correction removes the
        # dominant direction: the one-sided form P - U A P loses positive
        # semidefiniteness to roundoff here, the congruence does not.
        est = estimate(
            [0.843536486587014, 1.6841726590437673],
            [[89183922141.33092, 140154622575.37872],
             [140154622575.37872, 220256272180.18976]],
        )
        c = EqualityConstraint(
            [[-0.9938529270808698, 0.11070844291555888]], [0.42929041521867034]
        )
        result = constrain_posterior(est, c)
        assert c.residual_norm(result.estimate.mean) <= 1e-9
        p, a = est.covariance, c.matrix
        dense = p - p @ a.T @ np.linalg.solve(a @ p @ a.T, a @ p)
        gap = np.linalg.norm(result.estimate.covariance - dense)
        assert gap <= 1e-9 * np.linalg.norm(p)


class TestAugmentedUpdate:
    def test_planar_worked_values(self):
        pred, z, model, c = worked_planar_instance()
        result = augmented_update(pred, z, model, c)
        assert_allclose(result.estimate.mean, [2.0 / 3.0, -2.0 / 3.0])
        assert_allclose(
            result.estimate.covariance,
            [[1.0 / 3.0, -1.0 / 3.0], [-1.0 / 3.0, 1.0 / 3.0]],
        )

    def test_matches_posterior_projection(self):
        pred, z, model, c = worked_planar_instance()
        post, _ = update_joseph(pred, z, model)
        direct = constrain_posterior(post, c)
        result = augmented_update(pred, z, model, c)
        assert rel(result.estimate.mean, direct.estimate.mean) < 1e-8
        assert rel(result.estimate.covariance, direct.estimate.covariance) < 1e-8

    def test_rhs_matching_the_posterior_changes_nothing(self):
        # the unconstrained posterior is [1, 0]; a right-hand side of 1
        # makes it already feasible
        pred, z, model, _ = worked_planar_instance()
        result = augmented_update(pred, z, model, line_constraint(b=1.0))
        assert_allclose(result.estimate.mean, [1.0, 0.0], atol=1e-12)

    def test_full_rank_constraint_determines_the_state(self):
        pred, z, model, _ = worked_planar_instance()
        c = EqualityConstraint(np.eye(2), [0.7, -0.2])
        result = augmented_update(pred, z, model, c)
        assert_allclose(result.estimate.mean, [0.7, -0.2], atol=1e-10)
        assert np.abs(result.estimate.covariance).max() < 1e-10

    def test_without_constraint_rows_is_update_joseph_bit_for_bit(self):
        instances = [worked_planar_instance()[:3]] + [
            (pred, z, model) for pred, model, z, _ in map(random_constrained_instance, range(50))
        ]
        for pred, z, model in instances:
            empty = EqualityConstraint(np.zeros((0, pred.dim)), np.zeros(0))
            result = augmented_update(pred, z, model, empty)
            plain, _ = update_joseph(pred, z, model)
            assert np.array_equal(result.estimate.mean, plain.mean)
            assert np.array_equal(result.estimate.covariance, plain.covariance)
            assert result.constraint_residual == 0.0

    @pytest.mark.parametrize("rows, error", [
        (0, SingularInnovationCovariance), (1, SingularAugmentedInnovation),
    ])
    def test_a_singular_innovation_covariance_raises(self, rows, error):
        # H = 0 and R = 0: S = 0.  With no rows augmentation is the plain update.
        pred = estimate([0.3, -0.3], 0.5 * np.eye(2), step=1)
        model = SystemModel(np.eye(2), 0.01 * np.eye(2), [[0.0, 0.0]], [[0.0]])
        c = line_constraint() if rows else EqualityConstraint(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(error) as info:
            augmented_update(pred, Measurement([0.0], step=1), model, c)
        assert type(info.value) is error


class TestBlockSInverse:
    def test_decoupled_constraint_and_observation(self):
        """When A P H' = 0 the stacked covariance is block diagonal and the
        off-diagonal inverse blocks vanish."""
        pred = estimate([0.0, 0.0], np.eye(2), step=1)
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[0.0, 1.0]], [[1.0]])
        c = EqualityConstraint([[1.0, 0.0]], [0.0])
        innov = innovate(pred, Measurement([1.0], 1), model)
        blocks = block_s_inverse(pred.covariance, model, c, innov)
        assert_allclose(blocks.upper_left, [[0.5]], atol=1e-12)
        assert_allclose(blocks.upper_right, [[0.0]], atol=1e-12)
        assert_allclose(blocks.lower_left, [[0.0]], atol=1e-12)
        assert_allclose(blocks.lower_right, [[1.0]], atol=1e-12)

    def test_matches_dense_inverse(self):
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed, n_max=6,
                                                            m_max=3, q_max=2)
            innov = innovate(pred, z, model)
            blocks = block_s_inverse(pred.covariance, model, c, innov)
            p = pred.covariance
            h, a = model.observation, c.matrix
            stacked = np.block([
                [innov.residual_cov, h @ p @ a.T],
                [a @ p @ h.T, a @ p @ a.T],
            ])
            assert rel(blocks.assemble(), np.linalg.inv(stacked)) < 1e-9

    def test_product_with_stacked_covariance_is_identity(self):
        pred, model, z, c = random_constrained_instance(3)
        innov = innovate(pred, z, model)
        blocks = block_s_inverse(pred.covariance, model, c, innov)
        p = pred.covariance
        h, a = model.observation, c.matrix
        stacked = np.block([
            [innov.residual_cov, h @ p @ a.T],
            [a @ p @ h.T, a @ p @ a.T],
        ])
        m = model.measurement_dim + c.constraint_dim
        assert rel(blocks.assemble() @ stacked, np.eye(m)) < 1e-9

    def test_blocks_of_the_symmetric_stack_are_transpose_paired(self):
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed)
            innov = innovate(pred, z, model)
            blocks = block_s_inverse(pred.covariance, model, c, innov)
            assert rel(blocks.upper_left, blocks.upper_left.T) < 1e-12
            assert rel(blocks.lower_right, blocks.lower_right.T) < 1e-12
            assert rel(blocks.lower_left, blocks.upper_right.T) < 1e-12

    def test_lower_right_inverts_the_posterior_constraint_gram(self):
        # the Schur complement of S in the stack is A P_post A'
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed)
            innov = innovate(pred, z, model)
            blocks = block_s_inverse(pred.covariance, model, c, innov)
            post, _ = update_joseph(pred, z, model)
            gram = c.matrix @ post.covariance @ c.matrix.T
            assert rel(blocks.lower_right, np.linalg.inv(gram)) < 1e-9

    def test_upper_left_inverts_the_schur_complement_of_the_constraint_block(self):
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed)
            innov = innovate(pred, z, model)
            blocks = block_s_inverse(pred.covariance, model, c, innov)
            p, h, a = pred.covariance, model.observation, c.matrix
            cross = h @ p @ a.T
            schur = innov.residual_cov - cross @ np.linalg.solve(a @ p @ a.T, cross.T)
            assert rel(blocks.upper_left, np.linalg.inv(schur)) < 1e-9

    def test_a_constraint_the_measurement_pins_exactly_raises(self):
        # H = A = [1, 0] with R = 0: the stack [[1, 1], [1, 1]] is singular
        pred = estimate([0.0, 0.0], np.eye(2), step=1)
        model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[0.0]])
        c = EqualityConstraint([[1.0, 0.0]], [0.0])
        innov = innovate(pred, Measurement([1.0], 1), model)
        with pytest.raises(SingularConstraintGram):
            block_s_inverse(pred.covariance, model, c, innov)

    def test_rejects_shapes_that_do_not_match_the_model(self):
        pred, model, z, c = random_constrained_instance(3)
        innov = innovate(pred, z, model)
        n = model.state_dim
        with pytest.raises(DimensionMismatch):
            block_s_inverse(np.eye(n + 1), model, c, innov)
        wide = EqualityConstraint(np.hstack([c.matrix, np.ones((c.constraint_dim, 1))]), c.rhs)
        with pytest.raises(DimensionMismatch):
            block_s_inverse(pred.covariance, model, wide, innov)


# The identity weight, as an explicit matrix and as the marker.
IDENTITY_WEIGHTS = pytest.mark.parametrize(
    "identity_weight", [np.eye, lambda n: IDENTITY], ids=["matrix", "marker"]
)


class TestProject:
    @IDENTITY_WEIGHTS
    def test_euclidean_projection_by_symmetry(self, identity_weight):
        est = estimate([1.0, 1.0], np.eye(2))
        spec = ProjectionSpec(weight=identity_weight(2))
        result = project(est, line_constraint(b=1.0), spec)
        assert_allclose(result.estimate.mean, [0.5, 0.5])

    def test_posterior_inverse_weight_equals_direct_constraining(self):
        est = estimate([1.0, 2.0], np.diag([2.0, 1.0]))
        c = line_constraint(b=2.0)
        via_projection = project(est, c)
        direct = constrain_posterior(est, c)
        assert np.array_equal(via_projection.estimate.mean, direct.estimate.mean)
        assert np.array_equal(
            via_projection.estimate.covariance, direct.estimate.covariance
        )

    def test_feasible_mean_is_fixed_point_for_any_weight(self):
        rng = np.random.default_rng(67)
        est = estimate([1.5, 0.5], [[1.0, 0.2], [0.2, 2.0]])
        c = line_constraint(b=2.0)
        for _ in range(10):
            g = rng.standard_normal((2, 2))
            w = g @ g.T + 0.5 * np.eye(2)
            result = project(est, c, ProjectionSpec(weight=w))
            assert_allclose(result.estimate.mean, est.mean, atol=1e-10)

    def test_singular_weight_is_rejected(self):
        # an explicit weight is condition-tested once, when its spec is built
        with pytest.raises(SingularWeight):
            ProjectionSpec(weight=np.diag([1.0, 1e-14]))

    def test_mismatched_weight_dimensions(self):
        est = estimate([1.0, 1.0], np.eye(2))
        spec = ProjectionSpec(weight=np.eye(3))
        with pytest.raises(DimensionMismatch):
            project(est, line_constraint(), spec)

    def test_covariance_stays_symmetric_psd_for_any_weight(self):
        rng = np.random.default_rng(71)
        for seed in range(15):
            pred, model, z, c = random_constrained_instance(seed)
            post, _ = update_joseph(pred, z, model)
            g = rng.standard_normal((post.dim, post.dim))
            w = g @ g.T + 0.5 * np.eye(post.dim)
            result = project(post, c, ProjectionSpec(weight=w))
            cov = result.estimate.covariance
            assert np.array_equal(cov, cov.T)
            assert min_eigenvalue(cov) >= -1e-9 * np.trace(cov)

    def test_posterior_inverse_weight_minimizes_trace(self):
        """The inverse-posterior weight dominates arbitrary weights in
        posterior trace."""
        rng = np.random.default_rng(73)
        for seed in range(15):
            pred, model, z, c = random_constrained_instance(seed)
            post, _ = update_joseph(pred, z, model)
            best = np.trace(constrain_posterior(post, c).estimate.covariance)
            for _ in range(8):
                g = rng.standard_normal((post.dim, post.dim))
                w = g @ g.T + 0.1 * np.eye(post.dim)
                other = project(post, c, ProjectionSpec(weight=w))
                assert best <= np.trace(other.estimate.covariance) + 1e-9


class TestRestrictedGain:
    def test_planar_worked_values(self):
        pred, z, model, c = worked_planar_instance()
        solution, result = restricted_gain_update(pred, z, model, c)
        assert_allclose(solution.gain, [[0.25], [-0.25]])
        assert_allclose(result.estimate.mean, [0.5, -0.5])
        assert_allclose(solution.correction.reshape(2, 1, order="F"), [[-0.25], [-0.25]])
        assert_allclose(solution.multipliers, [0.5])

    def test_feasible_posterior_keeps_the_optimal_gain(self):
        pred, z, model, _ = worked_planar_instance()
        innov = innovate(pred, Measurement([2.0], 1), model)
        solution, _ = restricted_gain_update(pred, z, model, line_constraint(b=1.0))
        assert_allclose(solution.gain, innov.gain, atol=1e-12)
        assert_allclose(solution.correction, np.zeros(2), atol=1e-12)

    def test_zero_innovation_is_degenerate(self):
        pred, _, model, c = worked_planar_instance()
        with pytest.raises(DegenerateResidual):
            restricted_gain_update(pred, Measurement([0.0], 1), model, c)

    def test_a_positive_quadratic_form_below_tolerance_is_degenerate(self):
        pred, model, z, c = random_constrained_instance(3)
        innov = innovate(pred, z, model)
        quad = innov.residual @ np.linalg.solve(innov.residual_cov, innov.residual)
        h = model.observation
        scaled = h @ pred.mean + innov.residual * np.sqrt(1e-13 / quad)
        with pytest.raises(DegenerateResidual):
            restricted_gain_update(pred, Measurement(scaled, 1), model, c)

    def test_an_overflowing_quadratic_form_is_degenerate(self):
        # v' S^-1 v overflows to inf, so w = S^-1 v / quad would vanish and
        # with it the correction that puts the mean on the constraint
        pred, model, z, c = random_constrained_instance(3)
        huge = StateEstimate(pred.mean * 1e300, pred.covariance, pred.step)
        with pytest.raises(DegenerateResidual, match="not finite"):
            restricted_gain_update(huge, z, model, c)
        innov = innovate(huge, z, model)
        post, _ = update_joseph(huge, z, model)
        with np.errstate(over="ignore"):
            posterior_residual = c.matrix @ post.mean - c.rhs
        with pytest.raises(DegenerateResidual):
            solve_lagrange_system(innov, c, posterior_residual)
        projected = project(post, c, ProjectionSpec(IDENTITY)).estimate.mean
        assert np.abs(c.matrix @ projected - c.rhs).max() <= 1e-15 * np.abs(projected).max()

    def test_a_stacked_row_with_an_overflowing_form_takes_the_projection(self):
        pred, model, z, c = random_constrained_instance(3)
        means = np.stack([pred.mean, pred.mean * 1e300], axis=1)
        zs = np.stack([z.value, z.value], axis=1)
        stage = constrained._joseph_stage(
            pred.covariance, model, c.matrix, constrained._IDENTITY_SPEC
        )
        with np.errstate(over="ignore"):
            (mean, _), (plain, _) = constrained._restricted_gain_mean(
                stage, means, zs, model, c.matrix, c.rhs[:, None]
            )
            _, quad = constrained._innovation_weight(stage[0], zs - model.observation @ means)
            # one mean with that form raises, as the public update does
            with pytest.raises(DegenerateResidual, match="not finite"):
                constrained._restricted_gain_mean(
                    stage, means[:, 1], z.value, model, c.matrix, c.rhs
                )
        assert np.isfinite(quad[0]) and np.isinf(quad[1])
        _, single = restricted_gain_update(pred, z, model, c)
        assert_allclose(mean[:, 0], single.estimate.mean, rtol=1e-12, atol=1e-12)
        ups = stage[3][0][0]
        assert_allclose(mean[:, 1], constrained._along(ups, c.matrix, c.rhs, plain[:, 1]),
                        rtol=1e-12)

    @IDENTITY_WEIGHTS
    def test_equals_identity_weight_projection(self, identity_weight):
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed)
            post, _ = update_joseph(pred, z, model)
            spec = ProjectionSpec(weight=identity_weight(post.dim))
            projected = project(post, c, spec)
            _, result = restricted_gain_update(pred, z, model, c)
            scale = 1.0 + np.linalg.norm(projected.estimate.mean)
            gap = np.linalg.norm(result.estimate.mean - projected.estimate.mean)
            assert gap <= 1e-8 * scale
            assert rel(result.estimate.covariance,
                       projected.estimate.covariance) < 1e-8

    def test_corrected_mean_is_feasible(self):
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed)
            _, result = restricted_gain_update(pred, z, model, c)
            scale = 1.0 + np.linalg.norm(c.rhs)
            assert c.residual_norm(result.estimate.mean) <= 1e-9 * scale

    def test_the_returned_gain_lands_the_mean_on_the_constraint(self):
        # with m >= 2 measured rows, unstacking the correction in the wrong
        # order gives a gain that misses the mean by up to 3.0 relative
        several = 0
        for seed in range(200):
            pred, model, z, c = random_constrained_instance(seed)
            if model.measurement_dim < 2:
                continue
            several += 1
            solution, result = restricted_gain_update(pred, z, model, c)
            mean = pred.mean + solution.gain @ innovate(pred, z, model).residual
            scale = 1.0 + np.abs(result.estimate.mean).max()
            assert np.abs(mean - result.estimate.mean).max() <= 1e-12 * scale
            assert np.abs(c.matrix @ mean - c.rhs).max() <= 1e-12 * (1.0 + np.abs(c.rhs).max())
        assert several >= 100

    def test_the_gain_change_is_the_column_major_unstacked_correction(self):
        several = 0
        for seed in range(60):
            pred, model, z, c = random_constrained_instance(seed)
            if model.measurement_dim < 2:
                continue
            several += 1
            solution, _ = restricted_gain_update(pred, z, model, c)
            change = solution.gain - innovate(pred, z, model).gain
            assert_allclose(change.ravel("F"), solution.correction, rtol=0, atol=1e-12)
        assert several >= 20


class TestLagrangeSystem:
    def test_zero_residual_gives_zero_solution(self):
        pred, z, model, c = worked_planar_instance()
        innov = innovate(pred, z, model)
        correction, multipliers = solve_lagrange_system(innov, c, np.zeros(1))
        assert_allclose(correction, np.zeros(2))
        assert_allclose(multipliers, np.zeros(1))

    def test_planar_worked_values(self):
        pred, z, model, c = worked_planar_instance()
        innov = innovate(pred, z, model)
        post, _ = update_joseph(pred, z, model)
        residual = c.matrix @ post.mean - c.rhs
        correction, _ = solve_lagrange_system(innov, c, residual)
        assert_allclose(correction.reshape(2, 1, order="F"), [[-0.25], [-0.25]])

    def test_matches_dense_solve(self):
        for seed in range(30):
            pred, model, z, c = random_constrained_instance(seed, n_max=5,
                                                            m_max=3, q_max=2)
            innov = innovate(pred, z, model)
            post, _ = update_joseph(pred, z, model)
            residual = c.matrix @ post.mean - c.rhs
            fast = solve_lagrange_system(innov, c, residual)
            dense = dense_lagrange_solve(innov, c, residual)
            assert rel(fast[0], dense[0]) < 1e-9
            assert rel(fast[1], dense[1]) < 1e-9


class TestFusionConstrained:
    def test_matches_augmented_update(self):
        pred, z, model, c = worked_planar_instance()
        fused = fusion_constrained_update(pred, z, model, c)
        stacked = augmented_update(pred, z, model, c)
        assert rel(fused.estimate.mean, stacked.estimate.mean) < 1e-7
        assert rel(fused.estimate.covariance, stacked.estimate.covariance) < 1e-7

    def test_without_constraint_reduces_to_plain_fusion(self):
        pred, z, model, _ = worked_planar_instance()
        empty = EqualityConstraint(np.zeros((0, 2)), np.zeros(0))
        result = fusion_constrained_update(pred, z, model, empty)
        assert_allclose(result.estimate.mean, [1.0, 0.0], atol=1e-10)
        assert rel(result.estimate.covariance, np.diag([0.5, 1.0])) < 1e-9

    def test_full_rank_constraint_determines_the_state(self):
        pred, z, model, _ = worked_planar_instance()
        c = EqualityConstraint(np.eye(2), [0.7, -0.2])
        result = fusion_constrained_update(pred, z, model, c)
        assert_allclose(result.estimate.mean, [0.7, -0.2], atol=1e-8)
        assert np.abs(result.estimate.covariance).max() < 1e-8

    def test_matches_the_pseudo_inverse_saddle_formula(self):
        for seed in range(200):
            pred, model, z, c = random_constrained_instance(seed)
            rng = np.random.default_rng(seed)
            means = (pred.mean + rng.standard_normal((4, pred.dim))).T
            zs = (z.value + rng.standard_normal((4, z.dim))).T
            cov = pred.covariance
            stage = kalman._fusion_stage(cov, model, c.matrix)
            single = kalman._fusion_solve(stage, pred.mean, z.value, c.rhs)
            stacked = kalman._fusion_solve(stage, means, zs, c.rhs[:, None])
            for (mean, post), (ref_mean, ref_post) in (
                (single, _pseudo_inverse_fusion(pred.mean, cov, z.value, model, c)),
                (stacked, _pseudo_inverse_fusion(means, cov, zs, model, c)),
            ):
                assert rel(mean, ref_mean) <= 1e-10
                assert rel(post, ref_post) <= 1e-10
            for row, mean, zv in zip(stacked[0].T, means.T, zs.T):
                row_fused = kalman._fusion_solve(stage, mean, zv, c.rhs)[0]
                assert rel(row, row_fused) <= 1e-12

    def test_nearly_dependent_constraint_rows_raise_singular_covariance(self):
        pred, z, model, _ = worked_planar_instance()
        c = EqualityConstraint([[1.0, 0.0], [1.0, 1e-9]], [0.7, 0.7])
        with pytest.raises(SingularCovariance, match="saddle"):
            fusion_constrained_update(pred, z, model, c)

    def test_exactly_singular_pivot_raises_singular_covariance(self):
        with pytest.raises(SingularCovariance, match="saddle"):
            matops._saddle_solver(np.ones((2, 2)))

    @pytest.mark.parametrize("constraint_rows", [0, 1])
    def test_zero_saddle_row_raises_singular_covariance_without_warning(
        self, constraint_rows
    ):
        # a zero observation row with zero noise: the saddle has a zero row,
        # rejected before equilibration could divide by it
        pred = estimate([0.3, -0.3], 0.5 * np.eye(2), step=1)
        model = SystemModel(np.eye(2), 0.01 * np.eye(2), [[0.0, 0.0]], [[0.0]])
        z = Measurement([0.0], step=1)
        with warnings.catch_warnings(), pytest.raises(SingularCovariance, match="zero row"):
            warnings.simplefilter("error")
            if constraint_rows:
                fusion_constrained_update(pred, z, model, line_constraint())
            else:
                update_fusion(pred, z, model)


def _block_saddle(cov, model, c):
    """The fusion saddle matrix assembled from its blocks by ``block_diag``
    and ``np.block``: the reference for the in-place assembly."""
    n, q = cov.shape[0], c.constraint_dim
    stacked_obs = np.vstack([np.eye(n), model.observation, c.matrix])
    noise = scipy.linalg.block_diag(cov, model.measurement_noise, np.zeros((q, q)))
    return np.block([[noise, stacked_obs], [stacked_obs.T, np.zeros((n, n))]])


def _pseudo_inverse_fusion(mean, cov, z, model, c):
    """Constrained fusion read off the pseudo-inverse of the whole saddle
    matrix: the reference the factored solve is checked against."""
    n, q = cov.shape[0], c.constraint_dim
    k = n + model.measurement_dim + q
    rhs = np.broadcast_to(c.rhs, (*mean.shape[1:], q)).T
    stacked_z = np.concatenate([mean, z, rhs])
    inv = pseudo_inverse(_block_saddle(cov, model, c))
    return inv[k:, :k] @ stacked_z, -0.5 * (inv[k:, k:] + inv[k:, k:].T)


class TestInPlaceAssembly:
    """The kernels write their block matrices into one array; the result must
    equal the ``block_diag``/``np.block`` assembly exactly."""

    SEEDS = range(40)

    def test_fusion_saddle_equals_the_block_assembly(self):
        for seed in self.SEEDS:
            pred, model, _, c = random_constrained_instance(seed)
            saddle, _ = kalman._fusion_stage(pred.covariance, model, c.matrix)
            assert np.array_equal(saddle, _block_saddle(pred.covariance, model, c))

    def test_soft_stack_equals_the_block_assembly(self):
        for seed in self.SEEDS:
            _, model, z, c = random_constrained_instance(seed)
            q = c.constraint_dim
            g = np.random.default_rng(seed).standard_normal((q, q))
            noise = g @ g.T + 1e-3 * g  # asymmetric: the stack symmetrizes it
            cov = np.eye(c.state_dim)
            obs = np.vstack([model.observation, c.matrix])
            stacked_noise = scipy.linalg.block_diag(
                model.measurement_noise, 0.5 * (noise + noise.T)
            )
            stage = constrained._soft_stage(cov, model, c.matrix, None, noise)
            _, gain, post = kalman._joseph(cov, obs, stacked_noise)
            assert np.array_equal(stage[0], obs)
            assert np.array_equal(stage[1], gain)
            assert np.array_equal(stage[2], post)
            for zs, b in ((z.value, c.rhs),
                          (np.stack([z.value, 2.0 * z.value], axis=1), c.rhs[:, None])):
                # the mean stage writes each column's [z, b] into one array
                rhs = np.broadcast_to(b, (q, *zs.shape[1:]))
                stacked_z = np.concatenate([zs, rhs])
                mean = np.zeros((c.state_dim, *zs.shape[1:]))
                expected = kalman._correct(mean, stacked_z, obs, stage[1])[1]
                (got, _), _ = constrained._soft_mean(stage, mean, zs, model, c.matrix, b)
                assert np.array_equal(got, expected)

    def test_gram_factorization_equals_the_numpy_qr_form(self):
        # (U, G^-1) from the direct ?geqrf/?orgqr QR equal those from
        # np.linalg.qr and scipy's solve_triangular bit for bit
        for seed in self.SEEDS:
            pred, _, _, c = random_constrained_instance(seed)
            l_factor = np.linalg.cholesky(pred.covariance)
            q_mat, r = np.linalg.qr((c.matrix @ l_factor).T)
            z = scipy.linalg.solve_triangular(r, q_mat.T, check_finite=False)
            r_inv = scipy.linalg.solve_triangular(
                r, np.eye(c.constraint_dim), check_finite=False
            )
            ups, g_inv = constrained._gram_factorization(l_factor, c.matrix)
            assert np.array_equal(ups, l_factor @ z.T)
            assert np.array_equal(g_inv, r_inv @ r_inv.T)


class TestStableCovarianceForms:
    def test_axis_aligned_projector(self):
        assert_allclose(gamma_projector(np.eye(2), line_constraint(a=(1.0, 0.0))),
                        [[0.0, 0.0], [0.0, 1.0]])

    def test_weighted_projector(self):
        gamma = gamma_projector(np.diag([2.0, 1.0]), line_constraint())
        assert_allclose(gamma, [[1.0 / 3.0, -2.0 / 3.0], [-1.0 / 3.0, 2.0 / 3.0]])

    def test_full_constraint_annihilates(self):
        c = EqualityConstraint(np.eye(2), [0.0, 0.0])
        assert_allclose(gamma_projector(np.eye(2), c), np.zeros((2, 2)), atol=1e-12)

    def test_projector_is_idempotent_and_kills_constraint_rows(self):
        for seed in range(20):
            pred, model, z, c = random_constrained_instance(seed)
            post, _ = update_joseph(pred, z, model)
            gamma = gamma_projector(post.covariance, c)
            assert rel(gamma @ gamma, gamma) < 1e-9
            product = c.matrix @ gamma @ post.covariance
            assert np.abs(product).max() <= 1e-9 * np.abs(post.covariance).max()

    def test_congruence_form_matches_direct_constraining(self):
        cov = joseph_constrained_cov(np.diag([2.0, 1.0]), line_constraint())
        assert_allclose(cov, [[2.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 2.0 / 3.0]])

    def test_congruence_form_axis_aligned(self):
        cov = joseph_constrained_cov(np.eye(2), line_constraint(a=(1.0, 0.0)))
        assert_allclose(cov, np.diag([0.0, 1.0]), atol=1e-12)

    def test_congruence_form_is_exactly_symmetric(self):
        for seed in range(20):
            pred, model, z, c = random_constrained_instance(seed)
            post, _ = update_joseph(pred, z, model)
            cov = joseph_constrained_cov(post.covariance, c)
            assert np.array_equal(cov, cov.T)
            one_sided = gamma_projector(post.covariance, c) @ post.covariance
            assert np.abs(cov - one_sided).max() <= 1e-8 * np.abs(post.covariance).max()


class TestSemidefiniteCovariance:
    @pytest.mark.parametrize("seed", range(20))
    def test_constraining_a_constrained_posterior_again(self, seed):
        # A hard-constrained covariance is rank n - q and has no Cholesky
        # factor; a second, independent row must still be applied exactly.
        pred, model, z, c = random_constrained_instance(seed)
        est_u, _ = update_joseph(pred, z, model)
        first = constrain_posterior(est_u, c).estimate
        rng = np.random.default_rng((seed, 2))
        row = rng.standard_normal(first.dim)
        row -= c.matrix.T @ (c.matrix @ row)  # c has orthonormal rows
        row /= np.linalg.norm(row)
        extra = EqualityConstraint(row[None, :], [rng.standard_normal()])

        p, a = first.covariance, extra.matrix
        direct = np.linalg.solve(a @ p @ a.T, a @ p).T  # P A' (A P A')^-1
        mean = first.mean - direct @ (a @ first.mean - extra.rhs)
        cov = p - direct @ a @ p
        second = constrain_posterior(first, extra)
        assert rel(second.estimate.mean, mean) < 1e-9
        # relative to P: with q + 1 = n the exact result is the zero matrix
        scale = np.linalg.norm(p)
        assert np.linalg.norm(second.estimate.covariance - cov) < 1e-9 * scale
        assert second.constraint_residual < 1e-9 * (1.0 + abs(extra.rhs[0]))
        gamma = gamma_projector(p, extra)
        assert rel(gamma, np.eye(first.dim) - direct @ a) < 1e-9


class TestLinearize:
    def test_circle_tangent(self):
        nc = NonlinearConstraint(
            func=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
            jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            rhs=[1.0],
        )
        lin = linearize(nc, [1.0, 0.0])
        assert_allclose(lin.matrix, [[2.0, 0.0]])
        assert_allclose(lin.rhs, [2.0])

    def test_affine_function_linearizes_exactly(self):
        a = np.array([[1.0, -2.0], [0.5, 1.0]])
        nc = NonlinearConstraint(
            func=lambda x: a @ x,
            jacobian=lambda x: a,
            rhs=[1.0, 2.0],
        )
        for ref in ([0.0, 0.0], [3.0, -1.0], [10.0, 4.0]):
            lin = linearize(nc, ref)
            assert_allclose(lin.matrix, a)
            assert_allclose(lin.rhs, [1.0, 2.0], atol=1e-12)

    def test_product_constraint(self):
        nc = NonlinearConstraint(
            func=lambda x: np.array([x[0] * x[1]]),
            jacobian=lambda x: np.array([[x[1], x[0]]]),
            rhs=[1.0],
        )
        lin = linearize(nc, [1.0, 1.0])
        assert_allclose(lin.matrix, [[1.0, 1.0]])
        assert_allclose(lin.rhs, [2.0])

    def test_rank_deficient_jacobian(self):
        nc = NonlinearConstraint(
            func=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
            jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            rhs=[1.0],
        )
        with pytest.raises(RankDeficientJacobian):
            linearize(nc, [0.0, 0.0])
        # more rows than states: the constructor's ValueError comes out typed
        tall = NonlinearConstraint(
            func=lambda x: np.array([x[0], x[1], x[0] + 2.0 * x[1]]),
            jacobian=lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]),
            rhs=[0.0, 0.0, 0.0],
        )
        with pytest.raises(RankDeficientJacobian):
            linearize(tall, [1.0, -1.0])

    def test_a_non_finite_reference_point_is_a_filter_error(self):
        nc = NonlinearConstraint(
            func=lambda x: np.array([x[0] * x[1]]),
            jacobian=lambda x: np.array([[x[1], x[0]]]),
            rhs=[1.0],
        )
        with pytest.raises(FilterError, match="cannot linearize.*x_ref has non-finite"):
            linearize(nc, [np.inf, 1.0])

    @pytest.mark.parametrize("jacobian, func", [
        (lambda x: np.array([[1.0, 0.0, 0.0]]), lambda x: np.array([x[0]])),
        (lambda x: np.array([[1.0, 0.0]]), lambda x: np.array([x[0], x[1]])),
    ], ids=["jacobian-columns", "value-length"])
    def test_a_misshapen_jacobian_or_value_is_a_dimension_mismatch(self, jacobian, func):
        nc = NonlinearConstraint(func=func, jacobian=jacobian, rhs=[1.0])
        with pytest.raises(DimensionMismatch):
            linearize(nc, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            nc._rows(np.array([1.0, 2.0]))

    def test_an_overflowing_value_is_a_filter_error_and_an_infinite_residual(self):
        nc = NonlinearConstraint(
            func=lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
            jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
            rhs=[1.0],
        )
        with np.errstate(over="ignore"):
            with pytest.raises(FilterError, match="constraint value has non-finite"):
                linearize(nc, [1e200, 1e200])
            with pytest.raises(FilterError, match="jacobian has non-finite"):
                linearize(nc, [1e308, 1.0])
            assert nc.residual_norm([1e200, 1e200]) == np.inf


class TestSoftConstraint:
    def test_zero_noise_recovers_hard_augmentation(self):
        pred, z, model, c = worked_planar_instance()
        soft = soft_augmented_update(pred, z, model, c, np.zeros((1, 1)))
        hard = augmented_update(pred, z, model, c)
        assert rel(soft.estimate.mean, hard.estimate.mean) < 1e-8
        assert rel(soft.estimate.covariance, hard.estimate.covariance) < 1e-8

    def test_huge_noise_recovers_unconstrained_update(self):
        pred, z, model, c = worked_planar_instance()
        soft = soft_augmented_update(pred, z, model, c, [[1e12]])
        plain, _ = update_joseph(pred, z, model)
        assert rel(soft.estimate.mean, plain.mean) < 1e-3
        assert rel(soft.estimate.covariance, plain.covariance) < 1e-3

    def test_unit_noise_lands_between_the_limits(self):
        pred, z, model, c = worked_planar_instance()
        soft = soft_augmented_update(pred, z, model, c, [[1.0]])
        assert_allclose(soft.estimate.mean, [0.8, -0.4])
        # hard residual is 0, unconstrained residual is 1
        assert 0.0 < soft.constraint_residual < 1.0
        assert soft.constraint_residual == pytest.approx(0.4)

    def test_rejects_mismatched_noise_shape(self):
        pred, z, model, c = worked_planar_instance()
        with pytest.raises(DimensionMismatch):
            soft_augmented_update(pred, z, model, c, np.zeros((2, 2)))

    def test_rejects_indefinite_noise(self):
        pred, z, model, c = worked_planar_instance()
        with pytest.raises(ValueError):
            soft_augmented_update(pred, z, model, c, [[-1.0]])


def _hard_results(pred, z, model, c):
    post, _ = update_joseph(pred, z, model)
    return {
        "augmented": augmented_update(pred, z, model, c),
        "fusion": fusion_constrained_update(pred, z, model, c),
        "projection": project(post, c),
        "restricted": restricted_gain_update(pred, z, model, c)[1],
    }


def test_every_hard_method_lands_on_the_constraint():
    for seed in range(25):
        pred, model, z, c = random_constrained_instance(seed)
        scale = 1.0 + np.linalg.norm(c.rhs)
        for result in _hard_results(pred, z, model, c).values():
            assert c.residual_norm(result.estimate.mean) <= 1e-9 * scale
            assert result.constraint_residual <= 1e-9 * scale


def test_constrained_covariance_has_no_constraint_component():
    # projection onto the constraint set leaves no variance along A's rows
    for seed in range(25):
        pred, model, z, c = random_constrained_instance(seed)
        results = _hard_results(pred, z, model, c)
        for name in ("augmented", "projection"):
            cov = results[name].estimate.covariance
            assert np.linalg.norm(c.matrix @ cov) <= 1e-8 * np.linalg.norm(cov)


def test_constraining_never_inflates_the_covariance():
    for seed in range(25):
        pred, model, z, c = random_constrained_instance(seed)
        post, _ = update_joseph(pred, z, model)
        constrained = constrain_posterior(post, c)
        gap = post.covariance - constrained.estimate.covariance
        assert min_eigenvalue(gap) >= -1e-9 * np.trace(post.covariance)


def test_four_methods_agree_on_random_instances():
    for seed in range(30):
        pred, model, z, c = random_constrained_instance(seed)
        results = _hard_results(pred, z, model, c)
        reference = results["augmented"].estimate
        for name in ("fusion", "projection"):
            other = results[name].estimate
            assert rel(other.mean, reference.mean) < 1e-7
            assert rel(other.covariance, reference.covariance) < 1e-6


def test_posterior_gram_identity_chain():
    """A (P - P H' S^-1 H P) A' collapses to the posterior Gram matrix."""
    for seed in range(20):
        pred, model, z, c = random_constrained_instance(seed)
        innov = innovate(pred, z, model)
        p = pred.covariance
        h, a = model.observation, c.matrix
        s_inv = np.linalg.inv(innov.residual_cov)
        post, _ = update_joseph(pred, z, model)
        direct = a @ (p - p @ h.T @ s_inv @ h @ p) @ a.T
        assert rel(direct, a @ post.covariance @ a.T) < 1e-9


def test_posterior_from_prior_minus_gain_term():
    # P - P H' K' is the posterior covariance written without the Joseph form
    for seed in range(20):
        pred, model, z, c = random_constrained_instance(seed)
        innov = innovate(pred, z, model)
        p = pred.covariance
        short_form = p - p @ model.observation.T @ innov.gain.T
        post, _ = update_joseph(pred, z, model)
        assert rel(0.5 * (short_form + short_form.T), post.covariance) < 1e-9


HARD_METHODS = {
    "augmented": augmented_update,
    "fusion": fusion_constrained_update,
    "projection": lambda pred, z, model, c: project(update_joseph(pred, z, model)[0], c),
    "projection_identity": lambda pred, z, model, c: project(
        update_joseph(pred, z, model)[0], c, ProjectionSpec(weight=IDENTITY)
    ),
    "restricted_gain": lambda pred, z, model, c: restricted_gain_update(pred, z, model, c)[1],
}


@pytest.mark.parametrize("method", sorted(HARD_METHODS))
@pytest.mark.parametrize("seed", [389, 1782])
def test_ill_scaled_update_returns_or_raises_a_filter_error(seed, method):
    # Seed 389 drives the augmented and projection posteriors indefinite by
    # roundoff, seed 1782 the fusion posterior read off the saddle pseudo-inverse.
    pred, model, z, c = scaled_instance(seed)
    try:
        result = HARD_METHODS[method](pred, z, model, c)
    except FilterError:
        return
    assert np.isfinite(result.estimate.covariance).all()


# Each public function on an overflowing input: its constraint residual, which
# reads inf, or the FilterError it raises.
OVERFLOWING_CALLS = {
    "residual_norm": (lambda pred, z, model, c: c.residual_norm(pred.mean), None),
    "project": (lambda pred, z, model, c: project(
        update_joseph(pred, z, model)[0], c).constraint_residual, None),
    "augmented_update": (lambda pred, z, model, c: augmented_update(
        pred, z, model, c).constraint_residual, None),
    "fusion_constrained_update": (lambda pred, z, model, c: fusion_constrained_update(
        pred, z, model, c).constraint_residual, None),
    "soft_augmented_update": (lambda pred, z, model, c: soft_augmented_update(
        pred, z, model, c, np.eye(c.constraint_dim)).constraint_residual, None),
    "restricted_gain_update": (restricted_gain_update, DegenerateResidual),
    "solve_lagrange_system": (lambda pred, z, model, c: solve_lagrange_system(
        innovate(pred, z, model), c, np.ones(c.constraint_dim)), DegenerateResidual),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_CALLS))
def test_an_overflowing_input_reads_inf_or_raises_a_filter_error(name):
    # The suite turns warnings into errors, so an overflow inside the call
    # that surfaced as a RuntimeWarning would fail here.
    pred, model, z, c = random_constrained_instance(3)
    huge = StateEstimate(pred.mean * 1e300, pred.covariance, pred.step)
    call, error = OVERFLOWING_CALLS[name]
    if error is None:
        assert call(huge, z, model, c) == np.inf
    else:
        with pytest.raises(error):
            call(huge, z, model, c)


# Scaled-probe inputs, with the smallest `dropped` eigenvalues of P zeroed
# (rank-deficient P), R scaled by 10^noise_exponent and each constraint row
# (with its right-hand side) by 10^row_exponent.
_SCALED_PROBE = given(
    seed=st.integers(0, 2999),
    dropped=st.integers(0, 7),
    noise_exponent=st.floats(-6.0, 6.0),
    row_exponents=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
)


def _feasible_psd_or_filter_error(update, seed, dropped, noise_exponent, row_exponents):
    """``update`` on a scaled-probe instance returns a finite, PSD and feasible
    estimate, or raises a ``FilterError``."""
    pred, model, z, c = scaled_instance(seed, dropped)
    model = SystemModel(
        model.transition, model.process_noise, model.observation,
        10.0**noise_exponent * model.measurement_noise,
    )
    rows = 10.0 ** np.array(row_exponents[: c.constraint_dim])
    c = EqualityConstraint(rows[:, None] * c.matrix, rows * c.rhs)
    try:
        result = update(pred, z, model, c)
    except FilterError:
        return
    mean, post = result.estimate.mean, result.estimate.covariance
    assert np.isfinite(mean).all() and np.isfinite(post).all()
    scale = np.abs(post).max()
    assert min_eigenvalue(post) >= -1e-9 * np.trace(post) - 1e-12 * max(1.0, scale)
    feasible = 1e-8 * (np.linalg.norm(c.matrix, 2) * np.linalg.norm(mean) + np.linalg.norm(c.rhs))
    assert np.linalg.norm(c.matrix @ mean - c.rhs) <= feasible


@settings(max_examples=500)
# Probe seeds the factored solve leaves off the constraint without its
# refinement step (10, 295, 530), and the indefinite pseudo-inverse case (1782).
@example(seed=10, dropped=0, noise_exponent=0.0, row_exponents=[0.0] * 3)
@example(seed=295, dropped=0, noise_exponent=0.0, row_exponents=[0.0] * 3)
@example(seed=530, dropped=0, noise_exponent=0.0, row_exponents=[0.0] * 3)
@example(seed=1782, dropped=0, noise_exponent=0.0, row_exponents=[0.0] * 3)
@_SCALED_PROBE
def test_fusion_returns_a_feasible_psd_estimate_or_raises_a_filter_error(
    seed, dropped, noise_exponent, row_exponents
):
    _feasible_psd_or_filter_error(
        fusion_constrained_update, seed, dropped, noise_exponent, row_exponents
    )


@settings(max_examples=500)
# The first probe seed whose mean the gains built from the blocks of
# block_s_inverse left off the constraint, 6.3 times the bound.
@example(seed=1, dropped=0, noise_exponent=0.0, row_exponents=[0.0] * 3)
@_SCALED_PROBE
def test_augmented_returns_a_feasible_psd_estimate_or_raises_a_filter_error(
    seed, dropped, noise_exponent, row_exponents
):
    _feasible_psd_or_filter_error(
        augmented_update, seed, dropped, noise_exponent, row_exponents
    )


@pytest.mark.parametrize("update", [
    augmented_update,
    lambda pred, z, model, c: restricted_gain_update(pred, z, model, c)[1],
    lambda pred, z, model, c: update_joseph(pred, z, model),
    HARD_METHODS["projection"],
], ids=["augmented", "restricted_gain", "update_joseph", "projection"])
def test_indefinite_unconstrained_posterior_raises_indefinite_covariance(update):
    # With P's smallest eigenvalue zeroed, seed 48's Joseph posterior has min
    # eigenvalue -1.1e-10 against a trace of 0.079, beyond the StateEstimate
    # allowance; the public update_joseph, and the projection route through
    # it, raise the same typed error as the constrained updates.  (Seed 14's
    # S is now refused first, by the guard of kalman._gain.)
    pred, model, z, c = scaled_instance(48, dropped=1)
    with pytest.raises(IndefiniteCovariance, match="unconstrained posterior"):
        update(pred, z, model, c)


@pytest.mark.parametrize("seed", [0, 2])
def test_fusion_with_a_singular_prediction_covariance_matches_augmented(seed):
    # P need not be invertible, only the saddle matrix regular.
    pred, model, z, c = scaled_instance(seed, dropped=1)
    assert np.linalg.matrix_rank(pred.covariance) < pred.dim
    fused = fusion_constrained_update(pred, z, model, c).estimate
    reference = augmented_update(pred, z, model, c).estimate
    mean, post = fused.mean, fused.covariance
    assert min_eigenvalue(post) >= -1e-9 * np.trace(post) - 1e-12 * max(1.0, np.abs(post).max())
    feasible = 1e-8 * (np.linalg.norm(c.matrix, 2) * np.linalg.norm(mean) + np.linalg.norm(c.rhs))
    assert np.linalg.norm(c.matrix @ mean - c.rhs) <= feasible
    assert rel(mean, reference.mean) <= 1e-10
    assert rel(post, reference.covariance) <= 1e-10
