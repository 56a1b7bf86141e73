"""Equality-constrained update methods for the linear Kalman filter.

When the state is known to satisfy ``A x = b`` with ``A`` full row rank,
four hard-constraint strategies are provided, each landing the posterior
mean exactly on the constraint set:

* :func:`augmented_update` appends the constraint rows as noise-free
  pseudo-measurements below the real measurement and runs a standard gain
  update, inverting the stacked residual covariance through its block
  structure (:func:`block_s_inverse`) instead of densely.
* :func:`project` (and its posterior-inverse specialization
  :func:`constrain_posterior`) corrects an unconstrained posterior by a
  weighted least-distance move onto the constraint set.
* :func:`restricted_gain_update` re-optimizes the gain matrix itself
  subject to the corrected mean being feasible; the optimality system is
  solved in closed form by :func:`solve_lagrange_system`.
* :func:`fusion_constrained_update` fuses prediction, measurement, and
  constraint in a single stacked least-squares solve through a
  pseudo-inverted saddle matrix.

The first, second (with the posterior-inverse weight), and fourth agree in
exact arithmetic; the third coincides with the identity-weight projection.
:func:`soft_augmented_update` relaxes the constraint by giving the
pseudo-measurement a nonzero noise covariance, and :func:`linearize`
reduces a differentiable nonlinear constraint to the linear form accepted
everywhere else.

Every hard update except fusion (which keeps its own pseudo-inverted
saddle solve) is a least-distance correction through the Gram matrix
``G = A W^-1 A'``, and all of them share one factorization of it,
:func:`_gram_factorization`: a QR decomposition of ``(A L)'`` with
``W^-1 = L L'``, guarded by ``matops.CONDITION_LIMIT``.  When the weight
is a covariance, :func:`_covariance_gram` picks ``L``: its Cholesky factor,
or, in the semidefinite fallback for a covariance that has none, the
eigenvalue factor of :func:`matops.psd_factor`.

Hard-constrained covariances are rank deficient (rank ``n - q``); they are
maintained through the idempotent-projector congruence of
:func:`joseph_constrained_cov`, which preserves symmetry and positive
semidefiniteness over long runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import kalman, matops
from .errors import (
    DegenerateResidual,
    DimensionMismatch,
    RankDeficientJacobian,
    SingularAugmentedInnovation,
    SingularConstraintGram,
    SingularCovariance,
    SingularInnovationCovariance,
    SingularWeight,
)
from .kalman import InnovationStats, Measurement, StateEstimate, SystemModel
from .matops import (
    SaddleInverseBlocks,
    as_matrix,
    as_vector,
    frozen_array,
    kron,
    solve_spd,
    symmetrize,
    unvec,
)

# Method tags carried by ConstrainedUpdateResult.
AUGMENTED = "augmented"
PROJECTION = "projection"
RESTRICTED_GAIN = "restricted_gain"
FUSION = "fusion"
SOFT_AUGMENTED = "soft_augmented"

# Distinguished weight choice for ProjectionSpec: use the inverse of the
# unconstrained posterior covariance (never formed explicitly).
POSTERIOR_INVERSE = "posterior_inverse"

# Innovation quadratic forms at or below this are treated as degenerate.
DEGENERATE_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class EqualityConstraint:
    """Linear equality constraint ``matrix @ x = rhs``.

    ``matrix`` is q x n with full row rank (checked at construction via a
    rank-revealing decomposition) and q <= n.  q = 0 is permitted and
    denotes the absence of a constraint.
    """

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.matrix, "constraint matrix")
        b = as_vector(self.rhs, "constraint rhs")
        q, n = a.shape
        if b.size != q:
            raise ValueError(f"rhs length {b.size} does not match {q} constraint rows")
        if q > n:
            raise ValueError(f"more constraint rows ({q}) than state dimensions ({n})")
        if q and np.linalg.matrix_rank(a) < q:
            raise ValueError("constraint matrix must have full row rank")
        object.__setattr__(self, "matrix", frozen_array(a))
        object.__setattr__(self, "rhs", frozen_array(b))

    @property
    def state_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def constraint_dim(self) -> int:
        return self.matrix.shape[0]

    def residual_norm(self, x) -> float:
        """Euclidean norm of ``matrix @ x - rhs``."""
        if self.constraint_dim == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix @ as_vector(x, "x") - self.rhs))


@dataclass(frozen=True)
class NonlinearConstraint:
    """Differentiable vector constraint ``func(x) = rhs``.

    ``func`` maps an n-vector to a q-vector and ``jacobian`` returns the
    q x n matrix of partial derivatives at the same point.
    """

    func: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    rhs: np.ndarray

    def __post_init__(self):
        if not callable(self.func) or not callable(self.jacobian):
            raise ValueError("func and jacobian must be callable")
        object.__setattr__(self, "rhs", frozen_array(as_vector(self.rhs, "rhs")))

    @property
    def constraint_dim(self) -> int:
        return self.rhs.size

    def residual_norm(self, x) -> float:
        """Euclidean norm of ``func(x) - rhs``."""
        value = as_vector(self.func(np.asarray(x, dtype=float)), "constraint value")
        return float(np.linalg.norm(value - self.rhs))


@dataclass(frozen=True)
class ProjectionSpec:
    """Options for :func:`project`.

    ``weight`` is either the ``POSTERIOR_INVERSE`` marker (the default,
    weighting distances by the inverse posterior covariance) or an explicit
    symmetric positive definite n x n matrix.
    """

    weight: np.ndarray | str = POSTERIOR_INVERSE

    def __post_init__(self):
        if isinstance(self.weight, str):
            if self.weight != POSTERIOR_INVERSE:
                raise ValueError(f"unknown weight choice '{self.weight}'")
            return
        w = as_matrix(self.weight, "weight")
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"weight must be square, got shape {w.shape}")
        matops.check_symmetric_psd(w, "weight", definite=True)
        object.__setattr__(self, "weight", frozen_array(w))

    @property
    def uses_posterior_inverse(self) -> bool:
        return isinstance(self.weight, str)


@dataclass(frozen=True)
class RestrictedGainSolution:
    """Output of the gain re-optimization.

    ``gain`` is the feasibility-restricted gain, ``correction`` its
    column-stacked difference from the unconstrained gain, and
    ``multipliers`` the Lagrange multipliers of the feasibility condition.
    """

    gain: np.ndarray
    correction: np.ndarray
    multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain", frozen_array(as_matrix(self.gain, "gain")))
        object.__setattr__(
            self, "correction", frozen_array(as_vector(self.correction, "correction"))
        )
        object.__setattr__(
            self, "multipliers", frozen_array(as_vector(self.multipliers, "multipliers"))
        )


@dataclass(frozen=True)
class ConstrainedUpdateResult:
    """A constrained estimate, the method tag that produced it, and the
    Euclidean norm of its constraint residual."""

    estimate: StateEstimate
    method: str
    constraint_residual: float

    def __post_init__(self):
        if not isinstance(self.estimate, StateEstimate):
            raise ValueError("estimate must be a StateEstimate")
        object.__setattr__(self, "constraint_residual", float(self.constraint_residual))


def _check_state_dims(dim: int, c: EqualityConstraint) -> None:
    if c.state_dim != dim:
        raise DimensionMismatch(
            f"constraint is over {c.state_dim} states but the estimate has {dim}"
        )


def _gram_factorization(
    l_factor: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(U, G^-1)`` for the Gram matrix ``G = A W^-1 A'``, given
    ``L`` with ``W^-1 = L L'``, where ``U = W^-1 A' G^-1``.

    ``G = R' R`` is factored through one QR decomposition of ``(A L)'`` so
    its condition number is never squared; ``SingularConstraintGram`` is
    raised when the diagonal of ``R`` puts that condition number above
    ``CONDITION_LIMIT``.
    """
    q_mat, r = np.linalg.qr((a @ l_factor).T)
    diag = np.abs(np.diag(r))
    if diag.size and (
        diag.min() <= 0.0 or (diag.max() / diag.min()) ** 2 > matops.CONDITION_LIMIT
    ):
        raise SingularConstraintGram("constraint Gram matrix is numerically singular")
    z = scipy.linalg.solve_triangular(r, q_mat.T, lower=False, check_finite=False)
    r_inv = scipy.linalg.solve_triangular(
        r, np.eye(a.shape[0]), lower=False, check_finite=False
    )
    return l_factor @ z.T, r_inv @ r_inv.T


def _covariance_gram(cov: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_gram_factorization` with the weight ``W^-1 = P``.

    ``L`` is the Cholesky factor of ``P``.  A covariance that is only
    positive semidefinite (a hard-constrained posterior is rank ``n - q``)
    has none, and falls back to the eigenvalue factor of
    :func:`matops.psd_factor`; the Gram matrix is then regular only if no
    combination of the rows of ``A`` lies in the null space of ``P``.
    """
    sym = symmetrize(cov)
    try:
        l_factor = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        l_factor = matops.psd_factor(sym)
    return _gram_factorization(l_factor, a)


def constrain_posterior(est: StateEstimate, c: EqualityConstraint) -> ConstrainedUpdateResult:
    """Move a posterior estimate onto ``A x = b``, weighting by the inverse
    posterior covariance.

    mean' = mean - P A' (A P A')^-1 (A mean - b)
    cov'  = P - P A' (A P A')^-1 A P   (symmetrized)

    This is the minimum-variance correction: among all feasible corrected
    means it has the smallest error covariance.  The corrected covariance
    satisfies ``A cov' = 0`` and is smaller than ``P`` in the positive
    semidefinite order.
    """
    _check_state_dims(est.dim, c)
    if c.constraint_dim == 0:
        return ConstrainedUpdateResult(est, PROJECTION, 0.0)
    a = c.matrix
    ups, _ = _covariance_gram(est.covariance, a)
    defect = a @ est.mean - c.rhs
    mean = est.mean - ups @ defect
    cov = symmetrize(est.covariance - ups @ (a @ est.covariance))
    constrained = StateEstimate(mean, cov, est.step)
    return ConstrainedUpdateResult(constrained, PROJECTION, c.residual_norm(mean))


def block_s_inverse(
    pred_cov: np.ndarray,
    model: SystemModel,
    c: EqualityConstraint,
    innov: InnovationStats,
) -> SaddleInverseBlocks:
    """Blocks of the inverse of the stacked residual covariance.

    For the measurement-plus-constraint stack the residual covariance is
    ``[[S, H P A'], [A P H', A P A']]`` with ``P`` the prediction
    covariance.  Its inverse reduces to blocks built from ``S^-1`` and the
    q x q Gram matrix of the unconstrained posterior:

        upper_left  = S^-1 + (A K)' G^-1 (A K)
        upper_right = -(A K)' G^-1
        lower_left  = -G^-1 (A K)
        lower_right = G^-1

    where ``K`` is the unconstrained gain and ``G = A P_post A'`` with
    ``P_post = P - P H' K'``.  Only a q x q matrix is ever inverted.
    """
    p_pred = as_matrix(pred_cov, "prediction covariance")
    h = model.observation
    a = c.matrix
    if p_pred.shape != (model.state_dim, model.state_dim):
        raise DimensionMismatch(
            f"prediction covariance shape {p_pred.shape} does not match the model"
        )
    _check_state_dims(model.state_dim, c)
    p_post = symmetrize(p_pred - p_pred @ h.T @ innov.gain.T)
    _, g_inv = _covariance_gram(p_post, a)
    m = model.measurement_dim
    s_inv = solve_spd(
        innov.residual_cov,
        np.eye(m),
        name="innovation covariance",
        error=SingularInnovationCovariance,
    )
    ak = a @ innov.gain
    akt_ginv = ak.T @ g_inv
    return SaddleInverseBlocks(
        upper_left=symmetrize(s_inv + akt_ginv @ ak),
        upper_right=-akt_ginv,
        lower_left=-g_inv @ ak,
        lower_right=g_inv,
    )


def augmented_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
) -> ConstrainedUpdateResult:
    """Hard-constrained update by measurement augmentation.

    Runs a gain update on the stacked observation ``[H; A]`` with noise
    ``blkdiag(R, 0)``; the stacked residual covariance is inverted through
    :func:`block_s_inverse` rather than densely.  Equals
    :func:`constrain_posterior` applied after :func:`update_joseph`.
    Raises ``SingularAugmentedInnovation`` when the stacked residual
    covariance is singular (either factor of its block reduction fails).
    """
    _check_state_dims(pred.dim, c)
    try:
        est_u, innov = kalman.update_joseph(pred, z, model)
        if c.constraint_dim == 0:
            return ConstrainedUpdateResult(est_u, AUGMENTED, 0.0)
        blocks = block_s_inverse(pred.covariance, model, c, innov)
    except (SingularInnovationCovariance, SingularConstraintGram) as exc:
        raise SingularAugmentedInnovation(
            f"stacked residual covariance is singular: {exc}"
        ) from exc
    h = model.observation
    a = c.matrix
    p_pred = pred.covariance
    ph = p_pred @ h.T
    pa = p_pred @ a.T
    gain_meas = ph @ blocks.upper_left + pa @ blocks.lower_left
    gain_con = ph @ blocks.upper_right + pa @ blocks.lower_right
    constraint_defect = c.rhs - a @ pred.mean
    mean = pred.mean + gain_meas @ innov.residual + gain_con @ constraint_defect
    cov = joseph_constrained_cov(est_u.covariance, c)
    est = StateEstimate(mean, cov, pred.step)
    return ConstrainedUpdateResult(est, AUGMENTED, c.residual_norm(mean))


def project(
    est: StateEstimate,
    c: EqualityConstraint,
    spec: ProjectionSpec = ProjectionSpec(),
) -> ConstrainedUpdateResult:
    """Weighted least-distance projection of an estimate onto ``A x = b``.

    Solves ``min (x - mean)' W (x - mean)`` subject to ``A x = b``:

        mean' = mean - W^-1 A' (A W^-1 A')^-1 (A mean - b)

    The covariance is carried through the correction as
    ``(I - U A) P (I - U A)'`` with ``U`` the projector above, which keeps
    it symmetric positive semidefinite for any weight.  With the
    ``POSTERIOR_INVERSE`` weight the result equals
    :func:`constrain_posterior` exactly (it is computed by the same code
    path).
    """
    _check_state_dims(est.dim, c)
    if spec.uses_posterior_inverse:
        return constrain_posterior(est, c)
    if c.constraint_dim == 0:
        return ConstrainedUpdateResult(est, PROJECTION, 0.0)
    w = spec.weight
    if w.shape != (est.dim, est.dim):
        raise DimensionMismatch(
            f"weight shape {w.shape} does not match state dimension {est.dim}"
        )
    cond = np.linalg.cond(w)
    if not np.isfinite(cond) or cond > matops.CONDITION_LIMIT:
        raise SingularWeight(
            f"weight is numerically singular (condition estimate {cond:.3e})"
        )
    lw = matops.spd_cholesky(w, name="weight", error=SingularWeight)
    # W^-1 = L L' with L the inverse transpose of the Cholesky factor.
    l_factor = scipy.linalg.solve_triangular(
        lw, np.eye(est.dim), lower=True, check_finite=False
    ).T
    ups, _ = _gram_factorization(l_factor, c.matrix)
    mean = est.mean - ups @ (c.matrix @ est.mean - c.rhs)
    pi = np.eye(est.dim) - ups @ c.matrix
    cov = symmetrize(pi @ est.covariance @ pi.T)
    constrained = StateEstimate(mean, cov, est.step)
    return ConstrainedUpdateResult(constrained, PROJECTION, c.residual_norm(mean))


def solve_lagrange_system(
    innov: InnovationStats,
    c: EqualityConstraint,
    posterior_residual,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form solution of the gain-correction optimality system.

    ``posterior_residual`` is ``A x_post - b`` for the unconstrained
    posterior mean.  Returns ``(correction, multipliers)`` where
    ``correction`` stacks the columns of the gain change needed to make the
    corrected mean feasible while perturbing the optimal gain least, and
    ``multipliers`` are the Lagrange multipliers of the feasibility rows:

        correction  = (S^-1 v (v' S^-1 v)^-1) kron (A' (A A')^-1) (b - A x_post)
        multipliers = -2 ((v' S^-1 v)^-1 kron (A A')^-1) (b - A x_post)

    with ``v`` the innovation; ``A A'`` is factored by the same guarded QR
    as every other constraint Gram matrix.  Raises ``DegenerateResidual``
    when the quadratic form ``v' S^-1 v`` is below tolerance (the
    optimality system is then singular); callers should fall back to the
    identity-weight projection, which yields the same corrected mean.
    """
    if c.constraint_dim == 0:
        return np.zeros(innov.gain.size), np.zeros(0)
    residual = as_vector(posterior_residual, "posterior_residual")
    if residual.size != c.constraint_dim:
        raise DimensionMismatch(
            f"posterior_residual length {residual.size} does not match "
            f"{c.constraint_dim} constraint rows"
        )
    nu = innov.residual
    s_inv_nu = solve_spd(
        innov.residual_cov, nu, name="innovation covariance",
        error=SingularInnovationCovariance,
    )
    quad = float(nu @ s_inv_nu)
    if quad <= DEGENERATE_RESIDUAL_TOL:
        raise DegenerateResidual(
            f"innovation quadratic form {quad:.3e} is below tolerance"
        )
    a = c.matrix
    _, gram_inv = _gram_factorization(np.eye(c.state_dim), a)
    target = -residual  # b - A x_post
    left = (s_inv_nu / quad).reshape(-1, 1)
    right = a.T @ gram_inv
    correction = kron(left, right) @ target
    multipliers = -2.0 * (kron(np.array([[1.0 / quad]]), gram_inv) @ target)
    return correction, multipliers


def restricted_gain_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
) -> tuple[RestrictedGainSolution, ConstrainedUpdateResult]:
    """Update with the gain re-optimized under the feasibility condition.

    The returned gain is the unconstrained gain plus the unstacked
    correction from :func:`solve_lagrange_system`; applying it to the
    innovation lands the mean exactly on ``A x = b``.  The corrected mean
    equals the identity-weight projection of the unconstrained posterior,
    and the covariance is carried accordingly.  Raises
    ``DegenerateResidual`` when the innovation is too small to carry a
    gain correction.
    """
    _check_state_dims(pred.dim, c)
    est_u, innov = kalman.update_joseph(pred, z, model)
    if c.constraint_dim == 0:
        solution = RestrictedGainSolution(
            innov.gain, np.zeros(innov.gain.size), np.zeros(0)
        )
        return solution, ConstrainedUpdateResult(est_u, RESTRICTED_GAIN, 0.0)
    defect = c.matrix @ est_u.mean - c.rhs
    correction, multipliers = solve_lagrange_system(innov, c, defect)
    n, m = innov.gain.shape
    gain = innov.gain + unvec(correction, n, m)
    mean = pred.mean + gain @ innov.residual
    ups, _ = _gram_factorization(np.eye(n), c.matrix)
    pi = np.eye(n) - ups @ c.matrix
    cov = symmetrize(pi @ est_u.covariance @ pi.T)
    est = StateEstimate(mean, cov, pred.step)
    solution = RestrictedGainSolution(gain, correction, multipliers)
    return solution, ConstrainedUpdateResult(est, RESTRICTED_GAIN, c.residual_norm(mean))


def fusion_constrained_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
) -> ConstrainedUpdateResult:
    """Hard-constrained update as one stacked least-squares solve.

    Stacks the prediction, the measurement, and the constraint rows as
    observations with noise ``blkdiag(P, R, 0)`` and reads the solution
    off the pseudo-inverse of the saddle matrix
    ``[[noise, obs], [obs', 0]]``; the negated lower-right block of that
    pseudo-inverse is the posterior covariance.  Requires ``P`` and ``R``
    invertible (``SingularCovariance`` otherwise).  With q = 0 this
    reduces to :func:`update_fusion`.
    """
    kalman._check_update_dims(pred, z, model)
    _check_state_dims(pred.dim, c)
    for mat, label in (
        (pred.covariance, "prediction covariance"),
        (model.measurement_noise, "measurement noise"),
    ):
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > matops.CONDITION_LIMIT:
            raise SingularCovariance(
                f"{label} is numerically singular (condition estimate {cond:.3e})"
            )
    n = pred.dim
    m = model.measurement_dim
    q = c.constraint_dim
    stacked_z = np.concatenate([pred.mean, z.value, c.rhs])
    stacked_obs = np.vstack([np.eye(n), model.observation, c.matrix])
    noise = scipy.linalg.block_diag(
        pred.covariance, model.measurement_noise, np.zeros((q, q))
    )
    k = n + m + q
    saddle = np.block([[noise, stacked_obs], [stacked_obs.T, np.zeros((n, n))]])
    inv = matops.pseudo_inverse(saddle)
    mean = inv[k:, :k] @ stacked_z
    cov = symmetrize(-inv[k:, k:])
    est = StateEstimate(mean, cov, pred.step)
    return ConstrainedUpdateResult(est, FUSION, c.residual_norm(mean))


def gamma_projector(post_cov, c: EqualityConstraint) -> np.ndarray:
    """The oblique projector ``I - P A' (A P A')^-1 A`` onto the constraint
    null space along directions weighted by the posterior covariance.

    Idempotent, and annihilates the constrained covariance from the left:
    multiplying the posterior covariance by it yields a matrix ``X`` with
    ``A X = 0``.
    """
    p = as_matrix(post_cov, "posterior covariance")
    if p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"posterior covariance must be square, got {p.shape}")
    _check_state_dims(p.shape[0], c)
    if c.constraint_dim == 0:
        return np.eye(p.shape[0])
    ups, _ = _covariance_gram(p, c.matrix)
    return np.eye(p.shape[0]) - ups @ c.matrix


def joseph_constrained_cov(post_cov, c: EqualityConstraint) -> np.ndarray:
    """Constrained covariance in congruence form ``G P G'`` with ``G`` the
    projector of :func:`gamma_projector`.

    Algebraically equal to the one-sided product ``G P`` but symmetric
    positive semidefinite by construction, which makes it the stable
    choice inside long recursions.
    """
    p = as_matrix(post_cov, "posterior covariance")
    g = gamma_projector(p, c)
    return symmetrize(g @ p @ g.T)


def linearize(nc: NonlinearConstraint, x_ref) -> EqualityConstraint:
    """First-order reduction of ``func(x) = rhs`` about ``x_ref``.

    Returns the linear constraint ``J x = rhs + J x_ref - func(x_ref)``
    with ``J`` the Jacobian at ``x_ref``.  Raises
    ``RankDeficientJacobian`` when ``J`` loses row rank at the reference
    point.
    """
    x = as_vector(x_ref, "x_ref")
    jac = as_matrix(nc.jacobian(x), "jacobian")
    q = nc.constraint_dim
    if jac.shape != (q, x.size):
        raise DimensionMismatch(
            f"jacobian shape {jac.shape} does not match ({q}, {x.size})"
        )
    value = as_vector(nc.func(x), "constraint value")
    if value.size != q:
        raise DimensionMismatch(
            f"constraint value length {value.size} does not match rhs length {q}"
        )
    try:
        return EqualityConstraint(jac, nc.rhs + jac @ x - value)
    except ValueError as exc:
        raise RankDeficientJacobian(
            f"constraint Jacobian lost row rank at the linearization point: {exc}"
        ) from exc


def soft_augmented_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
    constraint_noise,
) -> ConstrainedUpdateResult:
    """Augmented update with a relaxed constraint.

    Identical to :func:`augmented_update` except the constraint rows carry
    the positive semidefinite noise covariance ``constraint_noise`` instead
    of zero, so the posterior mean approaches the constraint set without
    being pinned to it.  A zero noise recovers the hard augmented update; a
    very large noise approaches the unconstrained update.  The constraint
    residual of the result is reported but no longer driven to zero.
    """
    _check_state_dims(pred.dim, c)
    q = c.constraint_dim
    noise = as_matrix(constraint_noise, "constraint_noise")
    if noise.shape != (q, q):
        raise DimensionMismatch(
            f"constraint_noise must be {q}x{q}, got {noise.shape}"
        )
    matops.check_symmetric_psd(noise, "constraint_noise")
    kalman._check_update_dims(pred, z, model)
    stacked_obs = np.vstack([model.observation, c.matrix])
    stacked_noise = scipy.linalg.block_diag(model.measurement_noise, symmetrize(noise))
    stacked_z = np.concatenate([z.value, c.rhs])
    try:
        residual, _, gain = kalman._innovation(
            pred.mean, pred.covariance, stacked_z, stacked_obs, stacked_noise
        )
    except SingularInnovationCovariance as exc:
        raise SingularAugmentedInnovation(
            f"stacked residual covariance is singular: {exc}"
        ) from exc
    mean, cov = kalman._joseph_update(
        pred.mean, pred.covariance, stacked_obs, stacked_noise, residual, gain
    )
    est = StateEstimate(mean, cov, pred.step)
    return ConstrainedUpdateResult(est, SOFT_AUGMENTED, c.residual_norm(mean))
