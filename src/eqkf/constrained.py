"""Equality-constrained update methods for the linear Kalman filter.

When the state is known to satisfy ``A x = b`` with ``A`` full row rank,
four hard-constraint strategies are provided, each landing the posterior
mean exactly on the constraint set:

* :func:`augmented_update` appends the constraint rows as noise-free
  pseudo-measurements below the real measurement and applies the stacked
  gain ``[K - U (A K), U]`` to the stacked innovation ``[v; b - A x]``.
  Its blocks are those of the inverse stacked residual covariance
  (:func:`block_s_inverse`), written with the projection's ``U`` so that
  no block of that inverse is formed.
* :func:`project` (and its posterior-inverse specialization
  :func:`constrain_posterior`) corrects an unconstrained posterior by a
  weighted least-distance move onto the constraint set.
* :func:`restricted_gain_update` re-optimizes the gain matrix itself
  subject to the corrected mean being feasible; the optimality system is
  solved in closed form by :func:`solve_lagrange_system`.
* :func:`fusion_constrained_update` fuses prediction, measurement, and
  constraint in a single stacked least-squares solve: one Bunch-Kaufman
  factorization of the equilibrated saddle matrix, in the stages
  ``kalman._fusion_stage`` and ``kalman._fusion_solve`` that
  :func:`kalman.update_fusion` runs with no constraint rows.

The first, second (with the posterior-inverse weight), and fourth agree in
exact arithmetic; the third coincides with the identity-weight projection.
:func:`soft_augmented_update` relaxes the constraint by giving the
pseudo-measurement a nonzero noise covariance, and :func:`linearize`
reduces a differentiable nonlinear constraint to the linear form accepted
everywhere else.

Every hard update except fusion (which factors its own saddle matrix)
is a least-distance correction through the Gram matrix
``G = A W^-1 A'``, and all of them share one factorization of it,
:func:`_gram_factorization`: a QR decomposition of ``(A L)'`` with
``W^-1 = L L'``, guarded by ``matops.CONDITION_LIMIT``.  ``L`` is
:func:`_covariance_factor` of the posterior for the ``POSTERIOR_INVERSE``
weight, the identity ``matops._identity(n)`` for ``IDENTITY``, and the
factor an explicit weight's :class:`ProjectionSpec` holds; nothing factored
is stored on the constraint.  Each correction moves the mean along ``U``
(:func:`_along`); its covariance, from :func:`_project_stage` for all of
them, is the congruence ``(I - U A) P (I - U A)'``, which keeps
hard-constrained (rank ``n - q``) covariances symmetric positive
semidefinite over long runs.  A posterior the ``StateEstimate`` checks
reject raises ``IndefiniteCovariance`` (``kalman._estimate``, and
:func:`_check_posterior` for one that no estimate carries).

Each update is its row of :data:`METHODS`, two private kernel stages on plain
arrays with the constraint as its rows ``a`` and ``b`` (a constraint's
``_rows``), which the public update runs after checking its inputs, as scenario
runs and the Monte-Carlo oracle do.  The covariance stage reads only the
covariance, the model, ``a``, the weight and the soft noise, and returns the
posterior covariances and the blocks the mean needs: the gain and ``U``;
augmentation and the restricted gain run the stage of the projection they
equal.  The mean stage applies them to one mean ``(n,)``, with ``b`` ``(q,)``,
or to a stack ``(n, T)`` of means in columns, with ``b`` ``(q, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import kalman, matops
from .errors import (
    DegenerateResidual,
    DimensionMismatch,
    FilterError,
    IndefiniteCovariance,
    RankDeficientJacobian,
    SingularAugmentedInnovation,
    SingularConstraintGram,
    SingularInnovationCovariance,
    SingularWeight,
)
from .kalman import InnovationStats, Measurement, StateEstimate, SystemModel
from .matops import (
    SaddleInverseBlocks,
    as_matrix,
    as_vector,
    frozen_array,
    symmetrize,
)

# Method tags carried by ConstrainedUpdateResult.
AUGMENTED = "augmented"
PROJECTION = "projection"
RESTRICTED_GAIN = "restricted_gain"
FUSION = "fusion"
SOFT_AUGMENTED = "soft_augmented"

# Distinguished weight choices for ProjectionSpec: the inverse of the
# unconstrained posterior covariance (never formed explicitly), and I.
POSTERIOR_INVERSE = "posterior_inverse"
IDENTITY = "identity"

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

    def _rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The rows ``(A, b)`` the kernels take, the same at every ``x``."""
        return self.matrix, self.rhs

    def residual_norm(self, x) -> float:
        """Euclidean norm of ``matrix @ x - rhs``, ``inf`` where it overflows."""
        e = self.matrix @ as_vector(x, "x") - self.rhs
        return math.sqrt(e @ e)

    # The run loop, which already reads an overflow as inf, calls the bare norm.
    _residual, residual_norm = residual_norm, np.errstate(over="ignore")(residual_norm)


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

    def _rows(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The rows of :func:`linearize` about ``x``, with every check of it but
        the rank test, which the kernels' guards make."""
        try:
            x = as_vector(x, "x_ref")
            jac = as_matrix(self.jacobian(x), "jacobian")
            value = as_vector(self.func(x), "constraint value")
        except ValueError as exc:
            raise FilterError(f"cannot linearize the constraint at x_ref: {exc}") from exc
        q = self.constraint_dim
        if jac.shape != (q, x.size) or value.size != q:
            raise DimensionMismatch(
                f"jacobian shape {jac.shape} or value length {value.size} does not fit "
                f"{q} constraint rows over {x.size} states"
            )
        return jac, self.rhs + jac @ x - value

    def residual_norm(self, x) -> float:
        """Euclidean norm of ``func(x) - rhs``; ``inf`` where ``func(x)`` is not
        finite, as where the norm itself overflows."""
        value = np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)
        if not np.isfinite(value).all():
            return math.inf
        e = as_vector(value, "constraint value") - self.rhs
        return math.sqrt(e @ e)

    _residual, residual_norm = residual_norm, np.errstate(over="ignore")(residual_norm)


@dataclass(frozen=True)
class ProjectionSpec:
    """Options for :func:`project`.

    ``weight`` is the ``POSTERIOR_INVERSE`` marker (the default, weighting
    distances by the inverse posterior covariance), ``IDENTITY``, or an
    explicit n x n matrix, positive definite and symmetric by the rule of
    ``kalman._check_covariance``.  An explicit weight is condition-tested
    (else ``SingularWeight``) and factored once: ``_factor``, not a field, is
    ``L`` with ``W^-1 = L L'``.
    """

    weight: np.ndarray | str = POSTERIOR_INVERSE

    def __post_init__(self):
        object.__setattr__(self, "_factor", None)
        if isinstance(self.weight, str):
            if self.weight not in (POSTERIOR_INVERSE, IDENTITY):
                raise ValueError(f"unknown weight choice '{self.weight}'")
            return
        w = as_matrix(self.weight, "weight")
        kalman._check_covariance(w, "weight", require_pd=True)
        cond = np.linalg.cond(w)
        if not np.isfinite(cond) or cond > matops.CONDITION_LIMIT:
            raise SingularWeight(
                f"weight is numerically singular (condition estimate {cond:.3e})"
            )
        lw = matops.spd_cholesky(w, name="weight", error=SingularWeight)
        # W^-1 = L L' with L the inverse transpose of the Cholesky factor.
        factor = matops._triangular_solve(lw, matops._identity(w.shape[0]), lower=True).T
        object.__setattr__(self, "weight", frozen_array(w))
        object.__setattr__(self, "_factor", frozen_array(factor))


_POSTERIOR_INVERSE_SPEC = ProjectionSpec(POSTERIOR_INVERSE)
_IDENTITY_SPEC = ProjectionSpec(IDENTITY)


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


def _check_posterior(cov, label: str) -> None:
    """Raise ``IndefiniteCovariance`` unless ``cov`` passes the ``StateEstimate``
    checks; for a covariance that no estimate carries."""
    try:
        kalman._check_covariance(as_matrix(cov, "covariance"), "covariance")
    except ValueError as exc:
        raise IndefiniteCovariance(f"{label} posterior: {exc}") from exc


def _result(method: str, c: EqualityConstraint, mean, cov, step: int):
    """The result of a constrained update, its estimate built by ``kalman._estimate``."""
    est = kalman._estimate(mean, cov, step, f"{method} posterior")
    return ConstrainedUpdateResult(est, method, c._residual(mean))


def _run_row(tag: str, pred, z, model: SystemModel, c: EqualityConstraint, noise=None):
    """Check a public update's inputs and run its row ``METHODS[tag]`` on them:
    the covariance stage, then the estimate and the unconstrained update of the
    mean stage, as ``(mean, cov)``, the latter checked if the row forms it."""
    _check_state_dims(pred.dim, c)
    kalman._check_update_dims(pred, z, model)
    row = METHODS[tag]
    stage = row.covariance(pred.covariance, model, c.matrix, None, noise)
    estimate, plain = row.mean(stage, pred.mean, z.value, model, c.matrix, c.rhs)
    if plain is not None:
        _check_posterior(plain[1], "unconstrained")
    return stage, estimate, plain


def _gram_factorization(
    l_factor: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(U, G^-1)`` for the Gram matrix ``G = A W^-1 A'``, given
    ``L`` with ``W^-1 = L L'``, where ``U = W^-1 A' G^-1``.

    ``G = R' R`` is factored through one QR decomposition of ``(A L)'``
    (``?geqrf`` and ``?orgqr``, :func:`matops._qr`) so its condition number
    is never squared; ``SingularConstraintGram`` is raised when its estimate
    ``(|R|_F / min |r_ii|)^2``, which unlike the ratio of extreme diagonal
    entries sees nearly parallel rows of ``A L``, exceeds ``CONDITION_LIMIT``
    (``|R|_F = |A L|_F``, the norm of the QR's input).
    """
    al = a @ l_factor
    q_mat, r = matops._qr(al.T)
    diag = np.abs(r.diagonal()).tolist()
    if diag and (
        min(diag) <= 0.0
        or (np.linalg.norm(al) / min(diag)) ** 2 > matops.CONDITION_LIMIT
    ):
        raise SingularConstraintGram("constraint Gram matrix is numerically singular")
    z = matops._triangular_solve(r, q_mat.T)
    r_inv = matops._triangular_solve(r, matops._identity(a.shape[0]))
    return l_factor @ z.T, r_inv @ r_inv.T


def _covariance_factor(cov: np.ndarray) -> np.ndarray:
    """``L`` with ``L L' = P`` for a covariance ``P = cov``, the ``W^-1`` factor
    of the ``POSTERIOR_INVERSE`` weight: the Cholesky factor of ``P``.  A
    covariance that is only positive semidefinite (a hard-constrained
    posterior is rank ``n - q``) has none, and falls back to the eigenvalue
    factor of :func:`matops.psd_factor`; the Gram matrix is then regular only
    if no combination of the rows of ``A`` lies in the null space of ``P``.
    """
    sym = 0.5 * (cov + cov.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return matops.psd_factor(sym)


def _along(ups, a, b, mean) -> np.ndarray:
    """Mean stage of a projection along ``U``: each column's ``mean - U (a mean - b)``."""
    return mean - ups @ (a @ mean - b)


def _projection_mean(stage, mean, z, model: SystemModel, a, b):
    """Mean stage of the projection rows: each column's gain update, then its move
    along ``U``, as the constrained and the unconstrained ``(mean, cov)``."""
    _, gain, post, ((ups, _), cov) = stage
    plain = kalman._correct(mean, z, model.observation, gain)[1]
    return (_along(ups, a, b, plain), cov), (plain, post)


def constrain_posterior(est: StateEstimate, c: EqualityConstraint) -> ConstrainedUpdateResult:
    """:func:`project` with the ``POSTERIOR_INVERSE`` weight, the
    minimum-variance correction; ``A cov' = 0`` and ``cov' <= P``.

    mean' = mean - U (A mean - b),  U = P A' (A P A')^-1
    cov'  = (I - U A) P (I - U A)'   (symmetrized)

    The congruence equals ``P - U A P`` in exact arithmetic, but unlike that
    one-sided form it stays positive semidefinite when the correction
    removes the dominant direction of an ill-conditioned ``P``.
    """
    return project(est, c)


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
    if p_pred.shape != (model.state_dim, model.state_dim):
        raise DimensionMismatch(
            f"prediction covariance shape {p_pred.shape} does not match the model"
        )
    _check_state_dims(model.state_dim, c)
    p_post = symmetrize(p_pred - p_pred @ model.observation.T @ innov.gain.T)
    _, g_inv = _gram_factorization(_covariance_factor(p_post), c.matrix)
    s = innov.residual_cov
    s_inv = matops._cholesky_solve(
        s, matops._identity(s.shape[0]), "innovation covariance", SingularInnovationCovariance
    )
    ak = c.matrix @ innov.gain
    akt_ginv = ak.T @ g_inv
    upper_left = s_inv + akt_ginv @ ak
    return SaddleInverseBlocks(0.5 * (upper_left + upper_left.T), -akt_ginv, -g_inv @ ak, g_inv)


def _joseph_stage(cov, model: SystemModel, a, weight: ProjectionSpec, noise=None):
    """Covariance stage of each gain update that projects: ``kalman._joseph``'s
    ``S``, ``K`` and ``P_post``, and the :func:`_project_stage` of ``P_post``
    onto the rows ``a`` with ``weight`` (None without rows)."""
    s, gain, post = kalman._joseph(cov, model.observation, model.measurement_noise)
    if a is None or not len(a):
        return s, gain, post, None
    return s, gain, post, _project_stage(post, a, weight)


def _augmented_stage(cov, model: SystemModel, a, weight, noise):
    """Covariance stage of :func:`augmented_update`: :func:`_joseph_stage` with
    the ``POSTERIOR_INVERSE`` weight, which is the projection's stage."""
    try:
        return _joseph_stage(cov, model, a, _POSTERIOR_INVERSE_SPEC)
    except (SingularInnovationCovariance, SingularConstraintGram) as exc:
        if a is None or not len(a):
            raise
        message = f"stacked residual covariance is singular: {exc}"
        raise SingularAugmentedInnovation(message) from exc


def _augmented_mean(stage, mean, z, model: SystemModel, a, b):
    """Mean stage of :func:`augmented_update`: the constrained and the
    unconstrained ``(mean, cov)``, each column's ``[v; b - A x]`` times the
    stacked gain ``[K - U (A K), U]`` that :func:`block_s_inverse` gives."""
    _, gain, post, projected = stage
    residual, plain = kalman._correct(mean, z, model.observation, gain)
    if projected is None:
        return ((plain, post),) * 2
    (ups, _), cov = projected
    mean = mean + (gain - ups @ (a @ gain)) @ residual + ups @ (b - a @ mean)
    return (mean, cov), (plain, post)


@np.errstate(over="ignore")
def augmented_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
) -> ConstrainedUpdateResult:
    """Hard-constrained update by measurement augmentation.

    Runs a gain update on the stacked observation ``[H; A]`` with noise
    ``blkdiag(R, 0)``: the stacked gain ``[K - U (A K), U]`` of
    :func:`_augmented_mean`, with ``U = P_post A' G^-1`` of the projection,
    not a block inverse of the stacked residual covariance.  Equals
    :func:`constrain_posterior` applied after :func:`update_joseph`, and is
    that update with q = 0.  A singular stacked residual covariance raises
    ``SingularAugmentedInnovation`` (``SingularInnovationCovariance`` if q = 0).
    """
    _, (mean, cov), _ = _run_row(AUGMENTED, pred, z, model, c)
    return _result(AUGMENTED, c, mean, cov, pred.step)


def _project_stage(cov, a, spec: ProjectionSpec):
    """Covariance stage of :func:`project` and of each update equal to one, on
    the rows ``a``: ``(U, G^-1)`` for ``spec``'s weight, and ``(I - U A) cov (I - U A)'``."""
    n, factor = cov.shape[0], spec._factor
    if factor is None:
        factor = matops._identity(n) if spec.weight == IDENTITY else _covariance_factor(cov)
    gram = _gram_factorization(factor, a)
    pi = matops._identity(n) - gram[0] @ a
    p = pi @ cov @ pi.T
    return gram, 0.5 * (p + p.T)


@np.errstate(over="ignore")
def project(
    est: StateEstimate,
    c: EqualityConstraint,
    spec: ProjectionSpec = ProjectionSpec(),
) -> ConstrainedUpdateResult:
    """Weighted least-distance projection of an estimate onto ``A x = b``.

    Solves ``min (x - mean)' W (x - mean)`` subject to ``A x = b``:

        mean' = mean - W^-1 A' (A W^-1 A')^-1 (A mean - b)

    The covariance takes the congruence ``(I - U A) P (I - U A)'``, which
    keeps it symmetric positive semidefinite for any weight.
    """
    _check_state_dims(est.dim, c)
    if spec._factor is not None and spec.weight.shape != (est.dim, est.dim):
        raise DimensionMismatch(
            f"weight shape {spec.weight.shape} does not match state dimension {est.dim}"
        )
    if c.constraint_dim == 0:
        return ConstrainedUpdateResult(est, PROJECTION, 0.0)
    (ups, _), cov = _project_stage(est.covariance, c.matrix, spec)
    return _result(PROJECTION, c, _along(ups, c.matrix, c.rhs, est.mean), cov, est.step)


def _innovation_weight(s, residual) -> tuple[np.ndarray, np.ndarray]:
    """``S^-1 v`` and the quadratic form ``v' S^-1 v`` of each innovation column
    ``v``; one innovation ``(m,)`` whose form is :func:`_degenerate` raises
    ``DegenerateResidual``, which a stack ``(m, T)`` leaves to its caller."""
    s_inv_nu = matops._cholesky_solve(
        s, residual, "innovation covariance", SingularInnovationCovariance
    )
    quad = np.sum(residual * s_inv_nu, axis=0)
    if residual.ndim == 1 and _degenerate(quad):
        raise DegenerateResidual(
            f"innovation quadratic form {quad:.3e} is below tolerance or not finite"
        )
    return s_inv_nu, quad


def _degenerate(quad):
    """Whether each innovation's ``v' S^-1 v`` is at or below
    ``DEGENERATE_RESIDUAL_TOL`` or not finite, too small or too large to carry
    a gain correction."""
    return ~np.isfinite(quad) | (quad <= DEGENERATE_RESIDUAL_TOL)


def _gain_correction(gram, target, s_inv_nu, quad):
    """The ``(correction, multipliers)`` of :func:`solve_lagrange_system` for
    the identity weight's ``gram = (U, (A A')^-1)``, ``target = b - A x_post``
    and one innovation's ``S^-1 v`` and ``v' S^-1 v``."""
    ups, gram_inv = gram
    correction = np.outer(ups @ target, s_inv_nu / quad).reshape(-1, order="F")
    return correction, -2.0 * (gram_inv @ target) / quad


@np.errstate(over="ignore")
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

        correction  = vec(A' (A A')^-1 (b - A x_post) (S^-1 v / v' S^-1 v)')
        multipliers = -2 (A A')^-1 (b - A x_post) / v' S^-1 v

    with ``v`` the innovation (:func:`eqkf.oracle.dense_lagrange_solve`
    solves the Kronecker form densely); ``A A'`` is factored by the same
    guarded QR as every other constraint Gram matrix.  Raises
    ``DegenerateResidual`` when the quadratic form ``v' S^-1 v`` is below
    tolerance (the optimality system is then singular); callers should
    fall back to the identity-weight projection, which yields the same
    corrected mean.
    """
    if c.constraint_dim == 0:
        return np.zeros(innov.gain.size), np.zeros(0)
    residual = as_vector(posterior_residual, "posterior_residual")
    if residual.size != c.constraint_dim:
        raise DimensionMismatch(
            f"posterior_residual length {residual.size} does not match "
            f"{c.constraint_dim} constraint rows"
        )
    gram = _gram_factorization(matops._identity(c.state_dim), c.matrix)
    weight = _innovation_weight(innov.residual_cov, innov.residual)
    return _gain_correction(gram, -residual, *weight)


def _restricted_gain_mean(stage, mean, z, model: SystemModel, a, b):
    """Mean stage of :func:`restricted_gain_update` (whose covariance stage is
    :func:`_joseph_stage` with the ``IDENTITY`` weight): the constrained and the
    unconstrained ``(mean, cov)``.  Each column's innovation ``v`` gets the gain
    ``K + U d w'`` of :func:`solve_lagrange_system` as ``K v + U d (w' v)``.  A
    column of a stack with a degenerate ``v' S^-1 v`` takes the identity-weight
    projection, which has the same mean; one mean with a degenerate form raises
    ``DegenerateResidual``, as the public update does."""
    s, gain, post, projected = stage
    residual, plain = kalman._correct(mean, z, model.observation, gain)
    if projected is None:
        return (plain, post), (plain, post)
    (ups, _), cov = projected
    s_inv_nu, quad = _innovation_weight(s, residual)
    degenerate = _degenerate(quad)
    w = s_inv_nu / np.where(degenerate, np.inf, quad)
    defect = b - a @ plain
    corrected = plain + np.sum(w * residual, axis=0) * (ups @ defect)
    mean = np.where(degenerate, _along(ups, a, b, plain), corrected)
    return (mean, cov), (plain, post)


@np.errstate(over="ignore")
def restricted_gain_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
) -> tuple[RestrictedGainSolution, ConstrainedUpdateResult]:
    """Update with the gain re-optimized under the feasibility condition.

    The returned gain is the unconstrained gain plus the unstacked
    correction of :func:`solve_lagrange_system`; applying it to the
    innovation lands the mean exactly on ``A x = b``.  The corrected mean
    equals the identity-weight projection of the unconstrained posterior,
    and the covariance is carried accordingly.  Raises
    ``DegenerateResidual`` when the innovation is too small to carry a
    gain correction.
    """
    stage, (mean, cov), (plain, _) = _run_row(RESTRICTED_GAIN, pred, z, model, c)
    s, gain, _, projected = stage
    correction, multipliers = np.zeros(gain.size), np.zeros(0)
    if c.constraint_dim:
        weight = _innovation_weight(s, z.value - model.observation @ pred.mean)
        # the stage's (U, (A A')^-1), factored for the identity weight
        correction, multipliers = _gain_correction(
            projected[0], c.rhs - c.matrix @ plain, *weight
        )
    gain = gain + correction.reshape(gain.shape, order="F")
    solution = RestrictedGainSolution(gain, correction, multipliers)
    return solution, _result(RESTRICTED_GAIN, c, mean, cov, pred.step)


@np.errstate(over="ignore")
def fusion_constrained_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
) -> ConstrainedUpdateResult:
    """Hard-constrained update as one stacked least-squares solve.

    Stacks the prediction, the measurement, and the constraint rows as
    observations with noise ``blkdiag(P, R, 0)`` and solves the saddle
    system ``[[noise, obs], [obs', 0]]`` through one Bunch-Kaufman
    factorization of its diagonally equilibrated form: for the stacked
    observation, whose lower block is the fused mean (after one step of
    iterative refinement), and for its last ``n`` unit columns, whose
    negated lower block is the posterior covariance.  ``P`` and ``R`` need
    not be invertible, only the saddle matrix regular: ``SingularCovariance``
    is raised when it has a zero row, a pivot of the factorization is exactly
    singular or its reciprocal condition estimate is below
    ``1 / CONDITION_LIMIT``.  :func:`kalman.update_fusion` is its q = 0 case;
    both run the stages ``kalman._fusion_stage`` and ``kalman._fusion_solve``.
    """
    _, (mean, cov), _ = _run_row(FUSION, pred, z, model, c)
    return _result(FUSION, c, mean, cov, pred.step)


def _square_posterior(post_cov, c: EqualityConstraint) -> np.ndarray:
    """``post_cov`` as an array, checked to be square over ``c``'s states."""
    p = as_matrix(post_cov, "posterior covariance")
    if p.shape[0] != p.shape[1]:
        raise DimensionMismatch(f"posterior covariance must be square, got {p.shape}")
    _check_state_dims(p.shape[0], c)
    return p


def gamma_projector(post_cov, c: EqualityConstraint) -> np.ndarray:
    """The oblique projector ``I - P A' (A P A')^-1 A`` onto the constraint
    null space along directions weighted by the posterior covariance.

    Idempotent, and annihilates the constrained covariance from the left:
    multiplying the posterior covariance by it yields a matrix ``X`` with
    ``A X = 0``.
    """
    p = _square_posterior(post_cov, c)
    ups, _ = _gram_factorization(_covariance_factor(p), c.matrix)
    return np.eye(c.state_dim) - ups @ c.matrix


def joseph_constrained_cov(post_cov, c: EqualityConstraint) -> np.ndarray:
    """Constrained covariance in congruence form ``G P G'`` with ``G`` the
    projector of :func:`gamma_projector`.

    Algebraically equal to the one-sided product ``G P`` but symmetric
    positive semidefinite by construction, which makes it the stable
    choice inside long recursions.
    """
    return _project_stage(_square_posterior(post_cov, c), c.matrix, _POSTERIOR_INVERSE_SPEC)[1]


def linearize(nc: NonlinearConstraint, x_ref) -> EqualityConstraint:
    """First-order reduction of ``func(x) = rhs`` about ``x_ref``.

    Returns the linear constraint ``J x = rhs + J x_ref - func(x_ref)`` with
    ``J`` the Jacobian at ``x_ref``.  Raises ``RankDeficientJacobian`` when
    ``J`` loses row rank there, and ``FilterError`` when ``x_ref``, ``J`` or
    the value there is not finite.
    """
    try:
        return EqualityConstraint(*nc._rows(x_ref))
    except ValueError as exc:
        raise RankDeficientJacobian(
            f"constraint Jacobian lost row rank at the linearization point: {exc}"
        ) from exc


def _soft_stage(cov, model: SystemModel, a, weight, noise):
    """Covariance stage of :func:`soft_augmented_update`: the stacked
    observation ``[H; A]`` and the gain and Joseph covariance of it with noise
    ``blkdiag(R, sym(noise))``, each stack written into one array."""
    m = model.measurement_dim
    k = m + a.shape[0]
    stacked_obs = np.empty((k, model.state_dim))
    stacked_obs[:m] = model.observation
    stacked_obs[m:] = a
    stacked_noise = np.zeros((k, k))
    stacked_noise[:m, :m] = model.measurement_noise
    stacked_noise[m:, m:] = 0.5 * (noise + noise.T)
    try:
        _, gain, post = kalman._joseph(cov, stacked_obs, stacked_noise)
    except SingularInnovationCovariance as exc:
        raise SingularAugmentedInnovation(
            f"stacked residual covariance is singular: {exc}"
        ) from exc
    return stacked_obs, gain, post


def _soft_mean(stage, mean, z, model: SystemModel, a, b):
    """Mean stage of :func:`soft_augmented_update`: the ``(mean, cov)`` of the
    gain update with each column's ``[z, b]``, written into one array, and None."""
    stacked_obs, gain, post = stage
    m = model.measurement_dim
    stacked_z = np.empty((stacked_obs.shape[0], *z.shape[1:]))
    stacked_z[:m] = z
    stacked_z[m:] = b
    return (kalman._correct(mean, stacked_z, stacked_obs, gain)[1], post), None


@np.errstate(over="ignore")
def soft_augmented_update(
    pred: StateEstimate,
    z: Measurement,
    model: SystemModel,
    c: EqualityConstraint,
    constraint_noise,
) -> ConstrainedUpdateResult:
    """Augmented update with a relaxed constraint.

    Identical to :func:`augmented_update` except the constraint rows carry
    the noise covariance ``constraint_noise`` instead of zero (checked by the
    rule of the model's noise matrices, ``kalman._check_covariance``), so the
    posterior mean approaches the constraint set without being pinned to it.
    A zero noise recovers the hard augmented update; a very large noise
    approaches the unconstrained update.  The constraint
    residual of the result is reported but no longer driven to zero.
    """
    _check_state_dims(pred.dim, c)
    q = c.constraint_dim
    noise = as_matrix(constraint_noise, "constraint_noise")
    if noise.shape != (q, q):
        raise DimensionMismatch(
            f"constraint_noise must be {q}x{q}, got {noise.shape}"
        )
    kalman._check_covariance(noise, "constraint_noise")
    _, (mean, cov), _ = _run_row(SOFT_AUGMENTED, pred, z, model, c, noise)
    return _result(SOFT_AUGMENTED, c, mean, cov, pred.step)


class Method(NamedTuple):
    """A row of :data:`METHODS`, an update in two stages.  The covariance stage
    ``covariance(cov, model, a, weight, noise)`` reads no mean: ``a`` and ``b``
    are the constraint rows ``a x = b``, None if not ``needs_constraint`` (so
    the unconstrained row is augmentation with no rows); only the projection
    rows read the :class:`ProjectionSpec` ``weight``, only the soft row the
    constraint ``noise``.  The mean stage ``mean(stage, mean, z, model, a, b)``
    applies it and returns the estimate and the unconstrained update if
    ``forms_unconstrained`` (else None), as ``(mean, cov)``.  Tags in one
    ``group`` have equal means in exact arithmetic; the group names the
    projection weight.  ``shares`` names the tag whose covariance stage the
    row's is, which a scenario run then computes once per step for both."""

    covariance: Callable[..., tuple]
    mean: Callable[..., tuple[tuple, tuple | None]]
    group: str | None = None
    needs_constraint: bool = True
    forms_unconstrained: bool = True
    shares: str | None = None


# Every method, keyed by its document tag, which is also its report label.
# The order fixes the order of the harness's method names and divergence pairs.
METHODS = {
    "unconstrained": Method(_augmented_stage, _augmented_mean, needs_constraint=False),
    AUGMENTED: Method(_augmented_stage, _augmented_mean, POSTERIOR_INVERSE, shares=PROJECTION),
    FUSION: Method(
        lambda cov, model, a, *_: kalman._fusion_stage(cov, model, a),
        lambda stage, mean, z, model, a, b: (kalman._fusion_solve(stage, mean, z, b), None),
        POSTERIOR_INVERSE,
        forms_unconstrained=False,
    ),
    PROJECTION: Method(_joseph_stage, _projection_mean, POSTERIOR_INVERSE),
    RESTRICTED_GAIN: Method(
        lambda cov, model, a, *_: _joseph_stage(cov, model, a, _IDENTITY_SPEC),
        _restricted_gain_mean,
        IDENTITY,
        shares="projection_identity",
    ),
    "projection_identity": Method(_joseph_stage, _projection_mean, IDENTITY),
    SOFT_AUGMENTED: Method(_soft_stage, _soft_mean, forms_unconstrained=False),
}
