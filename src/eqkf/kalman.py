"""Discrete-time linear Kalman filtering over immutable value types.

A filter is just a :class:`StateEstimate` threaded through :func:`predict`
and one of the update functions.  Two algebraically equivalent updates are
provided:

* :func:`update_joseph`, the classic gain recursion with the symmetric
  Joseph covariance form ``(I - K H) P (I - K H)' + K R K'``, and
* :func:`update_fusion`, a weighted least-squares solve that stacks the
  prediction on top of the measurement as one observation of the state,
  in the saddle stages :func:`_fusion_stage` and :func:`_fusion_solve` that
  constrained fusion runs with its exact rows stacked below.

Covariances are symmetrized after every step so long runs cannot drift
into asymmetry.  The public functions check their inputs and run private
kernels on arrays in two stages: a covariance stage that reads no mean
(:func:`_predict_covariance`, :func:`_gain`, :func:`_joseph`,
:func:`_fusion_stage`) and returns the covariance and what the mean needs,
and a mean stage (:func:`_correct`, :func:`_fusion_solve`) that applies it
to one mean or a ``(T, n)`` stack of means in rows.  :func:`_estimate`
builds an estimate from a kernel's arrays; one that fails the
``StateEstimate`` checks raises ``IndefiniteCovariance``, naming the mean or
the covariance when it is the non-finite array.  The public functions run
under ``np.errstate(over="ignore", invalid="ignore")``, so an input that
overflows raises the typed error of its non-finite result, not a
``RuntimeWarning``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FilterError,
    IndefiniteCovariance,
    SingularInnovationCovariance,
)
from .matops import (
    _cholesky_solve,
    _identity,
    _min_eig,
    _saddle_solver,
    as_matrix,
    as_vector,
    frozen_array,
)

# Construction tolerances: relative symmetry/eigenvalue slack plus a small
# absolute floor so genuinely zero covariances survive roundoff.
_SYM_RTOL = 1e-9
_EIG_RTOL = 1e-9
_ABS_FLOOR = 1e-12


def _check_covariance(
    c: np.ndarray, name: str, require_pd: bool = False
) -> tuple[float, float]:
    """Raise ``ValueError`` unless ``c`` is a symmetric positive semidefinite
    (definite if ``require_pd``) covariance; return the smallest eigenvalue
    and the largest asymmetry ``|c - c'|`` it measured (nan and 0 if empty).
    The package's one such rule: estimates, noise matrices, ``S``, projection
    weights and soft constraint noise all pass it."""
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"{name} must be square, got shape {c.shape}")
    if c.size == 0:
        return float("nan"), 0.0
    # Each tolerance is never negative, so it is computed only for a nonzero
    # asymmetry or a negative eigenvalue, the figures it may have to excuse.
    asym = float(np.abs(c - c.T).max())
    if asym > 0.0:
        scale = float(np.abs(c).max())
        if asym > _SYM_RTOL * scale + _ABS_FLOOR * max(1.0, scale):
            raise ValueError(f"{name} is not symmetric")
    # an exactly symmetric c is its own symmetric part, bit for bit
    low = _min_eig(0.5 * (c + c.T) if asym else c)
    if require_pd:
        if low <= 0.0:
            raise ValueError(f"{name} is not positive definite")
        return low, asym
    if low < 0.0:
        scale = float(np.abs(c).max())
        if low < -(_EIG_RTOL * abs(float(c.trace())) + _ABS_FLOOR * max(1.0, scale)):
            raise ValueError(
                f"{name} is not positive semidefinite (min eigenvalue {low:.3e})"
            )
    return low, asym


@dataclass(frozen=True)
class StateEstimate:
    """State mean and error covariance at a time index.

    The covariance must be symmetric and positive semidefinite up to a
    small roundoff allowance; hard-constrained posteriors are rank
    deficient by design, so positive definiteness is not required.
    ``cov_min_eig`` and ``cov_asym`` are the smallest eigenvalue and the
    largest asymmetry that this check computed; they are not fields, so
    equality and ``repr`` see only the mean, covariance and step.
    """

    mean: np.ndarray
    covariance: np.ndarray
    step: int = 0

    def __post_init__(self):
        mean = as_vector(self.mean, "mean")
        cov = as_matrix(self.covariance, "covariance")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match state dimension {mean.size}"
            )
        health = _check_covariance(cov, "covariance")
        self.__dict__.update(mean=frozen_array(mean), covariance=frozen_array(cov),
                             step=int(self.step), _health=health)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def cov_min_eig(self) -> float:
        """Smallest eigenvalue of the symmetrized covariance, as
        ``matops.min_eigenvalue`` computes it."""
        return self._health[0]

    @property
    def cov_asym(self) -> float:
        """Largest entry of ``|covariance - covariance'|``."""
        return self._health[1]


def _estimate(mean, cov, step: int, what: str, earlier=None) -> StateEstimate:
    """A ``StateEstimate`` that takes over a kernel's finite arrays, checking
    ``cov`` by :func:`_check_covariance`, or with the covariance and figures
    of an ``earlier`` estimate in its place; a failure raises
    ``IndefiniteCovariance`` naming ``what``.  A view is copied, so no
    estimate pins a larger work array, and both arrays become read-only."""
    cov, health = (cov, None) if earlier is None else (earlier.covariance, earlier._health)
    try:
        if not np.isfinite(mean).all():
            raise ValueError("mean has non-finite entries")
        if not np.isfinite(cov).all():
            raise ValueError("covariance has non-finite entries")
        health = health or _check_covariance(cov, "covariance")
    except ValueError as exc:
        raise IndefiniteCovariance(f"{what}: {exc}") from exc
    mean, cov = (a if a.base is None else a.copy() for a in (mean, cov))
    mean.flags.writeable = cov.flags.writeable = False
    est = object.__new__(StateEstimate)
    est.__dict__.update(mean=mean, covariance=cov, step=step, _health=health)
    return est


@dataclass(frozen=True)
class SystemModel:
    """One step of a linear system: transition, process noise, observation,
    and measurement noise matrices.

    ``transition`` and ``process_noise`` are n x n, ``observation`` is
    m x n, and ``measurement_noise`` is m x m; both noise matrices must be
    symmetric positive semidefinite.
    """

    transition: np.ndarray
    process_noise: np.ndarray
    observation: np.ndarray
    measurement_noise: np.ndarray

    def __post_init__(self):
        f = as_matrix(self.transition, "transition")
        q = as_matrix(self.process_noise, "process_noise")
        h = as_matrix(self.observation, "observation")
        r = as_matrix(self.measurement_noise, "measurement_noise")
        n = f.shape[0]
        if f.shape != (n, n):
            raise ValueError(f"transition must be square, got shape {f.shape}")
        if q.shape != (n, n):
            raise ValueError(f"process_noise must be {n}x{n}, got {q.shape}")
        if h.shape[1] != n:
            raise ValueError(
                f"observation must have {n} columns to match the state, got {h.shape}"
            )
        m = h.shape[0]
        if r.shape != (m, m):
            raise ValueError(f"measurement_noise must be {m}x{m}, got {r.shape}")
        _check_covariance(q, "process_noise")
        _check_covariance(r, "measurement_noise")
        object.__setattr__(self, "transition", frozen_array(f))
        object.__setattr__(self, "process_noise", frozen_array(q))
        object.__setattr__(self, "observation", frozen_array(h))
        object.__setattr__(self, "measurement_noise", frozen_array(r))

    @property
    def state_dim(self) -> int:
        return self.transition.shape[0]

    @property
    def measurement_dim(self) -> int:
        return self.observation.shape[0]


@dataclass(frozen=True)
class Measurement:
    """A measurement vector tagged with the step it belongs to."""

    value: np.ndarray
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "value", frozen_array(as_vector(self.value, "value")))
        object.__setattr__(self, "step", int(self.step))

    @property
    def dim(self) -> int:
        return self.value.size


@dataclass(frozen=True)
class InnovationStats:
    """Measurement residual, its covariance, and the gain built from them."""

    residual: np.ndarray
    residual_cov: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        residual = as_vector(self.residual, "residual")
        cov = as_matrix(self.residual_cov, "residual_cov")
        gain = as_matrix(self.gain, "gain")
        m = residual.size
        if cov.shape != (m, m):
            raise ValueError(f"residual_cov must be {m}x{m}, got {cov.shape}")
        _check_covariance(cov, "residual_cov", require_pd=True)
        if gain.shape[1] != m:
            raise ValueError(
                f"gain must have {m} columns to match the residual, got {gain.shape}"
            )
        object.__setattr__(self, "residual", frozen_array(residual))
        object.__setattr__(self, "residual_cov", frozen_array(cov))
        object.__setattr__(self, "gain", frozen_array(gain))


def _check_update_dims(pred: StateEstimate, z: Measurement, model: SystemModel) -> None:
    if model.state_dim != pred.dim:
        raise DimensionMismatch(
            f"model state dimension {model.state_dim} does not match estimate {pred.dim}"
        )
    if model.measurement_dim == 0:
        raise DimensionMismatch("model has no measurement rows")
    if z.dim != model.measurement_dim:
        raise DimensionMismatch(
            f"measurement dimension {z.dim} does not match model {model.measurement_dim}"
        )


def _predict_covariance(cov, model: SystemModel) -> np.ndarray:
    """Covariance stage of :func:`predict`: ``F P F' + Q``, symmetrized."""
    f = model.transition
    p = f @ cov @ f.T + model.process_noise
    return 0.5 * (p + p.T)


@np.errstate(over="ignore", invalid="ignore")
def predict(est: StateEstimate, model: SystemModel) -> StateEstimate:
    """Propagate one step: mean ``F x``, covariance ``F P F' + Q`` (symmetrized).

    Raises ``IndefiniteCovariance`` when the result fails the
    ``StateEstimate`` checks.
    """
    if model.state_dim != est.dim:
        raise DimensionMismatch(
            f"model state dimension {model.state_dim} does not match estimate {est.dim}"
        )
    cov = _predict_covariance(est.covariance, model)
    return _estimate(est.mean @ model.transition.T, cov, est.step + 1, "prediction")


def _gain(cov, h, r) -> tuple[np.ndarray, np.ndarray]:
    """Covariance stage of :func:`innovate`: ``S`` and the gain ``P H' S^-1``."""
    s = h @ cov @ h.T + r
    s = 0.5 * (s + s.T)
    gain = _cholesky_solve(
        s, (cov @ h.T).T, "innovation covariance", SingularInnovationCovariance
    ).T
    return s, gain


def _joseph(cov, h, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariance stage of :func:`update_joseph`: ``S``, the gain ``K`` and the
    Joseph covariance ``(I - K H) P (I - K H)' + K R K'``."""
    s, gain = _gain(cov, h, r)
    i_kh = _identity(cov.shape[0]) - gain @ h
    p = i_kh @ cov @ i_kh.T + gain @ r @ gain.T
    return s, gain, 0.5 * (p + p.T)


def _correct(mean, z, h, gain) -> tuple[np.ndarray, np.ndarray]:
    """Mean stage of a gain update: each row's residual ``v = z - H x`` and ``x + K v``."""
    residual = z - mean @ h.T
    return residual, mean + residual @ gain.T


def _innovation_stats(residual, s, gain) -> InnovationStats:
    if not np.isfinite(residual).all():
        raise FilterError("innovation: residual z - H x has non-finite entries")
    try:
        return InnovationStats(residual, s, gain)
    except ValueError as exc:
        raise SingularInnovationCovariance(f"innovation covariance: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")
def innovate(pred: StateEstimate, z: Measurement, model: SystemModel) -> InnovationStats:
    """Residual ``z - H x``, covariance ``H P H' + R``, gain ``P H' S^-1``.

    The innovation covariance is inverted through a Cholesky
    factorization; raises ``SingularInnovationCovariance`` when it is not
    positive definite, and ``FilterError`` when the residual is not finite.
    """
    _check_update_dims(pred, z, model)
    h = model.observation
    s, gain = _gain(pred.covariance, h, model.measurement_noise)
    return _innovation_stats(_correct(pred.mean, z.value, h, gain)[0], s, gain)


@np.errstate(over="ignore", invalid="ignore")
def update_joseph(
    pred: StateEstimate, z: Measurement, model: SystemModel
) -> tuple[StateEstimate, InnovationStats]:
    """Gain update with the Joseph covariance form.

    Returns the updated estimate together with the innovation quantities
    so constrained variants can reuse them without recomputation.  Raises
    ``IndefiniteCovariance`` when the Joseph covariance fails the
    ``StateEstimate`` checks, ``FilterError`` on a non-finite residual.
    """
    _check_update_dims(pred, z, model)
    h = model.observation
    s, gain, cov = _joseph(pred.covariance, h, model.measurement_noise)
    residual, mean = _correct(pred.mean, z.value, h, gain)
    innov = _innovation_stats(residual, s, gain)
    return _estimate(mean, cov, pred.step, "unconstrained posterior"), innov


def _fusion_stage(cov, model: SystemModel, a) -> tuple:
    """Covariance stage of fusion with exact rows ``A`` (q = 0 for none): the
    saddle matrix ``[[blkdiag(P, R, 0), obs], [obs', 0]]``, ``obs = [I; H; A]``,
    written into one zero array block by block, and its solver.  ``P`` and
    ``R`` need not be invertible: the factorization's own test in
    :func:`matops._saddle_solver` is the one check that the saddle matrix is
    regular."""
    n = cov.shape[0]
    nm = n + model.measurement_dim
    k = nm + a.shape[0]
    saddle = np.zeros((k + n, k + n))
    saddle[:n, :n] = cov
    saddle[n:nm, n:nm] = model.measurement_noise
    np.fill_diagonal(saddle[:n, k:], 1.0)
    np.fill_diagonal(saddle[k:, :n], 1.0)
    saddle[n:nm, k:] = model.observation
    saddle[nm:k, k:] = a
    saddle[k:, n:nm] = model.observation.T
    saddle[k:, nm:k] = a.T
    return saddle, _saddle_solver(saddle)


def _fusion_solve(stage, mean, z, b) -> tuple[np.ndarray, np.ndarray]:
    """Mean stage of fusion with exact rows ``A x = b``, one solve for the saddle
    matrix's last ``n`` unit columns, whose lower block is the negated posterior
    covariance, and each stacked observation ``[mean, z, b; 0]``, whose lower
    block is the fused mean after one step of iterative refinement against the
    saddle matrix itself.  The unit columns are solved with the observations, as one
    right-hand side, also when the covariance is already known: ``?sytrs`` is
    not bound to round a column the same when other columns share its solve."""
    saddle, solve = stage
    n = mean.shape[-1]
    k = saddle.shape[0] - n
    stacked_z = np.empty((*mean.shape[:-1], k))
    stacked_z[..., :n] = mean
    stacked_z[..., n : k - b.size] = z
    stacked_z[..., k - b.size :] = b
    stacked_z = stacked_z.reshape(-1, k)
    columns = np.zeros((k + n, n + stacked_z.shape[0]))
    np.fill_diagonal(columns[k:], 1.0)
    columns[:k, n:] = stacked_z.T
    solved = solve(columns)
    fused = solved[:, n:]
    fused += solve(columns[:, n:] - saddle @ fused)
    post = solved[k:, :n]
    return fused[k:].T.reshape(mean.shape), -0.5 * (post + post.T)


@np.errstate(over="ignore", invalid="ignore")
def update_fusion(pred: StateEstimate, z: Measurement, model: SystemModel) -> StateEstimate:
    """Weighted least-squares update.

    Stacks the prediction as a direct pseudo-measurement of the state above
    the real measurement, with noise ``blkdiag(P, R)``, and solves the
    saddle system of :func:`_fusion_stage` with no constraint rows.  Equals
    :func:`update_joseph` in exact arithmetic.  ``P`` and ``R`` need not be
    invertible: ``SingularCovariance`` means the saddle matrix is singular,
    and ``IndefiniteCovariance`` that the result fails the ``StateEstimate``
    checks.
    """
    _check_update_dims(pred, z, model)
    stage = _fusion_stage(pred.covariance, model, np.zeros((0, pred.dim)))
    mean, cov = _fusion_solve(stage, pred.mean, z.value, np.zeros(0))
    return _estimate(mean, cov, pred.step, "unconstrained fusion posterior")
