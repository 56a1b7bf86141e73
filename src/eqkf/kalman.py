"""Discrete-time linear Kalman filtering over immutable value types.

A filter is just a :class:`StateEstimate` threaded through :func:`predict`
and one of the update functions.  Two algebraically equivalent updates are
provided:

* :func:`update_joseph`, the classic gain recursion with the symmetric
  Joseph covariance form ``(I - K H) P (I - K H)' + K R K'``, and
* :func:`update_fusion`, a weighted least-squares solve that stacks the
  prediction on top of the measurement as one observation of the state.

Covariances are symmetrized after every step so long runs cannot drift
into asymmetry.  The public functions check their inputs and call private
kernels on arrays, which also take a ``(T, n)`` stack of means in rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, SingularCovariance, SingularInnovationCovariance
from .matops import (
    _cholesky_solve,
    as_matrix,
    as_vector,
    frozen_array,
    min_eigenvalue,
    solve_spd,
    symmetrize,
)

_EPS = np.finfo(float).eps

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
    and the largest asymmetry ``|c - c'|`` it measured (nan and 0 if empty)."""
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"{name} must be square, got shape {c.shape}")
    if c.size == 0:
        return float("nan"), 0.0
    scale = float(np.abs(c).max())
    asym = float(np.abs(c - c.T).max())
    if asym > _SYM_RTOL * scale + _ABS_FLOOR * max(1.0, scale):
        raise ValueError(f"{name} is not symmetric")
    low = min_eigenvalue(c)
    if require_pd:
        if low <= 0.0:
            raise ValueError(f"{name} is not positive definite")
        return low, asym
    floor = _EIG_RTOL * abs(float(np.trace(c))) + _ABS_FLOOR * max(1.0, scale)
    if low < -floor:
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
        object.__setattr__(self, "mean", frozen_array(mean))
        object.__setattr__(self, "covariance", frozen_array(cov))
        object.__setattr__(self, "step", int(self.step))
        object.__setattr__(self, "_health", health)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def cov_min_eig(self) -> float:
        """Smallest eigenvalue of the covariance (``matops.min_eigenvalue``)."""
        return self._health[0]

    @property
    def cov_asym(self) -> float:
        """Largest entry of ``|covariance - covariance'|``."""
        return self._health[1]


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


def _predict(mean, cov, model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Array kernel of :func:`predict`."""
    f = model.transition
    p = f @ cov @ f.T + model.process_noise
    return mean @ f.T, 0.5 * (p + p.T)


def predict(est: StateEstimate, model: SystemModel) -> StateEstimate:
    """Propagate one step: mean ``F x``, covariance ``F P F' + Q`` (symmetrized)."""
    if model.state_dim != est.dim:
        raise DimensionMismatch(
            f"model state dimension {model.state_dim} does not match estimate {est.dim}"
        )
    return StateEstimate(*_predict(est.mean, est.covariance, model), est.step + 1)


def _innovation(mean, cov, z, h, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array kernel of :func:`innovate`: the residual, ``S`` and the gain."""
    residual = z - mean @ h.T
    s = h @ cov @ h.T + r
    s = 0.5 * (s + s.T)
    gain = _cholesky_solve(
        s, (cov @ h.T).T, "innovation covariance", SingularInnovationCovariance
    ).T
    return residual, s, gain


def _joseph_update(mean, cov, h, r, residual, gain) -> tuple[np.ndarray, np.ndarray]:
    """Array kernel of :func:`update_joseph`: the mean and Joseph covariance."""
    i_kh = np.eye(cov.shape[0]) - gain @ h
    p = i_kh @ cov @ i_kh.T + gain @ r @ gain.T
    return mean + residual @ gain.T, 0.5 * (p + p.T)


def innovate(pred: StateEstimate, z: Measurement, model: SystemModel) -> InnovationStats:
    """Residual ``z - H x``, covariance ``H P H' + R``, gain ``P H' S^-1``.

    The innovation covariance is inverted through a Cholesky
    factorization; raises ``SingularInnovationCovariance`` when it is not
    positive definite.
    """
    _check_update_dims(pred, z, model)
    residual, s, gain = _innovation(
        pred.mean, pred.covariance, z.value, model.observation, model.measurement_noise
    )
    try:
        return InnovationStats(residual, s, gain)
    except ValueError as exc:
        raise SingularInnovationCovariance(f"innovation covariance: {exc}") from exc


def update_joseph(
    pred: StateEstimate, z: Measurement, model: SystemModel
) -> tuple[StateEstimate, InnovationStats]:
    """Gain update with the Joseph covariance form.

    Returns the updated estimate together with the innovation quantities
    so constrained variants can reuse them without recomputation.
    """
    innov = innovate(pred, z, model)
    mean, cov = _joseph_update(
        pred.mean, pred.covariance, model.observation, model.measurement_noise,
        innov.residual, innov.gain,
    )
    return StateEstimate(mean, cov, pred.step), innov


def update_fusion(pred: StateEstimate, z: Measurement, model: SystemModel) -> StateEstimate:
    """Weighted least-squares update.

    Stacks the prediction as a direct pseudo-measurement of the state above
    the real measurement, weights by the block-diagonal of prediction
    covariance and measurement noise, and solves the normal equations.
    Equals :func:`update_joseph` in exact arithmetic.  Raises
    ``SingularCovariance`` when the prediction covariance or the
    measurement noise is not invertible.
    """
    _check_update_dims(pred, z, model)
    n = pred.dim
    stacked_obs = np.vstack([np.eye(n), model.observation])
    stacked_noise = scipy.linalg.block_diag(pred.covariance, model.measurement_noise)
    stacked_z = np.concatenate([pred.mean, z.value])
    # One factorization of each matrix, both right-hand sides in one solve.
    weighted = solve_spd(
        stacked_noise, np.column_stack([stacked_obs, stacked_z]),
        name="stacked noise covariance", error=SingularCovariance,
    )
    normal = symmetrize(stacked_obs.T @ weighted[:, :n])
    solved = solve_spd(
        normal, np.column_stack([stacked_obs.T @ weighted[:, n], np.eye(n)]),
        name="fusion normal matrix", error=SingularCovariance,
    )
    return StateEstimate(solved[:, 0], symmetrize(solved[:, 1:]), pred.step)
