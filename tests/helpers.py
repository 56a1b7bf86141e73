"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from eqkf import EqualityConstraint, Measurement, StateEstimate, SystemModel
from eqkf.oracle import random_constrained_instance


def rel(a, b) -> float:
    """Relative difference between two arrays, floored so zeros stay finite."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()), 1e-12)
    return float(np.linalg.norm((a - b).ravel()) / scale)


def estimate(mean, cov, step: int = 0) -> StateEstimate:
    return StateEstimate(np.asarray(mean, dtype=float),
                         np.asarray(cov, dtype=float), step)


def scalar_model(f=1.0, q=0.0, h=1.0, r=1.0) -> SystemModel:
    return SystemModel([[f]], [[q]], [[h]], [[r]])


def line_constraint(a=(1.0, 1.0), b=0.0) -> EqualityConstraint:
    return EqualityConstraint(np.atleast_2d(np.asarray(a, dtype=float)), [float(b)])


def worked_planar_instance():
    """The planar single-sensor case several closed forms are checked on.

    Prediction at the origin with unit covariance, one measurement of the
    first coordinate (z = 2, unit noise), and the zero-sum line constraint.
    """
    pred = estimate([0.0, 0.0], np.eye(2), step=1)
    model = SystemModel(np.eye(2), np.zeros((2, 2)), [[1.0, 0.0]], [[1.0]])
    z = Measurement([2.0], step=1)
    c = line_constraint()
    return pred, z, model, c


def scaled_instance(seed, dropped=0):
    """A random instance whose prediction covariance is rescaled to s D P D,
    with s in 10^{-8, -6, 6, 8} and D a diagonal spanning 10^-4 to 10^4, and
    then has its smallest ``dropped`` eigenvalues zeroed (at most n - 1)."""
    rng = np.random.default_rng((seed, 42))
    pred, model, z, c = random_constrained_instance(seed % 1000)
    s = 10.0 ** rng.choice([-8, -6, 6, 8])
    d = np.diag(10.0 ** rng.uniform(-4, 4, pred.dim))
    cov = s * d @ pred.covariance @ d
    cov = 0.5 * (cov + cov.T)
    if dropped:
        vals, vecs = np.linalg.eigh(cov)
        vals[: min(dropped, pred.dim - 1)] = 0.0
        cov = (vecs * vals) @ vecs.T
        cov = 0.5 * (cov + cov.T)
    return estimate(pred.mean, cov, pred.step), model, z, c
