"""Equality-constrained Kalman filtering.

A linear Kalman filter (Joseph-form and fusion updates) together with
four interchangeable ways of imposing linear equality constraints on the
state estimate: measurement augmentation, weighted least-distance
projection, a constrained-optimal gain, and a factored solve of the
stacked fusion saddle system.  Nonlinear constraints are handled by
relinearization, soft constraints by giving the constraint rows a noise
budget.  The :mod:`eqkf.harness` subpackage adds scenario simulation, a
CLI, and a verification battery; :mod:`eqkf.oracle` holds the dense
reference implementations the library is checked against.
"""

from . import errors, harness, matops, oracle
from .constrained import (
    DEGENERATE_RESIDUAL_TOL,
    IDENTITY,
    POSTERIOR_INVERSE,
    ConstrainedUpdateResult,
    EqualityConstraint,
    NonlinearConstraint,
    ProjectionSpec,
    RestrictedGainSolution,
    augmented_update,
    block_s_inverse,
    constrain_posterior,
    fusion_constrained_update,
    gamma_projector,
    joseph_constrained_cov,
    linearize,
    project,
    restricted_gain_update,
    soft_augmented_update,
    solve_lagrange_system,
)
from .kalman import (
    InnovationStats,
    Measurement,
    StateEstimate,
    SystemModel,
    innovate,
    predict,
    update_fusion,
    update_joseph,
)

__version__ = "0.1.0"

__all__ = [
    "DEGENERATE_RESIDUAL_TOL",
    "IDENTITY",
    "POSTERIOR_INVERSE",
    "ConstrainedUpdateResult",
    "EqualityConstraint",
    "InnovationStats",
    "Measurement",
    "NonlinearConstraint",
    "ProjectionSpec",
    "RestrictedGainSolution",
    "StateEstimate",
    "SystemModel",
    "augmented_update",
    "block_s_inverse",
    "constrain_posterior",
    "errors",
    "fusion_constrained_update",
    "gamma_projector",
    "harness",
    "innovate",
    "joseph_constrained_cov",
    "linearize",
    "matops",
    "oracle",
    "predict",
    "project",
    "restricted_gain_update",
    "soft_augmented_update",
    "solve_lagrange_system",
    "update_fusion",
    "update_joseph",
    "__version__",
]
