"""Ground-truth and measurement generation for scenario runs.

The truth sequence follows the configured linear dynamics with additive
process noise and is projected back onto the constraint set after every
transition, so the simulated state is feasible at each step.  Measurements
are the configured observation of the truth plus measurement noise.  All
randomness comes from a single seeded generator, so a given seed always
reproduces the same trajectories bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constrained import EqualityConstraint, NonlinearConstraint
from ..errors import FilterError
from ..kalman import Measurement
from ..matops import as_vector, frozen_array, psd_factor
from .config import ScenarioConfig

# Truth states must satisfy the constraint to within this after projection.
_FEASIBILITY_TOL = 1e-12
_MAX_PROJECTION_ITERATIONS = 50


@dataclass(frozen=True)
class SimulationResult:
    """Truth states (row k is step k; row 0 is the initial state) and the
    measurement taken at each step."""

    truth: np.ndarray
    measurements: tuple[Measurement, ...]

    def __post_init__(self):
        object.__setattr__(self, "truth", frozen_array(self.truth))
        object.__setattr__(self, "measurements", tuple(self.measurements))


def _project_feasible(
    x: np.ndarray, constraint: EqualityConstraint | NonlinearConstraint | None
) -> np.ndarray:
    """Minimum-norm correction of ``x`` onto the constraint set.

    Linear constraints are projected in closed form; nonlinear ones by
    iterating the linearized minimum-norm correction until the residual is
    below tolerance.
    """
    if constraint is None:
        return x
    if isinstance(constraint, EqualityConstraint):
        if constraint.constraint_dim == 0:
            return x
        defect = constraint.matrix @ x - constraint.rhs
        step, *_ = np.linalg.lstsq(constraint.matrix, defect, rcond=None)
        return x - step
    scale = 1.0 + float(np.linalg.norm(constraint.rhs))
    current = x
    for _ in range(_MAX_PROJECTION_ITERATIONS):
        defect = as_vector(constraint.func(current), "constraint value") - constraint.rhs
        if np.linalg.norm(defect) <= _FEASIBILITY_TOL * scale:
            return current
        step, *_ = np.linalg.lstsq(constraint.jacobian(current), defect, rcond=None)
        current = current - step
    raise FilterError("truth projection onto the constraint did not converge")


def simulate_with_rng(config: ScenarioConfig, rng: np.random.Generator) -> SimulationResult:
    """Simulate with an externally supplied generator (for Monte-Carlo use)."""
    n = config.state_dim
    truth = np.empty((config.steps + 1, n))
    truth[0] = _project_feasible(np.asarray(config.initial_truth, dtype=float),
                                 config.constraint)
    measurements = []
    factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(1, config.steps + 1):
        model = config.model_at(k - 1)
        key = id(model)
        if key not in factors:
            factors[key] = (psd_factor(model.process_noise),
                            psd_factor(model.measurement_noise))
        lq, lr = factors[key]
        noisy = model.transition @ truth[k - 1] + lq @ rng.standard_normal(n)
        truth[k] = _project_feasible(noisy, config.constraint)
        value = model.observation @ truth[k] + lr @ rng.standard_normal(
            model.measurement_dim
        )
        measurements.append(Measurement(value, step=k))
    return SimulationResult(truth, tuple(measurements))


def simulate_truth(config: ScenarioConfig) -> SimulationResult:
    """Simulate the scenario's truth and measurements from its own seed."""
    return simulate_with_rng(config, np.random.default_rng(config.seed))
