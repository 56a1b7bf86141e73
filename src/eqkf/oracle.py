"""Independent reference implementations used to cross-check the filters.

The closed-form constrained updates in :mod:`eqkf.constrained` are
verified against brute-force counterparts here: the projection against a
dense KKT solve, the gain correction against a dense solve of the full
stacked optimality system, and reported covariances against Monte-Carlo
sample covariances of trials filtered through the same array step as
scenario runs.  Everything in this module uses only generic dense
solves so that agreement with the closed forms is meaningful evidence.

``SEEDS`` is the fixed seed list used by the randomized test suites; the
random instance generators in this module are deterministic functions of
a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constrained import EqualityConstraint, _check_posterior, constrain_posterior
from .errors import DimensionMismatch, SingularKkt
from .harness.config import MethodSpec, ScenarioConfig, method_spec
from .harness.run import _step
from .kalman import InnovationStats, Measurement, StateEstimate, SystemModel
from .matops import CONDITION_LIMIT, as_matrix, as_vector, frozen_array, psd_factor

# Published seed list for the randomized suites: seeds 0 through 999.
SEEDS: tuple[int, ...] = tuple(range(1000))


@dataclass(frozen=True)
class KktSystem:
    """Data of the constrained least-distance problem
    ``min (x - target)' weight (x - target)  subject to  A x = b``."""

    weight: np.ndarray
    constraint: EqualityConstraint
    target: np.ndarray

    def __post_init__(self):
        w = as_matrix(self.weight, "weight")
        t = as_vector(self.target, "target")
        if w.shape != (t.size, t.size):
            raise DimensionMismatch(
                f"weight shape {w.shape} does not match target length {t.size}"
            )
        if self.constraint.state_dim != t.size:
            raise DimensionMismatch(
                f"constraint is over {self.constraint.state_dim} states, target has {t.size}"
            )
        object.__setattr__(self, "weight", frozen_array(w))
        object.__setattr__(self, "target", frozen_array(t))


def _solve_checked(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularKkt(
            f"assembled system is numerically singular (condition estimate {cond:.3e})"
        )
    return np.linalg.solve(mat, rhs)


def dense_kkt_project(system: KktSystem) -> np.ndarray:
    """Solve the least-distance problem by assembling its KKT system.

    Stationarity plus feasibility give ``[[2 W, A'], [A, 0]]`` applied to
    the solution and multipliers; the assembled system is solved densely
    and the state part returned.
    """
    a = system.constraint.matrix
    b = system.constraint.rhs
    w = system.weight
    n = system.target.size
    q = system.constraint.constraint_dim
    if q == 0:
        return system.target.copy()
    kkt = np.block([[2.0 * w, a.T], [a, np.zeros((q, q))]])
    rhs = np.concatenate([2.0 * w @ system.target, b])
    return _solve_checked(kkt, rhs)[:n]


def dense_lagrange_solve(
    innov: InnovationStats,
    c: EqualityConstraint,
    posterior_residual,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the gain-correction optimality system by dense assembly.

    Assembles the full block system over the stacked gain correction and
    the multipliers,

        [[2 (S kron I), v kron A'], [v' kron A, 0]]

    with right-hand side ``[0; b - A x_post]``, and solves it densely.
    The closed form in :func:`eqkf.constrained.solve_lagrange_system` must
    agree with this.
    """
    residual = as_vector(posterior_residual, "posterior_residual")
    q = c.constraint_dim
    if residual.size != q:
        raise DimensionMismatch(
            f"posterior_residual length {residual.size} does not match {q} rows"
        )
    nu = innov.residual
    n = c.state_dim
    m = nu.size
    if q == 0:
        return np.zeros(n * m), np.zeros(0)
    a = c.matrix
    s = innov.residual_cov
    top_left = 2.0 * np.kron(s, np.eye(n))
    top_right = np.kron(nu.reshape(-1, 1), a.T)
    bottom_left = np.kron(nu.reshape(1, -1), a)
    system = np.block([[top_left, top_right], [bottom_left, np.zeros((q, q))]])
    rhs = np.concatenate([np.zeros(n * m), -residual])
    solution = _solve_checked(system, rhs)
    return solution[: n * m], solution[n * m :]


def random_kalman_instance(
    seed: int,
    n_max: int = 6,
    m_max: int = 4,
    cond_limit: float = 1e4,
) -> tuple[StateEstimate, SystemModel, Measurement]:
    """A random well-conditioned prediction, model, and measurement.

    The prediction covariance is drawn as ``G G' + 1e-3 I`` with ``G``
    standard normal, redrawing until its condition number is within
    ``cond_limit``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    while True:
        g = rng.standard_normal((n, n))
        p = g @ g.T + 1e-3 * np.eye(n)
        if np.linalg.cond(p) <= cond_limit:
            break
    mean = rng.standard_normal(n)
    h = rng.standard_normal((m, n))
    gr = rng.standard_normal((m, m))
    r = gr @ gr.T + 0.1 * np.eye(m)
    model = SystemModel(
        transition=np.eye(n),
        process_noise=0.01 * np.eye(n),
        observation=h,
        measurement_noise=r,
    )
    pred = StateEstimate(mean, 0.5 * (p + p.T), step=1)
    z = Measurement(rng.standard_normal(m), step=1)
    return pred, model, z


def random_constrained_instance(
    seed: int,
    n_max: int = 8,
    m_max: int = 4,
    q_max: int = 3,
    cond_limit: float = 1e4,
) -> tuple[StateEstimate, SystemModel, Measurement, EqualityConstraint]:
    """A random constrained update instance.

    Extends :func:`random_kalman_instance` with a constraint whose rows
    are orthonormalized random vectors (guaranteeing full row rank) and a
    random right-hand side.
    """
    pred, model, z = random_kalman_instance(seed, n_max=n_max, m_max=m_max,
                                            cond_limit=cond_limit)
    rng = np.random.default_rng((seed, 1))
    n = pred.dim
    q = int(rng.integers(1, min(q_max, n - 1) + 1))
    rows = rng.standard_normal((n, q))
    ortho, _ = np.linalg.qr(rows)
    a = ortho[:, :q].T
    b = rng.standard_normal(q)
    return pred, model, z, EqualityConstraint(a, b)


@dataclass(frozen=True)
class CovarianceCheckReport:
    """Outcome of a Monte-Carlo covariance consistency run.

    ``max_relative_deviation`` compares the sample covariance of the final
    step errors with the filter-reported covariance over the matched
    entries (those whose reported magnitude exceeds ``1e-6`` times the
    reported trace).  ``constraint_row_rms`` is the root-mean-square of
    the error component along the constraint rows, or ``None`` when the
    scenario has no linear constraint.
    """

    method: str
    trials: int
    reported_covariance: np.ndarray
    sample_covariance: np.ndarray
    max_relative_deviation: float
    matched_entries: int
    constraint_row_rms: float | None

    def __post_init__(self):
        object.__setattr__(
            self, "reported_covariance", frozen_array(self.reported_covariance)
        )
        object.__setattr__(
            self, "sample_covariance", frozen_array(self.sample_covariance)
        )


def _times(matrix, x):
    """``matrix @ x`` for a stack ``x`` ``(k, T)``: a broadcast multiply when
    ``k`` is 1, where it is the same product without a matmul's overhead."""
    return matrix * x if matrix.shape[1] == 1 else matrix @ x


def empirical_covariance_check(
    config: ScenarioConfig,
    method: str | MethodSpec,
    trials: int,
    seed: int = 0,
) -> CovarianceCheckReport:
    """Monte-Carlo check that the reported covariance matches reality.

    The world is drawn from exactly the model the filter assumes: the
    initial state is sampled from the declared initial estimate (first
    conditioned on the constraint set when the scenario is constrained),
    process disturbances are conditioned on leaving the constraint
    satisfied, and measurements follow the observation model.  The sample
    covariance of the final-step errors is then compared against the
    covariance the filter reports.

    All trials are filtered at once, as an ``(n, trials)`` stack of means in
    columns through the array step that :func:`eqkf.harness.run.advance_method`
    wraps, one call per time step.  That is exact, not an approximation:
    with a linear model and a linear constraint no method's covariance or
    gain reads the mean, so one covariance serves every trial.  Every
    product is a small matrix times the wide stack, and the noise factors
    are computed once per model.

    Constrained scenarios must use a linear (``affine``) constraint and a
    transition that maps the constraint set to itself (the bundled
    Monte-Carlo scenarios use an identity transition); a nonlinear
    constraint, or a transition under which the generated truth drifts
    off the constraint, raises ``ValueError``.  ``trials`` must be at
    least 1000 for the comparison to be meaningful.
    """
    if trials < 1000:
        raise ValueError("trials must be at least 1000")
    if config.steps < 1:
        raise ValueError("scenario must have at least one step")
    if config.constraint is not None and not isinstance(
        config.constraint, EqualityConstraint
    ):
        raise ValueError(
            "nonlinear constraints are not supported: the world cannot be "
            "conditioned on them and relinearizing about each trial's mean "
            "gives every trial its own covariance"
        )
    spec = method if isinstance(method, MethodSpec) else method_spec(method)
    n = config.state_dim
    steps = config.steps
    c = config.constraint

    rng = np.random.default_rng(seed)
    belief = config.initial_estimate
    if c is not None and c.constraint_dim > 0:
        belief = constrain_posterior(belief, c).estimate
    # each draw is a (trials, k) row stack, one trial a row, taken as columns
    x = belief.mean[:, None] + _times(
        psd_factor(belief.covariance), rng.standard_normal((trials, n)).T
    )
    means = np.broadcast_to(config.initial_estimate.mean[:, None], (n, trials))
    cov = config.initial_estimate.covariance
    factors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(steps):
        model = config.model_at(k)
        key = id(model)
        if key not in factors:
            q = model.process_noise
            if c is not None:
                # covariance of w given A w = 0; the pinv tolerates a singular A Q A'
                a = c.matrix
                q = q - q @ a.T @ np.linalg.pinv(a @ q @ a.T) @ (a @ q)
            factors[key] = psd_factor(q), psd_factor(model.measurement_noise)
        lq, lr = factors[key]
        x = _times(model.transition, x) + _times(lq, rng.standard_normal((trials, n)).T)
        z = _times(model.observation, x) + _times(
            lr, rng.standard_normal((trials, model.measurement_dim)).T
        )
        (reported, p), (means, cov), _ = _step(means, cov, z, model, spec, config)
        _check_posterior(p, spec.label)
        if cov is not p:
            _check_posterior(cov, "unconstrained")
    if c is not None and c.constraint_dim > 0:
        drift = float(np.abs(_times(c.matrix, x) - c.rhs[:, None]).max())
        if drift > 1e-6 * (1.0 + float(np.linalg.norm(c.rhs))):
            raise ValueError(
                "scenario transition does not preserve the constraint set"
            )

    # one trial a row in C order: np.cov's sums round by the memory order
    errors = (x - reported).T.copy()
    sample = np.atleast_2d(np.cov(errors, rowvar=False))
    threshold = 1e-6 * abs(float(np.trace(p)))
    matched = np.abs(p) > threshold
    if matched.any():
        deviation = float(
            np.max(np.abs(sample[matched] - p[matched]) / np.abs(p[matched]))
        )
    else:
        deviation = 0.0
    row_rms = None
    if c is not None:
        per_trial = errors @ c.matrix.T
        row_rms = float(np.sqrt(np.mean(np.sum(per_trial**2, axis=1))))
    return CovarianceCheckReport(
        method=spec.label,
        trials=trials,
        reported_covariance=p,
        sample_covariance=sample,
        max_relative_deviation=deviation,
        matched_entries=int(matched.sum()),
        constraint_row_rms=row_rms,
    )
