"""Verification battery for the library.

Each ``check_*`` function exercises one documented property of the
filters (method equivalence, feasibility, identity suites, long-run
stability, Monte-Carlo consistency, ...) and returns a :class:`CheckResult`
with the measured worst-case numbers.  The test suite runs these at full
instance counts; ``eqkf check`` runs a reduced battery via
:func:`run_default_checks`.

Each seed's random constrained instance, its Joseph update and its four hard
updates are built once per process (:func:`_instance`, :func:`_hard_updates`,
at most one entry per seed of ``oracle.SEEDS``) and read by every check that
uses them.  A check's ``elapsed`` therefore includes building any instance it
is the first to read.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .. import constrained, kalman, oracle
from ..constrained import EqualityConstraint, ProjectionSpec
from ..kalman import Measurement, StateEstimate, SystemModel
from ..matops import min_eigenvalue
from .config import METHODS, MethodSpec, load_bundled_scenario
from .run import emit_report, run_scenario
from .simulate import simulate_truth


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.2f}s): {self.detail}"


def _timed(name: str):
    """Make a check body that returns ``(passed, detail)`` return a timed
    :class:`CheckResult` named ``name``; the body carries the check's public
    signature, its ``-> CheckResult`` included."""

    def wrap(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            started = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            return CheckResult(name, bool(passed), detail, time.perf_counter() - started)

        return check

    return wrap


def _worst_deviation(per_seed, instances: int, tol: float) -> tuple[bool, str]:
    """Fold the deviations that ``per_seed(seed)`` yields over the first
    ``instances`` seeds into their worst, judged against ``tol``.  Like every
    fold here it uses ``np.maximum`` (or ``np.minimum``), which keeps a NaN."""
    worst = 0.0
    for seed in oracle.SEEDS[:instances]:
        for deviation in per_seed(seed):
            worst = np.maximum(worst, deviation)
    return worst <= tol, f"instances={instances}, worst deviation {worst:.2e} (tol {tol:.0e})"


@functools.cache
def _instance(seed: int):
    """``random_constrained_instance(seed)`` and its Joseph update:
    ``(pred, model, z, c, posterior, innovation)``.  Every array is read-only."""
    pred, model, z, c = oracle.random_constrained_instance(seed)
    return (pred, model, z, c, *kalman.update_joseph(pred, z, model))


class _HardUpdates(NamedTuple):
    augmented: constrained.ConstrainedUpdateResult
    fusion: constrained.ConstrainedUpdateResult
    projection: constrained.ConstrainedUpdateResult
    restricted: constrained.ConstrainedUpdateResult


@functools.cache
def _hard_updates(seed: int) -> _HardUpdates:
    """The four hard updates of :func:`_instance` ``(seed)``; ``projection`` is
    the posterior-inverse projection of its Joseph update."""
    pred, model, z, c, est_u, _ = _instance(seed)
    return _HardUpdates(
        constrained.augmented_update(pred, z, model, c),
        constrained.fusion_constrained_update(pred, z, model, c),
        constrained.project(est_u, c),
        constrained.restricted_gain_update(pred, z, model, c)[1],
    )


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / scale


def _rel_estimates(first: StateEstimate, second: StateEstimate) -> float:
    """The larger of :func:`_rel` over the two estimates' means and covariances."""
    return max(_rel(first.mean, second.mean), _rel(first.covariance, second.covariance))


@_timed("four_way_equivalence")
def check_equivalence(
    instances: int = 1000,
    mean_tol: float = 1e-7,
    cov_tol: float = 1e-6,
    pair_tol: float = 1e-8,
) -> CheckResult:
    """All hard-constraint methods agree on random instances.

    The augmented, fusion, and posterior-inverse projection updates must
    coincide pairwise (they solve the same conditioning problem); the
    restricted-gain update must coincide with the identity-weight
    projection of the unconstrained update.
    """
    worst_mean = worst_cov = worst_pair = 0.0
    for seed in oracle.SEEDS[:instances]:
        pred, _, _, c, est_u, _ = _instance(seed)
        *results, restr = _hard_updates(seed)
        for i, first in enumerate(results):
            for second in results[i + 1 :]:
                a, b = first.estimate, second.estimate
                worst_mean = np.maximum(worst_mean, _rel(a.mean, b.mean))
                worst_cov = np.maximum(worst_cov, _rel(a.covariance, b.covariance))
        ident = constrained.project(est_u, c, ProjectionSpec(weight=np.eye(pred.dim)))
        worst_pair = np.maximum(worst_pair, _rel_estimates(restr.estimate, ident.estimate))
    passed = worst_mean <= mean_tol and worst_cov <= cov_tol and worst_pair <= pair_tol
    return passed, (
        f"instances={instances}, mean dev {worst_mean:.2e} (tol {mean_tol:.0e}), "
        f"covariance dev {worst_cov:.2e} (tol {cov_tol:.0e}), "
        f"restricted vs identity projection {worst_pair:.2e} (tol {pair_tol:.0e})"
    )


@_timed("feasibility_nullspace")
def check_feasibility(
    instances: int = 1000,
    mean_tol: float = 1e-9,
    null_tol: float = 1e-8,
) -> CheckResult:
    """Constrained means land on the constraint, covariances on its null space.

    For every hard method, ``norm(A mean - b) <= mean_tol * (1 + norm(b))``
    and ``norm(A Pc) <= null_tol * norm(Pc)`` (Frobenius norms).
    """
    worst_mean = worst_null = 0.0
    for seed in oracle.SEEDS[:instances]:
        c = _instance(seed)[3]
        rhs_scale = 1.0 + float(np.linalg.norm(c.rhs))
        for result in _hard_updates(seed):
            mean = result.estimate.mean
            cov = result.estimate.covariance
            worst_mean = np.maximum(
                worst_mean,
                float(np.linalg.norm(c.matrix @ mean - c.rhs)) / rhs_scale,
            )
            worst_null = np.maximum(
                worst_null,
                float(np.linalg.norm(c.matrix @ cov)) / float(np.linalg.norm(cov)),
            )
    passed = worst_mean <= mean_tol and worst_null <= null_tol
    return passed, (
        f"instances={instances}, mean residual {worst_mean:.2e} (tol {mean_tol:.0e}), "
        f"covariance null-space {worst_null:.2e} (tol {null_tol:.0e})"
    )


@_timed("covariance_shrinkage")
def check_shrinkage(instances: int = 1000, tol: float = 1e-9) -> CheckResult:
    """Conditioning on the constraint never inflates the covariance.

    ``P_post - Pc`` must be positive semidefinite (to tolerance) when
    ``Pc`` comes from the posterior-inverse projection.  The bound is
    stated per instance as ``min_eig >= -tol * trace(P_post)``.
    """
    worst_ratio = np.inf
    for seed in oracle.SEEDS[:instances]:
        est_u = _instance(seed)[4]
        gap = est_u.covariance - _hard_updates(seed).projection.estimate.covariance
        ratio = min_eigenvalue(gap) / float(np.trace(est_u.covariance))
        worst_ratio = np.minimum(worst_ratio, ratio)
    return worst_ratio >= -tol, (
        f"instances={instances}, worst min-eig/trace of P_post - Pc is "
        f"{worst_ratio:.2e} (bound -{tol:.0e})"
    )


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    # singular values in [0.5, 2] keep every inverse benign
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v.T


@_timed("kron_vec_trace_identities")
def check_identities(instances: int = 1000, tol: float = 1e-9) -> CheckResult:
    """Kronecker, vec, and trace identities on random matrices, with
    ``np.kron`` and ``vec(x)`` as the column-stacking ``x.ravel("F")``.

    The trace-of-triple-product rearrangements require the vectorized
    factor to be symmetric, which holds wherever they are used (the
    factors are covariances); they are exercised here with symmetrized
    draws, alongside their general transposed forms on arbitrary draws.
    """
    return _worst_deviation(_identity_deviations, instances, tol)


def _identity_deviations(seed: int):
    rng = np.random.default_rng((seed, 2))
    m, n, p, s = (int(d) for d in rng.integers(2, 5, size=4))
    a = rng.standard_normal((m, n))
    a2 = rng.standard_normal((m, n))
    b = rng.standard_normal((n, p))
    cmat = rng.standard_normal((p, s))

    yield _rel(np.kron(a, b).T, np.kron(a.T, b.T))
    c2 = rng.standard_normal((n, p))
    b2 = rng.standard_normal((s, m))
    d2 = rng.standard_normal((m, n))
    yield _rel(np.kron(a, b2) @ np.kron(c2, d2), np.kron(a @ c2, b2 @ d2))
    ai = _well_conditioned(rng, m)
    bi = _well_conditioned(rng, n)
    yield _rel(
        np.linalg.inv(np.kron(ai, bi)),
        np.kron(np.linalg.inv(ai), np.linalg.inv(bi)),
    )
    yield _rel((a + a2).ravel("F"), a.ravel("F") + a2.ravel("F"))
    yield _rel((a @ b).ravel("F"), np.kron(b.T, np.eye(m)) @ a.ravel("F"))
    yield _rel((a @ b @ cmat).ravel("F"), np.kron(cmat.T, a) @ b.ravel("F"))
    ba = rng.standard_normal((n, m))
    yield abs(np.trace(a @ ba) - ba.T.ravel("F") @ a.ravel("F"))

    # triple-product traces: square factors, symmetric where required
    sq_a = rng.standard_normal((n, n))
    sq_b = rng.standard_normal((n, n))
    sq_c = rng.standard_normal((n, n))
    sym_a = 0.5 * (sq_a + sq_a.T)
    sym_b = 0.5 * (sq_b + sq_b.T)
    sym_c = 0.5 * (sq_c + sq_c.T)
    eye_n = np.eye(n)
    target = np.trace(sq_a @ sym_b @ sq_c)
    yield abs(target - sym_b.ravel("F") @ np.kron(eye_n, sq_c) @ sq_a.ravel("F"))
    target = np.trace(sym_a @ sq_b @ sq_c)
    yield abs(target - sym_a.ravel("F") @ np.kron(eye_n, sq_b) @ sq_c.ravel("F"))
    target = np.trace(sym_a @ sq_b @ sym_c)
    yield abs(target - sym_a.ravel("F") @ np.kron(sym_c, eye_n) @ sq_b.ravel("F"))
    # general forms carry an explicit transpose on the vectorized factor
    target = np.trace(sq_a @ sq_b @ sq_c)
    yield abs(target - sq_b.T.ravel("F") @ np.kron(eye_n, sq_c) @ sq_a.ravel("F"))


@_timed("saddle_block_inverse")
def check_block_inverse(instances: int = 1000, tol: float = 1e-9) -> CheckResult:
    """The analytic block inverse of the stacked measurement-plus-constraint
    residual covariance ``[[S, H P A'], [A P H', A P A']]``
    (``constrained.block_s_inverse``) matches its dense inverse.
    """
    return _worst_deviation(_block_inverse_deviations, instances, tol)


def _block_inverse_deviations(seed: int):
    pred, model, _, c, _, innov = _instance(seed)
    p = pred.covariance
    h = model.observation
    a = c.matrix
    stacked = np.block([[innov.residual_cov, h @ p @ a.T], [a @ p @ h.T, a @ p @ a.T]])
    inv_blocks = constrained.block_s_inverse(p, model, c, innov)
    yield _rel(inv_blocks.assemble(), np.linalg.inv(stacked))


@_timed("posterior_identity_chains")
def check_posterior_chains(instances: int = 1000, tol: float = 1e-9) -> CheckResult:
    """Posterior-covariance rewriting chains used by the reductions.

    Three chains, each evaluated pairwise: the projected-Gram chain
    ``A P A' - A P H' S^-1 H P A' = A (I - K H) P A' = A P_post A'``, the
    gain-sandwich identity relating ``S^-1 H P A' (A P_post A')^-1 A P H'
    S^-1`` to ``K' A' (A P_post A')^-1 A K``, and the posterior chain
    ``P - P H' K' = (I - K H) P = P_post``.
    """
    return _worst_deviation(_posterior_chain_deviations, instances, tol)


def _posterior_chain_deviations(seed: int):
    pred, model, _, c, est_u, innov = _instance(seed)
    p = pred.covariance
    h = model.observation
    a = c.matrix
    gain = innov.gain
    n = pred.dim
    s_inv = np.linalg.inv(innov.residual_cov)
    p_post = est_u.covariance

    chain = [
        a @ p @ a.T - a @ p @ h.T @ s_inv @ h @ p @ a.T,
        a @ p @ a.T - a @ gain @ h @ p @ a.T,
        a @ (np.eye(n) - gain @ h) @ p @ a.T,
        a @ p_post @ a.T,
    ]
    for i in range(len(chain) - 1):
        yield _rel(chain[i], chain[i + 1])

    gram_inv = np.linalg.inv(a @ p_post @ a.T)
    lhs = s_inv @ h @ p @ a.T @ gram_inv @ a @ p @ h.T @ s_inv
    rhs = gain.T @ a.T @ gram_inv @ a @ gain
    yield _rel(lhs, rhs)

    chain = [
        p - p @ h.T @ gain.T,
        p @ (np.eye(n) - h.T @ gain.T),
        (np.eye(n) - gain @ h) @ p,
        p_post,
    ]
    for i in range(len(chain) - 1):
        yield _rel(chain[i], chain[i + 1])


@_timed("gain_correction_oracle")
def check_lagrange(instances: int = 1000, tol: float = 1e-9) -> CheckResult:
    """Closed-form optimality solutions match dense solves.

    The gain-correction system is solved both in closed form and by dense
    assembly; the weighted projection is cross-checked against a dense
    KKT solve with a random positive definite weight.
    """
    return _worst_deviation(_lagrange_deviations, instances, tol)


def _lagrange_deviations(seed: int):
    pred, _, _, c, est_u, innov = _instance(seed)
    residual = c.matrix @ est_u.mean - c.rhs
    correction, multipliers = constrained.solve_lagrange_system(innov, c, residual)
    dense_corr, dense_mult = oracle.dense_lagrange_solve(innov, c, residual)
    yield _rel(correction, dense_corr)
    yield _rel(multipliers, dense_mult)

    rng = np.random.default_rng((seed, 4))
    gw = rng.standard_normal((pred.dim, pred.dim))
    weight = gw @ gw.T + 0.5 * np.eye(pred.dim)
    projected = constrained.project(est_u, c, ProjectionSpec(weight=weight))
    dense_mean = oracle.dense_kkt_project(
        oracle.KktSystem(weight=weight, constraint=c, target=est_u.mean)
    )
    yield _rel(projected.estimate.mean, dense_mean)


@_timed("fusion_joseph_identity")
def check_fusion_identity(instances: int = 1000, tol: float = 1e-8) -> CheckResult:
    """The stacked weighted-least-squares update equals the Joseph update."""
    return _worst_deviation(_fusion_deviations, instances, tol)


def _fusion_deviations(seed: int):
    pred, model, z = oracle.random_kalman_instance(seed)
    est_j, _ = kalman.update_joseph(pred, z, model)
    est_f = kalman.update_fusion(pred, z, model)
    yield _rel_estimates(est_j, est_f)


@_timed("long_run_stability")
def check_stability(
    steps: int = 10_000,
    asym_tol: float = 1e-12,
    eig_tol: float = 1e-9,
) -> CheckResult:
    """Long-run covariance health under an ill-conditioned start.

    Runs a constrained scalar-measurement plant for ``steps`` cycles from
    a condition-1e6 initial covariance using the shipped forms (Joseph
    update, congruence-projected constrained covariance) and requires
    every predicted and constrained covariance to stay symmetric to
    ``asym_tol`` (relative max-norm) and to keep
    ``min_eig >= -eig_tol * trace``.  A naive recursion that uses the
    one-sided update ``(I - K H) P`` and the one-sided projection
    ``Gamma P`` runs alongside as a negative control; its drift is
    reported but carries no pass bar.  Eigenvalues of the naive (possibly
    asymmetric) matrices are taken from the symmetric part.
    """
    model = SystemModel(
        transition=np.eye(2),
        process_noise=0.01 * np.eye(2),
        observation=np.array([[1.0, 0.0]]),
        measurement_noise=np.array([[0.04]]),
    )
    c = EqualityConstraint(np.array([[1.0, 1.0]]), np.array([0.0]))
    state = StateEstimate(np.array([0.5, -0.5]), np.diag([1e3, 1e-3]))
    rng = np.random.default_rng(99)

    worst_asym = 0.0
    worst_eig = 0.0
    p_naive: np.ndarray | None = np.diag([1e3, 1e-3])
    naive_asym = 0.0
    naive_eig = 0.0
    naive_note = ""
    eye2 = np.eye(2)
    h = model.observation
    r = model.measurement_noise
    a = c.matrix

    for k in range(steps):
        pred = kalman.predict(state, model)
        z = Measurement(rng.standard_normal(1), step=pred.step)
        result = constrained.augmented_update(pred, z, model, c)
        for cov in (pred.covariance, result.estimate.covariance):
            scale = float(np.abs(cov).max())
            worst_asym = np.maximum(worst_asym, float(np.abs(cov - cov.T).max()) / scale)
            worst_eig = np.minimum(worst_eig, min_eigenvalue(cov) / float(np.trace(cov)))
        state = result.estimate

        if p_naive is not None:
            try:
                p_pred = p_naive + model.process_noise
                s = h @ p_pred @ h.T + r
                gain = p_pred @ h.T @ np.linalg.inv(s)
                p_upd = (eye2 - gain @ h) @ p_pred
                gram = a @ p_upd @ a.T
                gamma = eye2 - p_upd @ a.T @ np.linalg.inv(gram) @ a
                p_naive = gamma @ p_upd
                if not np.all(np.isfinite(p_naive)):
                    raise np.linalg.LinAlgError("non-finite covariance")
                scale = float(np.abs(p_naive).max())
                naive_asym = max(
                    naive_asym, float(np.abs(p_naive - p_naive.T).max()) / scale
                )
                sym_part = 0.5 * (p_naive + p_naive.T)
                naive_eig = min(
                    naive_eig,
                    float(np.linalg.eigvalsh(sym_part)[0]) / float(np.trace(sym_part)),
                )
            except np.linalg.LinAlgError as exc:
                naive_note = f"; naive recursion failed at step {k + 1} ({exc})"
                p_naive = None

    passed = worst_asym <= asym_tol and worst_eig >= -eig_tol
    return passed, (
        f"steps={steps}, shipped forms: asymmetry {worst_asym:.2e} (tol {asym_tol:.0e}), "
        f"min-eig/trace {worst_eig:.2e} (bound -{eig_tol:.0e}); "
        f"naive control: asymmetry {naive_asym:.2e}, min-eig/trace {naive_eig:.2e}"
        f"{naive_note}"
    )


@_timed("soft_constraint_limits")
def check_soft_limits(
    instances: int = 400,
    grid: tuple[float, ...] = (0.0, 1e-3, 1.0, 1e3, 1e12),
    zero_tol: float = 1e-8,
    big_tol: float = 1e-3,
) -> CheckResult:
    """Soft-constraint behavior at its two limits and in between.

    Zero constraint noise must reproduce the hard augmented update; a
    variance of 1e12 must match the unconstrained update; and over the
    variance grid the average constraint residual of a full scenario run
    must be non-decreasing.
    """
    worst_zero = worst_big = 0.0
    for seed in oracle.SEEDS[:instances]:
        pred, model, z, c, est_u, _ = _instance(seed)
        q = c.constraint_dim
        hard = _hard_updates(seed).augmented
        soft0 = constrained.soft_augmented_update(pred, z, model, c, np.zeros((q, q)))
        worst_zero = np.maximum(worst_zero, _rel_estimates(hard.estimate, soft0.estimate))
        soft_inf = constrained.soft_augmented_update(pred, z, model, c, 1e12 * np.eye(q))
        worst_big = np.maximum(worst_big, _rel_estimates(est_u, soft_inf.estimate))

    monotone = True
    grids: list[str] = []
    for name in ("line_2d", "soft_line_2d"):
        config = load_bundled_scenario(name)
        c = config.constraint
        assert isinstance(c, EqualityConstraint)
        q = c.constraint_dim
        sim = simulate_truth(config)
        averages = []
        for variance in grid:
            soft = replace(
                config,
                feedback=True,
                methods=(MethodSpec("soft_augmented"),),
                soft_noise=variance * np.eye(q),
            )
            report = run_scenario(soft, sim)
            total = sum(rec.constraint_residual for rec in report.records)
            averages.append(total / config.steps)
        for lo, hi in zip(averages, averages[1:]):
            if not lo <= hi * (1.0 + 1e-9) + 1e-15:
                monotone = False
        grids.append(name + ": " + ", ".join(f"{v:.3e}" for v in averages))

    passed = worst_zero <= zero_tol and worst_big <= big_tol and monotone
    return passed, (
        f"instances={instances}, zero-noise vs hard {worst_zero:.2e} (tol {zero_tol:.0e}), "
        f"1e12-noise vs unconstrained {worst_big:.2e} (tol {big_tol:.0e}); "
        f"residual grid {'monotone' if monotone else 'NOT monotone'} ({'; '.join(grids)})"
    )


@_timed("nonlinear_tracking")
def check_nonlinear_tracking(min_fraction: float = 0.95) -> CheckResult:
    """Relinearized constraining helps on the bundled unit-circle scenario.

    Compares the projection method against the unconstrained filter over
    the full run: the constraint residual at the reported mean must be
    smaller in at least ``min_fraction`` of the steps and in RMS.
    """
    config = load_bundled_scenario("circle")
    report = run_scenario(config)
    by_method: dict[str, list[float]] = {"unconstrained": [], "projection": []}
    for rec in report.records:
        if rec.method in by_method:
            by_method[rec.method].append(rec.constraint_residual)
    res_u = np.array(by_method["unconstrained"])
    res_c = np.array(by_method["projection"])
    fraction = float(np.mean(res_c < res_u))
    rms_u = float(np.sqrt(np.mean(res_u**2)))
    rms_c = float(np.sqrt(np.mean(res_c**2)))
    return fraction >= min_fraction and rms_c < rms_u, (
        f"steps={config.steps}, residual smaller in {100 * fraction:.1f}% of steps "
        f"(need {100 * min_fraction:.0f}%), residual RMS {rms_c:.3e} vs {rms_u:.3e}; "
        f"state-error RMSE {report.summary.rmse['projection']:.3e} vs "
        f"{report.summary.rmse['unconstrained']:.3e}"
    )


@_timed("feedback_benefit")
def check_feedback_benefit() -> CheckResult:
    """Feeding constrained estimates back does not worsen residuals.

    For every bundled constrained scenario, each constrained method's
    constraint-residual RMS with feedback on must not exceed the value
    with feedback off (the no-feedback run reports constrained estimates
    on the side while recursing on the unconstrained update).  The margin
    is material only where the constrained estimate changes the next
    linearization or soft pull; hard linear methods land on the
    constraint either way and compare at rounding level.
    """
    lines: list[str] = []
    passed = True
    for name in ("line_2d", "soft_line_2d", "circle"):
        config = load_bundled_scenario(name)
        sim = simulate_truth(config)
        with_fb = run_scenario(replace(config, feedback=True), sim)
        without_fb = run_scenario(replace(config, feedback=False), sim)
        for spec in config.methods:
            label = spec.label
            if not METHODS[spec.name].needs_constraint:
                continue
            rms = {}
            for report, tag in ((with_fb, "on"), (without_fb, "off")):
                residuals = [
                    rec.constraint_residual
                    for rec in report.records
                    if rec.method == label
                ]
                rms[tag] = float(np.sqrt(np.mean(np.square(residuals))))
            ok = rms["on"] <= rms["off"] + max(1e-12, 1e-6 * rms["off"])
            passed = passed and ok
            lines.append(f"{name}/{label}: {rms['on']:.3e} vs {rms['off']:.3e}")
    return passed, "residual RMS feedback-on vs off: " + "; ".join(lines)


@_timed("monte_carlo_consistency")
def check_monte_carlo(
    trials: int = 100_000,
    dev_tol: float = 0.05,
    row_tol: float = 1e-2,
) -> CheckResult:
    """Reported covariances are statistically honest.

    Monte-Carlo sample covariances of the estimation error must match the
    reported covariance entrywise within ``dev_tol`` on the bundled scalar
    and planar scenarios, and on the planar scenario the constrained
    filter's error along the constraint rows must be at most ``row_tol``
    times the unconstrained filter's.

    Each run goes through :func:`eqkf.oracle.empirical_covariance_check`,
    which filters all trials at once through the array step of scenario
    runs.  Both bundled scenarios use a linear model and, where
    constrained, a linear constraint, as that oracle requires.
    """
    scalar = oracle.empirical_covariance_check(
        load_bundled_scenario("mc_scalar"), "unconstrained", trials, seed=5
    )
    planar_config = load_bundled_scenario("mc_line_2d")
    planar = oracle.empirical_covariance_check(planar_config, "projection", trials, seed=7)
    planar_u = oracle.empirical_covariance_check(
        planar_config, "unconstrained", trials, seed=7
    )
    assert planar.constraint_row_rms is not None
    assert planar_u.constraint_row_rms is not None
    row_ok = planar.constraint_row_rms <= row_tol * planar_u.constraint_row_rms
    passed = (
        scalar.max_relative_deviation <= dev_tol
        and planar.max_relative_deviation <= dev_tol
        and row_ok
    )
    return passed, (
        f"trials={trials}, scalar deviation {scalar.max_relative_deviation:.2%}, "
        f"planar deviation {planar.max_relative_deviation:.2%} (tol {dev_tol:.0%}); "
        f"constraint-row error {planar.constraint_row_rms:.2e} vs unconstrained "
        f"{planar_u.constraint_row_rms:.2e} (ratio bound {row_tol:.0e})"
    )


@_timed("report_determinism")
def check_determinism() -> CheckResult:
    """Identical configuration and seed reproduce identical reports."""
    config = load_bundled_scenario("line_2d")
    first = emit_report(run_scenario(config), "csv")
    second = emit_report(run_scenario(config), "csv")
    passed = first == second
    return passed, f"two runs, {len(first)} bytes each, {'identical' if passed else 'DIFFER'}"


def run_default_checks(fast: bool = True) -> list[CheckResult]:
    """The full battery, at reduced instance counts when ``fast``."""
    counts = 120 if fast else 1000
    return [
        check_equivalence(counts),
        check_feasibility(counts),
        check_shrinkage(counts),
        check_identities(counts),
        check_block_inverse(counts),
        check_posterior_chains(counts),
        check_lagrange(counts),
        check_fusion_identity(counts),
        check_stability(1500 if fast else 10_000),
        check_soft_limits(60 if fast else 400),
        check_nonlinear_tracking(),
        check_feedback_benefit(),
        check_monte_carlo(2000 if fast else 100_000),
        check_determinism(),
    ]
