"""Correctness checks computed apart from the program.

The reference recursions below read the scenario *documents* (not the
program's parsed configuration) and use only plain numpy with generic
dense solves, so agreement with the program is evidence, not an echo.
Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

# Largest gap allowed between a program mean and the reference mean,
# relative to the largest reference mean entry of that run.
MEAN_RTOL = 1e-8
# Hard methods: constraint residual at most this times (1 + |b|).
RESIDUAL_TOL = 1e-9
# Every covariance: minimum eigenvalue at least minus this times its trace.
EIG_TOL = 1e-9
# On the circle, projection beats unconstrained on at least this share of steps.
CIRCLE_SHARE = 0.95
# The Monte-Carlo gate of ``check_monte_carlo``.
MC_DEV_TOL = 0.05
MC_ROW_TOL = 1e-2
# Reported Monte-Carlo covariance against the reference Riccati recursion.
MC_COV_RTOL = 1e-8

HARD_METHODS = frozenset(
    {"augmented", "fusion", "projection", "projection_identity", "restricted_gain"}
)
POSTERIOR_INVERSE_METHODS = frozenset({"augmented", "fusion", "projection"})
IDENTITY_METHODS = frozenset({"projection_identity", "restricted_gain"})

CSV_TAIL = ["err_norm", "constraint_residual", "cov_min_eig", "cov_asym"]


def _matrix(value) -> np.ndarray:
    return np.atleast_2d(np.asarray(value, dtype=float))


def _models(doc: dict) -> list[tuple[np.ndarray, ...]]:
    entries = doc["model"] if isinstance(doc["model"], list) else [doc["model"]]
    return [
        tuple(
            _matrix(e[key])
            for key in ("transition", "process_noise", "observation", "measurement_noise")
        )
        for e in entries
    ]


def _model_at(models: list, k: int) -> tuple[np.ndarray, ...]:
    return models[0] if len(models) == 1 else models[k]


def _joseph(x, p, z, h, r):
    """Kalman update with the Joseph covariance form, by a generic solve."""
    s = h @ p @ h.T + r
    gain = np.linalg.solve(s, h @ p).T
    i_kh = np.eye(x.size) - gain @ h
    return x + gain @ (z - h @ x), i_kh @ p @ i_kh.T + gain @ r @ gain.T


def _posterior_inverse_projection(x, p, a, b):
    """Project onto ``A x = b`` weighting by the inverse of ``p``."""
    ups = np.linalg.solve(a @ p @ a.T, a @ p).T
    return x - ups @ (a @ x - b), p - ups @ a @ p


def _identity_projection(x, p, a, b):
    """Least-distance projection onto ``A x = b``; covariance by congruence."""
    ups = np.linalg.solve(a @ a.T, a).T
    pi = np.eye(x.size) - ups @ a
    return x - ups @ (a @ x - b), pi @ p @ pi.T


def reference_track(doc: dict, measurements: list[np.ndarray]) -> dict[str, tuple]:
    """Plain-numpy recursion of every method of a linear scenario.

    Returns, per method, the reported means ``(steps, n)`` and the traces
    of the reported covariances ``(steps,)``.  ``feedback`` off continues
    every method from the unconstrained update.
    """
    models = _models(doc)
    constraint = doc.get("constraint")
    a = _matrix(constraint["matrix"]) if constraint else None
    b = np.asarray(constraint["rhs"], dtype=float) if constraint else None
    feedback = doc.get("feedback", True)
    x0 = np.asarray(doc["initial_estimate"]["mean"], dtype=float)
    p0 = _matrix(doc["initial_estimate"]["covariance"])
    soft = _matrix(doc["soft_noise"]) if "soft_augmented" in doc["methods"] else None
    out = {}
    for method in doc["methods"]:
        x, p = x0, p0
        means, traces = [], []
        for k, z in enumerate(measurements):
            f, q, h, r = _model_at(models, k)
            xp, pp = f @ x, f @ p @ f.T + q
            xu, pu = _joseph(xp, pp, z, h, r)
            if method == "unconstrained":
                xr, pr = xu, pu
            elif method == "soft_augmented":
                stacked_noise = np.block(
                    [[r, np.zeros((r.shape[0], soft.shape[0]))],
                     [np.zeros((soft.shape[0], r.shape[0])), soft]]
                )
                xr, pr = _joseph(xp, pp, np.concatenate([z, b]), np.vstack([h, a]),
                                 stacked_noise)
            elif method in POSTERIOR_INVERSE_METHODS:
                xr, pr = _posterior_inverse_projection(xu, pu, a, b)
            elif method in IDENTITY_METHODS:
                xr, pr = _identity_projection(xu, pu, a, b)
            else:
                raise ValueError(f"no reference for method '{method}'")
            means.append(xr)
            traces.append(float(np.trace(pr)))
            x, p = (xr, pr) if feedback else (xu, pu)
        out[method] = (np.array(means), np.array(traces))
    return out


def _sphere_rhs(doc: dict) -> float:
    constraint = doc["constraint"]
    if set(constraint) != {"kind", "rhs"}:
        raise ValueError("the reference handles only the centred full-state sphere")
    return float(constraint["rhs"][0])


def reference_circle_step(doc: dict, measurements, program_means: dict) -> dict[str, tuple]:
    """One-step reference for the relinearized circle scenario.

    The relinearization point depends on the data, so a full independent
    recursion would amplify roundoff through the nonlinearity.  Instead
    each step starts from the program's previous reported mean: the
    prediction, the Joseph update and, for ``projection``, the
    posterior-inverse projection onto the constraint linearized about the
    predicted mean are recomputed here.  The covariance recursion is run
    in full (it depends on the means only through the linearization
    points).  Returns per method the one-step means and covariance traces.
    """
    models = _models(doc)
    radius_sq = _sphere_rhs(doc)
    if not doc.get("feedback", True):
        raise ValueError("the circle reference assumes feedback on")
    x0 = np.asarray(doc["initial_estimate"]["mean"], dtype=float)
    p0 = _matrix(doc["initial_estimate"]["covariance"])
    out = {}
    for method in doc["methods"]:
        p = p0
        previous = np.vstack([x0, program_means[method][:-1]])
        means, traces = [], []
        for k, z in enumerate(measurements):
            f, q, h, r = _model_at(models, k)
            xp, pp = f @ previous[k], f @ p @ f.T + q
            xu, pu = _joseph(xp, pp, z, h, r)
            if method == "unconstrained":
                xr, pr = xu, pu
            elif method == "projection":
                jac = (2.0 * xp).reshape(1, -1)
                rhs = np.array([radius_sq + jac[0] @ xp - xp @ xp])
                xr, pr = _posterior_inverse_projection(xu, pu, jac, rhs)
            else:
                raise ValueError(f"no circle reference for method '{method}'")
            means.append(xr)
            traces.append(float(np.trace(pr)))
            p = pr
        out[method] = (np.array(means), np.array(traces))
    return out


def records_by_method(report) -> dict[str, list]:
    by_method: dict[str, list] = {}
    for rec in sorted(report.records, key=lambda r: (r.step, r.method)):
        by_method.setdefault(rec.method, []).append(rec)
    return by_method


def check_csv(csv_text: str, records, state_dim: int) -> list[str]:
    """The CSV parses back into one row per record, in the documented
    column order, with exactly the records' values."""
    columns = (
        ["step", "method"]
        + [f"t{i}" for i in range(state_dim)]
        + [f"m{i}" for i in range(state_dim)]
        + CSV_TAIL
    )
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != columns:
        return ["csv: header differs from the documented column order"]
    ordered = sorted(records, key=lambda r: (r.step, r.method))
    if len(rows) - 1 != len(ordered):
        return [f"csv: {len(rows) - 1} rows for {len(ordered)} records"]
    for row, rec in zip(rows[1:], ordered):
        expected = (
            [float(v) for v in rec.truth]
            + [float(v) for v in rec.mean]
            + [rec.err_norm, rec.constraint_residual, rec.cov_min_eig, rec.cov_asym]
        )
        values = [float(cell) for cell in row[2:]]
        if row[:2] != [str(rec.step), rec.method] or values != expected:
            return [f"csv: row for step {rec.step} method {rec.method} differs from its record"]
    return []


def check_structured(structured_text: str, records) -> list[str]:
    """The structured report holds every record's step, method and mean."""
    doc = json.loads(structured_text)
    ordered = sorted(records, key=lambda r: (r.step, r.method))
    got = [(r["step"], r["method"], r["mean"]) for r in doc["records"]]
    want = [(r.step, r.method, [float(v) for v in r.mean]) for r in ordered]
    return [] if got == want else ["structured: records differ from the run's records"]


def check_track(doc: dict, sim, report, csv_text: str, structured_text: str) -> list[str]:
    """Every check of one scenario run of a track workload."""
    name = f"{doc['name']}(feedback={doc.get('feedback', True)})"
    steps = doc["steps"]
    methods = list(doc["methods"])
    by_method = records_by_method(report)
    if sorted(by_method) != sorted(methods) or any(
        [r.step for r in recs] != list(range(1, steps + 1)) for recs in by_method.values()
    ):
        return [f"{name}: records are not one per (step, method)"]
    measurements = [np.asarray(z.value, dtype=float) for z in sim.measurements]
    means = {m: np.array([r.mean for r in by_method[m]]) for m in methods}
    nonlinear = doc["constraint"] is not None and doc["constraint"].get("kind") != "affine"
    if nonlinear:
        ref = reference_circle_step(doc, measurements, means)
    else:
        ref = reference_track(doc, measurements)

    failures = []
    for method in methods:
        ref_means, ref_traces = ref[method]
        recs = by_method[method]
        scale = float(np.abs(ref_means).max())
        gap = float(np.abs(means[method] - ref_means).max())
        if gap > MEAN_RTOL * scale:
            failures.append(
                f"{name} {method}: mean departs from the reference by {gap:.3e} "
                f"(scale {scale:.3e})"
            )
        low = min(r.cov_min_eig + EIG_TOL * t for r, t in zip(recs, ref_traces))
        if low < 0.0:
            failures.append(f"{name} {method}: a covariance has min eigenvalue below "
                            f"-{EIG_TOL:g} x trace")
        if method in HARD_METHODS and not nonlinear:
            bound = RESIDUAL_TOL * (1.0 + float(np.linalg.norm(doc["constraint"]["rhs"])))
            worst = max(r.constraint_residual for r in recs)
            if worst > bound:
                failures.append(
                    f"{name} {method}: constraint residual {worst:.3e} exceeds {bound:.3e}"
                )
    if nonlinear:
        failures += check_circle(name, by_method)
    failures += check_csv(csv_text, report.records, len(doc["initial_truth"]))
    failures += check_structured(structured_text, report.records)
    return failures


def check_circle(name: str, by_method: dict) -> list[str]:
    """Projection keeps the true (nonlinear) residual below unconstrained."""
    proj = np.array([r.constraint_residual for r in by_method["projection"]])
    free = np.array([r.constraint_residual for r in by_method["unconstrained"]])
    share = float(np.mean(proj < free))
    failures = []
    if share < CIRCLE_SHARE:
        failures.append(
            f"{name}: projection has the smaller residual on {share:.1%} of steps "
            f"(needs {CIRCLE_SHARE:.0%})"
        )
    if not np.sqrt(np.mean(proj**2)) < np.sqrt(np.mean(free**2)):
        failures.append(f"{name}: projection residual RMS is not below unconstrained")
    return failures


def reference_covariance(doc: dict, method: str) -> np.ndarray:
    """Final reported covariance of the Riccati recursion, projected with the
    posterior-inverse weight after every update for ``projection``."""
    models = _models(doc)
    p = _matrix(doc["initial_estimate"]["covariance"])
    x = np.zeros(p.shape[0])
    constraint = doc.get("constraint")
    for k in range(doc["steps"]):
        f, q, h, r = _model_at(models, k)
        _, p = _joseph(x, f @ p @ f.T + q, np.zeros(h.shape[0]), h, r)
        if method == "projection":
            a = _matrix(constraint["matrix"])
            _, p = _posterior_inverse_projection(x, p, a, np.zeros(a.shape[0]))
    return p


def check_mc(docs: list[dict], reports, row_ratio: float, trials: int) -> list[str]:
    """The Monte-Carlo gate's statistical bounds, and each run's final
    reported covariance against the reference recursion.

    ``docs`` and ``reports`` are in the order scalar unconstrained, planar
    projection, planar unconstrained.
    """
    failures = []
    for doc, rep in zip(docs, reports):
        label = f"{doc['name']} {rep.method}"
        if rep.trials != trials or rep.matched_entries < 1:
            failures.append(f"{label}: {rep.trials} trials, {rep.matched_entries} matched")
        want = reference_covariance(doc, rep.method)
        gap = float(np.abs(np.asarray(rep.reported_covariance) - want).max())
        if gap > MC_COV_RTOL * float(np.abs(want).max()):
            failures.append(f"{label}: reported covariance departs from the reference "
                            f"by {gap:.3e}")
    for rep in reports[:2]:
        if not rep.max_relative_deviation <= MC_DEV_TOL:
            failures.append(
                f"{rep.method}: sample covariance deviates {rep.max_relative_deviation:.2%} "
                f"(bound {MC_DEV_TOL:.0%})"
            )
    if not row_ratio <= MC_ROW_TOL:
        failures.append(f"constraint-row error ratio {row_ratio:.3e} exceeds {MC_ROW_TOL:g}")
    return failures
