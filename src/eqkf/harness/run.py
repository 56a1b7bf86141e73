"""Scenario execution and report emission.

:func:`run_scenario` runs every requested method against one shared
simulated measurement stream and records, per step and method, the truth,
the reported mean, the estimation error norm, the constraint residual
(against the true, possibly nonlinear, constraint), and covariance health
metrics.  :func:`emit_report` serializes the result as CSV or as a
structured JSON document whose config section round-trips through
:func:`eqkf.harness.config.load_config`.

Each step of each method runs its :data:`~eqkf.constrained.METHODS` row, as
the public updates do: the covariance stage, which reads no mean, then the mean
stage, on the arrays of the constraint's ``_rows`` (relinearized, if need be,
with no ``EqualityConstraint`` built).  With one model and a linear constraint
(or none) :func:`run_scenario` keeps a memory per covariance stage, keyed by
stage (``Method.shares``), and reuses a stage for its partner row within a
step and, as the recursion soon repeats bit for bit, for a byte-equal input
covariance across steps; the mean stage then runs alone and the reports do not
change.  A time-varying model or a relinearized constraint never reuses one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Mapping

import numpy as np

from .. import kalman
from ..constrained import METHODS, NonlinearConstraint
from ..errors import (
    DegenerateResidual, FilterError, ScenarioStepError, UnsupportedFormat, ValidationError
)
from ..kalman import Measurement, StateEstimate, SystemModel
from .config import MethodSpec, ScenarioConfig, _degenerate_restricted_gain
from .simulate import SimulationResult, simulate_truth

# Identifier of the random generator algorithm used by the simulator,
# recorded in structured reports for reproducibility.
RNG_ALGORITHM = "numpy-default-rng(PCG64)"


@dataclass(frozen=True)
class StepRecord:
    """One (step, method) row of a run."""

    step: int
    method: str
    truth: np.ndarray
    mean: np.ndarray
    err_norm: float
    constraint_residual: float
    cov_min_eig: float
    cov_asym: float


@dataclass(frozen=True)
class RunSummary:
    """Per-method aggregates and cross-method divergence diagnostics."""

    rmse: Mapping[str, float]
    max_constraint_residual: Mapping[str, float]
    divergence: Mapping[str, float]

    def to_document(self) -> dict:
        return {
            "rmse": dict(self.rmse),
            "max_constraint_residual": dict(self.max_constraint_residual),
            "divergence": dict(self.divergence),
        }


@dataclass(frozen=True)
class RunReport:
    """Everything produced by one scenario run."""

    config: ScenarioConfig
    records: tuple[StepRecord, ...]
    summary: RunSummary


def _step(mean, cov, z, model: SystemModel, spec: MethodSpec, config: ScenarioConfig,
          stage=None):
    """:func:`advance_method` on arrays: ``mean`` ``(n,)``, or ``(n, T)`` for a
    stack of means in columns with one shared ``cov``, and ``z`` ``(m,)`` or
    ``(m, T)``.  Returns the reported and the continuing ``(mean, cov)``, one
    pair with ``feedback`` on, and the covariance stage, which a later call
    from a byte-equal ``cov`` may pass back as ``stage`` to run the mean stage
    alone.  The caller checks the covariances.  A stack needs a linear
    constraint; the stage keeps the prediction covariance for the
    restricted-gain fallback of one mean."""
    method, plain = METHODS[spec.name], METHODS["unconstrained"]
    mean = model.transition @ mean
    if method.needs_constraint and config.constraint is None:
        raise ValidationError("constraint: a constrained method needs one")
    rows = config.constraint._rows(mean) if method.needs_constraint else (None, None)
    if mean.ndim > 1 and method.needs_constraint:  # b for each column
        rows = rows[0], rows[1][:, None]
    if stage is None:
        cov = kalman._predict_covariance(cov, model)
        separate = not (config.feedback or method.forms_unconstrained)
        stage = (
            cov,
            method.covariance(cov, model, rows[0], spec._projection, config.soft_noise),
            plain.covariance(cov, model, None, None, None) if separate else None,
        )
    try:
        reported, unconstrained = method.mean(stage[1], mean, z, model, *rows)
    except DegenerateResidual:  # raised only by the restricted-gain row, for one mean
        reported, unconstrained = _degenerate_restricted_gain(stage[0], mean, z, model, *rows)
    if config.feedback:
        return reported, reported, stage
    if unconstrained is None:
        unconstrained, _ = plain.mean(stage[2], mean, z, model, None, None)
    return reported, unconstrained, stage


def advance_method(
    state: StateEstimate,
    z: Measurement,
    model: SystemModel,
    spec: MethodSpec,
    config: ScenarioConfig,
    *,
    _memory: tuple | None = None,
) -> tuple[StateEstimate, StateEstimate]:
    """Run one predict/update cycle of ``spec`` from ``state``.

    Returns ``(reported, next_state)``: the estimate to report for this
    step and the estimate the recursion continues from.  They differ only
    when the scenario runs constrained methods with ``feedback`` off, in
    which case the recursion continues from the unconstrained update.
    Nonlinear constraints are relinearized about the predicted mean.

    ``_memory`` (from :func:`run_scenario` only) is ``(seen, stored[, last])``
    for one covariance stage: the diagonal hashes of the input covariances seen
    so far; up to four stages and their estimates, stored by the full bytes of
    an input whose diagonal was seen and reused for equal bytes; and the input,
    stage and estimates of the latest step, reused for the same (read-only)
    input object, such as a partner row's.  Reused estimates lend their checked
    covariances, so partner rows go on from one object.
    """
    kalman._check_update_dims(state, z, model)
    key, stage, earlier, last = None, None, (), []
    if _memory is not None:
        seen, stored, *rest = _memory
        last = rest[0] if rest else last
        if last and last[0] is state.covariance:
            _, stage, earlier = last
        else:
            diagonal = hash(state.covariance.diagonal().tobytes())
            if diagonal in seen:
                key = state.covariance.tobytes()
                stage, earlier = stored.get(key, (None, ()))
            seen.add(diagonal)
    reported, following, stage = _step(
        state.mean, state.covariance, z.value, model, spec, config, stage
    )
    pairs = [reported] if following is reported else [reported, following]
    whats = (f"{spec.label} posterior", "unconstrained posterior")
    estimates = [
        kalman._estimate(*pair, state.step + 1, what, prior)
        for pair, what, prior in zip(pairs, whats, earlier or (None, None))
    ]
    if key is not None and not earlier and len(stored) < 4:
        stored[key] = stage, estimates
    last[:] = state.covariance, stage, estimates
    return estimates[0], estimates[-1]


def _relative_divergence(a: np.ndarray, b: np.ndarray) -> float:
    scale = 1.0 + max(float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


@np.errstate(over="ignore")
def run_scenario(
    config: ScenarioConfig, sim: SimulationResult | None = None
) -> RunReport:
    """Run every configured method over one simulated trajectory.

    Numerical failures are re-raised as ``ScenarioStepError`` carrying the
    one-based step index and method label.  A figure of a record that
    overflows, such as the error norm of a huge mean, reads ``inf``.
    """
    if sim is None:
        sim = simulate_truth(config)
    labels = [spec.label for spec in config.methods]
    # A covariance stage can repeat under one model and a fixed constraint.
    fixed = not isinstance(config.constraint, NonlinearConstraint)
    stages = {spec.label: METHODS[spec.name].shares or spec.label for spec in config.methods}
    memory = {
        stages[spec.label]: (set(), {}, []) for spec in config.methods
        if len(config.models) == 1 and (fixed or not METHODS[spec.name].needs_constraint)
    }
    states: dict[str, StateEstimate] = {
        label: config.initial_estimate for label in labels
    }
    means: dict[str, list[np.ndarray]] = {label: [] for label in labels}
    records: list[StepRecord] = []
    sq_err: dict[str, float] = {label: 0.0 for label in labels}
    max_resid: dict[str, float] = {label: 0.0 for label in labels}

    for k in range(1, config.steps + 1):
        model = config.model_at(k - 1)
        z = sim.measurements[k - 1]
        x_true = sim.truth[k]
        for spec in config.methods:
            label = spec.label
            try:
                reported, next_state = advance_method(
                    states[label], z, model, spec, config, _memory=memory.get(stages[label])
                )
            except FilterError as exc:
                raise ScenarioStepError(k, label, exc) from exc
            states[label] = next_state
            e = x_true - reported.mean
            err = math.sqrt(e @ e)
            residual = config.true_residual(reported.mean)
            records.append(
                StepRecord(
                    step=k,
                    method=label,
                    truth=x_true,
                    mean=reported.mean,
                    err_norm=err,
                    constraint_residual=residual,
                    cov_min_eig=reported.cov_min_eig,
                    cov_asym=reported.cov_asym,
                )
            )
            means[label].append(reported.mean)
            sq_err[label] += err * err
            max_resid[label] = max(max_resid[label], residual)

    steps = max(config.steps, 1)
    rmse = {label: float(np.sqrt(sq_err[label] / steps)) for label in labels}
    divergence: dict[str, float] = {}
    grouped = [tag for tag, row in METHODS.items() if row.group and tag in means]
    for i, first in enumerate(grouped):
        for second in grouped[i + 1 :]:
            if METHODS[first].group != METHODS[second].group:
                continue
            worst = 0.0
            for ma, mb in zip(means[first], means[second]):
                worst = max(worst, _relative_divergence(ma, mb))
            divergence[f"{first}|{second}"] = worst
    summary = RunSummary(rmse=rmse, max_constraint_residual=max_resid, divergence=divergence)
    return RunReport(config=config, records=tuple(records), summary=summary)


def _format_value(v: float) -> str:
    return repr(float(v))


# json's spelling of the non-finite floats, which ``repr`` writes otherwise.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    at the indentation ``pad`` of its first line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_SPELLING.get(text, text)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # A list of finite floats is one join; any other goes item by item.
        sep = ",\n" + inner
        try:
            items = sep.join(map(float.__repr__, value))
            floats = math.isfinite(sum(value))
        except TypeError:
            floats = False
        if not floats:
            items = sep.join(_json_text(v, inner) for v in value)
        return f"[\n{inner}{items}\n{pad}]"
    if isinstance(value, dict):
        items = ",\n".join(
            f"{inner}{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
            for k, v in sorted(value.items())
        )
        return f"{{\n{items}\n{pad}}}" if value else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _record_cells(report: RunReport):
    """Each record, by step then method, with the ``repr`` cells of its truth
    and mean; the records of a step share its truth array and its cells."""
    truth, truth_cells = None, []
    for rec in sorted(report.records, key=lambda r: (r.step, r.method)):
        if rec.truth is not truth:
            truth, truth_cells = rec.truth, list(map(repr, rec.truth.tolist()))
        yield rec, truth_cells, list(map(repr, rec.mean.tolist()))


def _csv_text(report: RunReport) -> str:
    n = report.config.state_dim
    columns = (
        ["step", "method"]
        + [f"t{i}" for i in range(n)]
        + [f"m{i}" for i in range(n)]
        + ["err_norm", "constraint_residual", "cov_min_eig", "cov_asym"]
    )
    lines = [",".join(columns)]
    for rec, truth, mean in _record_cells(report):
        figures = rec.err_norm, rec.constraint_residual, rec.cov_min_eig, rec.cov_asym
        lines.append(",".join([str(rec.step), rec.method, *truth, *mean,
                               *map(_format_value, figures)]))
    return "\n".join(lines) + "\n"


# One record of the structured report, as json.dumps(..., indent=2) writes it.
_RECORD = """    {{
      "constraint_residual": {},
      "cov_asym": {},
      "cov_min_eig": {},
      "err_norm": {},
      "mean": {},
      "method": {},
      "step": {},
      "truth": {}
    }}"""


def _json_cells(cells: list[str]) -> str:
    """A record's truth or mean from its ``repr`` cells."""
    items = ",\n        ".join(map(_JSON_SPELLING.get, cells, cells))
    return f"[\n        {items}\n      ]" if cells else "[]"


def _structured_text(report: RunReport) -> str:
    records = ",\n".join(
        _RECORD.format(
            _json_text(rec.constraint_residual), _json_text(rec.cov_asym),
            _json_text(rec.cov_min_eig), _json_text(rec.err_norm), _json_cells(mean),
            _json_text(rec.method), _json_text(rec.step), _json_cells(truth),
        )
        for rec, truth, mean in _record_cells(report)
    )
    records = f"[\n{records}\n  ]" if records else "[]"
    config = _json_text(report.config.to_document(), "  ")
    summary = _json_text(report.summary.to_document(), "  ")
    return (f'{{\n  "config": {config},\n  "records": {records},\n'
            f'  "rng": {_json_text(RNG_ALGORITHM)},\n  "summary": {summary}\n}}\n')


def emit_report(report: RunReport, format: str = "csv") -> str:
    """Serialize a run report.

    ``csv`` produces one row per (step, method) with the exact column
    order ``step, method, t0.., m0.., err_norm, constraint_residual,
    cov_min_eig, cov_asym``; an empty run yields just the header.
    ``structured`` produces ``json.dumps(doc, indent=2, sort_keys=True)``
    and a newline, byte for byte, for the configuration echo, generator id,
    records and summary.  Anything else raises ``UnsupportedFormat``.
    """
    if format == "csv":
        return _csv_text(report)
    if format == "structured":
        return _structured_text(report)
    raise UnsupportedFormat(f"unknown report format '{format}'")
