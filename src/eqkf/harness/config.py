"""Scenario configuration: a JSON document describing one simulation run.

A scenario document is a single JSON object with these fields (matrices
are nested row-major arrays):

    name              optional string, default "scenario"
    steps             required non-negative integer
    seed              optional non-negative integer, default 0
    feedback          optional bool, default true; when false, constrained
                      estimates are reported on the side while the filter
                      recursion continues from the unconstrained update
    model             required: a model object, or an array of one model
                      object per step
    constraint        optional constraint object or null
    initial_truth     required state vector
    initial_estimate  required {"mean": [...], "covariance": [[...]]}
    methods           optional array of method entries, default
                      ["unconstrained"]
    soft_noise        q x q matrix, required iff "soft_augmented" is in
                      methods

A model object has "transition", "process_noise", "observation", and
"measurement_noise" matrices.  A constraint object is one of a small
registry of families:

    {"kind": "affine", "matrix": [[...]], "rhs": [...]}
    {"kind": "sphere", "rhs": [r_squared], "center": [...]?, "indices": [...]?}
    {"kind": "product", "indices": [i, j], "rhs": [c]}

"sphere" constrains the sum of squared (optionally centered, optionally
index-selected) components; "product" constrains the product of two
components.  Nonlinear families are relinearized about each step's
predicted mean before the constrained update runs.

A method entry is a tag string, one of the keys of the method table
:data:`METHODS` (which also gives each tag's update and equivalence
group), or, for projection, an object {"method": "projection", "weight": W}
where W is a ``ProjectionSpec`` weight: "posterior_inverse" or "identity"
(the ``POSTERIOR_INVERSE`` and ``IDENTITY`` markers), or an explicit matrix,
which is checked, condition-tested and factored once, at load.

Malformed documents raise ``ParseError`` naming the field; well-formed
documents violating a semantic invariant (dependent constraint rows, an
infeasible initial truth, a non-positive-definite initial covariance,
inconsistent dimensions) raise ``ValidationError``.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Callable, NamedTuple

import numpy as np

from .. import constrained, kalman
from ..constrained import (
    IDENTITY,
    POSTERIOR_INVERSE,
    PROJECTION,
    EqualityConstraint,
    NonlinearConstraint,
    ProjectionSpec,
    linearize,
)
from ..errors import DegenerateResidual, ParseError, SingularWeight, ValidationError
from ..kalman import Measurement, StateEstimate, SystemModel
from ..matops import frozen_array


@dataclass(frozen=True)
class MethodSpec:
    """A requested update method; ``weight`` applies to projection only, and
    is checked (an explicit one also factored) once by ``_projection``."""

    name: str
    weight: str | np.ndarray = POSTERIOR_INVERSE

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method '{self.name}'")
        projection = ProjectionSpec(self.weight)
        object.__setattr__(self, "weight", projection.weight)
        object.__setattr__(self, "_projection", projection)

    @property
    def label(self) -> str:
        """Unique column label for reports."""
        if self.name != PROJECTION:
            return self.name
        if isinstance(self.weight, str):
            return _PROJECTION_TAGS[self.weight]
        return "projection_custom"

    def to_document(self) -> Any:
        if self.name != PROJECTION:
            return self.name
        if isinstance(self.weight, str):
            return {"method": PROJECTION, "weight": self.weight}
        return {"method": PROJECTION, "weight": self.weight.tolist()}


class Method(NamedTuple):
    """A row of :data:`METHODS`, an update in two stages.  The covariance stage
    ``covariance(cov, model, lin, spec, config)`` reads no mean: ``lin`` is the
    constraint linearized about the predicted means, None if not
    ``needs_constraint`` (so the unconstrained row is augmentation with no
    rows).  The mean stage ``mean(stage, mean, z, model, lin)`` applies it and
    returns the estimate and the unconstrained update if ``forms_unconstrained``
    (else None), as ``(mean, cov)``.  Tags in one ``group`` have equal means in
    exact arithmetic; the group names the projection weight.  ``shares`` names
    the tag whose covariance stage the row's is, which ``run_scenario`` then
    computes once per step for both."""

    covariance: Callable[..., tuple]
    mean: Callable[..., tuple[tuple, tuple | None]]
    group: str | None = None
    needs_constraint: bool = True
    forms_unconstrained: bool = True
    shares: str | None = None


# A gain row's stage is (P, constrained._joseph_stage); the detour below reads P.
def _augmented_stage(cov, model, lin, spec, config):
    return cov, constrained._augmented_stage(cov, model, lin)


def _augmented_mean(stage, mean, z, model, lin):
    return constrained._augmented_mean(stage[1], mean, z, model, lin)


def _projection_stage(cov, model, lin, spec, config):
    return cov, constrained._joseph_stage(cov, model, lin, spec._projection)


def _projection_mean(stage, mean, z, model, lin):
    _, (_, gain, post, ((ups, _), cov)) = stage
    plain = kalman._correct(mean, z, model.observation, gain)[1]
    return (constrained._along(ups, lin, plain), cov), (plain, post)


def _restricted_gain_mean(stage, mean, z, model, lin):
    pred_cov, stage = stage
    estimates, (_, _, quad) = constrained._restricted_gain_mean(stage, mean, z, model, lin)
    if mean.ndim == 2 or quad is None or not constrained._degenerate(quad):
        return estimates
    # A stack of means keeps the kernel's per-row fallback.  One estimate whose
    # v' S^-1 v vanishes or overflows goes through the public functions, so the
    # fallback shows at the public boundary (the benchmark's tracer counts it):
    # restricted_gain_update raises DegenerateResidual, and the identity-weight
    # projection reaches the same corrected mean.
    pred, z = StateEstimate(mean, pred_cov), Measurement(z)
    with contextlib.suppress(DegenerateResidual):
        constrained.restricted_gain_update(pred, z, model, lin)
    unconstrained, _ = kalman.update_joseph(pred, z, model)
    est = constrained.project(unconstrained, lin, constrained._IDENTITY_SPEC).estimate
    return (est.mean, est.covariance), (unconstrained.mean, unconstrained.covariance)


def _soft_stage(cov, model, lin, spec, config):
    return constrained._soft_stage(cov, model, lin, config.soft_noise)


# Every method, keyed by its document tag, which is also its report label.
# The order fixes the order of METHOD_NAMES and of the divergence pairs.
METHODS = {
    "unconstrained": Method(_augmented_stage, _augmented_mean, needs_constraint=False),
    "augmented": Method(_augmented_stage, _augmented_mean, POSTERIOR_INVERSE, shares="projection"),
    "fusion": Method(
        lambda cov, model, lin, *_: kalman._fusion_stage(cov, model, lin.matrix),
        lambda stage, mean, z, model, lin:
            (kalman._fusion_solve(stage, mean, z, lin.rhs), None),
        POSTERIOR_INVERSE,
        forms_unconstrained=False,
    ),
    "projection": Method(_projection_stage, _projection_mean, POSTERIOR_INVERSE),
    "restricted_gain": Method(
        lambda cov, model, lin, *_:
            (cov, constrained._joseph_stage(cov, model, lin, constrained._IDENTITY_SPEC)),
        _restricted_gain_mean,
        IDENTITY,
        shares="projection_identity",
    ),
    "projection_identity": Method(_projection_stage, _projection_mean, IDENTITY),
    "soft_augmented": Method(_soft_stage, constrained._soft_mean, forms_unconstrained=False),
}

# The tag of the projection with each string weight; a projection tag other
# than PROJECTION itself names a weight, not a MethodSpec name.
_PROJECTION_TAGS = {
    row.group: tag for tag, row in METHODS.items() if row.mean is _projection_mean
}
METHOD_NAMES = tuple(
    tag for tag in METHODS if tag == PROJECTION or tag not in _PROJECTION_TAGS.values()
)


def method_spec(entry: Any) -> MethodSpec:
    """Build a MethodSpec from a document entry (tag string or object)."""
    if isinstance(entry, str):
        row = METHODS.get(entry)
        if row is None:
            raise ParseError(f"field 'methods': unknown method '{entry}'")
        if row.mean is _projection_mean:
            return MethodSpec(PROJECTION, row.group)
        return MethodSpec(entry)
    if isinstance(entry, dict):
        if entry.get("method") != PROJECTION:
            raise ParseError(
                "field 'methods': object entries are only supported for 'projection'"
            )
        weight = entry.get("weight", POSTERIOR_INVERSE)
        if isinstance(weight, str):
            if weight not in _PROJECTION_TAGS:
                raise ParseError(f"field 'methods': unknown projection weight '{weight}'")
            return MethodSpec(PROJECTION, weight)
        try:
            return MethodSpec(PROJECTION, _as_array_2d(weight, "methods.weight"))
        except (ValueError, SingularWeight) as exc:
            raise ValidationError(f"methods: projection {exc}") from exc
    raise ParseError("field 'methods': entries must be strings or objects")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario ready to run."""

    name: str
    steps: int
    seed: int
    feedback: bool
    models: tuple[SystemModel, ...]
    constraint: EqualityConstraint | NonlinearConstraint | None
    constraint_doc: dict | None
    initial_truth: np.ndarray
    initial_estimate: StateEstimate
    methods: tuple[MethodSpec, ...]
    soft_noise: np.ndarray | None = None
    model_doc_is_list: bool = field(default=False, repr=False)

    def model_at(self, step_index: int) -> SystemModel:
        """Model for the given zero-based step index."""
        if len(self.models) == 1:
            return self.models[0]
        return self.models[step_index]

    @property
    def state_dim(self) -> int:
        return self.initial_truth.size

    def linear_constraint_at(self, x_ref) -> EqualityConstraint:
        """The constraint in linear form, relinearized at ``x_ref`` if needed.

        Raises ``ValidationError`` when the scenario has no constraint.
        """
        if self.constraint is None:
            raise ValidationError("constraint: a constrained method needs one")
        if isinstance(self.constraint, EqualityConstraint):
            return self.constraint
        return linearize(self.constraint, x_ref)

    def true_residual(self, x) -> float:
        """Norm of the (possibly nonlinear) constraint residual at ``x``."""
        if self.constraint is None:
            return 0.0
        return self.constraint.residual_norm(x)

    def to_document(self) -> dict:
        """Canonical JSON-compatible echo of this configuration."""
        if self.model_doc_is_list:
            model_doc: Any = [_model_to_doc(m) for m in self.models]
        else:
            model_doc = _model_to_doc(self.models[0])
        doc = {
            "name": self.name,
            "steps": self.steps,
            "seed": self.seed,
            "feedback": self.feedback,
            "model": model_doc,
            "constraint": self.constraint_doc,
            "initial_truth": self.initial_truth.tolist(),
            "initial_estimate": {
                "mean": self.initial_estimate.mean.tolist(),
                "covariance": self.initial_estimate.covariance.tolist(),
            },
            "methods": [m.to_document() for m in self.methods],
        }
        if self.soft_noise is not None:
            doc["soft_noise"] = self.soft_noise.tolist()
        return doc


def _model_to_doc(model: SystemModel) -> dict:
    return {
        "transition": model.transition.tolist(),
        "process_noise": model.process_noise.tolist(),
        "observation": model.observation.tolist(),
        "measurement_noise": model.measurement_noise.tolist(),
    }


_TOP_LEVEL_FIELDS = {
    "name",
    "steps",
    "seed",
    "feedback",
    "model",
    "constraint",
    "initial_truth",
    "initial_estimate",
    "methods",
    "soft_noise",
}


def _as_array_2d(value: Any, name: str) -> np.ndarray:
    if not isinstance(value, list) or not value or not all(
        isinstance(row, list) for row in value
    ):
        raise ParseError(f"field '{name}': expected a non-empty array of rows")
    width = len(value[0])
    for i, row in enumerate(value):
        if len(row) != width:
            raise ParseError(
                f"field '{name}': row {i} has length {len(row)}, expected {width}"
            )
    flat = _as_array_1d([entry for row in value for entry in row], name)
    return flat.reshape(len(value), width)


def _as_array_1d(value: Any, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"field '{name}': expected an array of numbers")
    for entry in value:
        if not isinstance(entry, (int, float)) or isinstance(entry, bool):
            raise ParseError(f"field '{name}': entries must be numbers")
    # json reads NaN and Infinity, and an integer may exceed every float
    with contextlib.suppress(OverflowError):
        if np.isfinite(array := np.asarray(value, dtype=float)).all():
            return array
    raise ParseError(f"field '{name}': entries must be finite numbers")


def _require(doc: dict, name: str) -> Any:
    if name not in doc:
        raise ParseError(f"missing required field '{name}'")
    return doc[name]


def _build_model(doc: Any, index: str) -> SystemModel:
    if not isinstance(doc, dict):
        raise ParseError(f"field '{index}': expected a model object")
    kwargs = {}
    for key in ("transition", "process_noise", "observation", "measurement_noise"):
        kwargs[key] = _as_array_2d(_require_in(doc, key, index), f"{index}.{key}")
    try:
        return SystemModel(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"model: {exc}") from exc


def _require_in(doc: dict, key: str, parent: str) -> Any:
    if key not in doc:
        raise ParseError(f"field '{parent}': missing '{key}'")
    return doc[key]


def _as_indices(value: Any) -> np.ndarray:
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ParseError("field 'constraint.indices': expected an array of integers")
    return np.asarray(value, dtype=int)


def _sphere_constraint(doc: dict, n: int) -> NonlinearConstraint:
    rhs = _as_array_1d(_require_in(doc, "rhs", "constraint"), "constraint.rhs")
    if rhs.size != 1:
        raise ParseError("field 'constraint.rhs': sphere takes a single value")
    indices = doc.get("indices")
    if indices is None:
        idx = np.arange(n)
    else:
        idx = _as_indices(indices)
        if idx.size == 0 or idx.min() < 0 or idx.max() >= n:
            raise ValidationError("constraint: sphere indices out of range")
        if np.unique(idx).size != idx.size:
            raise ValidationError("constraint: sphere indices must be distinct")
    center_doc = doc.get("center")
    if center_doc is None:
        center = np.zeros(idx.size)
    else:
        center = _as_array_1d(center_doc, "constraint.center")
        if center.size != idx.size:
            raise ValidationError("constraint: sphere center length mismatch")

    def func(x: np.ndarray) -> np.ndarray:
        d = x[idx] - center
        return np.array([float(d @ d)])

    def jacobian(x: np.ndarray) -> np.ndarray:
        row = np.zeros((1, x.size))
        row[0, idx] = 2.0 * (x[idx] - center)
        return row

    return NonlinearConstraint(func, jacobian, rhs)


def _product_constraint(doc: dict, n: int) -> NonlinearConstraint:
    rhs = _as_array_1d(_require_in(doc, "rhs", "constraint"), "constraint.rhs")
    if rhs.size != 1:
        raise ParseError("field 'constraint.rhs': product takes a single value")
    idx = _as_indices(_require_in(doc, "indices", "constraint"))
    if idx.shape != (2,) or idx.min() < 0 or idx.max() >= n or idx[0] == idx[1]:
        raise ValidationError("constraint: product needs two distinct in-range indices")
    i, j = int(idx[0]), int(idx[1])

    def func(x: np.ndarray) -> np.ndarray:
        return np.array([x[i] * x[j]])

    def jacobian(x: np.ndarray) -> np.ndarray:
        row = np.zeros((1, x.size))
        row[0, i] = x[j]
        row[0, j] = x[i]
        return row

    return NonlinearConstraint(func, jacobian, rhs)


def _build_constraint(
    doc: Any, n: int
) -> tuple[EqualityConstraint | NonlinearConstraint | None, dict | None]:
    if doc is None:
        return None, None
    if not isinstance(doc, dict):
        raise ParseError("field 'constraint': expected an object or null")
    kind = doc.get("kind", "affine")
    if kind == "affine":
        matrix = _as_array_2d(_require_in(doc, "matrix", "constraint"), "constraint.matrix")
        rhs = _as_array_1d(_require_in(doc, "rhs", "constraint"), "constraint.rhs")
        try:
            constraint: EqualityConstraint | NonlinearConstraint = EqualityConstraint(
                matrix, rhs
            )
        except ValueError as exc:
            raise ValidationError(f"constraint: {exc}") from exc
        if constraint.state_dim != n:
            raise ValidationError(
                f"constraint: matrix has {constraint.state_dim} columns, state has {n}"
            )
        return constraint, dict(doc, kind="affine")
    if kind == "sphere":
        return _sphere_constraint(doc, n), dict(doc)
    if kind == "product":
        return _product_constraint(doc, n), dict(doc)
    raise ParseError(f"field 'constraint': unknown kind '{kind}'")


def config_from_document(doc: Any) -> ScenarioConfig:
    """Validate a parsed JSON document and build a ScenarioConfig."""
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ParseError(f"unknown field '{sorted(unknown)[0]}'")

    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ParseError("field 'name': expected a string")
    steps = _require(doc, "steps")
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise ParseError("field 'steps': expected a non-negative integer")
    if steps >= np.iinfo(np.intp).max:
        raise ParseError(f"field 'steps': {steps} is beyond the largest array length")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParseError("field 'seed': expected a non-negative integer")
    feedback = doc.get("feedback", True)
    if not isinstance(feedback, bool):
        raise ParseError("field 'feedback': expected a boolean")

    model_doc = _require(doc, "model")
    if isinstance(model_doc, list):
        if steps > 0 and len(model_doc) != steps:
            raise ValidationError(
                f"model count: got {len(model_doc)} models for {steps} steps"
            )
        models = tuple(_build_model(m, f"model[{i}]") for i, m in enumerate(model_doc))
        if not models:
            raise ValidationError("model count: at least one model is required")
        model_is_list = True
    else:
        models = (_build_model(model_doc, "model"),)
        model_is_list = False

    n = models[0].state_dim
    for i, m in enumerate(models[1:], start=1):
        if m.state_dim != n or m.measurement_dim != models[0].measurement_dim:
            raise ValidationError(f"dimensions: model[{i}] disagrees with model[0]")

    truth = _as_array_1d(_require(doc, "initial_truth"), "initial_truth")
    if truth.size != n:
        raise ValidationError(
            f"dimensions: initial_truth has length {truth.size}, model state is {n}"
        )

    est_doc = _require(doc, "initial_estimate")
    if not isinstance(est_doc, dict):
        raise ParseError("field 'initial_estimate': expected an object")
    mean = _as_array_1d(
        _require_in(est_doc, "mean", "initial_estimate"), "initial_estimate.mean"
    )
    cov = _as_array_2d(
        _require_in(est_doc, "covariance", "initial_estimate"),
        "initial_estimate.covariance",
    )
    try:
        estimate = StateEstimate(mean, cov, step=0)
    except ValueError as exc:
        raise ValidationError(f"initial estimate: {exc}") from exc
    if estimate.dim != n:
        raise ValidationError(
            f"dimensions: initial_estimate has length {estimate.dim}, model state is {n}"
        )
    if estimate.cov_min_eig <= 0.0:
        raise ValidationError("initial estimate: covariance must be positive definite")

    constraint, constraint_doc = _build_constraint(doc.get("constraint"), n)
    if constraint is not None:
        residual = constraint.residual_norm(truth)
        rhs_scale = float(np.linalg.norm(constraint.rhs))
        if residual > 1e-9 * (1.0 + rhs_scale):
            raise ValidationError(
                f"initial truth: constraint residual {residual:.3e} exceeds tolerance"
            )

    default = [tag for tag, row in METHODS.items() if not row.needs_constraint]
    methods_doc = doc.get("methods", default)
    if not isinstance(methods_doc, list) or not methods_doc:
        raise ParseError("field 'methods': expected a non-empty array")
    methods = tuple(method_spec(entry) for entry in methods_doc)
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ValidationError("methods: duplicate method labels")
    for spec in methods:
        if METHODS[spec.name].needs_constraint and constraint is None:
            raise ValidationError(f"methods: '{spec.name}' requires a constraint")
        if not isinstance(spec.weight, str) and spec.weight.shape != (n, n):
            raise ValidationError(f"methods: projection weight must be {n}x{n}")

    soft_noise_doc = doc.get("soft_noise")
    soft_noise = None
    if soft_noise_doc is not None:
        soft_noise = _as_array_2d(soft_noise_doc, "soft_noise")
    soft = [spec.name for spec in methods if METHODS[spec.name].covariance is _soft_stage]
    if soft:
        if soft_noise is None:
            raise ValidationError(f"methods: '{soft[0]}' requires soft_noise")
        q = constraint.constraint_dim if constraint is not None else 0
        if soft_noise.shape != (q, q):
            raise ValidationError(f"soft_noise: expected a {q}x{q} matrix")
        try:
            kalman._check_covariance(soft_noise, "soft_noise")
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    return ScenarioConfig(
        name=name,
        steps=steps,
        seed=seed,
        feedback=feedback,
        models=models,
        constraint=constraint,
        constraint_doc=constraint_doc,
        initial_truth=frozen_array(truth),
        initial_estimate=estimate,
        methods=methods,
        soft_noise=frozen_array(soft_noise) if soft_noise is not None else None,
        model_doc_is_list=model_is_list,
    )


def decode_document(text: str) -> Any:
    """The unvalidated JSON value of a document; bad JSON raises ``ParseError``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid document at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ParseError(f"invalid document: {exc}") from exc


def load_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document from a JSON string."""
    return config_from_document(decode_document(text))


def load_config_file(path) -> ScenarioConfig:
    """Read a scenario document from a file path."""
    with open(path, "r", encoding="utf-8") as handle:
        return load_config(handle.read())


def bundled_scenario_names() -> list[str]:
    """Names of the scenario documents shipped with the package."""
    root = resources.files("eqkf") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_text(name: str) -> str:
    """Raw JSON text of a bundled scenario."""
    path = resources.files("eqkf") / "scenarios" / f"{name}.json"
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"no bundled scenario named '{name}'") from None


def load_bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenario documents shipped with the package."""
    return load_config(bundled_scenario_text(name))
