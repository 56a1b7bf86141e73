"""The benchmark's tracer wraps library names listed in ``perfbench/tracing.py``;
a renamed or removed name breaks it.  The list is read with ``ast``, so the
tracer itself is never imported here.  The tracer also counts restricted
gain's degenerate fallback where the public update raises it, so that call
is pinned too, also for a step that reuses a stored covariance stage."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from eqkf import Measurement, constrained, harness, kalman
from eqkf.errors import DegenerateResidual

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> dict:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


TARGETS = [(module, name) for module, names in _targets().items() for name in names]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_name_is_bound(module, name):
    target = getattr(importlib.import_module(module), name, None)
    assert target is not None, f"{module} no longer binds {name}"
    if isinstance(target, type):
        # the tracer wraps the class's own constructor
        assert "__init__" in vars(target), f"{module}.{name} has no __init__ of its own"
    else:
        assert callable(target)


def _record_calls(monkeypatch, module, names) -> list:
    """Each later call of ``module``'s ``names``, with the type of what it raised."""
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                calls.append((name, type(exc)))
                raise
            calls.append((name, None))
            return out
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    return calls


def _degenerate_restricted_gain_step(monkeypatch, stored: bool):
    # The benchmark's "constrained.restricted_gain_update.degenerate" metric
    # counts restricted_gain_update calls that raise DegenerateResidual.
    config = harness.load_bundled_scenario("line_2d")
    spec = next(s for s in config.methods if s.name == "restricted_gain")
    model = config.model_at(0)
    state = config.initial_estimate
    memory = None
    if stored:
        # a first sighting of the covariance, then a step that stores its stage
        memory = (set(), {})
        z = harness.simulate_truth(config).measurements[0]
        for _ in range(2):
            harness.advance_method(state, z, model, spec, config, _memory=memory)
        assert len(memory[1]) == 1
    # A measurement equal to the predicted observation has zero innovation.
    z = Measurement(model.observation @ model.transition @ state.mean, step=1)
    calls = _record_calls(monkeypatch, constrained, ("restricted_gain_update", "project"))
    stages = _record_calls(monkeypatch, kalman, ("_predict_covariance",))
    reported, _ = harness.advance_method(state, z, model, spec, config, _memory=memory)
    assert calls == [("restricted_gain_update", DegenerateResidual), ("project", None)]
    assert len(stages) == (0 if stored else 1)
    assert np.linalg.norm(config.constraint.matrix @ reported.mean - config.constraint.rhs) < 1e-9


def test_degenerate_restricted_gain_step_goes_through_the_public_update(monkeypatch):
    _degenerate_restricted_gain_step(monkeypatch, stored=False)


def test_degenerate_step_with_a_stored_stage_goes_through_the_public_update(monkeypatch):
    _degenerate_restricted_gain_step(monkeypatch, stored=True)
