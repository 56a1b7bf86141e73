"""Report emission writes the bytes of the json/repr formatting it replaced.

The oracles below are the emission code the hand writer replaced, kept
verbatim: ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline for
the structured report, and one ``repr`` per cell for the CSV.  Every report
compared here, whether run or built directly, must match them byte for byte.
"""

import json
import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
import pytest

from eqkf.harness import RunReport, RunSummary, StepRecord, config_from_document, run_scenario
from eqkf.harness.run import RNG_ALGORITHM, _json_text, emit_report

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
JSON_VALUES = st.recursive(
    SCALARS | st.lists(FLOATS),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


def json_oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def structured_oracle(report: RunReport) -> str:
    doc = {
        "config": report.config.to_document(),
        "rng": RNG_ALGORITHM,
        "records": [
            {
                "step": rec.step,
                "method": rec.method,
                "truth": rec.truth.tolist(),
                "mean": rec.mean.tolist(),
                "err_norm": rec.err_norm,
                "constraint_residual": rec.constraint_residual,
                "cov_min_eig": rec.cov_min_eig,
                "cov_asym": rec.cov_asym,
            }
            for rec in sorted(report.records, key=lambda r: (r.step, r.method))
        ],
        "summary": report.summary.to_document(),
    }
    return json_oracle(doc)


def csv_oracle(report: RunReport) -> str:
    n = report.config.state_dim
    columns = (
        ["step", "method"]
        + [f"t{i}" for i in range(n)]
        + [f"m{i}" for i in range(n)]
        + ["err_norm", "constraint_residual", "cov_min_eig", "cov_asym"]
    )
    lines = [",".join(columns)]
    for rec in sorted(report.records, key=lambda r: (r.step, r.method)):
        cells = [str(rec.step), rec.method]
        cells += map(repr, rec.truth.tolist())
        cells += map(repr, rec.mean.tolist())
        cells += [repr(float(v)) for v in
                  (rec.err_norm, rec.constraint_residual, rec.cov_min_eig, rec.cov_asym)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sphere_doc(steps=2):
    """n = 3, a list of two models (for 0 or 2 steps), a sphere over
    ``indices`` with an integer radius, an explicit projection weight and a
    non-ASCII name."""
    model = {
        "transition": [[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1]],
        "process_noise": [[0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01]],
        "observation": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        "measurement_noise": [[0.04, 0.0], [0.0, 0.04]],
    }
    return {
        "name": "kugel-ü-π",
        "steps": steps,
        "seed": 5,
        "feedback": False,
        "model": [model, dict(model, observation=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])],
        "constraint": {"kind": "sphere", "rhs": [1], "indices": [0, 2]},
        "initial_truth": [0.6, 2.0, 0.8],
        "initial_estimate": {
            "mean": [0.5, 1.9, 0.9],
            "covariance": [[0.2, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.2]],
        },
        "methods": [
            "unconstrained",
            "projection",
            {"method": "projection", "weight": [[2.0, 0.3, 0.0], [0.3, 1.0, 0.0],
                                                [0.0, 0.0, 1.5]]},
        ],
    }


def soft_doc(steps=3):
    """n = 2, one model, an affine constraint and soft noise."""
    return {
        "steps": steps,
        "seed": 3,
        "model": {
            "transition": [[1.0, 0.0], [0.0, 1.0]],
            "process_noise": [[0.02, 0.0], [0.0, 0.02]],
            "observation": [[1.0, 0.0], [0.0, 1.0]],
            "measurement_noise": [[0.04, 0.0], [0.0, 0.04]],
        },
        "constraint": {"kind": "affine", "matrix": [[1.0, 1.0]], "rhs": [0.0]},
        "initial_truth": [0.5, -0.5],
        "initial_estimate": {"mean": [0.4, -0.3], "covariance": [[0.5, 0.0], [0.0, 0.5]]},
        "methods": ["unconstrained", "augmented", "restricted_gain", "soft_augmented"],
        "soft_noise": [[1.0]],
    }


DOCS = {"sphere": sphere_doc, "soft": soft_doc}


def assert_oracle_bytes(report: RunReport) -> None:
    assert emit_report(report, "structured") == structured_oracle(report)
    assert emit_report(report, "csv") == csv_oracle(report)


@given(JSON_VALUES)
@example([1.0, math.nan])
@example({"b": [-math.inf, 2.0], "a": [math.inf], "ä": 1})
@example([1e308, 1e308])
@example([1, 2.0, True, None, "x"])
@example({"ü": [5e-324, -0.0, 1e16, 1e-5], "Z": {}, "a": []})
def test_encoder_writes_the_bytes_of_json_dumps(value):
    assert _json_text(value) + "\n" == json_oracle(value)


@pytest.mark.parametrize("name", sorted(DOCS))
@pytest.mark.parametrize("steps", [0, 2])
def test_a_run_report_has_the_oracle_bytes(name, steps):
    report = run_scenario(config_from_document(DOCS[name](steps)))
    assert len(report.records) == steps * len(report.config.methods)
    assert_oracle_bytes(report)
    if steps == 0:
        assert '\n  "records": [],\n' in emit_report(report, "structured")


@st.composite
def built_reports(draw, name):
    """A report built directly from drawn figures, in a drawn record order.
    The records of a step share one truth array, as a run's do, unless the
    draw gives each record its own."""
    config = config_from_document(DOCS[name]())
    n, labels = config.state_dim, [spec.label for spec in config.methods]
    vectors = st.lists(FLOATS, min_size=n, max_size=n).map(np.array)
    shared = draw(st.booleans())
    records = []
    for step in range(1, draw(st.integers(0, 3)) + 1):
        truth = draw(vectors)
        for label in draw(st.permutations(labels)):
            records.append(StepRecord(step, label, truth if shared else draw(vectors),
                                      draw(vectors), *draw(st.tuples(*[FLOATS] * 4))))
    figures = st.fixed_dictionaries({label: FLOATS for label in labels})
    summary = RunSummary(rmse=draw(figures), max_constraint_residual=draw(figures),
                         divergence={"projection|projection[1]": draw(FLOATS)})
    return RunReport(config=config, records=tuple(records), summary=summary)


@pytest.mark.parametrize("name", sorted(DOCS))
@given(data=st.data())
def test_a_built_report_has_the_oracle_bytes(name, data):
    assert_oracle_bytes(data.draw(built_reports(name)))
