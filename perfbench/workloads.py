"""The three workloads: inputs generated from a seed, and one operation each.

The program receives only scenario documents.  Every call into it goes
through a module attribute looked up at call time (``harness.run_scenario``,
``oracle.empirical_covariance_check``), so the spans that
:mod:`tracing` installs see every call the benchmark makes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from eqkf import harness, oracle

import reference

METHODS = (
    "unconstrained",
    "augmented",
    "fusion",
    "projection",
    "projection_identity",
    "restricted_gain",
    "soft_augmented",
)

# Input sizes.  "full" is what the benchmark measures; "tiny" keeps every
# code path and check but runs in seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "line_steps": 100,
        "soft_steps": 100,
        "circle_steps": 600,
        "wide_dims": (96, 48, 24),
        "wide_steps": 20,
        "mc_trials": 100_000,
    },
    "tiny": {
        "line_steps": 8,
        "soft_steps": 8,
        "circle_steps": 120,
        "wide_dims": (8, 4, 2),
        "wide_steps": 4,
        "mc_trials": 20_000,
    },
}


def _bundled(name: str, steps: int | None, seed: int, **changes) -> dict:
    doc = json.loads(harness.bundled_scenario_text(name))
    if steps is not None:
        doc["steps"] = steps
    doc["seed"] = seed
    doc.update(changes)
    return doc


def _symmetric_rows(a: np.ndarray) -> list:
    """Rows of ``a`` made exactly symmetric, as the model validation requires."""
    return (0.5 * (a + a.T)).tolist()


def _wide_document(seed: int, dims: tuple[int, int, int], steps: int) -> dict:
    """A linear scenario with an affine constraint, drawn from ``seed``.

    The transition is a damped rotation, the noises are well conditioned
    and the constraint rows are orthonormal, so every method runs and the
    prediction covariance stays invertible, as fusion requires.
    """
    n, m, q = dims
    rng = np.random.default_rng([seed, n, m, q])
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    transition = 0.98 * rotation
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    process_noise = 0.01 * (np.eye(n) + g @ g.T)
    observation = rng.standard_normal((m, n)) / np.sqrt(n)
    gr = rng.standard_normal((m, m)) / np.sqrt(m)
    measurement_noise = 0.1 * np.eye(m) + 0.05 * gr @ gr.T
    rows, _ = np.linalg.qr(rng.standard_normal((n, q)))
    matrix = rows.T
    rhs = rng.standard_normal(q)
    # Feasible initial truth: the minimum-norm correction of a random point.
    point = rng.standard_normal(n)
    truth = point - matrix.T @ (matrix @ point - rhs)
    mean = truth + 0.3 * rng.standard_normal(n)
    soft = 0.05 * np.eye(q)
    return {
        "name": f"wide_{n}x{m}x{q}",
        "steps": steps,
        "seed": seed,
        "model": {
            "transition": transition.tolist(),
            "process_noise": _symmetric_rows(process_noise),
            "observation": observation.tolist(),
            "measurement_noise": _symmetric_rows(measurement_noise),
        },
        "constraint": {"kind": "affine", "matrix": matrix.tolist(), "rhs": rhs.tolist()},
        "initial_truth": truth.tolist(),
        "initial_estimate": {"mean": mean.tolist(), "covariance": np.eye(n).tolist()},
        "methods": list(METHODS),
        "soft_noise": soft.tolist(),
    }


def documents(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The scenario documents of ``workload``, a pure function of ``seed``."""
    s = SIZES[size]
    base = 1000 * seed
    if workload == "track_small":
        return [
            _bundled("line_2d", s["line_steps"], base + 1, feedback=True),
            _bundled("line_2d", s["line_steps"], base + 2, feedback=False),
            _bundled("soft_line_2d", s["soft_steps"], base + 3),
            _bundled("circle", s["circle_steps"], base + 4),
        ]
    if workload == "track_wide":
        return [_wide_document(seed, s["wide_dims"], s["wide_steps"])]
    if workload == "mc_sweep":
        return [_bundled("mc_scalar", None, 0), _bundled("mc_line_2d", None, 0)]
    raise ValueError(f"unknown workload '{workload}'")


def load(docs: list[dict]) -> list:
    """Validate the documents into scenario configurations."""
    return [harness.config_from_document(doc) for doc in docs]


@dataclass
class OpResult:
    """What one operation produced, and how long its filtering took."""

    outputs: list
    filter_s: float
    estimates: int


class TrackWorkload:
    """Per scenario: simulate, ``run_scenario``, then emit CSV and structured."""

    def __init__(self, docs: list[dict], configs: list):
        self.docs = docs
        self.configs = configs

    def run_op(self) -> OpResult:
        outputs = []
        filter_s = 0.0
        estimates = 0
        for config in self.configs:
            sim = harness.simulate_truth(config)
            started = time.perf_counter()
            report = harness.run_scenario(config, sim)
            filter_s += time.perf_counter() - started
            estimates += len(report.records)
            csv_text = harness.emit_report(report, "csv")
            structured_text = harness.emit_report(report, "structured")
            outputs.append((sim, report, csv_text, structured_text))
        return OpResult(outputs, filter_s, estimates)

    @staticmethod
    def same(a: OpResult, b: OpResult) -> bool:
        """Whether two operations produced identical outputs.

        The CSV carries every record field as a round-tripping ``repr``, so
        equal CSV and structured texts plus equal simulations mean equal
        outputs.
        """
        return all(
            np.array_equal(sa.truth, sb.truth)
            and all(
                np.array_equal(za.value, zb.value)
                for za, zb in zip(sa.measurements, sb.measurements)
            )
            and ca == cb
            and ta == tb
            for (sa, _, ca, ta), (sb, _, cb, tb) in zip(a.outputs, b.outputs)
        )

    def check(self, op: OpResult) -> list[str]:
        failures = []
        for doc, (sim, report, csv_text, structured_text) in zip(self.docs, op.outputs):
            failures += reference.check_track(doc, sim, report, csv_text, structured_text)
        return failures

    @staticmethod
    def emitted_bytes(op: OpResult) -> dict[str, int]:
        return {
            "csv": sum(len(c.encode()) for _, _, c, _ in op.outputs),
            "structured": sum(len(t.encode()) for _, _, _, t in op.outputs),
        }


# The three runs of ``check_monte_carlo``: (document index, method tag).
MC_RUNS = ((0, "unconstrained"), (1, "projection"), (1, "unconstrained"))


class McWorkload:
    """The three ``empirical_covariance_check`` runs of the Monte-Carlo gate
    plus their constraint-row ratio statistic."""

    def __init__(self, docs: list[dict], configs: list, seed: int, trials: int):
        self.docs = docs
        self.configs = configs
        self.trials = trials
        # check_monte_carlo draws the scalar world from one seed and both
        # planar runs from another, so the planar pair share their trials.
        self.oracle_seeds = (2 * seed + 1, 2 * seed + 2, 2 * seed + 2)

    def run_op(self) -> OpResult:
        started = time.perf_counter()
        reports = [
            oracle.empirical_covariance_check(
                self.configs[index], method, self.trials, seed=oracle_seed
            )
            for (index, method), oracle_seed in zip(MC_RUNS, self.oracle_seeds)
        ]
        row_ratio = reports[1].constraint_row_rms / reports[2].constraint_row_rms
        filter_s = time.perf_counter() - started
        estimates = sum(
            r.trials * self.configs[index].steps for r, (index, _) in zip(reports, MC_RUNS)
        )
        return OpResult([reports, row_ratio], filter_s, estimates)

    @staticmethod
    def same(a: OpResult, b: OpResult) -> bool:
        fields = (
            "reported_covariance",
            "sample_covariance",
            "max_relative_deviation",
            "constraint_row_rms",
        )
        return a.outputs[1] == b.outputs[1] and all(
            np.array_equal(getattr(ra, f), getattr(rb, f))
            for ra, rb in zip(a.outputs[0], b.outputs[0])
            for f in fields
        )

    def check(self, op: OpResult) -> list[str]:
        reports, row_ratio = op.outputs
        return reference.check_mc(
            [self.docs[index] for index, _ in MC_RUNS],
            reports,
            row_ratio,
            self.trials,
        )

    @staticmethod
    def emitted_bytes(op: OpResult) -> dict[str, int]:
        return {"csv": 0, "structured": 0}


def build(workload: str, seed: int, size: str = "full", docs: list[dict] | None = None,
          configs: list | None = None):
    """The workload object, from documents and configurations loaded by the caller
    or, when not given, generated and loaded here."""
    if docs is None:
        docs = documents(workload, seed, size)
    if configs is None:
        configs = load(docs)
    if workload == "mc_sweep":
        return McWorkload(docs, configs, seed, SIZES[size]["mc_trials"])
    return TrackWorkload(docs, configs)
