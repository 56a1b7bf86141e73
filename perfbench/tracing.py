"""Spans around the program's public functions, installed from outside it.

:class:`Tracer` replaces each traced function, in every ``eqkf`` module
that binds it, by a wrapper that records a span: name, start, end,
parent span and a tag.  A traced value type gets its ``__init__``
wrapped, which covers every construction wherever the class is bound.
Spans are kept in flat in-memory arrays while the workload runs and are
written out once at the end.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import METHODS

# Traced names per module, as the per-layer metrics name them:
# ``<module>.<name>.self_s`` and ``<module>.<name>.calls``.
TARGETS = {
    "eqkf.harness.config": ("config_from_document",),
    "eqkf.harness.simulate": ("simulate_truth", "simulate_with_rng"),
    "eqkf.harness.run": ("advance_method", "run_scenario", "emit_report"),
    "eqkf.kalman": (
        "predict",
        "innovate",
        "update_joseph",
        "StateEstimate",
        "InnovationStats",
        "Measurement",
        "SystemModel",
    ),
    "eqkf.constrained": (
        "augmented_update",
        "project",
        "restricted_gain_update",
        "fusion_constrained_update",
        "soft_augmented_update",
        "constrain_posterior",
        "linearize",
        "block_s_inverse",
        "solve_lagrange_system",
        "joseph_constrained_cov",
        "EqualityConstraint",
        "ProjectionSpec",
        "ConstrainedUpdateResult",
        "RestrictedGainSolution",
    ),
    "eqkf.matops": (
        "pseudo_inverse",
        "solve_spd",
        "spd_cholesky",
        "min_eigenvalue",
        "symmetrize",
    ),
    "eqkf.oracle": ("empirical_covariance_check",),
}

ADVANCE = "run.advance_method"
EMIT = "run.emit_report"
RESTRICTED = "constrained.restricted_gain_update"


def span_names() -> list[str]:
    return [f"{mod.rsplit('.', 1)[-1]}.{name}" for mod, names in TARGETS.items()
            for name in names]


def _method_label(args, kwargs) -> str:
    spec = kwargs["spec"] if "spec" in kwargs else args[3]
    return spec.label


def _report_format(args, kwargs) -> str:
    return kwargs.get("format", args[1] if len(args) > 1 else "csv")


# Spans whose tag is read from the call's arguments.
TAGGERS = {ADVANCE: _method_label, EMIT: _report_format}


class Tracer:
    """Records spans for the calls into the traced functions while installed."""

    def __init__(self):
        self.names = span_names()
        self.tag_names: list[str] = [""]
        self._tag_ids: dict[str, int] = {"": 0}
        self.name_ids = array("i")
        self.parents = array("i")
        self.tags = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def span_count(self) -> int:
        return len(self.name_ids)

    def _tag(self, text: str) -> int:
        if text not in self._tag_ids:
            self._tag_ids[text] = len(self.tag_names)
            self.tag_names.append(text)
        return self._tag_ids[text]

    def _wrap(self, name_id: int, fn):
        name_ids, parents, tags = self.name_ids, self.parents, self.tags
        starts, ends, stack = self.starts, self.ends, self._stack
        tagger = TAGGERS.get(self.names[name_id])
        tag = self._tag
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            tags.append(tag(tagger(args, kwargs)) if tagger else 0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tags[index] = tag(type(exc).__name__)
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every traced name wherever an ``eqkf`` module binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "eqkf" or key.startswith("eqkf."))]
        name_id = 0
        for mod_name, names in TARGETS.items():
            home = sys.modules[mod_name]
            for name in names:
                target = getattr(home, name)
                if isinstance(target, type):
                    original = target.__dict__["__init__"]
                    self._patch(target, "__init__", original, self._wrap(name_id, original))
                else:
                    wrapper = self._wrap(name_id, target)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is target:
                                self._patch(mod, attr, target, wrapper)
                name_id += 1

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original function and constructor back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span: duration, and self time (duration minus direct children)."""
        starts = np.array(self.starts)
        ends = np.array(self.ends)
        parents = np.array(self.parents)
        duration = ends - starts
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=duration.size)
        return duration, duration - children

    def metrics(self, begin: int, end: int, per: float) -> dict[str, float]:
        """Per-layer figures of the spans ``begin:end``, divided by ``per``.

        Keys are the per-layer metric names: ``<span>.self_s``,
        ``<span>.calls``, the per-format emission times, the
        degenerate-residual count, and each method's median
        ``advance_method`` time in microseconds (``0`` for a method the
        workload does not run).  The median is not divided by ``per``.
        """
        duration, self_time = self.self_times()
        ids = np.array(self.name_ids)[begin:end]
        tags = np.array(self.tags)[begin:end]
        duration, self_time = duration[begin:end], self_time[begin:end]
        out: dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            hit = ids == name_id
            out[f"{name}.self_s"] = float(self_time[hit].sum()) / per
            out[f"{name}.calls"] = float(hit.sum()) / per
        emit = ids == self.names.index(EMIT)
        for fmt in ("csv", "structured"):
            chosen = emit & (tags == self._tag_ids.get(fmt, -1))
            out[f"{EMIT}.{fmt}_s"] = float(duration[chosen].sum()) / per
        degenerate = (ids == self.names.index(RESTRICTED)) & (
            tags == self._tag_ids.get("DegenerateResidual", -1)
        )
        out[f"{RESTRICTED}.degenerate"] = float(degenerate.sum()) / per
        advance = ids == self.names.index(ADVANCE)
        for label in METHODS:
            chosen = advance & (tags == self._tag_ids.get(label, -1))
            p50 = float(np.median(duration[chosen])) * 1e6 if chosen.any() else 0.0
            out[f"method.{label}.step_us_p50"] = p50
        return out

    def write(self, path: Path) -> None:
        """Write every span (times relative to the first span) as a compressed
        numpy archive with the name and tag tables alongside."""
        path.parent.mkdir(parents=True, exist_ok=True)
        starts = np.array(self.starts)
        origin = starts[0] if starts.size else 0.0
        np.savez_compressed(
            path,
            name=np.array(self.name_ids),
            parent=np.array(self.parents),
            tag=np.array(self.tags),
            start=starts - origin,
            end=np.array(self.ends) - origin,
            names=np.array(self.names),
            tag_names=np.array(self.tag_names),
        )
