"""Print the sha256 of every report in the byte-identity set, as JSON.

The set is 61 reports.  58 come from scenario runs, each run emitted as CSV
and as structured JSON:

* every bundled scenario, with ``feedback`` on and off (24 reports);
* ``line_2d`` with the posterior-inverse projection and one with the
  explicit weight ``EXPLICIT_WEIGHT``, with ``feedback`` on and off
  (4 reports);
* every ``track_small`` and ``track_wide`` document of
  ``perfbench/workloads.documents`` at seeds 1 to 3 (30 reports).

The other 3 are the ``empirical_covariance_check`` reports of
``perfbench/workloads.MC_RUNS`` at ``MC_TRIALS`` trials, with the oracle
seeds of the ``mc_sweep`` workload at seed 1: the bytes of the reported and
sample covariances and the ``repr`` of each statistic.

Run from anywhere; ``eqkf`` is imported from this checkout's ``src/``::

    python3 tools/report_digests.py > digests.json
    python3 tools/report_digests.py --compare digests.json

``--compare FILE`` names every report whose digest differs from the one in
``FILE`` (or is missing from either side) and exits with code 1 if any does.
BLAS runs on one thread, so the digests do not depend on the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from eqkf import harness  # noqa: E402
import workloads  # noqa: E402

FORMATS = ("csv", "structured")
SEEDS = (1, 2, 3)
EXPLICIT_WEIGHT = [[2.0, 0.3], [0.3, 1.0]]
MC_TRIALS = 2000


def _documents():
    """``(label, document)`` for every scenario whose reports are digested."""
    for name in harness.bundled_scenario_names():
        for feedback in (True, False):
            doc = json.loads(harness.bundled_scenario_text(name))
            doc["feedback"] = feedback
            yield f"bundled/{name}/feedback-{'on' if feedback else 'off'}", doc
    for feedback in (True, False):
        doc = json.loads(harness.bundled_scenario_text("line_2d"))
        doc["feedback"] = feedback
        doc["methods"] = ["projection", {"method": "projection", "weight": EXPLICIT_WEIGHT}]
        yield f"explicit_weight/line_2d/feedback-{'on' if feedback else 'off'}", doc
    for workload in ("track_small", "track_wide"):
        for seed in SEEDS:
            for i, doc in enumerate(workloads.documents(workload, seed)):
                yield f"{workload}/seed{seed}/{i}-{doc.get('name', 'scenario')}", doc


def digests() -> dict[str, str]:
    """The sha256 of each report, keyed ``<label>.<format>``."""
    out = {}
    for label, doc in _documents():
        report = harness.run_scenario(harness.config_from_document(doc))
        for fmt in FORMATS:
            text = harness.emit_report(report, fmt)
            out[f"{label}.{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    docs = workloads.documents("mc_sweep", 1)
    mc = workloads.McWorkload(docs, workloads.load(docs), 1, MC_TRIALS)
    for (index, method), report in zip(workloads.MC_RUNS, mc.run_op().outputs[0]):
        stats = (report.max_relative_deviation, report.matched_entries,
                 report.constraint_row_rms)
        data = (report.reported_covariance.tobytes() + report.sample_covariance.tobytes()
                + repr(stats).encode())
        label = f"oracle/mc_sweep/{index}-{docs[index]['name']}-{method}"
        out[label] = hashlib.sha256(data).hexdigest()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE", help="digests printed by an earlier run")
    args = parser.parse_args(argv)
    current = digests()
    if args.compare is None:
        print(json.dumps(current, indent=2, sort_keys=True))
        return 0
    with open(args.compare, encoding="utf-8") as fh:
        expected = json.load(fh)
    differing = sorted(
        key for key in current.keys() | expected.keys()
        if current.get(key) != expected.get(key)
    )
    for key in differing:
        print(f"differs: {key}")
    same = sum(current[key] == expected.get(key) for key in current)
    print(f"{same} of {len(current)} reports identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
