"""Print the sha256 of every report in the byte-identity set, as JSON.

The set is 80 reports.  58 come from scenario runs, each run emitted as CSV
and as structured JSON:

* every bundled scenario, with ``feedback`` on and off (24 reports);
* ``line_2d`` with the posterior-inverse projection and one with the
  explicit weight ``EXPLICIT_WEIGHT``, with ``feedback`` on and off
  (4 reports);
* every ``track_small`` and ``track_wide`` document of
  ``perfbench/workloads.documents`` at seeds 1 to 3 (30 reports).

The next 8 are ``empirical_covariance_check`` reports at ``MC_TRIALS``
trials: the 3 of ``perfbench/workloads.MC_RUNS``, with the oracle seeds of
the ``mc_sweep`` workload at seed 1, and one for each of the other five
methods on the bundled ``line_2d`` (``ORACLE_METHODS``), with its planar
seed, so that every mean stage's column-stack path is digested.  Each is the
bytes of the reported and sample covariances and the ``repr`` of each
statistic.

The last 14 are the ``detail`` lines of the fast verification battery
(``eqkf check``), keyed ``check/<name>``: every figure it prints except the
elapsed time.

Run from anywhere; ``eqkf`` is imported from this checkout's ``src/``::

    python3 tools/report_digests.py > digests.json
    python3 tools/report_digests.py --compare digests.json
    python3 tools/report_digests.py --against HEAD~1

``--compare FILE`` names every report whose digest differs from the one in
``FILE`` (or is missing from either side) and exits with code 1 if any does.
``--against REV`` compares in the same way with the digests of REV's
``src/``, extracted by ``git archive`` into a temporary directory that is
removed afterwards, on this checkout's document set (its ``perfbench/``).
BLAS runs on one thread, so the digests do not depend on the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The package is imported from ``--src DIR`` (how --against runs REV's code).
_SRC = sys.argv[sys.argv.index("--src") + 1] if "--src" in sys.argv[:-1] else ROOT / "src"
sys.path[:0] = [str(_SRC), str(ROOT / "perfbench")]

from eqkf import harness, oracle  # noqa: E402
from eqkf.harness import checks  # noqa: E402
import workloads  # noqa: E402
from revision_src import extracted_src  # noqa: E402

FORMATS = ("csv", "structured")
SEEDS = (1, 2, 3)
EXPLICIT_WEIGHT = [[2.0, 0.3], [0.3, 1.0]]
MC_TRIALS = 2000
ORACLE_METHODS = ("augmented", "fusion", "projection_identity", "restricted_gain",
                  "soft_augmented")


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
    reports = {
        f"oracle/mc_sweep/{index}-{docs[index]['name']}-{method}": report
        for (index, method), report in zip(workloads.MC_RUNS, mc.run_op().outputs[0])
    }
    line_2d = harness.load_bundled_scenario("line_2d")
    for method in ORACLE_METHODS:
        reports[f"oracle/line_2d/{method}"] = oracle.empirical_covariance_check(
            line_2d, method, MC_TRIALS, seed=mc.oracle_seeds[1]
        )
    for label, report in reports.items():
        stats = (report.max_relative_deviation, report.matched_entries,
                 report.constraint_row_rms)
        data = (report.reported_covariance.tobytes() + report.sample_covariance.tobytes()
                + repr(stats).encode())
        out[label] = hashlib.sha256(data).hexdigest()
    for result in checks.run_default_checks(fast=True):
        out[f"check/{result.name}"] = hashlib.sha256(result.detail.encode()).hexdigest()
    return out


def _digests_at(rev: str) -> dict[str, str]:
    """The digests of REV's ``src/``, printed by this script in a child process;
    a failing command (an unknown REV) shows its own stderr."""
    with extracted_src(rev) as src:
        child = subprocess.run(
            [sys.executable, __file__, "--src", str(src)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
    return json.loads(child.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--compare", metavar="FILE", help="digests printed by an earlier run")
    which.add_argument("--against", metavar="REV", help="a git revision whose src/ to digest")
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    current = digests()
    if args.against is not None:
        expected = _digests_at(args.against)
    elif args.compare is not None:
        with open(args.compare, encoding="utf-8") as fh:
            expected = json.load(fh)
    else:
        print(json.dumps(current, indent=2, sort_keys=True))
        return 0
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
