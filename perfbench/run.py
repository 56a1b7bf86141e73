"""Benchmark command for eqkf.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {track_small,track_wide,mc_sweep}
                             --seed N --seconds S --trace {0,1}

The workload's inputs are generated from ``--seed``.  Operations (see
``workloads.py``) run back to back, closed loop on one thread, until
``--seconds`` have passed.  Every operation is checked: the first one's
outputs against the independent references of ``reference.py``, outside
the timed section, and each later one's for exact equality with the
first's.  An operation that raises or fails a check counts as failed.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced operations, reports the per-layer metrics of one operation and
the tracing overhead (median over pairs of traced minus untraced wall
time), and writes the spans to ``perfbench/results/``.  The BLAS thread
count is pinned to one before numpy is imported.
"""

from __future__ import annotations

import bootstrap

bootstrap.pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("track_small", "track_wide", "mc_sweep")
# Fresh processes whose set-up times give the median ``setup_s``.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of the workload in each of several fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Measured:
    """Wall times and filtering rates of the operations of one run."""

    first: object = None
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    differing: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls) + len(self.traced_walls)


def measure(workload, seconds: float, tracer=None) -> Measured:
    """Run operations until ``seconds`` have passed.

    The first operation's outputs are kept for the full checks; a later
    operation that raises or whose outputs differ from them is counted in
    ``differing``.  With a ``tracer``, operations alternate untraced and
    traced, starting untraced, so that both kinds see the same machine
    conditions; filtering rates come from untraced operations only.
    """
    m = Measured()
    traced = False
    started = time.perf_counter()
    while (m.attempted == 0 or (tracer is not None and not m.traced_walls)
           or time.perf_counter() - started < seconds):
        if traced:
            tracer.install()
        begun = time.perf_counter()
        try:
            op = workload.run_op()
        except Exception as exc:  # counted as failed; the run goes on
            if m.first is None:
                raise
            op = None
            m.differing += 1
            print(f"perfbench: operation raised {exc!r}", file=sys.stderr)
        finally:
            (m.traced_walls if traced else m.walls).append(time.perf_counter() - begun)
            if traced:
                tracer.uninstall()
        if op is not None:
            if not traced:
                m.rates.append(op.estimates / op.filter_s)
            if m.first is None:
                m.first = op
            elif not workload.same(op, m.first):
                m.differing += 1
                print("perfbench: operation output differs from the checked one",
                      file=sys.stderr)
            del op
        traced = tracer is not None and not traced
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": bootstrap.blas_threads(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    bootstrap.use_checkout_program()
    import tracing
    import workloads

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    docs = workloads.documents(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if args.trace:
        with tracer:
            configs = workloads.load(docs)
        setup_spans = tracer.span_count
    else:
        configs = workloads.load(docs)
    workload = workloads.build(args.workload, args.seed, docs=docs, configs=configs)

    m = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workload.check(m.first)
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    # The first operation's checked outputs stand for every operation that
    # reproduced them exactly.
    failed = m.attempted if failures else m.differing

    if args.trace:
        metrics = per_layer(tracer, setup_spans, len(m.traced_walls))
        metrics["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(m.walls, m.traced_walls)
        )
        emitted = workload.emitted_bytes(m.first)
        metrics["run.emit_report.csv_bytes"] = float(emitted["csv"])
        metrics["run.emit_report.structured_bytes"] = float(emitted["structured"])
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
        units = per_layer_units()
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        out = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(m.walls), "unit": "s"},
            "estimates_per_s": {
                "value": statistics.median(m.rates) if m.rates else 0.0, "unit": "1/s"
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


def per_layer(tracer, setup_spans: int, ops: int) -> dict[str, float]:
    """Per-layer figures of one operation, plus the one-time document loading
    (the first ``setup_spans`` spans, which is where ``config_from_document``
    runs)."""
    metrics = tracer.metrics(setup_spans, tracer.span_count, ops)
    for name, value in tracer.metrics(0, setup_spans, 1).items():
        if not name.endswith("_p50"):
            metrics[name] += value
    return metrics


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, in the order ``BENCHMARK.json`` lists them."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
