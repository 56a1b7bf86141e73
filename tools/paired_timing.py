"""Time this checkout's ``src/`` against a git revision's, in alternating pairs.

Two worker processes, one per side, import ``eqkf`` from this checkout's
``src/`` and from REV's (extracted by ``git archive`` into a temporary
directory), and the workload documents from this checkout's
``perfbench/workloads.py``, which is read and never edited.  BLAS runs on
one thread in both.  Each worker first runs one untimed operation; then
the two sides run one operation at a time, in pairs, and the side that goes
first swaps from one pair to the next, so both see the same host state.

An operation of ``track_small`` or ``track_wide`` is, per document, the
truth simulation, ``run_scenario`` (timed as filtering) and both report
emissions (timed as emission).  An operation of ``mc_sweep`` is the
workload's oracle runs, all filtering.  With each operation, a fresh
interpreter on the same side times its set-up as ``perfbench/setup_probe.py``
does: from its first line through importing ``eqkf`` and ``workloads.load``
on the workload's documents, less generating the documents.

Prints one JSON object: per side (``rev`` and ``checkout``), the median and
quartiles of filtering, emission and set-up time, and per figure the
median over pairs of the checkout/rev ratio (below 1 means this checkout is
faster).  Each side also reports ``peak_rss_mb``, its worker's
``ru_maxrss`` after the last operation, as ``perfbench/run.py`` reads it: one
figure per worker process, not a median, with the plain checkout/rev ratio::

    python3 tools/paired_timing.py --against HEAD --workload track_wide
    python3 tools/paired_timing.py --against HEAD~1 --workload track_small --seed 11 --reps 15
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from revision_src import extracted_src

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("track_small", "track_wide", "mc_sweep")
FIGURES = ("filter_s", "emit_s", "setup_s")
BLAS_THREADS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _worker(src: str, workload: str, seed: int) -> None:
    """Run one operation per line read from stdin; answer each with its times,
    and the end of stdin with the process's peak RSS."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    from eqkf import harness
    import workloads

    if not Path(harness.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"paired_timing: imported eqkf from {harness.__file__}, not from {src}")
    work = workloads.build(workload, seed)

    def operation() -> dict[str, float]:
        if workload == "mc_sweep":
            return {"filter_s": work.run_op().filter_s, "emit_s": 0.0}
        times = dict.fromkeys(FIGURES, 0.0)
        for config in work.configs:
            sim = harness.simulate_truth(config)
            started = time.perf_counter()
            report = harness.run_scenario(config, sim)
            filtered = time.perf_counter()
            harness.emit_report(report, "csv")
            harness.emit_report(report, "structured")
            times["filter_s"] += filtered - started
            times["emit_s"] += time.perf_counter() - filtered
        return times

    operation()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(operation()), flush=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak_rss_mb}), flush=True)


# The set-up probe: argv is the side's src, perfbench, the workload and the seed.
_SETUP_PROBE = """
import time
started = time.perf_counter()
import sys
sys.path[:0] = sys.argv[1:3]
import eqkf
imported = time.perf_counter() - started
import workloads
docs = workloads.documents(sys.argv[3], int(sys.argv[4]))
started = time.perf_counter()
workloads.load(docs)
print(repr(imported + time.perf_counter() - started), eqkf.__file__)
"""


def _setup_seconds(src: Path, workload: str, seed: int) -> float:
    """Set-up time of ``workload`` in a fresh interpreter importing ``src``'s eqkf."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(src), str(ROOT / "perfbench"), workload,
         str(seed)],
        capture_output=True, text=True, env={**os.environ, **BLAS_THREADS},
    )
    if done.returncode != 0:
        sys.exit(f"paired_timing: the set-up probe on {src} failed: {done.stderr.strip()}")
    seconds, imported_from = done.stdout.rstrip("\n").split(" ", 1)
    if not Path(imported_from).resolve().is_relative_to(src.resolve()):
        sys.exit(f"paired_timing: the set-up probe imported eqkf from {imported_from}, not {src}")
    return float(seconds)


def _start(src: Path, workload: str, seed: int) -> subprocess.Popen:
    worker = subprocess.Popen(
        [sys.executable, __file__, "--worker", str(src), "--workload", workload,
         "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, **BLAS_THREADS},
    )
    if worker.stdout.readline().strip() != "ready":
        sys.exit(f"paired_timing: the worker on {src} did not start")
    return worker


def _run(worker: subprocess.Popen) -> dict[str, float]:
    worker.stdin.write("run\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        sys.exit("paired_timing: a worker stopped")
    return json.loads(line)


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def paired_times(rev_src: Path, workload: str, seed: int, reps: int) -> dict:
    """The per-side spreads and peak RSS, and the median paired ratios of
    ``reps`` pairs."""
    srcs = {"rev": rev_src, "checkout": ROOT / "src"}
    sides = {side: _start(src, workload, seed) for side, src in srcs.items()}
    times: dict[str, list[dict[str, float]]] = {side: [] for side in sides}
    try:
        for rep in range(reps):
            order = ("rev", "checkout") if rep % 2 == 0 else ("checkout", "rev")
            for side in order:
                times[side].append(_run(sides[side]))
                times[side][-1]["setup_s"] = _setup_seconds(srcs[side], workload, seed)
    finally:
        for worker in sides.values():
            worker.stdin.close()
            worker.wait()
    out: dict = {side: {f: _spread([t[f] for t in times[side]]) for f in FIGURES}
                 for side in sides}
    for side, worker in sides.items():
        out[side]["peak_rss_mb"] = json.loads(worker.stdout.readline())["peak_rss_mb"]
    out["ratio"] = {
        f: statistics.median(c[f] / r[f] for r, c in zip(times["rev"], times["checkout"]))
        for f in FIGURES if all(r[f] > 0.0 for r in times["rev"])
    }
    out["ratio"]["peak_rss_mb"] = out["checkout"]["peak_rss_mb"] / out["rev"]["peak_rss_mb"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="the git revision to time against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--reps", type=int, default=25, help="pairs of operations")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        _worker(args.worker, args.workload, args.seed)
        return 0
    if args.against is None:
        parser.error("--against is required")
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    with extracted_src(args.against) as src:
        result = paired_times(src, args.workload, args.seed, args.reps)
    print(json.dumps({"against": args.against, "workload": args.workload, "seed": args.seed,
                      "reps": args.reps, "blas_threads": 1, **result}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
