"""Microseconds per ``advance_method`` call, per method, at n = 2 and n = 96.

Usage, from the root of a checkout:

    python3 perfbench/step_table.py                    # BLAS pinned to one thread
    python3 perfbench/step_table.py --default-threads  # BLAS threads left as found

Untraced.  Each method runs over the steps of the bundled ``line_2d``
scenario (n = 2) and of the ``track_wide`` scenario (n = 96, m = 48,
q = 24), feedback on, and the median call time is printed.  These are
the reference figures of the benchmark's README; the benchmark itself
always pins the BLAS thread count.
"""

import sys

import bootstrap

if "--default-threads" not in sys.argv[1:]:
    bootstrap.pin_blas_threads()
bootstrap.use_checkout_program()

import statistics  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from eqkf import harness  # noqa: E402

ROUNDS = {2: 3, 96: 1}


def step_times(config) -> dict[str, float]:
    sim = harness.simulate_truth(config)
    out = {}
    for spec in config.methods:
        samples = []
        for _ in range(ROUNDS[config.state_dim]):
            state = config.initial_estimate
            for k, z in enumerate(sim.measurements):
                started = time.perf_counter()
                _, state = harness.advance_method(state, z, config.model_at(k), spec, config)
                samples.append(time.perf_counter() - started)
        out[spec.label] = statistics.median(samples) * 1e6
    return out


def main() -> None:
    small = workloads.load(workloads.documents("track_small", 1)[:1])[0]
    wide = workloads.load(workloads.documents("track_wide", 1))[0]
    tables = {2: step_times(small), 96: step_times(wide)}
    print(f"BLAS threads: {bootstrap.blas_threads()}")
    print(f"{'method':22s}{'n = 2 (us)':>12s}{'n = 96 (us)':>14s}")
    for label in workloads.METHODS:
        print(f"{label:22s}{tables[2][label]:12.0f}{tables[96][label]:14.0f}")


if __name__ == "__main__":
    main()
