"""Set-up time of one workload, measured in this fresh process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from the start of this script through importing
``eqkf`` and loading and validating the workload's scenario documents
with ``config_from_document``.  Generating the documents from the seed is
the benchmark's own work and is not counted.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402


def main() -> None:
    bootstrap.pin_blas_threads()
    bootstrap.use_checkout_program()
    imported = time.perf_counter() - _STARTED
    import workloads

    docs = workloads.documents(sys.argv[1], int(sys.argv[2]))
    started = time.perf_counter()
    workloads.load(docs)
    print(repr(imported + time.perf_counter() - started))


if __name__ == "__main__":
    main()
