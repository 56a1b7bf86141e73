"""Process set-up shared by the benchmark's entry scripts.

Imports nothing from numpy, so an entry script can pin the BLAS thread
count before numpy is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"


def pin_blas_threads() -> None:
    """Run every BLAS call on one thread; must precede ``import numpy``."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = PINNED_THREADS


def blas_threads() -> str:
    """The BLAS thread setting this process runs with, as recorded."""
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def use_checkout_program() -> None:
    """Import ``eqkf`` from this checkout's ``src``, never from elsewhere.

    Exits with a message (code 1) when the checkout holds no program
    source, so the benchmark cannot silently measure another installed copy.
    """
    if not (SRC / "eqkf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import eqkf

    if Path(eqkf.__file__).resolve().parent != SRC / "eqkf":
        sys.exit(f"perfbench: imported eqkf from {eqkf.__file__}, not from {SRC}")
