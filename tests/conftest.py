"""Suite-wide set-up.

``pyproject.toml`` puts ``src`` on this process's import path; the CLI
tests start ``python -m eqkf`` in child processes, which get the same
directory through ``PYTHONPATH``.

Property tests run under one ``hypothesis`` profile: examples derived from
each test's own source (``derandomize``), no example database and no
deadline, so every run checks the same examples.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("eqkf", derandomize=True, database=None, deadline=None)
settings.load_profile("eqkf")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure():
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, inherited] if inherited else [SRC])
