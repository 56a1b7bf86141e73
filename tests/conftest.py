"""Suite-wide set-up.

``pyproject.toml`` puts ``src`` on this process's import path; the CLI
tests start ``python -m eqkf`` in child processes, which get the same
directory through ``PYTHONPATH``.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure():
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, inherited] if inherited else [SRC])
