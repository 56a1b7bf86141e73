"""A git revision's ``src/``, extracted for the tools that compare with it."""

from __future__ import annotations

import contextlib
import subprocess
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def extracted_src(rev: str) -> Iterator[Path]:
    """The ``src/`` directory of ``rev``, extracted by ``git archive`` into a
    temporary directory that is removed on exit.  An unknown ``rev`` fails
    with git's own message on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], stdout=subprocess.PIPE, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp) / "src"
