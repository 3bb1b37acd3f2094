"""Run ``python -m lazylab`` in a child process from a source checkout."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_lazylab(*args: str) -> subprocess.CompletedProcess:
    """The CLI with ``args``, this checkout's ``src`` first on the child's PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) if not path else f"{SRC}{os.pathsep}{path}"}
    return subprocess.run([sys.executable, "-m", "lazylab", *args], capture_output=True, env=env)
