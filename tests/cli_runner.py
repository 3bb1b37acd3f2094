"""Run ``python -m lazylab`` in a child process from a source checkout."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_lazylab(*args: str) -> subprocess.CompletedProcess:
    """The CLI with ``args``, this checkout's ``src`` first on the child's PYTHONPATH.

    The child reads no stdin and is killed after 60 s (subprocess.TimeoutExpired),
    so a child that blocks fails its test instead of stalling the suite.
    """
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) if not path else f"{SRC}{os.pathsep}{path}"}
    return subprocess.run(
        [sys.executable, "-m", "lazylab", *args],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        env=env,
        timeout=60,
    )
