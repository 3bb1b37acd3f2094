"""A fixed block of reference work, timed before every cycle of answers.

Other tenants of a shared host slow every process on it by up to 1.7x for
stretches of seconds to minutes. A block of fixed work run just before a
cycle slows with the answers around it when it does the same kinds of work
they do, so an answer time divided by its cycle's reference time measures
lazylab, not the host's phase. Each workload names the parts that match
it (``REFERENCE`` on the workload class):

- ``dense``: SVD, ``eigh``, ``eigvalsh`` and a product of a dim-64 complex
  matrix, the factorizations of the 8x8 analyses;
- ``small``: the same calls on a dim-4 matrix, where numpy's per-call cost
  dominates;
- ``interp``: interpreter work, filling a dict with formatted floats;
- ``fileio``: writing and reading back a 4 kB text file.

The inputs depend on neither the seed nor lazylab, and only numpy and the
standard library run, so no change to lazylab changes the reference.
Each part has a nominal time, about its time on a quiet 2-vCPU virtual
machine; an answer time times the nominal time of the workload's parts
over their measured time is the answer time at that nominal host speed.

Set-up is timed in fresh processes, so its reference is a fresh process
too: an interpreter that imports numpy, the floor of ``import lazylab``
(``process_seconds``).
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


PROCESS_NOMINAL_S = 0.12


def process_seconds(cwd: Path) -> float:
    """Spawn to exit of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True, timeout=60)
    return time.perf_counter() - t0


def _complex_hermitian(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a, (a + a.conj().T) / 2


class Reference:
    """The reference parts a workload names, timed together."""

    NOMINAL_S = {"dense": 0.009, "small": 0.007, "interp": 0.0035, "fileio": 0.0025}

    def __init__(self, parts: tuple[str, ...], work_dir: Path):
        rng = np.random.default_rng(0)
        self.dense = _complex_hermitian(rng, 64)
        self.small = _complex_hermitian(rng, 4)
        self.path = work_dir / f"reference-{os.getpid()}.txt"
        self.text = "0123456789abcdef" * 256
        self.parts = [getattr(self, f"_{name}") for name in parts]
        self.nominal_s = sum(self.NOMINAL_S[name] for name in parts)
        if "fileio" in parts:
            work_dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _factorize(a: np.ndarray, h: np.ndarray, reps: int) -> None:
        for _ in range(reps):
            np.linalg.svd(a)
            np.linalg.eigh(h)
            np.linalg.eigvalsh(h)
            a @ h

    def _dense(self) -> None:
        self._factorize(*self.dense, 3)

    def _small(self) -> None:
        self._factorize(*self.small, 150)

    def _interp(self) -> None:
        table = {}
        for i in range(6000):
            table[str(i)] = repr(i * 0.5)
        "".join(table.values())

    def _fileio(self) -> None:
        for _ in range(20):
            self.path.write_text(self.text, encoding="utf-8")
            self.path.read_text(encoding="utf-8")

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.path.unlink()
        with contextlib.suppress(OSError):
            self.path.parent.rmdir()
