"""Report-only wall times of six ``lazy-lab`` commands, each a fresh process.

    python3 bench/roadmap_table.py

Times the commands of the ROADMAP baseline table (``gen bell``,
``analyze`` 8x8 with a Hamiltonian, ``evolve`` 8x8 x 200 steps,
``detect-discord`` 8x8 x 200 samples, ``sparsity`` 2x2 x 10^4 samples and
``sweep`` 4x4 x 500 samples) as subprocesses and prints the median wall
time of each over three runs. Process start-up dominates several of these,
so they are reported here and are not metrics of ``run.py``; nothing is
gated.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from run import ROOT, SRC

REPS = 3


def _commands(state: str, ham: str) -> list[tuple[str, list[str]]]:
    return [
        ("gen bell", ["gen", "bell"]),
        ("analyze 8x8 + H", ["analyze", state, ham, "--json"]),
        ("evolve 8x8, 200 steps", ["evolve", state, ham, "--t-max", "2", "--steps", "200"]),
        ("detect-discord 8x8, 200 samples", ["detect-discord", state, "--samples", "200", "--seed", "0"]),
        ("sparsity 2x2, 10^4 samples", ["sparsity", "--ds", "2", "--de", "2", "--samples", "10000", "--seed", "0"]),
        ("sweep 4x4, 500 samples", ["sweep", "--ds", "4", "--de", "4", "--samples", "500", "--seed", "0"]),
    ]


def _run(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lazylab", *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"lazy-lab {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def main() -> int:
    if not (SRC / "lazylab" / "__init__.py").is_file():
        sys.exit(f"error: no lazylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import gue, hermitian_file_text

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    work = ROOT / ".bench_work" / f"roadmap-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        state, ham = str(work / "ginibre_8x8.json"), str(work / "h_8x8.json")
        _run(["gen", "ginibre", "--ds", "8", "--de", "8", "--seed", "0", "--out", state], env)
        with open(ham, "w", encoding="utf-8") as fh:
            fh.write(hermitian_file_text(gue(np.random.default_rng(0), 64), 8, 8))
        rows = [(label, statistics.median(_run(cmd, env) for _ in range(REPS)))
                for label, cmd in _commands(state, ham)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"| command | wall (median of {REPS}) |\n|---|---|")
    for label, seconds in rows:
        print(f"| `{label}` | {seconds:.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
