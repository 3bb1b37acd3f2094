"""The two benchmark workloads: inputs from a seed, answers, and checks.

Every input is made from the seed with the benchmark's own
``numpy.random.Generator``; lazylab's samplers never make benchmark
inputs, so a change to a sampler cannot change what is measured. The
CLI commands that sample (``gen``, ``sparsity``, ``detect-discord``,
``sweep``) receive only seeds.

A workload is a repeating *cycle* of answers, and runs end on whole
cycles. Each cycle is composed so that the 50th and 90th percentiles of
answer time fall inside a cluster of similar answers, never in the gap
between two kinds of answer, where a small shift in timing would move
them far (see each class).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import lazylab as ll
from lazylab import cli, statefile

# Bounds and identities must hold up to this roundoff.
ROUNDOFF = 1e-9
# Relative agreement of the exact entropy rate with the Richardson
# finite-difference oracle (the test suite accepts 1e-5 for the plain stencil).
FD_RTOL = 1e-5


class WrongAnswer(Exception):
    """An answer ran but its output failed a correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


@dataclass(frozen=True)
class Answer:
    """One top-level public call, its work units and its output check."""

    label: str
    call: Callable[[], object]
    units: int
    check: Callable[[object], None]


def _public(name: str, *args, **kwargs):
    """Call a public lazylab function, looked up at call time so a tracer sees it."""
    return getattr(ll, name)(*args, **kwargs)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mixed_state(rng: np.random.Generator, ds: int, de: int) -> ll.BipartiteState:
    g = _complex_normal(rng, (ds * de, ds * de))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return ll.BipartiteState(ds=ds, de=de, matrix=(rho + rho.conj().T) / 2)


def _pure_state(rng: np.random.Generator, ds: int, de: int) -> ll.BipartiteState:
    chi = _complex_normal(rng, ds * de)
    chi /= np.linalg.norm(chi)
    return ll.BipartiteState(ds=ds, de=de, matrix=np.outer(chi, chi.conj()))


def gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = _complex_normal(rng, (dim, dim))
    return (a + a.conj().T) / 2


def _within(value: float, bound: float) -> bool:
    return abs(value) <= bound + ROUNDOFF * (1.0 + abs(bound))


class Trajectory:
    """``record_trajectory`` at 8x8: dense factorizations, no I/O, no RNG.

    A fixed pool of (state, GUE H_tot) pairs alternates full-rank mixed
    and Haar-pure states; the pure ones also take the mutual-information
    bound branch on every step. Cycle k evaluates time window k of every
    pair, so no two answers of a run share their time samples. Pure
    windows are shorter than mixed ones, so the first four answers cost
    about the same and the 50th percentile falls in their middle; the
    long last window is the top fifth of answers, where the 90th falls.
    """

    name = "trajectory"
    unit = "steps"
    # Reference work timed before each cycle (see reference.py).
    REFERENCE = ("dense",)
    POOL = (("mixed", 16), ("pure", 12), ("mixed", 16), ("pure", 12), ("mixed", 32))
    DS = DE = 8
    DT = 0.02
    NS = (3,)

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng(seed)
        make = {"mixed": _mixed_state, "pure": _pure_state}
        self.pool = [
            (kind, window, make[kind](rng, self.DS, self.DE), gue(rng, self.DS * self.DE))
            for kind, window in self.POOL
        ]
        self.stride = max(window for _, window in self.POOL)

    def cycle(self, k: int) -> list[Answer]:
        answers = []
        for i, (kind, window, state, h_tot) in enumerate(self.pool):
            times = self.DT * (k * self.stride + np.arange(window))
            check = self._check_records
            if k == 0 and i == 0:
                check = self._fd_checker(state, h_tot)
            answers.append(self._answer(kind, state, h_tot, times, check))
        return answers

    def warmup(self) -> list[Answer]:
        """A two-step answer on a mixed and on a pure state."""
        return [
            self._answer(kind, state, h_tot, self.DT * np.arange(2), self._check_records)
            for kind, _, state, h_tot in self.pool[:2]
        ]

    def _answer(self, kind: str, state, h_tot, times: np.ndarray, check) -> Answer:
        return Answer(
            label=f"record_trajectory {kind} 8x8 x{len(times)}",
            call=partial(_public, "record_trajectory", state, h_tot, times, ns=self.NS),
            units=len(times),
            check=check,
        )

    @staticmethod
    def _check_records(traj) -> None:
        _require(len(traj.records) == len(traj.times), "wrong number of records")
        for rec in traj.records:
            _require(_within(rec.entropy_rate, rec.entropy_bound), "entropy rate exceeds its bound")
            _require(_within(rec.purity_rate, rec.purity_bound), "purity rate exceeds its bound")
            _require(0.0 < rec.purity <= 1.0 + ROUNDOFF, f"purity {rec.purity} outside (0, 1]")

    def _fd_checker(self, state, h_tot):
        def check(traj) -> None:
            self._check_records(traj)
            exact = traj.records[0].entropy_rate
            fd = ll.finite_difference_rate(state, h_tot, "entropy", richardson=True)
            _require(
                abs(fd - exact) <= FD_RTOL * abs(exact),
                f"entropy rate {exact!r} disagrees with finite differences {fd!r}",
            )

        return check

    def close(self) -> None:
        pass


class Files:
    """In-process ``cli.main`` over a fixed command script at dims 4, 16, 64.

    Per dim: ``gen`` writes five state files, ``analyze`` (``--json`` or
    ``--csv``) reads each back, and ``analyze STATE H --regularize`` reads
    four of them again with a Hamiltonian file. Writes sit beside reads,
    and the dim-64 commands form the latency tail. Three Monte Carlo
    commands (``sparsity`` and ``sweep`` at 2x2, ``detect-discord`` on the
    non-lazy 4x4 Ginibre file) close each cycle, so the ``protocol`` layer
    and the samplers are measured too.
    """

    name = "files"
    unit = "commands"
    # Reference work timed before each cycle (see reference.py): the dim-64
    # analyses factorize, the small ones are per-call and interpreter
    # bound, and every command reads or writes a file.
    REFERENCE = ("dense", "small", "interp", "fileio")
    # 45 commands per cycle: the 90th percentile lands among the dim-64
    # analyses with a Hamiltonian, the 50th among the dim-4 and dim-16 ones.
    DIMS = ((2, 2), (4, 4), (8, 8))
    KINDS = ("ginibre", "haarpure", "product", "zerodiscord", "maxent")
    CSV_KINDS = ("ginibre", "product")
    RATE_KINDS = ("ginibre", "haarpure", "product", "zerodiscord")
    LAZY = {"product": True, "maxent": True, "zerodiscord": True, "haarpure": False}
    REGULARIZE = "1e-3"
    SPARSITY_SAMPLES = 50
    DETECT_SAMPLES = 30
    SWEEP_SAMPLES = 20

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.work = root / ".bench_work" / f"files-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.hamiltonians = {}
        self.probs = {}
        for ds, de in self.DIMS:
            path = self.work / f"h_{ds}x{de}.json"
            path.write_text(hermitian_file_text(gue(rng, ds * de), ds, de), encoding="utf-8")
            self.hamiltonians[ds, de] = str(path)
            self.probs[ds, de] = ",".join(repr(float(p)) for p in rng.dirichlet(np.ones(ds)))
        self.base_seed = int(rng.integers(1, 2**31))

    def _state_path(self, kind: str, ds: int, de: int) -> str:
        return str(self.work / f"{kind}_{ds}x{de}.json")

    def _gen_argv(self, kind: str, ds: int, de: int, seed: int) -> list[str]:
        out = ["--out", self._state_path(kind, ds, de)]
        if kind == "maxent":
            return ["gen", kind, "--d", str(ds)] + out
        if kind == "zerodiscord":
            return ["gen", kind, "--probs", self.probs[ds, de], "--de", str(de), "--seed", str(seed)] + out
        return ["gen", kind, "--ds", str(ds), "--de", str(de), "--seed", str(seed)] + out

    def cycle(self, k: int) -> list[Answer]:
        seed = self.base_seed + k
        answers = []
        for ds, de in self.DIMS:
            answers += self._dim_answers(ds, de, seed)
        return answers + self._protocol_answers(seed)

    def warmup(self) -> list[Answer]:
        """The commands of the smallest dim: every gen kind and analyze form."""
        return self._dim_answers(*self.DIMS[0], self.base_seed)

    def _dim_answers(self, ds: int, de: int, seed: int) -> list[Answer]:
        answers = []
        for kind in self.KINDS:
            path = self._state_path(kind, ds, de)
            answers.append(
                self._answer(f"gen {kind} {ds}x{de}", self._gen_argv(kind, ds, de, seed), self._gen_checker(path))
            )
        for kind in self.KINDS:
            fmt = "--csv" if kind in self.CSV_KINDS else "--json"
            argv = ["analyze", self._state_path(kind, ds, de), fmt]
            answers.append(
                self._answer(f"analyze {kind} {ds}x{de} {fmt}", argv, self._analyze_checker(kind, fmt, rates=False))
            )
        for kind in self.RATE_KINDS:
            argv = [
                "analyze",
                self._state_path(kind, ds, de),
                self.hamiltonians[ds, de],
                "--regularize",
                self.REGULARIZE,
                "--json",
            ]
            answers.append(
                self._answer(f"analyze {kind} {ds}x{de} + H", argv, self._analyze_checker(kind, "--json", rates=True))
            )
        return answers

    def _protocol_answers(self, seed: int) -> list[Answer]:
        n_scan, n_detect, n_sweep = self.SPARSITY_SAMPLES, self.DETECT_SAMPLES, self.SWEEP_SAMPLES
        scan = ["sparsity", "--ds", "2", "--de", "2", "--samples", str(n_scan), "--seed", str(seed), "--json"]
        detect = ["detect-discord", self._state_path("ginibre", 4, 4), "--samples", str(n_detect),
                  "--seed", str(seed), "--json"]
        sweep = ["sweep", "--ds", "2", "--de", "2", "--samples", str(n_sweep), "--seed", str(seed)]

        def check_scan(outcome) -> None:
            payload = json.loads(_exit_zero(outcome, "sparsity"))
            _require(payload["samples"] == n_scan, "wrong sample count")
            _require(payload["count_below_tol"] == 0, f"{payload['count_below_tol']} Ginibre samples reported lazy")

        def check_detect(outcome) -> None:
            payload = json.loads(_exit_zero(outcome, "detect-discord"))
            _require(len(payload["per_sample_rates"]) == n_detect, "wrong sample count")
            _require(payload["discord_detected"], "discord not detected on a non-lazy state")

        def check_sweep(outcome) -> None:
            lines = _exit_zero(outcome, "sweep").splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            _require(len(rows) == n_sweep, "wrong sample count")
            for row in rows:
                for slack in ("entropy_slack", "purity_slack"):
                    _require(float(row[slack]) >= -ROUNDOFF, f"negative {slack} {row[slack]}")
                if row["mi_purity_bound"]:
                    _require(_within(float(row["purity_rate"]), float(row["mi_purity_bound"])),
                             "purity rate exceeds the MI bound")

        return [
            self._answer("sparsity 2x2", scan, check_scan),
            self._answer("detect-discord ginibre 4x4", detect, check_detect),
            self._answer("sweep 2x2", sweep, check_sweep),
        ]

    @staticmethod
    def _answer(label: str, argv: list[str], check) -> Answer:
        return Answer(label=label, call=partial(_run_cli, argv), units=1, check=check)

    @staticmethod
    def _gen_checker(path: str):
        def check(outcome) -> None:
            _exit_zero(outcome, "gen")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            _require(statefile.dumps(statefile.loads(text)) == text, f"{path} does not round-trip")

        return check

    def _analyze_checker(self, kind: str, fmt: str, rates: bool):
        def check(outcome) -> None:
            out = _exit_zero(outcome, "analyze")
            if fmt == "--csv":
                rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
                lazy = json.loads(rows["commutator.lazy"])
            else:
                payload = json.loads(out)
                lazy = payload["commutator"]["lazy"]
                if rates:
                    r = payload["rates"]
                    _require(_within(r["entropy_rate"], r["entropy_bound"]), "entropy rate exceeds its bound")
                    _require(_within(r["purity_rate"], r["purity_bound"]), "purity rate exceeds its bound")
            if kind in self.LAZY:
                _require(lazy is self.LAZY[kind], f"{kind} reported lazy={lazy}")

        return check

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


def hermitian_file_text(h: np.ndarray, ds: int, de: int) -> str:
    """A Hamiltonian file in the README's canonical JSON format."""
    data = [[float(z.real), float(z.imag)] for z in h.reshape(-1)]
    payload = {"data": data, "dims": [ds, de], "kind": "hermitian"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _exit_zero(outcome: tuple[int, str, str], command: str) -> str:
    """Require exit code 0 and return the command's stdout."""
    code, out, err = outcome
    _require(code == 0, f"{command} exited {code}: {err.strip()}")
    return out


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


WORKLOADS = {w.name: w for w in (Trajectory, Files)}
