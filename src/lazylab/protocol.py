"""Discord detection, sparsity scans and bound-tightness sweeps.

These are the batch experiments the CLI fronts. All of them derive
per-trial generators from one seed, so results are reproducible and
independent of evaluation order. The draws run trial by trial; the
linear algebra runs on the samples stacked into (n, dim, dim) arrays,
one chunk of trials at a time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import decompose_hamiltonian, finite_difference_rate
from .laziness import (
    _check_h_int,
    _eigenbasis,
    _mi_purity_bound,
    _operator_norm_hermitian,
    _rate_report,
    default_lazy_tolerance,
    moment_rate,
)
from .linalg import DEFAULT_DETECT_THRESHOLD, FD_STEP
from .states import (
    BipartiteState,
    _is_pure,
    derive_rng,
    ginibre_mixed,
    haar_random_pure,
    random_hermitian,
    validate_density_matrix,
)

# Complex entries of one stacked (n, dim, dim) array (1 MiB): trials are
# evaluated in chunks of n = _CHUNK_ENTRIES // dim**2, so memory stays
# bounded however many samples are asked for.
_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ProtocolVerdict:
    """Outcome of the purity-monitoring discord test.

    One-sided by construction: a detection implies nonzero discord, but
    silence implies nothing (maximally entangled states are lazy yet
    discordant).
    """

    samples: int
    max_abs_purity_rate: float
    threshold: float
    discord_detected: bool
    per_sample_rates: tuple[float, ...]


@dataclass(frozen=True)
class SparsitySummary:
    samples: int
    lazy_tol: float
    count_below_tol: int
    median_trace_norm: float
    min_trace_norm: float
    max_trace_norm: float
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]


@dataclass(frozen=True)
class SweepRow:
    sample: int
    pure: bool
    entropy_rate: float
    entropy_bound: float
    entropy_slack: float
    purity_rate: float
    purity_bound: float
    purity_slack: float
    mi_purity_bound: float | None


def _unit_couplings(dim: int, ds: int, de: int, rngs) -> np.ndarray:
    """GUE couplings reduced to traceless-partial-trace form, operator norm 1.

    One coupling per generator in ``rngs``, drawn in order and stacked.
    With ds or de equal to 1 every such coupling is zero, so those dims
    are refused before the first coupling is drawn.
    """
    if min(ds, de) < 2:
        raise ValueError(
            f"random couplings need ds, de >= 2, got dims ({ds}, {de}): "
            f"every interaction with a one-dimensional factor is zero"
        )
    hs = np.stack([decompose_hamiltonian(random_hermitian(dim, rng), ds, de).h_int for rng in rngs])
    nrm = _operator_norm_hermitian(hs)
    linalg._raise_first(nrm == 0.0, ValueError, lambda i: "sampled interaction collapsed to zero")
    return hs / nrm[:, None, None]


def _trial_chunks(samples: int, dim: int) -> list[range]:
    """Consecutive ranges of trials whose stacked arrays fit _CHUNK_ENTRIES."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    step = max(1, _CHUNK_ENTRIES // dim**2)
    return [range(lo, min(lo + step, samples)) for lo in range(0, samples, step)]


@contextmanager
def _naming_trials(trials):
    """Prefix the failing trial to an error from a stacked per-sample check.

    Stacked checks store the failing sample's position in ``index``;
    ``trials`` maps positions to trial numbers.
    """
    try:
        yield
    except ValueError as exc:
        if not hasattr(exc, "index"):
            raise
        raise type(exc)(f"trial {trials[exc.index]}: {exc}") from exc


def detect_discord(
    rho: BipartiteState,
    samples: int,
    seed: int,
    threshold: float = DEFAULT_DETECT_THRESHOLD,
    use_fd: bool = False,
    fd_step: float = FD_STEP,
) -> ProtocolVerdict:
    """Probe the state with random unit-norm couplings and watch the purity.

    Any nonzero purity rate certifies that the state is not lazy, hence
    not classically correlated: discord is detected from the reduced
    dynamics alone. ``use_fd`` replaces the exact rate with a central
    finite difference of the purity, mimicking an experiment that can
    only measure purity at nearby times. ``fd_step`` is checked whether or
    not ``use_fd`` is set.
    """
    linalg._require_tolerance(threshold, "threshold")
    linalg._require_step(fd_step, "fd_step")
    rates = []
    for trials in _trial_chunks(samples, rho.dim):
        with _naming_trials(trials):
            hs = _unit_couplings(rho.dim, rho.ds, rho.de, [derive_rng(seed, t) for t in trials])
            if use_fd:
                rates.extend(finite_difference_rate(rho, h, "moment", n=2, h=fd_step) for h in hs)
            else:
                rates.extend(moment_rate(rho, hs, 2).tolist())
    max_abs = max(abs(r) for r in rates)
    return ProtocolVerdict(
        samples=samples,
        max_abs_purity_rate=max_abs,
        threshold=threshold,
        discord_detected=bool(max_abs > threshold),
        per_sample_rates=tuple(rates),
    )


def sparsity_scan(
    ds: int,
    de: int,
    samples: int,
    rank: int,
    seed: int,
    lazy_tol: float | None = None,
    include: BipartiteState | None = None,
    bins: int = 20,
) -> SparsitySummary:
    """Ginibre-sample states and histogram the commutator trace norm.

    ``include`` injects one given state as sample 0 (a plumbing hook for
    checking that genuinely lazy inputs are counted). The count with
    ||C||_1 <= lazy_tol, by default the lazy tolerance of laziness_commutator,
    is the headline number; lazy states occupy measure zero under this
    sampling, so the expected count is zero. ``bins`` must be >= 1.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if include is not None and (include.ds, include.de) != (ds, de):
        raise ValueError(
            f"included state has dims ({include.ds}, {include.de}), "
            f"the scan samples ({ds}, {de})"
        )
    if lazy_tol is None:
        lazy_tol = default_lazy_tolerance(ds, de)
    linalg._require_tolerance(lazy_tol, "lazy_tol")
    dim = ds * de
    chunks = _trial_chunks(samples, dim)
    arr = np.empty(samples)
    for trials in chunks:
        mats = np.stack([
            include.matrix
            if include is not None and trial == 0
            else ginibre_mixed(dim, rank, derive_rng(seed, trial))
            for trial in trials
        ])
        with _naming_trials(trials):
            mats = validate_density_matrix(mats, name="bipartite state")
            arr[trials.start : trials.stop] = _eigenbasis(mats, ds).comm_trace_norm
    hi = float(arr.max())
    edges = np.linspace(0.0, hi if hi > 0 else 1.0, bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    return SparsitySummary(
        samples=samples,
        lazy_tol=lazy_tol,
        count_below_tol=int((arr <= lazy_tol).sum()),
        median_trace_norm=float(np.median(arr)),
        min_trace_norm=float(arr.min()),
        max_trace_norm=hi,
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in counts),
    )


def bound_sweep(ds: int, de: int, samples: int, seed: int) -> list[SweepRow]:
    """Random (state, coupling) pairs with the slack of every rate bound.

    Even trials draw full-rank Ginibre mixed states; odd trials draw Haar
    pure states when ds <= de (their reduced state is then full rank
    almost surely), so the pure-only mutual-information bound is
    exercised. For ds > de a pure state's rho_S is structurally rank
    deficient, so only mixed states are sampled.

    Each chunk of trials is read from one evaluator. The couplings have
    ||H_int|| = 1 by construction, and a pure row's I(S:E) is 2 S(rho_S),
    read from that evaluator's spectrum.
    """
    dim = ds * de
    rows = []
    for trials in _trial_chunks(samples, dim):
        # each trial's generator draws its state first, then its coupling
        rngs = [derive_rng(seed, trial) for trial in trials]
        mats = []
        for trial, rng in zip(trials, rngs):
            if trial % 2 == 1 and ds <= de:
                chi = haar_random_pure(dim, rng)
                mats.append(np.outer(chi, chi.conj()))
            else:
                mats.append(ginibre_mixed(dim, dim, rng))
        with _naming_trials(trials):
            hs = _check_h_int(_unit_couplings(dim, ds, de, rngs), ds, de)
            mats = validate_density_matrix(np.stack(mats), name="bipartite state")
            ev = _eigenbasis(mats, ds)
            report = _rate_report(ev, hs, 1.0, ())
        pure = _is_pure(mats)
        # kept on the pure rows only, where I(S:E) = 2 S(rho_S)
        mi_bound = _mi_purity_bound(2.0 * ev.system_entropy, 1.0)
        er, eb = report.entropy_rate, report.entropy_bound
        pr, pb = report.purity_rate, report.purity_bound
        columns = (
            trials,
            pure.tolist(),
            er.tolist(),
            eb.tolist(),
            (eb - np.abs(er)).tolist(),
            pr.tolist(),
            pb.tolist(),
            (pb - np.abs(pr)).tolist(),
            [b if p else None for p, b in zip(pure.tolist(), mi_bound.tolist())],
        )
        rows.extend(SweepRow(*fields) for fields in zip(*columns))
    return rows
