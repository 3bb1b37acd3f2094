"""Discord detection, sparsity scans and bound-tightness sweeps.

These are the batch experiments the CLI fronts. All of them derive
per-trial generators from one seed, so results are reproducible and
independent of evaluation order. Trials run in the chunks of
laziness._chunks. Within a chunk only the draws run trial by trial: each
trial's generator draws its Gaussian numbers in a fixed order
(bound_sweep also normalizes its Haar-pure vectors one by one).
Everything after the draws runs once per chunk on the samples stacked
into (n, dim, dim) arrays: the GUE and Ginibre arithmetic, the coupling
decomposition, every check of a drawn sample (its error names the failing
trial) and the rates and norms.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import _fd_rate, decompose_hamiltonian
from .laziness import (
    _chunks,
    _eigenbasis,
    _evaluator,
    _flow_rate,
    _mi_purity_bound,
    _operator_norm_hermitian,
    _rate_report,
    default_lazy_tolerance,
)
from .linalg import DEFAULT_DETECT_THRESHOLD, FD_STEP, _require_positive_dims
from .states import (
    BipartiteState,
    _draw,
    _is_pure,
    derive_rng,
    haar_random_pure,
    validate_density_matrix,
)


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

    One coupling per generator in ``rngs``, stacked and decomposed as one.
    With ds or de equal to 1 every such coupling is zero, so those dims
    are refused before the first coupling is drawn.
    """
    if min(ds, de) < 2:
        raise ValueError(
            f"random couplings need ds, de >= 2, got dims ({ds}, {de}): "
            f"every interaction with a one-dimensional factor is zero"
        )
    hs = decompose_hamiltonian(_draw(rngs, dim), ds, de).h_int
    nrm = _operator_norm_hermitian(hs)
    linalg._raise_first(nrm == 0.0, ValueError, lambda i: "sampled interaction collapsed to zero")
    return hs / nrm[:, None, None]


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
    linalg._require_positive(fd_step, "fd_step")
    rates = []
    for trials in _chunks(samples, rho.dim**2):
        with _naming_trials(trials):
            hs = _unit_couplings(rho.dim, rho.ds, rho.de, [derive_rng(seed, t) for t in trials])
            # the decomposed couplings are exactly Hermitian: no second check
            if use_fd:
                spec = linalg.HermitianSpectrum(*np.linalg.eigh(hs))
                rates.extend(_fd_rate(rho, spec, "moment", 2, fd_step).tolist())
            else:
                ev = _evaluator(rho)
                rates.extend(_flow_rate(ev, ev.flow(hs), 2).tolist())
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

    ``include`` injects a given state as sample 0, read from its own evaluator
    as analyze reads it, to check that lazy inputs are counted; trials 1..N-1
    are drawn. The count with ||C||_1 <= lazy_tol (default: the lazy tolerance
    of laziness_commutator) is the headline number; lazy states occupy measure
    zero under this sampling, so the expected count is zero. ``bins`` >= 1.
    """
    _require_positive_dims(ds, de)
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
    chunks = _chunks(samples, (ds * de) ** 2)  # checks samples before arr is sized
    arr = np.empty(samples)
    if include is not None:  # read, not drawn: it was checked once, when it was built
        arr[0] = _evaluator(include).comm_trace_norm
    for trials in chunks:
        trials = range(max(trials.start, include is not None), trials.stop)  # the drawn ones
        mats = _draw([derive_rng(seed, trial) for trial in trials], ds * de, rank)  # checks rank
        if trials:
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
    _require_positive_dims(ds, de)
    dim = ds * de
    rows = []
    for trials in _chunks(samples, dim**2):
        # each trial's generator draws its state first, then its coupling
        rngs = [derive_rng(seed, trial) for trial in trials]
        haar = np.array([trial % 2 == 1 and ds <= de for trial in trials])
        mats = np.empty((len(trials), dim, dim), dtype=complex)
        mats[~haar] = _draw([rng for rng, h in zip(rngs, haar) if not h], dim, dim)
        for k in np.flatnonzero(haar):
            chi = haar_random_pure(dim, rngs[k])
            mats[k] = np.outer(chi, chi.conj())
        with _naming_trials(trials):
            hs = _unit_couplings(dim, ds, de, rngs)
            mats = validate_density_matrix(mats, name="bipartite state")
            ev = _eigenbasis(mats, ds)
            report = _rate_report(ev, hs, 1.0, ())
        pure = _is_pure(ev.purity)
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
