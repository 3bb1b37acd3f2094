from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lazylab import (
    BipartiteState,
    RankDeficientStateError,
    bound_sweep,
    derive_rng,
    detect_discord,
    ginibre_mixed,
    haar_random_pure,
    laziness_commutator,
    maximally_entangled,
    moment_rate,
    product_state,
    pure_state,
    rate_bounds,
    sparsity_scan,
    zero_discord_state,
)
from lazylab import operator_norm, protocol

from .conftest import random_interaction, schmidt_pure_vector


def zero_discord_fixture():
    return zero_discord_state(
        [0.6, 0.4],
        [np.eye(2)[:, 0], np.eye(2)[:, 1]],
        [ginibre_mixed(2, 2, 11), ginibre_mixed(2, 2, 12)],
    )


def test_detect_discord_silent_on_zero_discord():
    verdict = detect_discord(zero_discord_fixture(), samples=20, seed=1)
    assert not verdict.discord_detected
    assert verdict.max_abs_purity_rate < verdict.threshold


def test_detect_discord_silent_on_maxent():
    # one-sidedness: maximally entangled states are discordant but lazy
    verdict = detect_discord(maximally_entangled(2), samples=20, seed=2)
    assert not verdict.discord_detected


def test_detect_discord_fires_on_correlated_pure_state():
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    verdict = detect_discord(st, samples=20, seed=3)
    assert verdict.discord_detected
    assert verdict.max_abs_purity_rate > 1e-3


def test_detect_discord_deterministic():
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    a = detect_discord(st, samples=10, seed=4)
    b = detect_discord(st, samples=10, seed=4)
    assert a.per_sample_rates == b.per_sample_rates


def test_detect_discord_fd_mode_tracks_analytic():
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    exact = detect_discord(st, samples=5, seed=5)
    fd = detect_discord(st, samples=5, seed=5, use_fd=True)
    for a, b in zip(exact.per_sample_rates, fd.per_sample_rates):
        assert abs(a - b) < 1e-6


def test_detect_discord_never_fires_below_lazy_tolerance():
    # no false positives relative to laziness
    for st in (zero_discord_fixture(), maximally_entangled(3),
               product_state(ginibre_mixed(2, 2, 21), ginibre_mixed(2, 2, 22))):
        verdict = detect_discord(st, samples=15, seed=6)
        assert not verdict.discord_detected


def test_detect_discord_validates_samples():
    with pytest.raises(ValueError):
        detect_discord(maximally_entangled(2), samples=0, seed=1)


def test_sparsity_scan_and_bound_sweep_validate_samples():
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        sparsity_scan(2, 2, samples=0, rank=4, seed=1)
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        bound_sweep(2, 2, samples=0, seed=1)
    for bins in (-1, 0):
        with pytest.raises(ValueError, match=f"bins must be >= 1, got {bins}"):
            sparsity_scan(2, 2, samples=5, rank=4, seed=1, bins=bins)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_protocol_tolerances_must_be_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match="^lazy_tol must be finite and >= 0"):
        sparsity_scan(2, 2, samples=5, rank=4, seed=1, lazy_tol=bad)
    with pytest.raises(ValueError, match="^threshold must be finite and >= 0"):
        detect_discord(maximally_entangled(2), samples=2, seed=1, threshold=bad)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        detect_discord(maximally_entangled(2), samples=2, seed=1, use_fd=True, fd_step=bad)
    with pytest.raises(ValueError, match="^fd_step must be finite and positive"):
        detect_discord(maximally_entangled(2), samples=2, seed=1, fd_step=bad)


@pytest.mark.parametrize("ds, de", [(1, 4), (4, 1)])
def test_random_couplings_refuse_a_one_dimensional_factor(ds, de):
    # every partial-traceless coupling is zero there, so the draw's roundoff
    # must not decide between a result and a trial error
    refused = rf"^random couplings need ds, de >= 2, got dims \({ds}, {de}\)"
    state = BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(4, 4, 7))
    for samples in (3, 20):
        with pytest.raises(ValueError, match=refused):
            detect_discord(state, samples=samples, seed=0)
    with pytest.raises(ValueError, match=refused):
        bound_sweep(ds, de, 3, 0)


def test_sparsity_scan_deterministic():
    a = sparsity_scan(2, 2, samples=50, rank=4, seed=7)
    b = sparsity_scan(2, 2, samples=50, rank=4, seed=7)
    assert a == b


def test_sparsity_scan_counts_injected_lazy_state():
    summary = sparsity_scan(2, 2, samples=1, rank=4, seed=8, lazy_tol=1e-3,
                            include=maximally_entangled(2))
    assert summary.samples == 1
    assert summary.count_below_tol == 1


def test_sparsity_scan_random_states_not_lazy():
    summary = sparsity_scan(2, 2, samples=300, rank=4, seed=9, lazy_tol=1e-3)
    assert summary.count_below_tol == 0
    assert summary.median_trace_norm > 1e-3
    assert sum(summary.histogram_counts) == 300


def test_bound_sweep_oversized_system_uses_mixed_states_only():
    rows = bound_sweep(3, 2, samples=10, seed=1)
    assert len(rows) == 10
    assert all(not row.pure for row in rows)
    assert all(row.entropy_slack >= -1e-9 and row.purity_slack >= -1e-9 for row in rows)


def test_bound_sweep_no_negative_slack():
    rows = bound_sweep(2, 2, samples=40, seed=10)
    assert len(rows) == 40
    for row in rows:
        assert row.entropy_slack >= -1e-9
        assert row.purity_slack >= -1e-9
        if row.pure:
            assert row.mi_purity_bound is not None
            assert abs(row.purity_rate) <= row.mi_purity_bound + 1e-9
        else:
            assert row.mi_purity_bound is None
    assert any(row.pure for row in rows)
    assert any(not row.pure for row in rows)


def test_bound_sweep_reads_each_chunk_from_one_evaluator(monkeypatch):
    # a chunk of 16 trials at 8x8 costs one stacked eigh of rho_S and three stacked
    # 64 x 64 eigvalsh: normalizing the couplings, ||C||_1 and ||K||_1. ||H_int|| = 1
    # by that normalization, and the pure rows' I = 2 S(rho_S) reads the same rho_S
    calls = Counter()

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls[name, np.shape(a)] += 1
            return real(a, *args, **kwargs)

        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    rows = bound_sweep(8, 8, 64, seed=1)
    assert sum(row.pure for row in rows) == 32
    assert calls == {("eigvalsh", (16, 64, 64)): 12, ("eigh", (16, 8, 8)): 4}


# ------------------------------------------------ stacked against per-sample

def _close(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


def _unit_coupling(ds, de, rng):
    h = random_interaction(ds, de, rng)
    return h / operator_norm(h)  # the SVD norm checks the max |eigvalsh| one


def _small_chunks(monkeypatch, dim):
    # three trials per chunk, so the samples below span several chunks
    monkeypatch.setattr(protocol, "_CHUNK_ENTRIES", 3 * dim**2)


@pytest.mark.parametrize("ds,de", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_stacked_protocols_match_single_state_functions(monkeypatch, ds, de):
    dim, samples, seed = ds * de, 8, 40 + ds * de
    _small_chunks(monkeypatch, dim)

    lazy = product_state(ginibre_mixed(ds, ds, 1), ginibre_mixed(de, de, 2))
    norms = [laziness_commutator(lazy).trace_norm] + [
        laziness_commutator(
            BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(dim, dim, derive_rng(seed, t)))
        ).trace_norm
        for t in range(1, samples)
    ]
    summary = sparsity_scan(ds, de, samples, rank=dim, seed=seed, lazy_tol=1e-3, include=lazy)
    assert summary.count_below_tol == sum(n < 1e-3 for n in norms) == 1
    assert _close(summary.median_trace_norm, float(np.median(norms)))
    assert _close(summary.min_trace_norm, min(norms))
    assert _close(summary.max_trace_norm, max(norms))
    assert summary.histogram_counts == tuple(
        np.histogram(norms, bins=np.linspace(0.0, max(norms), 21))[0].tolist()
    )

    state = BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(dim, dim, seed))
    verdict = detect_discord(state, samples, seed)
    expected = [
        moment_rate(state, _unit_coupling(ds, de, derive_rng(seed, t)), 2)
        for t in range(samples)
    ]
    assert len(verdict.per_sample_rates) == samples
    assert all(_close(a, b) for a, b in zip(verdict.per_sample_rates, expected))

    rows = bound_sweep(ds, de, samples, seed)
    assert [r.sample for r in rows] == list(range(samples))
    for trial, row in enumerate(rows):
        rng = derive_rng(seed, trial)
        if trial % 2 == 1 and ds <= de:
            rho = pure_state(haar_random_pure(dim, rng), ds, de)
        else:
            rho = BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(dim, dim, rng))
        report = rate_bounds(rho, _unit_coupling(ds, de, rng))
        assert row.pure == rho.is_pure()
        assert row.pure == (trial % 2 == 1 and ds <= de)
        for name in ("entropy_rate", "entropy_bound", "purity_rate", "purity_bound"):
            assert _close(getattr(row, name), getattr(report, name)), name
        assert _close(row.entropy_slack, report.entropy_bound - abs(report.entropy_rate))
        assert _close(row.purity_slack, report.purity_bound - abs(report.purity_rate))
        if report.mi_purity_bound is None:
            assert row.mi_purity_bound is None
        else:
            assert _close(row.mi_purity_bound, report.mi_purity_bound)


def _fail_at(trial, bad, real):
    """A sampler that returns ``bad`` on its call number ``trial`` and real draws otherwise."""
    calls = iter(range(10**6))

    def sampler(*args):
        out = real(*args)
        return bad if next(calls) == trial else out

    return sampler


NOT_PSD = np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize("trial", [0, 4, 7])
def test_stacked_checks_name_the_failing_trial(monkeypatch, trial):
    _small_chunks(monkeypatch, 6)
    not_psd = rf"^trial {trial}: bipartite state has negative eigenvalue"
    monkeypatch.setattr(protocol, "ginibre_mixed", _fail_at(trial, NOT_PSD, ginibre_mixed))
    with pytest.raises(ValueError, match=not_psd):
        sparsity_scan(3, 2, samples=8, rank=6, seed=1)
    monkeypatch.setattr(protocol, "ginibre_mixed", _fail_at(trial, NOT_PSD, ginibre_mixed))
    with pytest.raises(ValueError, match=not_psd):
        bound_sweep(3, 2, samples=8, seed=1)  # ds > de: every trial draws a Ginibre state

    not_hermitian = np.eye(6, dtype=complex) / 6
    not_hermitian[0, 1] = 1e-6
    monkeypatch.setattr(protocol, "ginibre_mixed", _fail_at(trial, not_hermitian, ginibre_mixed))
    with pytest.raises(ValueError, match=rf"^trial {trial}: bipartite state is not Hermitian"):
        sparsity_scan(3, 2, samples=8, rank=6, seed=1)

    # rank-one rho_S: the log floor refuses the entropy rate of that trial only
    rank_one_s = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(protocol, "ginibre_mixed", _fail_at(trial, rank_one_s, ginibre_mixed))
    with pytest.raises(RankDeficientStateError, match=rf"^trial {trial}: rho_S has eigenvalue"):
        bound_sweep(3, 2, samples=8, seed=1)

    state = BipartiteState(ds=3, de=2, matrix=ginibre_mixed(6, 6, 3))
    real = protocol.decompose_hamiltonian
    for h_int, error in [
        (np.zeros((6, 6), dtype=complex), "sampled interaction collapsed to zero"),
        (np.triu(np.ones((6, 6), dtype=complex)), "h_int is not Hermitian"),
    ]:
        bad = replace(real(np.eye(6), 3, 2), h_int=h_int)
        monkeypatch.setattr(protocol, "decompose_hamiltonian", _fail_at(trial, bad, real))
        with pytest.raises(ValueError, match=rf"^trial {trial}: {error}"):
            detect_discord(state, samples=8, seed=1)


def test_sparsity_scan_rejects_included_state_of_other_dims():
    with pytest.raises(ValueError, match="dims"):
        sparsity_scan(2, 3, samples=4, rank=6, seed=1, include=maximally_entangled(2))
