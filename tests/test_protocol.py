import pathlib

import numpy as np
import pytest

from lazylab import (
    BipartiteState,
    RankDeficientStateError,
    bound_sweep,
    derive_rng,
    detect_discord,
    finite_difference_rate,
    ginibre_mixed,
    haar_random_pure,
    laziness_commutator,
    maximally_entangled,
    moment_rate,
    product_state,
    pure_state,
    random_hermitian,
    rate_bounds,
    sparsity_scan,
    validate_density_matrix,
    zero_discord_state,
)
from lazylab import decompose_hamiltonian, laziness, operator_norm, protocol, statefile
from lazylab.states import _draw

from .conftest import _same_bits, random_interaction, schmidt_pure_vector

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


def test_detect_discord_checks_and_splits_each_coupling_once(checks):
    # one stacked check and one stacked eigh of the couplings, with or without --fd;
    # the finite differences checked, split and rebuilt states per coupling (21, 10, 10)
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    for use_fd, eigh in ((True, 1), (False, 0)):
        checks.clear()
        detect_discord(st, samples=5, seed=1, use_fd=use_fd)
        assert (checks["hermitian"], checks["eigh"], checks["cholesky"]) == (1, eigh, 0)


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
    # with an included state too: it is not read before the count is checked
    bell = maximally_entangled(2)
    for samples, include in ((0, None), (0, bell), (-1, None), (-1, bell)):
        with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
            sparsity_scan(2, 2, samples=samples, rank=4, seed=1, include=include)
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        bound_sweep(2, 2, samples=0, seed=1)


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


PURE_SCHMIDT = schmidt_pure_vector([0.8, 0.2])


@pytest.mark.parametrize("include, lazy", [
    (pure_state(PURE_SCHMIDT, 2, 2), False),  # built from its vector: a rank-one evaluator
    (BipartiteState(ds=2, de=2, matrix=np.outer(PURE_SCHMIDT, PURE_SCHMIDT.conj())), False),
    (maximally_entangled(2), True),  # pure, given as a matrix
    (BipartiteState(ds=2, de=2, matrix=ginibre_mixed(4, 4, 13)), False),
    (product_state(ginibre_mixed(2, 2, 14), ginibre_mixed(2, 2, 15)), True),
], ids=["purevector", "pure-matrix", "bell", "mixed", "lazy-product"])
def test_an_included_state_reads_as_analyze_reads_it(include, lazy):
    # with one sample nothing is drawn: every statistic is the included state's own
    # evaluator's ||C||_1, bit for bit, and a lazy state is still counted
    norm = laziness_commutator(include).trace_norm
    summary = sparsity_scan(2, 2, samples=1, rank=4, seed=8, include=include)
    stats = [summary.median_trace_norm, summary.min_trace_norm, summary.max_trace_norm]
    assert _same_bits(stats, [norm] * 3)
    assert summary.count_below_tol == lazy


def test_sparsity_scan_checks_and_factorizes_only_drawn_samples(monkeypatch, checks):
    # a purevector include is checked as a vector when it is loaded, and the scan
    # then reads it from that evaluator: 5 samples check and factorize 4 matrices, stacked
    validated = []
    validate = protocol.validate_density_matrix

    def counting(rho, *args, **kwargs):
        validated.append(np.shape(rho))
        return validate(rho, *args, **kwargs)

    monkeypatch.setattr(protocol, "validate_density_matrix", counting)
    include = statefile.load_state(GOLDEN / "schmidt_08_02.json")
    assert (checks["cholesky"], checks["hermitian"], validated) == (0, 0, [])
    summary = sparsity_scan(2, 2, samples=5, rank=4, seed=3, include=include)
    assert (checks["cholesky"], checks["cholesky", (4, 4, 4)]) == (1, 1)
    assert (checks["hermitian"], checks["hermitian", (4, 4, 4)], validated) == (1, 1, [(4, 4, 4)])
    assert summary.max_trace_norm == 0.48 == laziness_commutator(include).trace_norm

    checks.clear()  # with one sample nothing is drawn, yet a bad rank is still refused
    sparsity_scan(2, 2, samples=1, rank=4, seed=3, include=include)
    assert (checks["cholesky"], checks["hermitian"], validated) == (0, 0, [(4, 4, 4)])
    with pytest.raises(ValueError, match=r"^rank must be in \[1, 4\], got 9"):
        sparsity_scan(2, 2, samples=1, rank=9, seed=3, include=include)


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


def test_bound_sweep_reads_each_chunk_from_one_evaluator(checks):
    # a chunk of trials at 8x8 costs one stacked eigh of rho_S and three stacked
    # 64 x 64 eigvalsh: normalizing the couplings, ||C||_1 and ||K||_1. ||H_int|| = 1
    # by that normalization, and the pure rows' I = 2 S(rho_S) reads the same rho_S.
    # The 64 trials run in chunks of 4
    rows = bound_sweep(8, 8, 64, seed=1)
    chunks = len(laziness._chunks(64, 64**2))
    assert chunks == 64 // 4 and sum(row.pure for row in rows) == 32
    assert (checks["eigh"], checks["eigh", (4, 8, 8)], checks["svd"]) == (chunks, chunks, 0)
    assert (checks["eigvalsh"], checks["eigvalsh", (4, 64, 64)]) == (3 * chunks, 3 * chunks)


# ------------------------------------------------ stacked against per-sample

def _close(a, b):
    return abs(a - b) <= 1e-12 * (1.0 + abs(b))


def _unit_coupling(ds, de, rng):
    h = random_interaction(ds, de, rng)
    return h / operator_norm(h)  # the SVD norm checks the max |eigvalsh| one


def _small_chunks(monkeypatch, dim):
    # three trials per chunk, so the samples below span several chunks
    monkeypatch.setattr(laziness, "_CHUNK_ENTRIES", 3 * dim**2)


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


# ------------------------------------------ chunked draws against per-trial draws
# The references below draw and compute each sample on its own, as the
# protocols did before their draws were stacked, then evaluate each chunk
# as the protocols do; the protocols must reproduce them bit for bit.


def _gue(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def _ginibre(d, rank, rng):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2


def _reference_couplings(ds, de, rngs):
    hs = np.stack([decompose_hamiltonian(_gue(ds * de, rng), ds, de).h_int for rng in rngs])
    return hs / np.abs(np.linalg.eigvalsh(hs)).max(axis=-1)[:, None, None]


def test_samplers_keep_their_single_matrix_draws():
    for d, rank in [(1, 1), (4, 2), (6, 6)]:
        gue, ginibre = random_hermitian(d, derive_rng(3, d)), ginibre_mixed(d, rank, derive_rng(4, d))
        assert _same_bits(gue, _gue(d, derive_rng(3, d)))
        assert _same_bits(ginibre, _ginibre(d, rank, derive_rng(4, d)))


@pytest.mark.parametrize("ds,de", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_chunked_draws_match_per_trial_draws_bit_for_bit(monkeypatch, ds, de):
    dim, samples, seed = ds * de, 8, 60 + ds * de
    _small_chunks(monkeypatch, dim)
    chunks = laziness._chunks(samples, dim**2)
    assert len(chunks) == 3

    state = BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(dim, dim, seed))
    rates = []
    for trials in chunks:
        hs = _reference_couplings(ds, de, [derive_rng(seed, t) for t in trials])
        rates += moment_rate(state, hs, 2).tolist()
    assert _same_bits(detect_discord(state, samples, seed).per_sample_rates, rates)
    # the finite differences of each chunk's stacked couplings are each coupling's own
    fd = [
        finite_difference_rate(state, h, "moment", n=2)
        for trials in chunks
        for h in _reference_couplings(ds, de, [derive_rng(seed, t) for t in trials])
    ]
    assert _same_bits(detect_discord(state, samples, seed, use_fd=True).per_sample_rates, fd)

    lazy = product_state(ginibre_mixed(ds, ds, 1), ginibre_mixed(de, de, 2))
    for n, include, rank in [(samples, None, dim - 1), (samples, lazy, dim), (1, lazy, dim)]:
        # an included state is sample 0, read from its own evaluator; the rest is drawn
        first = [] if include is None else [laziness._evaluator(include).comm_trace_norm]
        drawn = [range(max(c.start, len(first)), c.stop) for c in laziness._chunks(n, dim**2)]
        norms = np.concatenate([first] + [
            laziness._eigenbasis(np.stack([_ginibre(dim, rank, derive_rng(seed, t)) for t in trials]),
                                 ds).comm_trace_norm
            for trials in drawn if trials
        ])
        summary = sparsity_scan(ds, de, n, rank=rank, seed=seed, include=include, bins=4)
        edges = np.linspace(0.0, norms.max() if norms.max() > 0 else 1.0, 5)
        assert summary.median_trace_norm == np.median(norms)
        assert (summary.min_trace_norm, summary.max_trace_norm) == (norms.min(), norms.max())
        assert summary.histogram_edges == tuple(edges.tolist())
        assert summary.histogram_counts == tuple(np.histogram(norms, bins=edges)[0].tolist())

    rows = bound_sweep(ds, de, samples, seed)
    for trials in chunks:
        # each trial's generator draws its state first, then its coupling
        rngs = [derive_rng(seed, t) for t in trials]
        mats = []
        for t, rng in zip(trials, rngs):
            if t % 2 == 1 and ds <= de:
                chi = haar_random_pure(dim, rng)
                mats.append(np.outer(chi, chi.conj()))
            else:
                mats.append(_ginibre(dim, dim, rng))
        hs = laziness._check_h_int(_reference_couplings(ds, de, rngs), ds, de)
        # validated as bound_sweep validates them: their exact Hermitian part
        ev = laziness._eigenbasis(validate_density_matrix(np.stack(mats), name="state"), ds)
        report = laziness._rate_report(ev, hs, 1.0, ())
        mi = laziness._mi_purity_bound(2.0 * ev.system_entropy, 1.0)
        for k, t in enumerate(trials):
            row = rows[t]
            assert row.sample == t and row.pure == (t % 2 == 1 and ds <= de)
            for name in ("entropy_rate", "entropy_bound", "purity_rate", "purity_bound"):
                assert _same_bits(getattr(row, name), getattr(report, name)[k]), name
            if row.pure:
                assert _same_bits(row.mi_purity_bound, mi[k])
            else:
                assert row.mi_purity_bound is None


def _fail_at(trial, bad, ginibre):
    """A draw helper whose sample number ``trial`` of one kind is ``bad``.

    The kind is the Ginibre states when ``ginibre``, else the GUE couplings;
    samples of that kind are counted across calls, and every other sample is
    the real draw.
    """
    seen = 0

    def draw(rngs, d, rank=None):
        nonlocal seen
        out = _draw(rngs, d, rank)
        if (rank is not None) == ginibre:
            if seen <= trial < seen + len(out):
                out[trial - seen] = bad
            seen += len(out)
        return out

    return draw


NOT_PSD = np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize("trial", [0, 4, 7])
def test_stacked_checks_name_the_failing_trial(monkeypatch, trial):
    _small_chunks(monkeypatch, 6)
    not_psd = rf"^trial {trial}: bipartite state has negative eigenvalue"
    monkeypatch.setattr(protocol, "_draw", _fail_at(trial, NOT_PSD, ginibre=True))
    with pytest.raises(ValueError, match=not_psd):
        sparsity_scan(3, 2, samples=8, rank=6, seed=1)
    monkeypatch.setattr(protocol, "_draw", _fail_at(trial, NOT_PSD, ginibre=True))
    with pytest.raises(ValueError, match=not_psd):
        bound_sweep(3, 2, samples=8, seed=1)  # ds > de: every trial draws a Ginibre state

    if trial > 0:  # with a state included as sample 0 only trials 1..7 are drawn
        monkeypatch.setattr(protocol, "_draw", _fail_at(trial - 1, NOT_PSD, ginibre=True))
        with pytest.raises(ValueError, match=not_psd):
            sparsity_scan(3, 2, samples=8, rank=6, seed=1, include=zero_discord_state(
                [0.5, 0.3, 0.2], np.eye(3), [ginibre_mixed(2, 2, k) for k in range(3)]))

    not_hermitian = np.eye(6, dtype=complex) / 6
    not_hermitian[0, 1] = 1e-6
    monkeypatch.setattr(protocol, "_draw", _fail_at(trial, not_hermitian, ginibre=True))
    with pytest.raises(ValueError, match=rf"^trial {trial}: bipartite state is not Hermitian"):
        sparsity_scan(3, 2, samples=8, rank=6, seed=1)

    # rank-one rho_S: the log floor refuses the entropy rate of that trial only
    rank_one_s = np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    monkeypatch.setattr(protocol, "_draw", _fail_at(trial, rank_one_s, ginibre=True))
    with pytest.raises(RankDeficientStateError, match=rf"^trial {trial}: rho_S has eigenvalue"):
        bound_sweep(3, 2, samples=8, seed=1)

    # a coupling draw is decomposed with its chunk, and the stacked
    # decomposition refuses a non-Hermitian one before any rate is formed
    state = BipartiteState(ds=3, de=2, matrix=ginibre_mixed(6, 6, 3))
    for h_tot, error in [
        (np.zeros((6, 6), dtype=complex), "sampled interaction collapsed to zero"),
        (np.triu(np.ones((6, 6), dtype=complex)), "h_tot is not Hermitian"),
    ]:
        monkeypatch.setattr(protocol, "_draw", _fail_at(trial, h_tot, ginibre=False))
        with pytest.raises(ValueError, match=rf"^trial {trial}: {error}"):
            detect_discord(state, samples=8, seed=1)


def test_sparsity_scan_rejects_included_state_of_other_dims():
    with pytest.raises(ValueError, match="dims"):
        sparsity_scan(2, 3, samples=4, rank=6, seed=1, include=maximally_entangled(2))
