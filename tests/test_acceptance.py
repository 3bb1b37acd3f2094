"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest

from lazylab import (
    BipartiteState,
    correlation_measures,
    decompose_hamiltonian,
    derive_rng,
    entropy_rate,
    finite_difference_rate,
    ginibre_mixed,
    haar_random_pure,
    haar_random_unitary,
    kron,
    laziness_commutator,
    linalg,
    maximally_entangled,
    moment_rate,
    pinching_residual,
    product_state,
    pure_state,
    pure_state_analytics,
    random_hermitian,
    rate_bounds,
    schmidt_decompose,
    sparsity_scan,
    zero_discord_state,
)

from .cli_runner import run_lazylab
from .make_goldens import CLI_GOLDENS

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {verdict}  {detail}")


def _lazy_zoo(count: int):
    """products / zero-discord / maximally entangled, full-rank reduced states."""
    states = []
    k = 0
    while len(states) < count:
        kind = k % 3
        if kind == 0:
            ds, de = 2 + k % 3, 2 + (k // 3) % 2
            states.append(
                product_state(
                    ginibre_mixed(ds, ds, derive_rng(9100, k, 0)),
                    ginibre_mixed(de, de, derive_rng(9100, k, 1)),
                )
            )
        elif kind == 1:
            ds, de = 2 + k % 2, 2 + k % 3
            rng = derive_rng(9200, k)
            probs = rng.dirichlet(np.ones(ds) * 5.0)
            probs = probs / probs.sum()
            basis = [np.eye(ds, dtype=complex)[:, j] for j in range(ds)]
            envs = [ginibre_mixed(de, de, derive_rng(9300, k, j)) for j in range(ds)]
            states.append(zero_discord_state(probs, basis, envs))
        else:
            states.append(maximally_entangled(2 + k % 3))
        k += 1
    return states


def test_c01_entropy_rate_exactness():
    dims = [(2, 2), (3, 3)]
    max_rel = 0.0
    ratios = []
    for trial in range(100):
        ds, de = dims[trial % 2]
        st = BipartiteState(
            ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, derive_rng(100, trial))
        )
        h_tot = random_hermitian(ds * de, derive_rng(101, trial))
        h_int = decompose_hamiltonian(h_tot, ds, de).h_int
        analytic = entropy_rate(st, h_int)
        fd = finite_difference_rate(st, h_tot, "entropy", h=1e-5)
        max_rel = max(max_rel, abs(fd - analytic) / abs(analytic))
        if trial < 30:
            e1 = abs(finite_difference_rate(st, h_tot, "entropy", h=1e-3) - analytic)
            e2 = abs(finite_difference_rate(st, h_tot, "entropy", h=5e-4) - analytic)
            ratios.append(e1 / e2)
    median_ratio = float(np.median(ratios))
    ok = max_rel <= 1e-5 and 3.0 <= median_ratio <= 5.0
    _report(1, "entropy-rate exactness vs finite differences", ok,
            f"max rel err {max_rel:.2e}, median h->h/2 error ratio {median_ratio:.2f}")
    assert max_rel <= 1e-5
    assert 3.0 <= median_ratio <= 5.0


def test_c02_zero_rates_on_lazy_states():
    worst_entropy = 0.0
    worst_moment = 0.0
    for i, st in enumerate(_lazy_zoo(50)):
        for k in range(20):
            h_tot = random_hermitian(st.dim, derive_rng(200, i, k))
            h_int = decompose_hamiltonian(h_tot, st.ds, st.de).h_int
            worst_entropy = max(worst_entropy, abs(entropy_rate(st, h_int)))
            for n in range(1, 6):
                worst_moment = max(worst_moment, abs(moment_rate(st, h_int, n)))
    ok = worst_entropy < 1e-9 and worst_moment < 1e-9
    _report(2, "lazy states have zero entropy/moment rates", ok,
            f"max |dS/dt| {worst_entropy:.2e}, max |df_N/dt| {worst_moment:.2e}")
    assert worst_entropy < 1e-9
    assert worst_moment < 1e-9


def test_c03_witness_hamiltonian_converse():
    from lazylab import witness_hamiltonian

    worst_abs = 0.0
    worst_fd_rel = 0.0
    strict = True
    for trial in range(50):
        ds, de = (2, 2) if trial % 2 == 0 else (2, 3)
        st = BipartiteState(
            ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, derive_rng(300, trial))
        )
        h_int, predicted = witness_hamiltonian(st)
        analytic = entropy_rate(st, h_int)
        worst_abs = max(worst_abs, abs(analytic - predicted))
        strict = strict and analytic < -1e-12
        fd = finite_difference_rate(st, h_int, "entropy", h=1e-5)
        worst_fd_rel = max(worst_fd_rel, abs(fd - predicted) / abs(predicted))
    ok = worst_abs < 1e-9 and strict and worst_fd_rel <= 1e-5
    _report(3, "witness coupling gives strictly negative rate", ok,
            f"max |rate + ||K||_F^2| {worst_abs:.2e}, max FD rel err {worst_fd_rel:.2e}")
    assert worst_abs < 1e-9
    assert strict
    assert worst_fd_rel <= 1e-5


def test_c04_pinching_equivalence():
    mismatches = 0
    checked = 0
    for trial in range(200):
        ds = 2 + trial % 3
        de = 2 + (trial // 3) % 3
        rank = 1 + trial % (ds * de)
        st = BipartiteState(
            ds=ds, de=de, matrix=ginibre_mixed(ds * de, rank, derive_rng(400, trial))
        )
        lazy_side = laziness_commutator(st).trace_norm < 1e-8
        pinch_side = pinching_residual(st) < 1e-8
        mismatches += int(lazy_side != pinch_side)
        checked += 1
    # genuinely lazy states must sit on the true side of both tests
    for st in _lazy_zoo(12):
        lazy_side = laziness_commutator(st).trace_norm < 1e-8
        pinch_side = pinching_residual(st) < 1e-8
        mismatches += int(not (lazy_side and pinch_side))
        checked += 1
    ok = mismatches == 0
    _report(4, "commutator = 0 iff pinching-invariant", ok,
            f"{checked} states, {mismatches} counterexamples")
    assert mismatches == 0


def test_c05_rate_bounds_hold():
    worst_entropy_slack = np.inf
    worst_purity_slack = np.inf
    worst_mi_slack = np.inf
    violations = 0
    pure_seen = 0
    for trial in range(500):
        ds = de = 2 + trial % 2
        rng = derive_rng(500, trial)
        if trial % 3 == 0:
            st = pure_state(haar_random_pure(ds * de, rng), ds, de)
        else:
            st = BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, rng))
        h_tot = random_hermitian(ds * de, derive_rng(501, trial))
        h_int = decompose_hamiltonian(h_tot, ds, de).h_int
        report = rate_bounds(st, h_int)
        es = report.entropy_bound - abs(report.entropy_rate)
        ps = report.purity_bound - abs(report.purity_rate)
        worst_entropy_slack = min(worst_entropy_slack, es)
        worst_purity_slack = min(worst_purity_slack, ps)
        if es < -1e-9 or ps < -1e-9:
            violations += 1
        if report.mi_purity_bound is not None:
            pure_seen += 1
            ms = report.mi_purity_bound - abs(report.purity_rate)
            worst_mi_slack = min(worst_mi_slack, ms)
            if ms < -1e-9:
                violations += 1
    ok = violations == 0 and pure_seen > 100
    _report(5, "entropy/purity/mutual-information rate bounds", ok,
            f"500 pairs ({pure_seen} pure), min slacks {worst_entropy_slack:.2e} / "
            f"{worst_purity_slack:.2e} / {worst_mi_slack:.2e}, {violations} violations")
    assert violations == 0
    assert pure_seen > 100


def _simplex_grid(s: int, step: int = 20):
    for cuts in itertools.combinations(range(1, step), s - 1):
        parts = np.diff((0, *cuts, step))
        yield parts / step


def test_c06_pure_state_characterization():
    worst_dense_gap = 0.0
    chain_ok = True
    lazy_ok = True
    eq_s2_ok = True
    strict_ok = True
    points = 0
    for s in (2, 3, 4):
        left = haar_random_unitary(s, derive_rng(600, s, 0))
        right = haar_random_unitary(s, derive_rng(600, s, 1))
        for p in _simplex_grid(s):
            points += 1
            chi = np.zeros(s * s, dtype=complex)
            for k in range(s):
                chi += np.sqrt(p[k]) * np.kron(left[:, k], right[:, k])
            chi /= np.linalg.norm(chi)
            st = pure_state(chi, s, s)
            dense_tn = linalg.trace_norm(laziness_commutator(st).commutator)
            pa = pure_state_analytics(schmidt_decompose(chi, s, s))

            uniform = np.max(np.abs(p - 1.0 / s)) <= 1e-10
            lazy_ok &= pa.is_lazy == uniform
            lazy_ok &= (dense_tn <= 1e-10 * s * s) == uniform

            worst_dense_gap = max(worst_dense_gap, abs(dense_tn - pa.commutator_trace_norm))
            chain_ok &= pa.commutator_trace_norm <= pa.entrywise_bound + 1e-10
            chain_ok &= pa.entrywise_bound <= pa.robustness + 1e-10
            if s == 2:
                eq_s2_ok &= abs(pa.commutator_trace_norm - pa.entrywise_bound) <= 1e-10
            elif len(set(np.round(p, 12))) == s:
                strict_ok &= pa.commutator_trace_norm < pa.entrywise_bound - 1e-10
    ok = lazy_ok and chain_ok and eq_s2_ok and strict_ok and worst_dense_gap < 1e-9
    _report(6, "pure-state laziness and bound chain on the Schmidt simplex", ok,
            f"{points} spectra, max dense-vs-analytic gap {worst_dense_gap:.2e}")
    assert lazy_ok
    assert worst_dense_gap < 1e-9
    assert chain_ok
    assert eq_s2_ok
    assert strict_ok


def test_c07_correlation_identities():
    dims = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]
    worst_mi = worst_rn = 0.0
    for trial in range(100):
        ds, de = dims[trial % len(dims)]
        st = pure_state(haar_random_pure(ds * de, derive_rng(700, trial)), ds, de)
        rep = correlation_measures(st)
        worst_mi = max(
            worst_mi,
            abs(rep.mutual_information - 2 * rep.entanglement_entropy),
            abs(rep.mutual_information - 2 * rep.pure_discord),
        )
        worst_rn = max(worst_rn, abs(rep.robustness_pure - 2 * rep.negativity))
    ok = worst_mi < 1e-9 and worst_rn < 1e-9
    _report(7, "pure-state correlation identities I = 2E = 2delta, R = 2N", ok,
            f"max |I - 2E| {worst_mi:.2e}, max |R - 2N| {worst_rn:.2e}")
    assert worst_mi < 1e-9
    assert worst_rn < 1e-9


def test_c08_hamiltonian_decomposition():
    dims = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 4)]
    worst_pt = worst_recon = worst_rate_shift = 0.0
    for trial in range(100):
        ds, de = dims[trial % len(dims)]
        h = random_hermitian(ds * de, derive_rng(800, trial))
        triple = decompose_hamiltonian(h, ds, de)
        scale = np.linalg.norm(triple.h_int)
        pt_s = np.linalg.norm(linalg.partial_trace(triple.h_int, ds, de, "system"))
        pt_e = np.linalg.norm(linalg.partial_trace(triple.h_int, ds, de, "environment"))
        worst_pt = max(worst_pt, pt_s / (1e-300 + scale), pt_e / (1e-300 + scale))
        worst_recon = max(
            worst_recon,
            np.linalg.norm(triple.reassemble() - h) / (1 + np.linalg.norm(h)),
        )
        st = BipartiteState(
            ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, derive_rng(801, trial))
        )
        shifted = (
            h
            + kron(random_hermitian(ds, derive_rng(802, trial)), np.eye(de))
            + kron(np.eye(ds), random_hermitian(de, derive_rng(803, trial)))
        )
        h_int_shifted = decompose_hamiltonian(shifted, ds, de).h_int
        worst_rate_shift = max(
            worst_rate_shift,
            abs(entropy_rate(st, triple.h_int) - entropy_rate(st, h_int_shifted)),
        )
    ok = worst_pt < 1e-12 and worst_recon < 1e-12 and worst_rate_shift < 1e-10
    _report(8, "interaction decomposition and local-term invariance", ok,
            f"max rel partial trace {worst_pt:.2e}, max reassembly {worst_recon:.2e}, "
            f"max rate shift {worst_rate_shift:.2e}")
    assert worst_pt < 1e-12
    assert worst_recon < 1e-12
    assert worst_rate_shift < 1e-10


def test_c09_sparsity_monte_carlo():
    summary = sparsity_scan(ds=2, de=2, samples=10_000, rank=4, seed=900, lazy_tol=1e-3)
    ok = summary.count_below_tol == 0
    _report(9, "lazy states are not hit by 10^4 Ginibre samples", ok,
            f"count below 1e-3: {summary.count_below_tol}, "
            f"median ||C||_1 {summary.median_trace_norm:.4f}")
    assert summary.count_below_tol == 0


def test_c10_cli_contract_golden_files():
    stable = True
    byte_equal = True
    outputs = {}
    for args, golden_name in CLI_GOLDENS:
        first = run_lazylab(*args)
        second = run_lazylab(*args)
        assert first.returncode == 0, f"{args}: {first.stderr.decode()}"
        stable &= first.stdout == second.stdout
        byte_equal &= first.stdout == (GOLDEN / golden_name).read_bytes()
        outputs[golden_name] = first.stdout

    # the table's `detect-discord FIXTURE --samples 20 --seed 3 --json` rows
    verdicts = {
        fixture: json.loads(outputs[golden_name])["discord_detected"]
        for fixture, golden_name in (
            ("zerodiscord.json", "detect_zerodiscord.json"),
            ("maxent3.json", "detect_maxent.json"),
            ("schmidt_08_02.json", "detect_schmidt.json"),
        )
    }
    verdict_ok = (
        verdicts["zerodiscord.json"] is False
        and verdicts["maxent3.json"] is False
        and verdicts["schmidt_08_02.json"] is True
    )

    ok = stable and byte_equal and verdict_ok
    _report(10, "CLI byte-stability, golden files and detection verdicts", ok,
            f"stable={stable} golden={byte_equal} verdicts={verdicts}")
    assert stable
    assert byte_equal
    assert verdict_ok
