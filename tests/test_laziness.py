import ast
import tokenize
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from lazylab import (
    BipartiteState,
    RankDeficientStateError,
    correlation_measures,
    derive_rng,
    entropy_rate,
    finite_difference_rate,
    ginibre_mixed,
    haar_random_pure,
    haar_random_unitary,
    kron,
    laziness,
    laziness_commutator,
    linalg,
    maximally_entangled,
    moment_rate,
    moments,
    negativity,
    pinching_residual,
    product_state,
    pure_state,
    pure_state_analytics,
    purity_rate,
    random_hermitian,
    rate_bounds,
    regularize_state,
    schmidt_decompose,
    spectral_pinch,
    spectral_projection,
    von_neumann_entropy,
    witness_hamiltonian,
    zero_discord_state,
)
from lazylab.laziness import (
    RateReport,
    _dense,
    _eigenbasis,
    _operator_norm_hermitian,
    _RankOne,
    _pure_vector,
    _rate_report,
    _regularized,
    default_lazy_tolerance,
)
from lazylab.protocol import sparsity_scan

from .conftest import (
    _same_bits,
    lazy_block_state,
    random_full_rank_state,
    random_interaction,
    random_pure_bipartite,
    schmidt_pure_vector,
)


def lazy_state_zoo(de=3):
    """Products, zero-discord constructions, and maximally entangled states."""
    states = [
        product_state(ginibre_mixed(2, 2, 101), ginibre_mixed(de, de, 102)),
        product_state(ginibre_mixed(3, 3, 103), ginibre_mixed(2, 2, 104)),
        zero_discord_state(
            [0.6, 0.4],
            [np.eye(2)[:, 0], np.eye(2)[:, 1]],
            [ginibre_mixed(de, de, 105), ginibre_mixed(de, de, 106)],
        ),
        maximally_entangled(2),
        maximally_entangled(3),
    ]
    return states


# ---------------------------------------------------------------- entropy


def test_entropy_pure_state():
    assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed():
    for d in (2, 3, 4):
        assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(np.log(d), abs=1e-12)


def test_entropy_two_level():
    # scalar oracle: -(0.7 ln 0.7 + 0.3 ln 0.3)
    assert von_neumann_entropy(np.diag([0.7, 0.3])) == pytest.approx(
        0.6108643020548935, abs=1e-12
    )


def test_entropy_range():
    for trial in range(20):
        rho = ginibre_mixed(4, 4, derive_rng(88, trial))
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= np.log(4) + 1e-12


# ---------------------------------------------------------------- moments


def test_moments_pure():
    out = moments(np.diag([1.0, 0.0]), [1, 2, 3, 4])
    for v in out.values():
        assert v == pytest.approx(1.0, abs=1e-12)


def test_moments_maximally_mixed_qubit():
    out = moments(np.eye(2) / 2, [1, 2, 3])
    assert out[1] == pytest.approx(1.0, abs=1e-12)
    assert out[2] == pytest.approx(0.5, abs=1e-12)
    assert out[3] == pytest.approx(0.25, abs=1e-12)


def test_moments_two_route_oracle():
    rho = ginibre_mixed(4, 4, 432)
    via_product = float(np.trace(rho @ rho).real)
    assert abs(moments(rho, [2])[2] - via_product) < 1e-11


# ---------------------------------------------------- laziness commutator


def test_commutator_product_state_is_lazy():
    st = product_state(ginibre_mixed(2, 2, 1), ginibre_mixed(3, 3, 2))
    rep = laziness_commutator(st)
    assert rep.lazy
    assert rep.trace_norm < 1e-12


def test_commutator_maxent_is_lazy():
    rep = laziness_commutator(maximally_entangled(2))
    assert rep.lazy
    assert rep.trace_norm == 0.0


def test_commutator_schmidt_closed_form():
    # rank-2 closed form: 2 sqrt(p q) |p - q| with p = 0.8
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    rep = laziness_commutator(st)
    assert rep.trace_norm == pytest.approx(0.48, abs=1e-12)
    assert not rep.lazy


def test_commutator_anti_hermitian_and_zero_iff():
    for trial in range(10):
        st = random_full_rank_state(2, 3, derive_rng(777, trial))
        rep = laziness_commutator(st)
        c = rep.commutator
        assert np.linalg.norm(c + c.conj().T) < 1e-10
        assert (rep.trace_norm == 0.0) == np.array_equal(c, np.zeros_like(c))


def test_commutator_tolerance_override():
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    assert laziness_commutator(st, tol=1.0).lazy
    assert not laziness_commutator(st).lazy


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_commutator_and_pinching_tolerances_must_be_finite_and_non_negative(bad):
    st = BipartiteState(ds=2, de=2, matrix=ginibre_mixed(4, 4, 3))
    with pytest.raises(ValueError, match="^tol must be finite and >= 0"):
        laziness_commutator(st, tol=bad)
    with pytest.raises(ValueError, match="^cluster_tol must be finite and >= 0"):
        pinching_residual(st, cluster_tol=bad)
    # zero is a valid tolerance: nothing clusters and only ||C||_1 = 0 is lazy
    assert pinching_residual(st, cluster_tol=0.0) == pinching_residual(st)
    assert not laziness_commutator(st, tol=0.0).lazy


# ----------------------------------------------------------------- pinch


def test_pinch_zero_discord_fixed_point():
    st = zero_discord_state(
        [0.7, 0.3],
        [np.eye(2)[:, 0], np.eye(2)[:, 1]],
        [ginibre_mixed(3, 3, 5), ginibre_mixed(3, 3, 6)],
    )
    pinched = spectral_pinch(st, spectral_projection(st.rho_s))
    assert np.linalg.norm(pinched.matrix - st.matrix) < 1e-12


def test_pinch_single_block_is_identity():
    st = maximally_entangled(3)
    pinched = spectral_pinch(st, spectral_projection(st.rho_s))
    assert_allclose(pinched.matrix, st.matrix, atol=1e-12)


def test_pinch_removes_off_diagonal_blocks():
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    proj = spectral_projection(st.rho_s)
    pinched = spectral_pinch(st, proj)
    # off-diagonal (between-eigenspace) blocks vanish: re-pinching changes nothing
    again = spectral_pinch(pinched, proj)
    assert np.linalg.norm(again.matrix - pinched.matrix) < 1e-12
    assert linalg.trace_norm(st.matrix - pinched.matrix) > 0.1


def test_pinch_idempotent_on_random_states():
    for trial in range(10):
        st = random_full_rank_state(2, 2, derive_rng(901, trial))
        proj = spectral_projection(st.rho_s)
        once = spectral_pinch(st, proj)
        twice = spectral_pinch(once, proj)
        assert np.linalg.norm(twice.matrix - once.matrix) < 1e-12


def test_pinch_preserves_reduced_state():
    st = random_full_rank_state(3, 2, 44)
    pinched = spectral_pinch(st, spectral_projection(st.rho_s))
    assert np.linalg.norm(pinched.rho_s - st.rho_s) < 1e-10


def test_pinch_dimension_mismatch():
    st = maximally_entangled(2)
    with pytest.raises(ValueError):
        spectral_pinch(st, spectral_projection(np.eye(3) / 3))
    proj = spectral_projection(np.diag([0.7, 0.3]))
    with pytest.raises(ValueError, match="do not resolve the identity"):
        spectral_pinch(st, replace(proj, projectors=proj.projectors[:1]))


def test_a_pinch_whose_trace_is_off_by_1e_8_is_refused():
    # projectors need resolve the identity only to PROJECTOR_TOL = 1e-8, looser than a
    # state's trace rule, so a pinch is checked as any BipartiteState is
    st = random_full_rank_state(2, 2, 46)
    scale = 1.0 + 0.7e-8  # ||sum_j P_j - I||_F = 0.99e-8; the pinch's trace is 1 + 1.4e-8
    proj = replace(spectral_projection(np.diag([0.7, 0.3])),
                   projectors=(np.diag([scale, 0.0]), np.diag([0.0, scale])))
    with pytest.raises(ValueError, match="^bipartite state has trace"):
        spectral_pinch(st, proj)
    with pytest.raises(ValueError, match="^bipartite state has trace"):
        BipartiteState(ds=2, de=2, matrix=st.matrix * (1.0 + 1e-8))


def test_pinching_residual_lazy_cases():
    assert pinching_residual(product_state(ginibre_mixed(2, 2, 3), ginibre_mixed(2, 2, 4))) < 1e-10
    assert pinching_residual(maximally_entangled(2)) < 1e-12


def test_pinching_residual_equivalence_with_commutator():
    for trial in range(60):
        ds = 2 + trial % 2
        de = 2 + trial % 3
        rank = 1 + trial % (ds * de)
        rho = ginibre_mixed(ds * de, rank, derive_rng(5150, trial))
        st = BipartiteState(ds=ds, de=de, matrix=rho)
        lazy_side = laziness_commutator(st).trace_norm < 1e-8
        pinch_side = pinching_residual(st) < 1e-8
        assert lazy_side == pinch_side


def _verdicts(st, chi=None, pinched=None):
    """The lazy verdicts of every rule that decides laziness for st.

    ``pinched`` is the pinching verdict; by default the residual must stay
    within the lazy tolerance. A pure st also takes the Schmidt route.
    """
    tol = default_lazy_tolerance(st.ds, st.de)
    out = {
        "commutator": laziness_commutator(st).lazy,
        "pinching": pinching_residual(st) <= tol if pinched is None else pinched,
        "sparsity": sparsity_scan(st.ds, st.de, 1, st.dim, 0, include=st).count_below_tol == 1,
    }
    if chi is not None:
        out["schmidt"] = pure_state_analytics(schmidt_decompose(chi, st.ds, st.de)).is_lazy
    return out


def test_lazy_verdicts_agree_across_a_schmidt_gap_sweep():
    disagreements = []
    for s in (2, 3, 4):
        for gap in 10.0 ** np.arange(-12, -5):
            p = np.full(s, 1.0 / s)
            p[:2] += (gap / 2, -gap / 2)
            chi = schmidt_pure_vector(p, seed=7000 + s)
            st = pure_state(chi, s, s)
            v = _verdicts(st, chi, pinched=pinching_residual(st) == 0.0)
            if len(set(v.values())) != 1:
                disagreements.append((s, gap, v))
    assert disagreements == []


def test_lazy_verdicts_agree_on_random_and_lazy_states():
    for trial in range(30):
        ds, de = 2 + trial % 2, 2 + trial % 3
        rank = 1 + trial % (ds * de)
        rho = ginibre_mixed(ds * de, rank, derive_rng(5150, trial))
        st = BipartiteState(ds=ds, de=de, matrix=rho)
        chi = np.linalg.eigh(rho)[1][:, -1] if rank == 1 else None
        v = _verdicts(st, chi)
        assert set(v.values()) == {False}, (trial, v)
    for st in lazy_state_zoo():
        v = _verdicts(st)
        assert set(v.values()) == {True}, v


# ---------------------------------------------------------------- rates


def test_entropy_rate_zero_on_lazy_states():
    for i, st in enumerate(lazy_state_zoo()):
        dim = st.dim
        for k in range(5):
            h_int = random_interaction(st.ds, st.de, derive_rng(2024, i, k))
            assert abs(entropy_rate(st, h_int)) < 1e-10


@pytest.mark.parametrize("de", [2, 3])
@pytest.mark.parametrize("blocks", [(2,), (1, 2), (2, 2), (1, 3), (1, 1, 2), (2, 2, 2), (3, 5)])
def test_lazy_states_of_every_projector_rank(blocks, de):
    # lazy_block_state draws lazy states that are not products, classical-quantum
    # states or maximally entangled ones: a projector of rank r_j holds an
    # arbitrary state of C^{r_j} (x) C^de whose system marginal is I / r_j
    negativities = []
    for seed in range(3):
        st = lazy_block_state(blocks, de, seed)
        tol = default_lazy_tolerance(st.ds, de)
        assert laziness_commutator(st).lazy
        assert pinching_residual(st) <= tol
        # the witness predicts -||K||_F^2, and K is within the lazy tolerance
        h_w, predicted = witness_hamiltonian(st)
        assert predicted >= -(tol**2)
        assert abs(entropy_rate(st, h_w)) <= tol**2
        # among Ginibre draws only the included state is counted lazy
        assert sparsity_scan(st.ds, de, 4, st.dim, seed, include=st).count_below_tol == 1
        h = np.stack([random_interaction(st.ds, de, derive_rng(6061, seed, k)) for k in range(4)])
        for rates in (
            moment_rate(st, h, 2),
            moment_rate(st, h, 3),
            entropy_rate(st, h),
            entropy_rate(st, h, regularize=1e-3),
        ):
            assert np.abs(rates).max() <= 1e-12
        negativities.append(correlation_measures(st).negativity)
    assert max(negativities) > 0.0


@pytest.mark.parametrize("de", [2, 3])
@pytest.mark.parametrize("blocks", [(1, 2), (2, 2), (1, 3), (1, 1, 2), (2, 2, 2), (3, 5)])
def test_lazy_states_perturbed_across_two_blocks(blocks, de):
    # (1-eps) rho + eps |psi><psi| with psi = (u_min + u_max)/sqrt(2) (x) e_0 couples the
    # blocks of rho_S's smallest and largest eigenvalues. C is 0 at eps = 0, so
    # ||C||_1 grows linearly in eps, and the state is no longer lazy or pinching-invariant
    for seed in range(3):
        st = lazy_block_state(blocks, de, seed)
        lam, u = np.linalg.eigh(st.rho_s)
        assert lam[-1] - lam[0] > 1e-3  # two different blocks
        psi = np.kron((u[:, 0] + u[:, -1]) / np.sqrt(2.0), np.eye(de)[0])
        slopes = []
        for eps in (1e-4, 1e-5, 1e-6):
            mat = (1.0 - eps) * st.matrix + eps * np.outer(psi, psi.conj())
            perturbed = BipartiteState(ds=st.ds, de=de, matrix=mat)
            report = laziness_commutator(perturbed)
            slopes.append(report.trace_norm / eps)
            if eps == 1e-4:
                assert not report.lazy
                assert pinching_residual(perturbed) > default_lazy_tolerance(st.ds, de)
        assert max(abs(a - slopes[-1]) for a in slopes) <= 1e-3 * slopes[-1], slopes


def test_entropy_rate_maxent_any_hamiltonian():
    st = maximally_entangled(3)
    h_int = random_interaction(3, 3, 5)
    assert abs(entropy_rate(st, h_int)) < 1e-10


def test_entropy_rate_matches_finite_difference():
    st = random_full_rank_state(2, 2, 7171)
    h_tot = random_hermitian(4, 7272)
    from lazylab import decompose_hamiltonian

    h_int = decompose_hamiltonian(h_tot, 2, 2).h_int
    analytic = entropy_rate(st, h_int)
    fd = finite_difference_rate(st, h_tot, "entropy", h=1e-5)
    assert abs(fd - analytic) / abs(analytic) < 1e-6


def test_entropy_rate_rank_deficiency():
    st = pure_state(schmidt_pure_vector([1.0, 0.0]), 2, 2)  # product pure, rho_S rank 1
    h_int = random_interaction(2, 2, 9)
    with pytest.raises(RankDeficientStateError):
        entropy_rate(st, h_int)
    # explicit regularization turns the error into a number
    val = entropy_rate(st, h_int, regularize=1e-6)
    assert np.isfinite(val)


def test_entropy_rate_rejects_non_hermitian_coupling():
    st = random_full_rank_state(2, 2, 1)
    with pytest.raises(ValueError, match="Hermitian"):
        entropy_rate(st, np.triu(np.ones((4, 4))))


def test_regularize_state_properties():
    st = pure_state(schmidt_pure_vector([1.0, 0.0]), 2, 2)
    reg = regularize_state(st, 1e-3)
    assert np.linalg.eigvalsh(reg.rho_s)[0] > 1e-4


@pytest.mark.parametrize("delta", [1e-3, 0.5])
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: random_full_rank_state(8, 8, 2301), id="ginibre-8x8"),
        pytest.param(lambda: random_pure_bipartite(8, 8, 2302), id="haarpure-8x8"),
        pytest.param(lambda: maximally_entangled(3), id="maxent-3x3"),
        pytest.param(
            lambda: BipartiteState(ds=2, de=3, matrix=ginibre_mixed(6, 2, 2303)), id="rank2-2x3"
        ),
    ],
)
def test_regularize_state_is_neither_checked_nor_factorized_again(checks, make, delta):
    # (1 - d) rho + d I/dim is valid by construction: no dim x dim Hermiticity check or
    # Cholesky runs on it, and it keeps the bits the checked BipartiteState would keep
    st = make()
    ev = laziness._evaluator(st)
    checks.clear()
    reg = regularize_state(st, delta)
    assert checks["cholesky"] == checks["hermitian"] == 0
    derived = laziness._evaluator(reg)  # the evaluator derived from st's, kept on reg
    assert isinstance(derived, laziness._Regularized) and derived.base is ev and derived.d == delta
    checked = BipartiteState(ds=st.ds, de=st.de, matrix=laziness._regularized(ev, delta).mat)
    assert _same_bits(reg.matrix, checked.matrix)
    assert (reg.ds, reg.de) == (st.ds, st.de)


def test_moment_rate_trace_preservation():
    st = random_full_rank_state(2, 3, 55)
    h_int = random_interaction(2, 3, 56)
    assert moment_rate(st, h_int, 1) == 0.0


def test_moment_rate_zero_on_lazy_states():
    for i, st in enumerate(lazy_state_zoo()):
        h_int = random_interaction(st.ds, st.de, derive_rng(3030, i))
        for n in range(1, 6):
            assert abs(moment_rate(st, h_int, n)) < 1e-10


def test_moment_rate_matches_finite_difference():
    st = random_full_rank_state(2, 2, 292)
    h_tot = random_hermitian(4, 293)
    from lazylab import decompose_hamiltonian

    h_int = decompose_hamiltonian(h_tot, 2, 2).h_int
    analytic = moment_rate(st, h_int, 2)
    fd = finite_difference_rate(st, h_tot, "moment", n=2, h=1e-5)
    assert abs(fd - analytic) / abs(analytic) < 1e-6


# ---------------------------------------------------------------- bounds


def test_rate_bounds_zero_interaction():
    st = random_full_rank_state(2, 2, 61)
    report = rate_bounds(st, np.zeros((4, 4)), ns=(1, 2, 3))
    assert report.entropy_rate == 0.0
    assert report.purity_rate == 0.0
    assert report.entropy_bound == 0.0
    assert report.purity_bound == 0.0
    assert all(v == 0.0 for v in report.moment_rates.values())


def test_rate_bounds_lazy_state():
    st = product_state(ginibre_mixed(2, 2, 71), ginibre_mixed(2, 2, 72))
    report = rate_bounds(st, random_interaction(2, 2, 73))
    assert abs(report.entropy_rate) < 1e-10
    assert report.entropy_bound < 1e-9
    assert report.purity_bound < 1e-9


def test_rate_bounds_hold_on_random_pairs():
    for trial in range(60):
        ds = de = 2 + trial % 2
        pure = trial % 3 == 0
        if pure:
            st = random_pure_bipartite(ds, de, derive_rng(808, trial))
        else:
            st = random_full_rank_state(ds, de, derive_rng(808, trial))
        h_int = random_interaction(ds, de, derive_rng(809, trial))
        report = rate_bounds(st, h_int)
        assert abs(report.entropy_rate) <= report.entropy_bound + 1e-9
        assert abs(report.purity_rate) <= report.purity_bound + 1e-9
        if pure:
            assert report.mi_purity_bound is not None
            assert abs(report.purity_rate) <= report.mi_purity_bound + 1e-9
        else:
            assert report.mi_purity_bound is None


def test_rate_bounds_norm_convention_recorded():
    st = random_full_rank_state(2, 2, 5)
    report = rate_bounds(st, random_interaction(2, 2, 6))
    assert report.h_int_norm_kind == "operator"
    assert report.h_int_operator_norm > 0


def test_rate_bounds_regularize_reads_one_state():
    # every field, the pure-only MI bound included, describes the regularized state
    # (null unless the regularized state still passes PURITY_TOL: delta < 5e-11 dim/(dim-1))
    st = random_pure_bipartite(2, 3, 7)
    h = random_interaction(2, 3, 8)
    for delta, still_pure in ((1e-3, False), (1e-11, True)):
        report = rate_bounds(st, h, ns=(3,), regularize=delta)
        expected = rate_bounds(regularize_state(st, delta), h, ns=(3,))
        for f in fields(RateReport):
            assert getattr(report, f.name) == getattr(expected, f.name), (delta, f.name)
        assert (report.mi_purity_bound is not None) == still_pure


# --------------------------------------------------------------- witness


def test_witness_on_lazy_state_vanishes():
    st = product_state(ginibre_mixed(2, 2, 81), ginibre_mixed(2, 2, 82))
    h_int, predicted = witness_hamiltonian(st)
    assert np.linalg.norm(h_int) < 1e-10
    assert abs(predicted) < 1e-20


def test_witness_is_hermitian():
    st = random_full_rank_state(2, 3, 83)
    h_int, _ = witness_hamiltonian(st)
    assert np.linalg.norm(h_int - h_int.conj().T) < 1e-12


def test_witness_two_oracle_confirmation():
    st = random_full_rank_state(2, 2, 84)
    h_int, predicted = witness_hamiltonian(st)
    assert predicted < -1e-12
    analytic = entropy_rate(st, h_int)
    assert abs(analytic - predicted) < 1e-9
    fd = finite_difference_rate(st, h_int, "entropy", h=1e-5)
    assert abs(fd - predicted) / abs(predicted) < 1e-6


def test_witness_partial_traces_vanish():
    st = random_full_rank_state(3, 2, 85)
    h_int, _ = witness_hamiltonian(st)
    assert np.linalg.norm(linalg.partial_trace(h_int, 3, 2, "system")) < 1e-12
    assert np.linalg.norm(linalg.partial_trace(h_int, 3, 2, "environment")) < 1e-12


# ---------------------------------------------------------- correlations


def test_correlations_product_state():
    st = product_state(ginibre_mixed(2, 2, 91), ginibre_mixed(2, 2, 92))
    rep = correlation_measures(st)
    assert abs(rep.mutual_information) < 1e-9
    assert rep.negativity == pytest.approx(0.0, abs=1e-10)
    assert rep.entanglement_entropy is None


def test_correlations_bell_state():
    rep = correlation_measures(maximally_entangled(2))
    assert rep.mutual_information == pytest.approx(1.3862943611198906, abs=1e-9)
    assert rep.entanglement_entropy == pytest.approx(0.6931471805599453, abs=1e-9)
    assert rep.pure_discord == pytest.approx(0.6931471805599453, abs=1e-9)
    assert rep.negativity == pytest.approx(0.5, abs=1e-9)
    assert rep.robustness_pure == pytest.approx(1.0, abs=1e-9)


def test_correlations_pure_identities():
    for trial in range(10):
        st = random_pure_bipartite(3, 3, derive_rng(4040, trial))
        rep = correlation_measures(st)
        assert rep.mutual_information == pytest.approx(2 * rep.entanglement_entropy, abs=1e-9)
        assert rep.pure_discord == pytest.approx(rep.entanglement_entropy, abs=1e-12)
        # two-route check: partial-transpose negativity vs Schmidt robustness
        chi = haar_random_pure(9, derive_rng(4040, trial))
        schmidt = schmidt_decompose(chi, 3, 3).coefficients.sum() ** 2 - 1.0
        assert rep.robustness_pure == pytest.approx(2 * rep.negativity, abs=1e-12)
        assert rep.robustness_pure == pytest.approx(schmidt, abs=1e-9)


def test_correlations_mutual_information_nonnegative():
    for trial in range(20):
        st = random_full_rank_state(2, 3, derive_rng(5050, trial))
        assert correlation_measures(st).mutual_information >= -1e-9


# --------------------------------------------------- pure-state analytics


def test_pure_analytics_uniform_is_lazy():
    for s in (2, 3, 4):
        sd = schmidt_decompose(schmidt_pure_vector(np.full(s, 1.0 / s)), s, s)
        pa = pure_state_analytics(sd)
        assert pa.is_lazy
        assert pa.commutator_trace_norm == pytest.approx(0.0, abs=1e-12)
        assert pa.entrywise_bound == pytest.approx(0.0, abs=1e-12)


def test_pure_analytics_uniform_norm_is_exactly_zero():
    # the closed form centers f on f(lam_0) first, so equal weights leave no roundoff
    for s in (2, 3, 4, 8):
        pa = pure_state_analytics(schmidt_decompose(np.eye(s).ravel() / np.sqrt(s), s, s))
        assert pa.commutator_trace_norm == 0.0
        assert pa.is_lazy


@pytest.mark.parametrize("ds, de", [(2, 2), (2, 3), (4, 4), (8, 8)])
def test_pure_products_are_lazy_at_every_entry_point(ds, de):
    # Haar local factors: the zero Schmidt weights are only roundoff-small, and a
    # closed form fed eps-sized weights would read sqrt(eps)
    rng = derive_rng(910, ds, de)
    st = pure_state(np.kron(haar_random_pure(ds, rng), haar_random_pure(de, rng)), ds, de)
    h = random_interaction(ds, de, derive_rng(911, ds, de))
    assert laziness_commutator(st).lazy
    assert pinching_residual(st) <= default_lazy_tolerance(ds, de)
    assert abs(moment_rate(st, h, 2)) <= 1e-12


def test_pure_analytics_rank_two_closed_form():
    for p in (0.55, 0.7, 0.8, 0.95):
        sd = schmidt_decompose(schmidt_pure_vector([p, 1 - p]), 2, 2)
        pa = pure_state_analytics(sd)
        expected = 2 * np.sqrt(p * (1 - p)) * abs(2 * p - 1)
        assert pa.commutator_trace_norm == pytest.approx(expected, abs=1e-10)
        assert pa.entrywise_bound == pytest.approx(expected, abs=1e-10)
        assert not pa.is_lazy


def test_pure_analytics_matches_dense_commutator():
    vec = schmidt_pure_vector([0.4, 0.3, 0.2, 0.1], seed=606)
    st = pure_state(vec, 4, 4)
    dense = linalg.trace_norm(laziness_commutator(st).commutator)
    pa = pure_state_analytics(schmidt_decompose(vec, 4, 4))
    assert abs(dense - pa.commutator_trace_norm) < 1e-9
    # strict triangle inequality at rank 4 with distinct spectrum
    assert pa.commutator_trace_norm < pa.entrywise_bound - 1e-6


def test_pure_analytics_chain():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = rng.dirichlet(np.ones(4))
        sd = schmidt_decompose(schmidt_pure_vector(p), 4, 4)
        pa = pure_state_analytics(sd)
        assert pa.commutator_trace_norm <= pa.entrywise_bound + 1e-10
        assert pa.entrywise_bound <= pa.robustness + 1e-10


# ----------------------------------------------------- local invariance


def test_rates_invariant_under_local_terms():
    from lazylab import decompose_hamiltonian

    st = random_full_rank_state(2, 3, 11)
    h_tot = random_hermitian(6, 12)
    h_int = decompose_hamiltonian(h_tot, 2, 3).h_int
    shifted = (
        h_tot
        + kron(random_hermitian(2, 13), np.eye(3))
        + kron(np.eye(2), random_hermitian(3, 14))
    )
    h_int_shifted = decompose_hamiltonian(shifted, 2, 3).h_int
    assert abs(entropy_rate(st, h_int) - entropy_rate(st, h_int_shifted)) < 1e-10
    for n in range(1, 6):
        assert abs(moment_rate(st, h_int, n) - moment_rate(st, h_int_shifted, n)) < 1e-10


def test_reported_rates_are_real():
    # imaginary residue is checked before being discarded
    st = random_full_rank_state(2, 2, 15)
    h_int = random_interaction(2, 2, 16)
    assert isinstance(entropy_rate(st, h_int), float)
    assert isinstance(moment_rate(st, h_int, 3), float)


def test_trivial_subsystems_are_lazy():
    # no system (ds = 1) or no environment (de = 1): the commutator vanishes
    no_sys = BipartiteState(ds=1, de=3, matrix=ginibre_mixed(3, 3, 7))
    assert laziness_commutator(no_sys).lazy
    assert abs(entropy_rate(no_sys, random_interaction(1, 3, 8))) < 1e-12
    no_env = BipartiteState(ds=3, de=1, matrix=ginibre_mixed(3, 3, 9))
    assert laziness_commutator(no_env).lazy
    assert pinching_residual(no_env) < 1e-10


# ------------------------------------------- kernel against the definitions

DEFINITION_DIMS = [(1, 3), (3, 1), (2, 3), (3, 2), (4, 4), (8, 8)]


def _definition_cases():
    cases = []
    for k, (ds, de) in enumerate(DEFINITION_DIMS):
        kinds = ["ginibre", "zerodiscord-equal", "product-maxmixed"]
        kinds += ["pure"] if ds <= de else []
        kinds += ["maxent"] if ds == de else []
        cases += [pytest.param(kind, ds, de, 700 + 10 * k, id=f"{kind}-{ds}x{de}") for kind in kinds]
    return cases


def _definition_state(kind, ds, de, seed):
    if kind == "ginibre":
        return random_full_rank_state(ds, de, seed)
    if kind == "pure":
        return random_pure_bipartite(ds, de, seed)
    if kind == "maxent":
        return maximally_entangled(ds)
    if kind == "zerodiscord-equal":  # rho_S = I/ds, in a random local basis
        basis = haar_random_unitary(ds, derive_rng(seed, 0))
        envs = [ginibre_mixed(de, de, derive_rng(seed, j + 1)) for j in range(ds)]
        return zero_discord_state([1.0 / ds] * ds, list(basis.T), envs)
    return product_state(np.eye(ds) / ds, ginibre_mixed(de, de, seed))


def _assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= 1e-12 * (1.0 + np.abs(expected)))


@pytest.mark.parametrize("kind, ds, de, seed", _definition_cases())
def test_eigenbasis_kernel_matches_literal_definitions(kind, ds, de, seed):
    st = _definition_state(kind, ds, de, seed)
    h = random_hermitian(ds * de, seed + 1)
    eye_e = np.eye(de)

    def lifted_commutator(op_s):
        return linalg.commutator(kron(op_s, eye_e), st.matrix)

    c = lifted_commutator(st.rho_s)
    k = lifted_commutator(linalg.matrix_log(st.rho_s))
    h_norm = linalg.operator_norm(h)

    report = laziness_commutator(st)
    _assert_close(report.commutator, c)
    _assert_close(report.trace_norm, linalg.trace_norm(c))
    _assert_close(report.frobenius_norm, np.linalg.norm(c))

    s_rate = (-1j * np.trace(h @ k)).real
    _assert_close(entropy_rate(st, h), s_rate)
    m_rates = {
        n: (1j * n * np.trace(h @ lifted_commutator(np.linalg.matrix_power(st.rho_s, n - 1)))).real
        for n in range(1, 5)
    }
    for n, expected in m_rates.items():
        _assert_close(moment_rate(st, h, n), expected)
    _assert_close(purity_rate(st, h), m_rates[2])
    assert negativity(st) == correlation_measures(st).negativity

    bounds = rate_bounds(st, h, ns=(3, 4))
    _assert_close(bounds.entropy_rate, s_rate)
    _assert_close(bounds.purity_rate, m_rates[2])
    assert sorted(bounds.moment_rates) == [3, 4]
    for n in (3, 4):
        _assert_close(bounds.moment_rates[n], m_rates[n])
    _assert_close(bounds.h_int_operator_norm, h_norm)
    _assert_close(bounds.ln_commutator_trace_norm, linalg.trace_norm(k))
    _assert_close(bounds.entropy_bound, h_norm * linalg.trace_norm(k))
    _assert_close(bounds.purity_bound, 2.0 * h_norm * linalg.trace_norm(c))
    if st.is_pure():
        mi = (von_neumann_entropy(st.rho_s) + von_neumann_entropy(st.rho_e)
              - von_neumann_entropy(st.matrix))
        _assert_close(bounds.mi_purity_bound, 4.0 * h_norm * np.sqrt(2.0 * max(mi, 0.0)))
    else:
        assert bounds.mi_purity_bound is None

    witness, predicted = witness_hamiltonian(st)
    _assert_close(witness, (1j * k + linalg.dagger(1j * k)) / 2)
    _assert_close(predicted, -np.linalg.norm(k) ** 2)

    proj = spectral_projection(st.rho_s)
    pinched = sum(kron(p, eye_e) @ st.matrix @ kron(p, eye_e) for p in proj.projectors)
    _assert_close(spectral_pinch(st, proj).matrix, pinched)
    _assert_close(pinching_residual(st), linalg.trace_norm(st.matrix - pinched))


# ------------------------------------ generated rates against the definitions


def _shaped_state(ds, de, gap, rng):
    """A full-rank state filtered by a local A (x) I so that rho_S has a random
    spectrum, in a Haar-random basis, with two eigenvalues ``gap`` apart
    (before the normalization)."""
    p = rng.uniform(0.2, 1.0, ds)
    p[1:2] = p[0] + gap
    w = haar_random_unitary(ds, rng)
    target_sqrt = (w * np.sqrt(p / p.sum())) @ linalg.dagger(w)
    sigma = ginibre_mixed(ds * de, ds * de, rng)
    spec = linalg.hermitian_eig(linalg.partial_trace(sigma, ds, de, keep="system"))
    v = spec.eigenvectors
    a = target_sqrt @ (v / np.sqrt(spec.eigenvalues)) @ linalg.dagger(v)
    lift = kron(a, np.eye(de))
    mat = lift @ sigma @ linalg.dagger(lift)
    return (mat + linalg.dagger(mat)) / 2


@hst.composite
def _generated_cases(draw):
    ds, de = draw(hst.sampled_from([(s, e) for s in range(1, 5) for e in range(1, 5)]))
    dim = ds * de
    kind = draw(hst.sampled_from(["ginibre", "pure", "gap"]))
    rng = derive_rng(draw(hst.integers(0, 2**32 - 1)))
    if kind == "ginibre":  # every rank, 1 (pure) to dim
        mat = ginibre_mixed(dim, draw(hst.integers(1, dim)), rng)
    elif kind == "pure":
        chi = haar_random_pure(dim, rng)
        mat = np.outer(chi, chi.conj())
    else:
        mat = _shaped_state(ds, de, 10.0 ** -draw(hst.integers(1, 12)), rng)
    hs = np.stack([random_hermitian(dim, rng) for _ in range(3)])
    return BipartiteState(ds=ds, de=de, matrix=mat), hs


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_generated_cases())
def test_generated_rates_match_literal_definitions(case):
    """Dims 1..4 (1xn, nx1, ds != de), Ginibre states of every rank, Haar-pure
    states and rho_S eigen-gaps down to 1e-12, each against a stack of three
    couplings: the rates and rate_bounds fields against the kron/matrix_log/
    matrix_power definitions, and on pure inputs the rank-one evaluator
    against the dense one."""
    st, hs = case
    eye_e = np.eye(st.de)

    def lifted_commutator(op_s):
        return linalg.commutator(kron(op_s, eye_e), st.matrix)

    c = lifted_commutator(st.rho_s)
    m_rates = np.array([
        [(1j * n * np.trace(h @ lifted_commutator(np.linalg.matrix_power(st.rho_s, n - 1)))).real
         for h in hs]
        for n in range(1, 5)
    ])
    for n in range(1, 5):
        _assert_close(moment_rate(st, hs, n), m_rates[n - 1])
    h_norms = np.array([linalg.operator_norm(h) for h in hs])

    rank_deficient = np.linalg.eigvalsh(st.rho_s)[0] < linalg.LOG_EIGENVALUE_FLOOR
    if rank_deficient:
        with pytest.raises(ValueError, match="ln undefined"):
            linalg.matrix_log(st.rho_s)
        for h in hs:
            with pytest.raises(RankDeficientStateError):
                entropy_rate(st, h)
            with pytest.raises(RankDeficientStateError):
                rate_bounds(st, h)
    else:
        k = lifted_commutator(linalg.matrix_log(st.rho_s))
        mi = (von_neumann_entropy(st.rho_s) + von_neumann_entropy(st.rho_e)
              - von_neumann_entropy(st.matrix))
        for j, (h, h_norm) in enumerate(zip(hs, h_norms)):
            s_rate = (-1j * np.trace(h @ k)).real
            _assert_close(entropy_rate(st, h), s_rate)
            bounds = rate_bounds(st, h, ns=(3, 4))
            _assert_close(bounds.entropy_rate, s_rate)
            _assert_close(bounds.purity_rate, m_rates[1, j])
            assert sorted(bounds.moment_rates) == [3, 4]
            _assert_close([bounds.moment_rates[3], bounds.moment_rates[4]], m_rates[2:, j])
            _assert_close(bounds.h_int_operator_norm, h_norm)
            _assert_close(bounds.ln_commutator_trace_norm, linalg.trace_norm(k))
            _assert_close(bounds.entropy_bound, h_norm * linalg.trace_norm(k))
            _assert_close(bounds.purity_bound, 2.0 * h_norm * linalg.trace_norm(c))
            if st.is_pure():
                # I itself, not the bound, whose square root magnifies roundoff in I
                _assert_close((bounds.mi_purity_bound / (4.0 * h_norm)) ** 2 / 2.0, mi)
            else:
                assert bounds.mi_purity_bound is None

    pure = _eigenbasis(st.matrix, st.ds)
    if not isinstance(pure, _RankOne):
        return
    dense = _dense(st.matrix, st.ds)
    if rank_deficient:
        for ev in (dense, pure):
            with pytest.raises(RankDeficientStateError):
                _rate_report(ev, hs, h_norms, (1, 3, 4))
        return
    _assert_reports_close(*(_rate_report(ev, hs, h_norms, (1, 3, 4)) for ev in (pure, dense)))


def _assert_reports_close(actual_report, expected_report):
    """Every RateReport field within 1e-12 (1 + |expected|), moment orders (1, 3, 4)."""
    for f in fields(RateReport):
        expected, actual = (getattr(r, f.name) for r in (expected_report, actual_report))
        if f.name == "moment_rates":
            assert sorted(actual) == sorted(expected) == [1, 3, 4]
            for n in expected:
                _assert_close(actual[n], expected[n])
        elif f.name == "h_int_norm_kind" or expected is None:
            assert actual == expected
        else:
            _assert_close(actual, expected)


@pytest.mark.parametrize("d", [1e-3, 1e-11])
@pytest.mark.parametrize("kind", ["ginibre", "pure", "product"])
@pytest.mark.parametrize("ds, de", [(1, 3), (3, 1), (2, 3), (3, 2), (4, 4)])
def test_regularized_evaluator_matches_the_formed_state(ds, de, kind, d):
    # (1-d) rho + d I/dim keeps rho_S's eigenvectors: the evaluator derived from
    # rho's reads the rates and bounds of the explicitly formed state; the pure
    # product has rank-one rho_S, which only the regularization makes full rank
    dim = ds * de
    seed = 10 * ds + de
    if kind == "ginibre":
        mat = ginibre_mixed(dim, dim, seed)
    else:
        chi = (haar_random_pure(dim, seed) if kind == "pure"
               else np.kron(haar_random_pure(ds, seed), haar_random_pure(de, seed + 1)))
        mat = np.outer(chi, chi.conj())
    hs = np.stack([random_hermitian(dim, derive_rng(seed, k)) for k in range(3)])
    h_norms = _operator_norm_hermitian(hs)
    derived = _regularized(_eigenbasis(mat, ds), d)
    formed = _dense((1.0 - d) * mat + d * np.eye(dim) / dim, ds)
    _assert_reports_close(*(_rate_report(ev, hs, h_norms, (1, 3, 4)) for ev in (derived, formed)))


@pytest.mark.parametrize("ds, de", [(2, 2), (2, 3), (3, 2)])
def test_stacked_rank_one_evaluator_matches_each_vector_bit_for_bit(ds, de):
    # an (n, dim) stack is read as vectors because the caller says so, also at
    # n = dim, where it has the shape of one density matrix
    dim = ds * de
    chis = np.stack([haar_random_pure(dim, derive_rng(70 + dim, k)) for k in range(dim)])
    h = random_hermitian(dim, 71)
    stacked = _eigenbasis(chis, ds, vectors=True)
    assert isinstance(stacked, _RankOne)
    names = ["lam", "u", "mat", "comm_trace_norm", "system_entropy", "environment_entropy",
             "negativity"]
    for k, chi in enumerate(chis):
        one = _eigenbasis(chi, ds, vectors=True)
        for name in names:
            a, b = np.asarray(getattr(stacked, name)[k]), np.asarray(getattr(one, name))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert stacked.flow(h)[k].tobytes() == one.flow(h).tobytes()


def test_only_eigenbasis_picks_the_evaluator():
    # one function chooses between the rank-one and the dense evaluator: the pure
    # gate and both builders are named nowhere else in the package but on their
    # own def lines
    pickers = {"_pure_vector", "_rank_one", "_dense"}
    src = Path(laziness.__file__).parent
    tree = ast.parse((src / "laziness.py").read_text())
    (chooser,) = [n for n in tree.body if getattr(n, "name", None) == "_eigenbasis"]
    inside = range(chooser.lineno, chooser.end_lineno + 1)
    stray = []
    for path in sorted(src.glob("*.py")):
        with tokenize.open(path) as fh:
            prev = None
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NAME and tok.string in pickers and prev != "def":
                    if not (path.name == "laziness.py" and tok.start[0] in inside):
                        stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
                prev = tok.string
    assert stray == []


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_pure_gate_prefilter_turns_away_no_state_the_gate_accepts(dim):
    # |chi><chi| + c dim eps I/sqrt(dim) spends the whole Frobenius budget on the
    # trace, the direction that widens (tr m)^2 - ||m||_F^2 fastest; the gate's
    # verdict must not change around its own threshold
    eps = np.finfo(float).eps
    chi = haar_random_pure(dim, derive_rng(912, dim))
    for c in np.linspace(0.1, 1.0, 10):
        mat = np.outer(chi, chi.conj()) + c * dim * eps * np.eye(dim) / np.sqrt(dim)
        k = int(np.argmax(mat.diagonal().real))
        col = mat[:, k] / np.sqrt(mat[k, k].real)
        accepted = np.linalg.norm(mat - np.outer(col, col.conj())) <= dim * eps
        assert (_pure_vector(mat) is not None) == accepted, c
