import numpy as np
import pytest
from numpy.testing import assert_allclose

from lazylab import (
    BipartiteState,
    RankDeficientStateError,
    decompose_hamiltonian,
    derive_rng,
    entropy_rate,
    evolve_exact,
    finite_difference_rate,
    ginibre_mixed,
    haar_random_pure,
    kron,
    laziness,
    laziness_commutator,
    linalg,
    maximally_entangled,
    moments,
    product_state,
    pure_state,
    random_hermitian,
    rate_bounds,
    record_trajectory,
    von_neumann_entropy,
)
from lazylab.laziness import default_lazy_tolerance
from lazylab.linalg import DENSITY_TOL

from .conftest import (
    SIGMA_X,
    SIGMA_Z,
    random_full_rank_state,
    random_pure_bipartite,
    schmidt_pure_vector,
)


# ------------------------------------------------------------- decompose


def test_decompose_purely_local():
    triple = decompose_hamiltonian(kron(SIGMA_Z, np.eye(2)), 2, 2)
    assert np.linalg.norm(triple.h_int) < 1e-14
    assert_allclose(triple.h_s, SIGMA_Z, atol=1e-14)
    assert np.linalg.norm(triple.h_e) < 1e-14


def test_decompose_pure_interaction():
    h = kron(SIGMA_Z, SIGMA_Z)
    triple = decompose_hamiltonian(h, 2, 2)
    assert_allclose(triple.h_int, h, atol=1e-14)
    assert np.linalg.norm(triple.h_s) < 1e-14
    assert np.linalg.norm(triple.h_e) < 1e-14


def test_decompose_gue_partial_traces_and_reassembly():
    h = random_hermitian(9, 37)
    triple = decompose_hamiltonian(h, 3, 3)
    scale = np.linalg.norm(triple.h_int)
    assert np.linalg.norm(linalg.partial_trace(triple.h_int, 3, 3, "system")) < 1e-12 * scale
    assert np.linalg.norm(linalg.partial_trace(triple.h_int, 3, 3, "environment")) < 1e-12 * scale
    assert np.linalg.norm(triple.reassemble() - h) < 1e-12 * (1 + np.linalg.norm(h))


def test_decompose_reassemble_identity_many_dims():
    for trial, (ds, de) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]):
        h = random_hermitian(ds * de, derive_rng(1200, trial))
        triple = decompose_hamiltonian(h, ds, de)
        assert np.linalg.norm(triple.reassemble() - h) < 1e-12 * (1 + np.linalg.norm(h))
        for part, d in ((triple.h_s, ds), (triple.h_e, de), (triple.h_int, ds * de)):
            assert np.linalg.norm(part - part.conj().T) < 1e-10


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose_hamiltonian(np.triu(np.ones((4, 4))), 2, 2)
    with pytest.raises(ValueError):
        decompose_hamiltonian(random_hermitian(6, 1), 2, 2)


# ---------------------------------------------------------------- evolve


def test_evolve_zero_time_and_zero_hamiltonian():
    st = random_full_rank_state(2, 2, 9)
    out = evolve_exact(st, random_hermitian(4, 10), 0.0)
    assert_allclose(out.matrix, st.matrix, atol=1e-12)
    out = evolve_exact(st, np.zeros((4, 4)), 2.7)
    assert_allclose(out.matrix, st.matrix, atol=1e-12)


def test_evolve_rabi_oscillation():
    # dS=2, dE=1 edge case: H = sigma_x, rho(0) = |0><0|
    st = BipartiteState(ds=2, de=1, matrix=np.diag([1.0, 0.0]).astype(complex))
    for t in (0.3, 1.1, 2.0):
        out = evolve_exact(st, SIGMA_X, t)
        assert out.matrix[0, 0].real == pytest.approx(np.cos(t) ** 2, abs=1e-12)


def test_evolve_preserves_spectrum_and_composes():
    st = random_full_rank_state(2, 3, 41)
    h = random_hermitian(6, 42)
    out = evolve_exact(st, h, 0.83)
    assert np.linalg.norm(
        np.linalg.eigvalsh(out.matrix) - np.linalg.eigvalsh(st.matrix)
    ) < 1e-9
    two_step = evolve_exact(evolve_exact(st, h, 0.4), h, 0.43)
    assert np.linalg.norm(two_step.matrix - out.matrix) < 1e-9


# ------------------------------------------------------ finite difference


def test_fd_lazy_state_zero():
    st = product_state(ginibre_mixed(2, 2, 51), ginibre_mixed(2, 2, 52))
    h = random_hermitian(4, 53)
    assert abs(finite_difference_rate(st, h, "entropy")) < 1e-8


def test_fd_first_moment_zero():
    st = random_full_rank_state(2, 2, 54)
    h = random_hermitian(4, 55)
    assert abs(finite_difference_rate(st, h, "moment", n=1)) < 1e-10


def test_fd_matches_analytic_with_h_squared_convergence():
    st = random_full_rank_state(2, 2, 61)
    h_tot = random_hermitian(4, 62)
    h_int = decompose_hamiltonian(h_tot, 2, 2).h_int
    analytic = entropy_rate(st, h_int)
    fd = finite_difference_rate(st, h_tot, "entropy", h=1e-5)
    assert abs(fd - analytic) / abs(analytic) <= 1e-5
    # Richardson step: truncation drops by ~4 when h halves
    e1 = abs(finite_difference_rate(st, h_tot, "entropy", h=1e-3) - analytic)
    e2 = abs(finite_difference_rate(st, h_tot, "entropy", h=5e-4) - analytic)
    assert 2.5 < e1 / e2 < 6.0
    # extrapolation kills the leading term: beats the plain stencil
    ex = abs(finite_difference_rate(st, h_tot, "entropy", h=1e-3, richardson=True) - analytic)
    assert ex < e2 / 10.0


def test_fd_degenerate_full_rank_spectrum():
    # rho_S with a degenerate pair but full rank: the exact formula still
    # matches the independent finite-difference route
    vec = schmidt_pure_vector([0.4, 0.4, 0.2], seed=7)
    st = pure_state(vec, 3, 3)
    h_tot = random_hermitian(9, 71)
    h_int = decompose_hamiltonian(h_tot, 3, 3).h_int
    analytic = entropy_rate(st, h_int)
    fd = finite_difference_rate(st, h_tot, "entropy", h=1e-5)
    assert abs(fd - analytic) / max(abs(analytic), 1e-12) < 1e-5


def test_fd_rejects_bad_step_and_observable():
    st = random_full_rank_state(2, 2, 3)
    with pytest.raises(ValueError):
        finite_difference_rate(st, random_hermitian(4, 4), "entropy", h=0.0)
    with pytest.raises(ValueError):
        finite_difference_rate(st, random_hermitian(4, 4), "energy")


@pytest.mark.parametrize("step", [np.nan, np.inf, -1.0, 0.0])
def test_fd_refuses_a_step_that_is_not_finite_and_positive(step):
    st = random_full_rank_state(2, 2, 3)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        finite_difference_rate(st, random_hermitian(4, 4), "moment", h=step)


def test_fd_entropy_advises_on_rank_deficiency():
    from lazylab import RankDeficientStateError, regularize_state

    # environment-only drive keeps rho_S = |0><0| rank deficient at +-h
    st = pure_state(schmidt_pure_vector([1.0, 0.0]), 2, 2)
    h = kron(np.eye(2), SIGMA_X)
    with pytest.raises(RankDeficientStateError, match="smaller step or regularize"):
        finite_difference_rate(st, h, "entropy")
    # moments stay computable, and a regularized state unblocks the entropy route
    assert np.isfinite(finite_difference_rate(st, h, "moment", n=2))
    assert np.isfinite(finite_difference_rate(regularize_state(st, 1e-4), h, "entropy"))


def test_fd_diagonalizes_each_evolved_rho_s_once(monkeypatch):
    # one eigvalsh per evolved state serves both the floor check and the entropy
    ds, de = 2, 3
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.shape(a)[-2:] == (ds, ds):
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    st = random_full_rank_state(ds, de, 41)
    h_tot = random_hermitian(ds * de, 42)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    finite_difference_rate(st, h_tot, "entropy")
    assert len(calls) == 2


# ------------------------------------------------------------ trajectory


def test_trajectory_constant_entropy_without_interaction():
    st = product_state(ginibre_mixed(2, 2, 81), ginibre_mixed(2, 2, 82))
    h_local = kron(random_hermitian(2, 83), np.eye(2)) + kron(np.eye(2), random_hermitian(2, 84))
    traj = record_trajectory(st, h_local, np.linspace(0.0, 2.0, 9))
    entropies = [rec.entropy for rec in traj.records]
    assert max(entropies) - min(entropies) < 1e-10
    for rec in traj.records:
        assert abs(rec.entropy_rate) < 1e-10


def test_trajectory_bell_quadratic_start():
    bell = maximally_entangled(2)
    h = random_hermitian(4, 85)
    times = np.array([0.0] + [0.005 * 2**k for k in range(6)])
    traj = record_trajectory(bell, h, times)
    assert traj.records[0].entropy == pytest.approx(np.log(2), abs=1e-12)
    assert abs(traj.records[0].entropy_rate) < 1e-9
    # |S(t) - ln 2| = O(t^2): fitted exponent on the geometric grid ~ 2
    ts = times[1:]
    devs = np.array([abs(rec.entropy - np.log(2)) for rec in traj.records[1:]])
    slope, _ = np.polyfit(np.log(ts), np.log(devs), 1)
    assert 1.8 < slope < 2.2


def test_trajectory_bound_dominates_rate():
    st = product_state(ginibre_mixed(2, 2, 86), ginibre_mixed(2, 2, 87))
    h = kron(SIGMA_Z, SIGMA_Z) + kron(SIGMA_X, np.eye(2)) + kron(np.eye(2), SIGMA_X)
    traj = record_trajectory(st, h, np.linspace(0.0, 3.0, 13), ns=(3,))
    for rec in traj.records:
        assert abs(rec.entropy_rate) <= rec.entropy_bound + 1e-9
        assert abs(rec.purity_rate) <= rec.purity_bound + 1e-9
        assert 0.0 <= rec.entropy <= np.log(2) + 1e-12
        assert 0.5 - 1e-12 <= rec.purity <= 1.0 + 1e-12
        assert 3 in rec.moment_values


def test_trajectory_total_purity_constant():
    st = random_full_rank_state(2, 2, 88)
    h = random_hermitian(4, 89)
    traj = record_trajectory(st, h, np.linspace(0.0, 1.5, 7))
    # recompute total purity along the way via an independent evolution
    vals = []
    for t in traj.times:
        out = evolve_exact(st, h, float(t))
        vals.append(out.purity())
    assert max(vals) - min(vals) < 1e-9


def test_trajectory_lazy_instants_have_tiny_rates():
    bell = maximally_entangled(2)
    h = random_hermitian(4, 90)
    triple = decompose_hamiltonian(h, 2, 2)
    traj = record_trajectory(bell, h, np.linspace(0.0, 0.5, 5))
    tol = 1e-10 * 4
    ceiling = 10.0 * tol * linalg.operator_norm(triple.h_int)
    for rec in traj.records:
        if rec.comm_trace_norm < tol:
            assert abs(rec.entropy_rate) < max(ceiling, 1e-12)


def test_trajectory_validates_times():
    st = random_full_rank_state(2, 2, 91)
    h = random_hermitian(4, 92)
    with pytest.raises(ValueError):
        record_trajectory(st, h, [0.3, 0.1])
    with pytest.raises(ValueError):
        record_trajectory(st, h, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_refuses_non_finite_times(bad):
    st = random_full_rank_state(2, 2, 91)
    with pytest.raises(ValueError, match="times must be finite"):
        record_trajectory(st, random_hermitian(4, 92), [0.0, 0.5, bad])


def _lam_min_at_edge(dim, seed):
    """A density matrix with lam_min = -DENSITY_TOL exactly, trace 1."""
    w, v = np.linalg.eigh(ginibre_mixed(dim, dim - 1, seed))
    w[0] = -DENSITY_TOL
    w[-1] += DENSITY_TOL
    m = (v * w) @ linalg.dagger(v)
    return (m + linalg.dagger(m)) / 2


@pytest.mark.parametrize("ds, de", [(2, 2), (2, 3), (4, 4)])
def test_trajectory_completes_for_every_rho0_its_state_accepted(ds, de):
    # evolution moves the trace and lam_min of rho0 by roundoff; a rho0 that
    # BipartiteState accepted at the edge of DENSITY_TOL must not be refused
    # at a later step (lam_min < 0 needs regularize for the entropy rate);
    # at 2x3, seed 7 with trace 1 + DENSITY_TOL was refused already at t = 0
    dim = ds * de
    h_tot = random_hermitian(dim, 107)
    times = np.linspace(0.0, 2.0, 21)
    runs = 0
    for seed in range(20):
        edges = [
            (ginibre_mixed(dim, dim, seed) * (1 + DENSITY_TOL), (None, 1e-3)),
            (ginibre_mixed(dim, dim, seed) * (1 - DENSITY_TOL), (None, 1e-3)),
            (_lam_min_at_edge(dim, seed), (1e-3,)),
        ]
        for mat, regularizations in edges:
            try:
                rho0 = BipartiteState(ds=ds, de=de, matrix=mat)
            except ValueError:
                continue
            for regularize in regularizations:
                traj = record_trajectory(rho0, h_tot, times, regularize=regularize)
                assert np.isfinite([rec.entropy_rate for rec in traj.records]).all()
                runs += 1
    assert runs >= 20


def test_trajectory_checks_its_inputs_once(monkeypatch):
    # rho0 was validated when it was built: no step builds or re-validates a
    # state, and regularize builds none either (its evaluator is derived)
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    states = {
        "mixed": BipartiteState(ds=4, de=4, matrix=ginibre_mixed(16, 16, 5)),
        "pure": pure_state(haar_random_pure(16, 6), 4, 4),
    }
    h_tot = random_hermitian(16, 7)
    monkeypatch.setattr(np.linalg, "cholesky", counting)
    for kind, rho0 in states.items():
        for regularize in (None, 1e-3):
            record_trajectory(rho0, h_tot, np.linspace(0, 1, 5), regularize=regularize)
            assert calls == [], (kind, regularize, calls)


def _near_pure(ds, de, seed):
    """(1 - 1e-9) |chi><chi| + 1e-9 I/dim: full rank, yet within 1e-9 of pure."""
    rho = random_pure_bipartite(ds, de, seed).matrix
    dim = ds * de
    return BipartiteState(ds=ds, de=de, matrix=(1 - 1e-9) * rho + 1e-9 * np.eye(dim) / dim)


TRAJECTORY_STATES = {
    "mixed": random_full_rank_state,
    "pure": random_pure_bipartite,
    "maxent": lambda ds, de, seed: maximally_entangled(ds),
    "product": lambda ds, de, seed: pure_state(
        np.kron(haar_random_pure(ds, seed), haar_random_pure(de, seed + 1)), ds, de
    ),
    "near_pure": _near_pure,
}
LAZY_AT_START = ("maxent", "product")


@pytest.mark.parametrize("regularize", [None, 1e-3])
@pytest.mark.parametrize(
    "ds, de, kind",
    [(ds, de, kind) for ds, de in [(2, 2), (2, 3), (3, 2), (8, 8)] for kind in ("mixed", "pure")]
    + [(2, 2, "maxent"), (3, 3, "maxent"), (1, 3, "product"), (2, 3, "product")]
    + [(2, 3, "near_pure"), (8, 8, "near_pure")],
)
def test_trajectory_matches_single_state_functions(ds, de, kind, regularize):
    seed = 10 * ds + de
    rho0 = TRAJECTORY_STATES[kind](ds, de, seed)
    h_tot = random_hermitian(ds * de, seed + 1)
    h_int = decompose_hamiltonian(h_tot, ds, de).h_int
    times = np.array([0.0, 0.15, 0.6, 1.3])
    ns = (3, 10)
    if kind == "pure" and ds > de and regularize is None:
        # rho_S has rank de < ds: both sides refuse the entropy rate
        with pytest.raises(RankDeficientStateError):
            record_trajectory(rho0, h_tot, times, ns=ns)
        with pytest.raises(RankDeficientStateError):
            rate_bounds(evolve_exact(rho0, h_tot, times[1]), h_int, ns)
        return
    if kind == "product" and ds > 1 and regularize is None:
        # rho_S starts with rank 1 < ds
        with pytest.raises(RankDeficientStateError):
            record_trajectory(rho0, h_tot, times, ns=ns)
        with pytest.raises(RankDeficientStateError):
            rate_bounds(rho0, h_int, ns)
        return

    traj = record_trajectory(rho0, h_tot, times, ns=ns, regularize=regularize)
    assert_allclose(traj.times, times, rtol=0, atol=0)
    if kind in LAZY_AT_START:
        assert traj.records[0].comm_trace_norm <= default_lazy_tolerance(ds, de)
    for t, rec in zip(times, traj.records):
        state = evolve_exact(rho0, h_tot, float(t))
        power_sums = moments(state.rho_s, (2, *ns))
        report = rate_bounds(state, h_int, ns, regularize=regularize)
        expected = {
            "entropy": von_neumann_entropy(state.rho_s),
            "purity": power_sums[2],
            "comm_trace_norm": laziness_commutator(state).trace_norm,
            "entropy_rate": report.entropy_rate,
            "entropy_bound": report.entropy_bound,
            "purity_rate": report.purity_rate,
            "purity_bound": report.purity_bound,
        }
        expected.update({f"moment_{n}": power_sums[n] for n in ns})
        got = {name: getattr(rec, name) for name in expected if not name.startswith("moment")}
        got.update({f"moment_{n}": rec.moment_values[n] for n in ns})
        for name, want in expected.items():
            assert abs(got[name] - want) <= 1e-12 * (1.0 + abs(want)), (t, name, got[name], want)


@pytest.mark.parametrize(
    "make, per_step, regularize",
    [
        pytest.param(random_pure_bipartite, 0, None, id="random_pure_bipartite-0"),
        pytest.param(random_full_rank_state, 2, None, id="random_full_rank_state-2"),
        (random_pure_bipartite, 0, 1e-3),
        (random_full_rank_state, 2, 1e-3),
    ],
)
def test_trajectory_factorizations_per_step(monkeypatch, make, per_step, regularize):
    # pure states take the rank-one path: no dim x dim eigensolve per step,
    # only the one-off ||H_int||; mixed ones need ||C||_1 and ||K||_1 per step.
    # The regularized rates add none: ||C_r||_1 = (1-d)^2 ||C||_1, and K_r is
    # read from the same rotated state (closed form when pure)
    ds = de = 4
    steps = 5
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.shape(a)[-2:] == (ds * de, ds * de):
            calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    rho0 = make(ds, de, 95)
    h_tot = random_hermitian(ds * de, 96)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    record_trajectory(rho0, h_tot, np.linspace(0.0, 0.4, steps), ns=(3,), regularize=regularize)
    assert len(calls) == per_step * steps + 1


def test_pure_trajectory_forms_the_dense_state_only_to_regularize(monkeypatch):
    # the rank-one rates read chi(t) alone; only the regularized state is built
    # from |chi(t)><chi(t)|. rho0's own evaluator, which keeps rho0's matrix,
    # is built before the steps' are counted
    made = []
    rank_one = laziness._rank_one

    def keeping(*args):
        made.append(rank_one(*args))
        return made[-1]

    rho0 = random_pure_bipartite(3, 3, 41)
    h_tot = random_hermitian(9, 42)
    assert isinstance(laziness._evaluator(rho0), laziness._RankOne)
    monkeypatch.setattr(laziness, "_rank_one", keeping)
    for regularize in (None, 1e-3):
        made.clear()
        record_trajectory(rho0, h_tot, np.linspace(0.0, 0.5, 4), regularize=regularize)
        assert [("mat" in vars(ev)) for ev in made] == [regularize is not None] * 4
