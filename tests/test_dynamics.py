import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lazylab import (
    BipartiteState,
    RankDeficientStateError,
    decompose_hamiltonian,
    derive_rng,
    dynamics,
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
    regularize_state,
    von_neumann_entropy,
)
from lazylab.dynamics import TrajectoryRecord
from lazylab.laziness import default_lazy_tolerance
from lazylab.linalg import DENSITY_TOL

from .conftest import (
    FACTORIZATIONS,
    SIGMA_X,
    SIGMA_Z,
    _same_bits,
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


@pytest.mark.parametrize("ds,de", [(2, 2), (2, 3), (3, 2), (4, 4)])
def test_decompose_stacked_matches_per_matrix_bit_for_bit(ds, de):
    hs = np.stack([random_hermitian(ds * de, derive_rng(1300, k)) for k in range(5)])
    stacked = decompose_hamiltonian(hs, ds, de)
    for k, h in enumerate(hs):
        single = decompose_hamiltonian(h, ds, de)
        for part in ("h_s", "h_e", "h_int"):
            a, b = getattr(stacked, part)[k], getattr(single, part)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), part


def test_decompose_stacked_names_the_failing_hamiltonian():
    hs = np.stack([random_hermitian(6, derive_rng(1301, k)) for k in range(4)])
    hs[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="h_tot is not Hermitian") as err:
        decompose_hamiltonian(hs, 2, 3)
    assert err.value.index == 2


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
    # one eigh of H_tot per call, Richardson's four evolutions included, and one
    # eigvalsh per evolved state serves both the floor check and the entropy
    ds, de = 2, 3
    matrices = Counter()

    def counting(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            matrices[name, np.shape(a)[-1]] += int(np.prod(np.shape(a)[:-2]))
            return real(a, *args, **kwargs)

        return call

    st = random_full_rank_state(ds, de, 41)
    h_tot = random_hermitian(ds * de, 42)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    for richardson, evolved in ((False, 2), (True, 4)):
        matrices.clear()
        finite_difference_rate(st, h_tot, "entropy", richardson=richardson)
        assert matrices == {("eigh", ds * de): 1, ("eigvalsh", ds): evolved}


def test_fd_and_evolve_check_and_split_h_tot_once(checks):
    # the Richardson rate evolved four rebuilt states (8 Hermiticity checks, 4 eigh,
    # 4 Cholesky) and evolve_exact checked its result again (2, 1, 1)
    st = pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)
    rho, h_tot = regularize_state(st, 0.1), random_hermitian(4, 7)
    for call in (
        lambda: finite_difference_rate(rho, h_tot, "entropy", richardson=True),
        lambda: evolve_exact(st, h_tot, 0.3),
    ):
        checks.clear()
        call()
        assert (checks["hermitian"], checks["eigh"], checks["cholesky"]) == (1, 1, 0)


def _fd_reference(st, h_tot, observable, n, h):
    """The central difference over two evolved states: evolve_exact to +-h, then the
    eigvalsh of each rho_S."""
    f = []
    for t in (h, -h):
        lam = np.linalg.eigvalsh(evolve_exact(st, h_tot, t).rho_s)
        if observable == "entropy":
            f.append(laziness._spectral_entropy(lam))
        else:
            f.append(laziness._power_sums(lam, [n])[n])
    return (f[0] - f[1]) / (2.0 * h)


@pytest.mark.parametrize("observable, n", [("entropy", 2), ("moment", 2), ("moment", 3)])
def test_fd_equals_the_stencil_of_evolved_states_bit_for_bit(observable, n):
    states = (
        pure_state(schmidt_pure_vector([0.7, 0.3], seed=3), 2, 2),
        random_full_rank_state(2, 3, 81),
        BipartiteState(ds=3, de=2, matrix=ginibre_mixed(6, 4, 82)),
        regularize_state(random_pure_bipartite(3, 3, 83), 0.05),
    )
    for k, st in enumerate(states):
        h_tot = random_hermitian(st.dim, 90 + k)
        for h in (1e-5, 1e-3):
            coarse = _fd_reference(st, h_tot, observable, n, h)
            fine = _fd_reference(st, h_tot, observable, n, h / 2.0)
            rate = finite_difference_rate(st, h_tot, observable, n=n, h=h)
            extrapolated = finite_difference_rate(st, h_tot, observable, n=n, h=h, richardson=True)
            assert type(rate) is float and rate == coarse
            assert type(extrapolated) is float and extrapolated == (4.0 * fine - coarse) / 3.0


def test_fd_of_stacked_hamiltonians_equals_each_ones_bit_for_bit():
    st = random_full_rank_state(2, 3, 84)
    hs = np.stack([random_hermitian(6, 850 + k) for k in range(6)])  # n = dim
    spec = linalg.hermitian_eig(hs)
    for observable, n in (("entropy", 2), ("moment", 2), ("moment", 3)):
        for richardson in (False, True):
            rates = dynamics._fd_rate(st, spec, observable, n, 1e-4, richardson)
            singles = [
                finite_difference_rate(st, h, observable, n=n, h=1e-4, richardson=richardson)
                for h in hs
            ]
            assert _same_bits(rates, singles)


@pytest.mark.parametrize(
    "t, message",
    [
        (np.inf, r"^t must be finite, got inf$"),
        (-np.inf, r"^t must be finite, got -inf$"),
        (np.nan, r"^t must be finite, got nan$"),
        (1e308, r"^times up to \|t\| = 1e\+308 overflow the phases exp\(-i E t\), \|E\| up to "),
        (-1e308, r"^times up to \|t\| = 1e\+308 overflow the phases exp\(-i E t\), \|E\| up to "),
    ],
)
def test_evolve_exact_refuses_a_time_it_cannot_evolve_to(t, message):
    # refused before any phase is formed: no numpy warning, which tier-1 turns into an error
    st = random_full_rank_state(2, 2, 86)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            evolve_exact(st, random_hermitian(4, 87), t)
        # with no energy to multiply, a huge finite time is a phase of 0
        if np.isfinite(t):
            assert _same_bits(evolve_exact(st, np.zeros((4, 4)), t).matrix, st.matrix)


_OVERFLOW = r"^times up to \|t\| = 1e\+308 overflow the phases exp\(-i E t\), \|E\| up to "
_DIMS = r"^h_tot shape \(6, 6\) does not match dims \(2, 2\)$"
_ORDER = r"^moment order must be an integer >= 1, got 0$"
_WEIGHT = r"^regularization weight must be in \(0, 1\), got 2\.0$"


@pytest.mark.parametrize(
    "call, message, eighs",
    [
        # a time is read against H_tot's energies: refused right after their one eigh
        (lambda st, h, h6, h_int: evolve_exact(st, h, 1e308), _OVERFLOW, 1),
        (lambda st, h, h6, h_int: finite_difference_rate(st, h, h=1e308), _OVERFLOW, 1),
        (lambda st, h, h6, h_int: linalg.unitary_from_hamiltonian(h, -1e308), _OVERFLOW, 1),
        (lambda st, h, h6, h_int: record_trajectory(st, h, [0.0, 1e308]), _OVERFLOW, 1),
        # every other input is refused before any factorization
        (lambda st, h, h6, h_int: evolve_exact(st, h6, 0.1), _DIMS, 0),
        (lambda st, h, h6, h_int: finite_difference_rate(st, h6), _DIMS, 0),
        (lambda st, h, h6, h_int: finite_difference_rate(st, h, "moment", n=0), _ORDER, 0),
        (lambda st, h, h6, h_int: record_trajectory(st, h, [0.0, 1.0], ns=(0,)), _ORDER, 0),
        (lambda st, h, h6, h_int: record_trajectory(st, h, [0.0, 1.0], regularize=2.0), _WEIGHT, 0),
        (lambda st, h, h6, h_int: rate_bounds(st, h_int, ns=(0,)), _ORDER, 0),
        (lambda st, h, h6, h_int: rate_bounds(st, h_int, regularize=2.0), _WEIGHT, 0),
        (lambda st, h, h6, h_int: entropy_rate(st, h_int, regularize=2.0), _WEIGHT, 0),
    ],
    ids=["evolve-time", "fd-step", "unitary-time", "trajectory-times", "evolve-dims", "fd-dims",
         "fd-n", "trajectory-ns", "trajectory-regularize", "bounds-ns", "bounds-regularize",
         "entropy-rate-regularize"],
)
def test_each_input_is_refused_before_the_factorizations_it_does_not_need(
    call, message, eighs, checks
):
    # the state's evaluator is not built yet, so its eigh would be counted too
    st = random_full_rank_state(2, 2, 86)
    h_int = decompose_hamiltonian(random_hermitian(4, 89), 2, 2).h_int
    args = (st, random_hermitian(4, 87), random_hermitian(6, 88), h_int)
    checks.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(*args)
    assert Counter({f: checks[f] for f in FACTORIZATIONS}) == Counter(eigh=eighs)


def test_fd_takes_a_step_whose_double_overflows():
    # 2h overflows from h ~ 9e307: the quotient divides by h, then by 2, so a step whose
    # phases E h stay finite gives a finite rate with no numpy warning
    st = random_full_rank_state(2, 2, 86)
    h = random_hermitian(4, 87)
    h = h / np.abs(np.linalg.eigvalsh(h)).max()  # |E| <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for observable in ("entropy", "moment"):
            assert np.isfinite(finite_difference_rate(st, h, observable, h=1e308, richardson=True))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_refuses_non_finite_times(bad):
    st = random_full_rank_state(2, 2, 91)
    with pytest.raises(ValueError, match="times must be finite"):
        record_trajectory(st, random_hermitian(4, 92), [0.0, 0.5, bad])


@pytest.mark.parametrize("times", [[0.0, 1e308], [-1e308, 0.0, 1.0]])
def test_trajectory_refuses_times_whose_phases_overflow(times):
    # finite times with an infinite E t are refused before exp(-i E t) is formed,
    # with no numpy warning, on the mixed and the pure path; |t| = 1e17 is kept
    h = random_hermitian(4, 92)
    for st in (random_full_rank_state(2, 2, 91), pure_state(schmidt_pure_vector([0.8, 0.2]), 2, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^times up to \|t\| = 1e\+308 overflow the phases"):
                record_trajectory(st, h, times)
            assert len(record_trajectory(st, h, [0.0, 1e17]).records) == 2


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


def test_trajectory_checks_its_inputs_once(checks):
    # rho0 was validated when it was built: no step builds or re-validates a
    # state, and regularize builds none either (its evaluator is derived)
    states = {
        "mixed": BipartiteState(ds=4, de=4, matrix=ginibre_mixed(16, 16, 5)),
        "pure": pure_state(haar_random_pure(16, 6), 4, 4),
    }
    h_tot = random_hermitian(16, 7)
    checks.clear()
    for kind, rho0 in states.items():
        for regularize in (None, 1e-3):
            record_trajectory(rho0, h_tot, np.linspace(0, 1, 5), regularize=regularize)
            assert checks["cholesky"] == 0, (kind, regularize)


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
    _assert_single_state_records(traj, rho0, h_tot, ns, regularize)


@pytest.mark.parametrize("regularize", [None, 1e-3])
@pytest.mark.parametrize("kind", ["mixed", "near_pure"])
@pytest.mark.parametrize("ds, de", [(8, 8), (2, 3), (3, 2)])
def test_trajectory_matches_single_state_functions_at_late_times(ds, de, kind, regularize):
    # phases E t of order 100 rad: a wrong sign or index in Φ_kl = φ_k conj(φ_l)
    # would move every record, where at short times it could stay under 1e-12
    seed = 10 * ds + de + 5
    rho0 = TRAJECTORY_STATES[kind](ds, de, seed)
    h_tot = random_hermitian(ds * de, seed + 1)
    ns = (3,)
    traj = record_trajectory(rho0, h_tot, [0.0, 12.5, 40.0, 137.0], ns=ns, regularize=regularize)
    _assert_single_state_records(traj, rho0, h_tot, ns, regularize)


def _assert_single_state_records(traj, rho0, h_tot, ns, regularize):
    """Each record matches the single-state functions at its time to 1e-12."""
    h_int = decompose_hamiltonian(h_tot, rho0.ds, rho0.de).h_int
    for t, rec in zip(traj.times, traj.records):
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


def _per_step_records(rho0, h_tot, times, ns, regularize):
    """The trajectory evaluated one step at a time, each step's evaluator built by
    _eigenbasis from its own V (rho_h ∘ Φ) V†, Φ_kl = φ_k conj(φ_l), or chi(t) = W V† chi."""
    triple = decompose_hamiltonian(h_tot, rho0.ds, rho0.de)
    spec = linalg.hermitian_eig(triple.reassemble())
    v = spec.eigenvectors
    h_norm = float(np.abs(np.linalg.eigvalsh(triple.h_int)).max())
    ev0 = laziness._evaluator(rho0)
    pure = isinstance(ev0, laziness._RankOne)
    rho_h = linalg.dagger(v) @ ev0.chi if pure else linalg.dagger(v) @ rho0.matrix @ v
    records = []
    for t in times:
        phase = np.exp(-1j * spec.eigenvalues * t)
        if pure:
            state = v @ (phase * rho_h)
        else:  # W rho_h W† = V (rho_h ∘ Φ) V† as it is; the dense evaluator symmetrizes its rho_S
            state = v @ (rho_h * np.outer(phase, phase.conj())) @ linalg.dagger(v)
        ev = laziness._eigenbasis(state, rho0.ds, vectors=pure)
        report = laziness._rate_report(laziness._regularized(ev, regularize), triple.h_int, h_norm, ())
        records.append(
            TrajectoryRecord(
                entropy=laziness._spectral_entropy(ev.lam),
                purity=float((ev.lam**2).sum()),
                moment_values={n: float((ev.lam**n).sum()) for n in ns},
                comm_trace_norm=ev.comm_trace_norm,
                entropy_rate=report.entropy_rate,
                entropy_bound=report.entropy_bound,
                purity_rate=report.purity_rate,
                purity_bound=report.purity_bound,
            )
        )
    return records


def _rank_deficient_at(ds, de, tau, seed):
    """H_tot and a full-rank mixed rho0 whose rho_S(tau) has rank 1: the state
    |0><0| (x) I/de evolved back by tau."""
    dim = ds * de
    h_tot = random_hermitian(dim, seed)
    sigma = np.zeros((dim, dim), dtype=complex)
    sigma[:de, :de] = np.eye(de) / de
    u = linalg.unitary_from_hamiltonian(h_tot, -tau)
    mat = u @ sigma @ linalg.dagger(u)
    return h_tot, BipartiteState(ds=ds, de=de, matrix=(mat + linalg.dagger(mat)) / 2)


@pytest.mark.parametrize("regularize", [None, 1e-3])
@pytest.mark.parametrize("kind", ["mixed", "pure", "near_pure"])
def test_trajectory_chunks_match_per_step_evaluation(monkeypatch, kind, regularize):
    # 11 steps at 8x8 run in chunks of 4, 4 and 3: 2^14 / 64^2 = 4 mixed steps each,
    # and 4 pure ones of 64 entries under a bound shrunk to 4 * 64 entries
    ds = de = 8
    entries = ds * de if kind == "pure" else (ds * de) ** 2
    if kind == "pure":
        monkeypatch.setattr(laziness, "_CHUNK_ENTRIES", 4 * ds * de)
    times = np.linspace(0.0, 1.0, 11)
    assert [len(c) for c in laziness._chunks(times.size, entries)] == [4, 4, 3]
    ns = (3,)
    rho0 = TRAJECTORY_STATES[kind](ds, de, 61)
    h_tot = random_hermitian(ds * de, 62)
    traj = record_trajectory(rho0, h_tot, times, ns=ns, regularize=regularize)
    _assert_single_state_records(traj, rho0, h_tot, ns, regularize)
    # the stacked evaluators reproduce the per-step ones bit for bit
    expected = _per_step_records(rho0, h_tot, times, ns, regularize)
    assert [repr(rec) for rec in traj.records] == [repr(rec) for rec in expected]


def test_trajectory_refusal_in_a_later_chunk_keeps_its_message():
    # rho_S(t) is rank one at the fifth step, the first of the second chunk
    ds = de = 8
    times = np.linspace(0.0, 1.0, 11)
    h_tot, rho0 = _rank_deficient_at(ds, de, times[4], 63)
    with pytest.raises(RankDeficientStateError) as per_step:
        _per_step_records(rho0, h_tot, times, (), None)
    with pytest.raises(RankDeficientStateError, match="^rho_S has eigenvalue") as chunked:
        record_trajectory(rho0, h_tot, times)
    assert str(chunked.value) == str(per_step.value)
    assert len(_per_step_records(rho0, h_tot, times[:4], (), None)) == 4
    regularized = record_trajectory(rho0, h_tot, times, regularize=1e-3)
    assert np.isfinite([rec.entropy_rate for rec in regularized.records]).all()


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
    # read from the same rotated state (closed form when pure). Matrices are
    # counted per step, calls per chunk of two steps
    ds = de = 4
    steps, chunk = 5, 2
    matrices, calls = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shape = np.shape(a)
        if shape[-2:] == (ds * de, ds * de):
            matrices.append(int(np.prod(shape[:-2])))
        return eigvalsh(a, *args, **kwargs)

    rho0 = make(ds, de, 95)
    h_tot = random_hermitian(ds * de, 96)
    monkeypatch.setattr(laziness, "_CHUNK_ENTRIES", chunk * (ds * de) ** 2)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    record_trajectory(rho0, h_tot, np.linspace(0.0, 0.4, steps), ns=(3,), regularize=regularize)
    assert sum(matrices) == per_step * steps + 1
    assert len(matrices) == (2 * -(-steps // chunk) if per_step else 0) + 1


def test_pure_trajectory_forms_the_dense_state_only_to_regularize(monkeypatch):
    # the rank-one rates read chi(t) alone, and the regularized ones read the
    # rank-one evaluator's, so no chunk forms |chi(t)><chi(t)|, regularized or not.
    # rho0's own evaluator is built before the chunks' are counted
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
        assert not any("mat" in vars(ev) for ev in made)
        assert sum(len(ev.chi) for ev in made) == 4


def test_pure_trajectory_runs_256_steps_per_chunk(monkeypatch):
    # a pure chunk stacks (n, 64) vectors, so the 2^14-entry bound holds 256 steps
    # at 8x8, where (n, 64, 64) matrices would hold 4. rho0's own evaluator is
    # built before the chunks' are counted
    made = []
    rank_one = laziness._rank_one

    def keeping(*args):
        made.append(rank_one(*args))
        return made[-1]

    rho0 = random_pure_bipartite(8, 8, 43)
    assert isinstance(laziness._evaluator(rho0), laziness._RankOne)
    monkeypatch.setattr(laziness, "_rank_one", keeping)
    record_trajectory(rho0, random_hermitian(64, 44), np.linspace(0.0, 3.0, 300))
    assert [len(ev.chi) for ev in made] == [256, 44]


def test_no_stacked_array_exceeds_the_chunk_bound(monkeypatch):
    # every state stack handed to _eigenbasis, and every coupling stack to the
    # decomposition, holds at most _CHUNK_ENTRIES complex entries, and the
    # largest fills the bound: 4 mixed 8x8 states or 256 pure ones
    from lazylab import dynamics, protocol

    sizes = []

    def recording(module, name):
        real = getattr(module, name)

        def call(a, *args, **kwargs):
            sizes.append(np.size(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, call)

    for module in (laziness, dynamics, protocol):
        recording(module, "_eigenbasis")
    recording(protocol, "decompose_hamiltonian")

    pure, mixed = random_pure_bipartite(8, 8, 45), random_full_rank_state(8, 8, 46)
    h_tot = random_hermitian(64, 47)
    long, short = np.linspace(0.0, 3.0, 300), np.linspace(0.0, 1.0, 6)
    runs = {
        "pure trajectory": lambda: record_trajectory(pure, h_tot, long),
        "regularized pure trajectory": lambda: record_trajectory(pure, h_tot, long, regularize=1e-3),
        "mixed trajectory": lambda: record_trajectory(mixed, h_tot, short),
        "regularized mixed trajectory": lambda: record_trajectory(mixed, h_tot, short, regularize=1e-3),
        "sparsity_scan": lambda: protocol.sparsity_scan(8, 8, 6, rank=64, seed=48),
        "detect_discord": lambda: protocol.detect_discord(mixed, 6, 49),
        "bound_sweep": lambda: protocol.bound_sweep(8, 8, 6, seed=50),
    }
    for name, run in runs.items():
        sizes.clear()
        run()
        assert max(sizes) == laziness._CHUNK_ENTRIES, (name, sizes)
