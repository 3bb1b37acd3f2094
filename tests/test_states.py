import numpy as np
import pytest
from numpy.testing import assert_allclose

from lazylab import (
    BipartiteState,
    correlation_measures,
    derive_rng,
    ginibre_mixed,
    haar_random_pure,
    haar_random_unitary,
    laziness,
    laziness_commutator,
    linalg,
    maximally_entangled,
    partial_trace,
    product_state,
    pure_state,
    purify,
    random_hermitian,
    rate_bounds,
    schmidt_decompose,
    spectral_projection,
    statefile,
    validate_density_matrix,
    zero_discord_state,
)

from .conftest import _same_bits, random_interaction


def test_product_state_maximally_mixed():
    out = product_state(np.eye(2) / 2, np.eye(2) / 2)
    assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-15)


def test_product_state_rank_one_projector():
    ket0 = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    out = product_state(np.outer(ket0, ket0), np.outer(plus, plus))
    assert out.purity() == pytest.approx(1.0, abs=1e-12)
    lam = np.linalg.eigvalsh(out.matrix)
    assert np.count_nonzero(lam > 1e-12) == 1


def test_product_state_reduces_to_factors():
    s = ginibre_mixed(3, 3, 21)
    e = ginibre_mixed(2, 2, 22)
    out = product_state(s, e)
    assert_allclose(out.rho_s, s, atol=1e-12)
    assert_allclose(out.rho_e, e, atol=1e-12)


def test_products_and_mixtures_of_accepted_factors_are_accepted():
    # each factor misses unit trace or Hermiticity by just under its tolerance;
    # a product or mixture adds the errors up, beyond what one state may carry
    off_trace = np.diag([1 + 0.9e-10, 0.0]).astype(complex)
    off_hermitian = np.array([[1, 1.4e-10], [0, 0]], dtype=complex)
    for s in (off_trace, off_hermitian):
        validate_density_matrix(s)
        out = product_state(s, s)
        assert abs(np.trace(out.matrix) - 1) <= 1e-15
        assert_allclose(out.rho_s, s, atol=1e-9)
    p = 0.5 + 0.45e-10  # the probabilities sum to 1 + 0.9e-10
    out = zero_discord_state([p, p], [np.eye(2)[0], np.eye(2)[1]], [off_trace, off_hermitian])
    assert abs(np.trace(out.matrix) - 1) <= 1e-15


def test_haar_random_pure_edge_and_determinism():
    v = haar_random_pure(1, 5)
    assert abs(abs(v[0]) - 1.0) < 1e-12
    assert_allclose(haar_random_pure(6, 9), haar_random_pure(6, 9))
    with pytest.raises(ValueError):
        haar_random_pure(0, 1)


def test_haar_random_pure_first_moment():
    # Haar moment oracle: E |<0|psi>|^2 = 1/d for d = 2
    vals = [abs(haar_random_pure(2, derive_rng(1234, k))[0]) ** 2 for k in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_haar_random_unitary_is_unitary():
    u = haar_random_unitary(5, 3)
    assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        haar_random_unitary(0, 3)


def test_ginibre_rank_one_is_pure():
    rho = ginibre_mixed(4, 1, 17)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def test_ginibre_full_rank_positive():
    for trial in range(20):
        rho = ginibre_mixed(4, 4, derive_rng(600, trial))
        assert np.linalg.eigvalsh(rho)[0] > 0


def test_ginibre_determinism_and_rank_errors():
    assert_allclose(ginibre_mixed(3, 2, 8), ginibre_mixed(3, 2, 8))
    with pytest.raises(ValueError):
        ginibre_mixed(3, 0, 1)
    with pytest.raises(ValueError):
        ginibre_mixed(3, 4, 1)


def test_random_hermitian_is_hermitian_and_deterministic():
    h = random_hermitian(5, 33)
    assert np.linalg.norm(h - h.conj().T) < 1e-15
    assert_allclose(h, random_hermitian(5, 33))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        random_hermitian(0, 33)


def test_random_hermitian_semicircle_radius():
    # GUE normalization oracle: spectral radius ~ 2 sqrt(d)
    d = 8
    radii = [np.abs(np.linalg.eigvalsh(random_hermitian(d, derive_rng(42, k)))).max() for k in range(100)]
    assert abs(np.mean(radii) / (2 * np.sqrt(d)) - 1.0) < 0.2


def test_maximally_entangled_bell():
    bell = maximally_entangled(2)
    expected = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert_allclose(bell.matrix, expected, atol=1e-15)
    assert_allclose(bell.rho_s, np.eye(2) / 2, atol=1e-12)


def test_maximally_entangled_properties():
    for d in (2, 3, 4):
        st = maximally_entangled(d)
        assert_allclose(st.rho_s, np.eye(d) / d, atol=1e-12)
        spec = linalg.hermitian_eig(st.matrix)
        chi = spec.eigenvectors[:, -1]
        sd = schmidt_decompose(chi, d, d)
        assert_allclose(sd.coefficients, np.full(d, 1 / np.sqrt(d)), atol=1e-10)
    with pytest.raises(ValueError):
        maximally_entangled(1)


def test_zero_discord_degenerate_cases():
    e0 = ginibre_mixed(3, 3, 1)
    basis = [np.eye(2)[:, 0], np.eye(2)[:, 1]]
    single = zero_discord_state([1.0, 0.0], basis, [e0, ginibre_mixed(3, 3, 2)])
    expected = product_state(np.diag([1.0, 0.0]).astype(complex), e0)
    assert_allclose(single.matrix, expected.matrix, atol=1e-12)

    equal_envs = zero_discord_state([0.5, 0.5], basis, [e0, e0])
    assert_allclose(equal_envs.matrix, product_state(np.eye(2) / 2, e0).matrix, atol=1e-12)


def test_zero_discord_is_lazy():
    basis = [np.eye(2)[:, 0], np.eye(2)[:, 1]]
    envs = [ginibre_mixed(3, 3, 5), ginibre_mixed(3, 3, 6)]
    st = zero_discord_state([0.7, 0.3], basis, envs)
    assert laziness_commutator(st).trace_norm < 1e-12


def test_zero_discord_validation():
    basis = [np.eye(2)[:, 0], np.eye(2)[:, 1]]
    envs = [ginibre_mixed(2, 2, 1), ginibre_mixed(2, 2, 2)]
    with pytest.raises(ValueError, match="sum"):
        zero_discord_state([0.7, 0.4], basis, envs)
    skew = [np.eye(2)[:, 0], np.array([1.0, 1.0]) / np.sqrt(2)]
    with pytest.raises(ValueError, match="orthonormal"):
        zero_discord_state([0.5, 0.5], skew, envs)
    refusals = [
        ([[0.5, 0.5]], basis, envs, "non-empty 1-D"),
        ([1.5, -0.5], basis, envs, "non-negative"),
        ([1.0], basis, envs, "matching lengths"),
        ([0.5, 0.5], basis, [envs[0], np.eye(3) / 3], "share one dimension"),
    ]
    for probs, b, e, match in refusals:
        with pytest.raises(ValueError, match=match):
            zero_discord_state(probs, b, e)


def test_schmidt_product_and_bell():
    chi00 = np.zeros(4, dtype=complex)
    chi00[0] = 1.0
    sd = schmidt_decompose(chi00, 2, 2)
    assert sd.rank == 1
    assert_allclose(sd.coefficients, [1.0], atol=1e-12)

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    sd = schmidt_decompose(bell, 2, 2)
    assert sd.rank == 2
    assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_random_reconstruction():
    chi = haar_random_pure(12, 77)
    sd = schmidt_decompose(chi, 3, 4)
    recon = sd.reconstruct()
    # global phase free: align via overlap
    phase = np.vdot(recon, chi)
    phase /= abs(phase)
    assert np.linalg.norm(chi - phase * recon) < 1e-9
    # coefficients^2 are the reduced-state eigenvalues
    rho_s = partial_trace(np.outer(chi, chi.conj()), 3, 4, "system")
    lam = np.sort(np.linalg.eigvalsh(rho_s))[::-1][: sd.rank]
    assert_allclose(sd.probabilities(), lam, atol=1e-10)
    assert sd.rank <= 3


def test_schmidt_orthonormal_vectors():
    sd = schmidt_decompose(haar_random_pure(12, 3), 3, 4)
    lv, rv = sd.left_vectors, sd.right_vectors
    assert_allclose(lv.conj().T @ lv, np.eye(sd.rank), atol=1e-12)
    assert_allclose(rv.conj().T @ rv, np.eye(sd.rank), atol=1e-12)
    assert sd.probabilities().sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(sd.coefficients) <= 0)


def test_schmidt_rejects_non_unit_vector():
    with pytest.raises(ValueError, match="norm"):
        schmidt_decompose(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)
    # a non-finite entry is refused before the norm, whose comparison it would pass
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="state vector contains NaN or Inf"):
            schmidt_decompose(np.array([bad, 0.0, 0.0, 1.0]), 2, 2)
    with pytest.raises(ValueError, match="below the cutoff"):
        schmidt_decompose(np.array([1.0, 0.0, 0.0, 0.0]), 2, 2, cutoff=2.0)


@pytest.mark.parametrize("ds, de", [(2, 3), (4, 4), (3, 5)])
def test_pure_state_decides_a_unit_vector_by_the_vector_rule(ds, de):
    # NORM_TOL bounds |<v|v> - 1|; a vector it accepts has tr |v><v| = <v|v>,
    # so the density rule's trace check never refuses it
    for seed in range(10):
        v = haar_random_pure(ds * de, seed)
        for k in range(1, 13):
            for sign in (1, -1):
                try:
                    pure_state(v * (1 + sign * k * 1e-11), ds, de)
                except ValueError as exc:
                    assert str(exc).startswith("state vector has squared norm"), (seed, k, sign)


@pytest.mark.parametrize("source", ["pure_state", "purevector file"])
def test_a_vector_built_state_is_checked_as_a_vector(source, tmp_path, monkeypatch):
    # no dim x dim Hermiticity check or Cholesky on the state, built or analyzed, and
    # its evaluator reads the very vector given, not one re-extracted from |chi><chi|
    chi = haar_random_pure(64, 2201)
    path = str(tmp_path / "chi.json")
    statefile.save(path, statefile.from_vector(chi, 8, 8))
    h = random_interaction(8, 8, 2202)
    cholesky, require_hermitian = np.linalg.cholesky, linalg.require_hermitian
    factored, checked = [], []

    def counting_cholesky(a, *args, **kwargs):
        factored.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    def counting_hermitian(m, **kwargs):
        checked.append(kwargs.get("name"))
        return require_hermitian(m, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(linalg, "require_hermitian", counting_hermitian)
    st = pure_state(chi, 8, 8) if source == "pure_state" else statefile.load_state(path)
    laziness_commutator(st)
    correlation_measures(st)
    rate_bounds(st, h, ns=(3,), regularize=1e-3)
    assert factored == []
    assert checked == ["h_int"]  # the coupling's own check, not the state's

    given = chi if source == "pure_state" else statefile.load(path).data
    ev = laziness._evaluator(st)
    assert isinstance(ev, laziness._RankOne) and _same_bits(ev.chi, given)
    # the state keeps |chi><chi|'s Hermitian part, a valid density matrix
    outer = np.outer(given, given.conj())
    assert _same_bits(st.matrix, (outer + outer.conj().T) / 2.0)
    assert _same_bits(validate_density_matrix(st.matrix), st.matrix)


def test_pure_state_keeps_its_own_copy_and_checks_its_dims():
    chi = haar_random_pure(4, 2203)
    st = pure_state(chi, 2, 2)
    before = st.matrix.copy(), laziness._evaluator(st).chi.copy()
    chi[:] = 0.0
    assert _same_bits(st.matrix, before[0]) and _same_bits(laziness._evaluator(st).chi, before[1])
    # the vector is checked first, then the dims, as the BipartiteState would check them
    with pytest.raises(ValueError, match="^subsystem dimensions must be positive$"):
        pure_state([1.0], -1, -1)
    with pytest.raises(ValueError, match="^vector length 1 does not match dims"):
        pure_state([1.0], 0, 2)


def test_purify_pure_input():
    chi, d, da = purify(np.diag([1.0, 0.0]).astype(complex))
    assert (d, da) == (2, 1)
    assert abs(abs(chi[0]) - 1.0) < 1e-12


def test_purify_maximally_mixed_and_random():
    chi, d, da = purify(np.eye(2) / 2)
    back = partial_trace(np.outer(chi, chi.conj()), d, da, "system")
    assert_allclose(back, np.eye(2) / 2, atol=1e-10)

    rho = ginibre_mixed(4, 3, 9)
    chi, d, da = purify(rho)
    assert da == 3
    back = partial_trace(np.outer(chi, chi.conj()), d, da, "system")
    assert np.linalg.norm(back - rho) < 1e-10


def test_purify_with_custom_ancilla_basis():
    rho = ginibre_mixed(4, 3, 9)
    u = haar_random_unitary(3, 5)
    chi, d, da = purify(rho, ancilla_basis=u)
    back = partial_trace(np.outer(chi, chi.conj()), d, da, "system")
    assert np.linalg.norm(back - rho) < 1e-10
    with pytest.raises(ValueError, match="ancilla"):
        purify(rho, ancilla_basis=np.eye(2))
    # a square but not unitary basis would break tr_A |chi><chi| = rho
    with pytest.raises(ValueError, match="^ancilla basis vectors 0, 1 are not orthonormal"):
        purify(rho, ancilla_basis=[[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_spectral_projection_fully_degenerate():
    proj = spectral_projection(np.eye(3) / 3)
    assert len(proj.projectors) == 1
    assert proj.multiplicities == (3,)
    assert_allclose(proj.projectors[0], np.eye(3), atol=1e-12)
    assert proj.values[0] == pytest.approx(1 / 3)


def test_spectral_projection_two_levels():
    proj = spectral_projection(np.diag([0.7, 0.3]).astype(complex))
    assert proj.multiplicities == (1, 1)
    assert_allclose(proj.values, [0.7, 0.3], atol=1e-12)
    assert_allclose(proj.reconstruct(), np.diag([0.7, 0.3]), atol=1e-12)


def test_spectral_projection_merges_near_degenerate():
    rho = np.diag([0.5, 0.5 - 1e-12, 1e-12]).astype(complex)
    rho /= np.trace(rho).real
    proj = spectral_projection(rho, cluster_tol=1e-8)
    assert proj.multiplicities[0] == 2
    # clustered values stay separated by more than the tolerance
    gaps = -np.diff(proj.values)
    assert np.all(gaps > 1e-8 * np.abs(proj.values).max())


def test_spectral_projection_invariants():
    for trial in range(10):
        rho = ginibre_mixed(5, 5, derive_rng(7000, trial))
        proj = spectral_projection(rho)
        total = sum(proj.projectors)
        assert np.linalg.norm(total - np.eye(5)) < 1e-10
        for i, p in enumerate(proj.projectors):
            for j, q in enumerate(proj.projectors):
                expect = p if i == j else np.zeros_like(p)
                assert np.linalg.norm(p @ q - expect) < 1e-10
        assert np.linalg.norm(proj.reconstruct() - rho) < 1e-8


def test_factory_outputs_pass_invariants():
    # every factory output must satisfy the density/bipartite invariants;
    # construction itself validates, so building is the assertion
    n = 0
    for trial in range(50):
        ds = 2 + trial % 3
        de = 2 + (trial // 3) % 3
        rng_state = derive_rng(31337, trial)
        BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, rng_state))
        # a vector-built state is checked as a vector; its matrix must pass the full check
        pure = pure_state(haar_random_pure(ds * de, derive_rng(31338, trial)), ds, de)
        validate_density_matrix(pure.matrix)
        product_state(ginibre_mixed(ds, ds, derive_rng(31339, trial)),
                      ginibre_mixed(de, de, derive_rng(31340, trial)))
        basis = [np.eye(ds, dtype=complex)[:, j] for j in range(ds)]
        probs = np.full(ds, 1.0 / ds)
        envs = [ginibre_mixed(de, de, derive_rng(31341, trial, j)) for j in range(ds)]
        zero_discord_state(probs, basis, envs)
        n += 4
    assert n == 200


def _off_hermitian(m: np.ndarray, seed: int) -> np.ndarray:
    """m plus an anti-Hermitian, zero-diagonal part with ||m - m†||_F half the
    Hermiticity tolerance, so m is accepted but is not its own Hermitian part."""
    a = 1j * random_hermitian(m.shape[-1], seed)
    a[np.diag_indices(m.shape[-1])] = 0.0
    scale = 0.5 * linalg.HERMITICITY_RTOL * (1.0 + np.linalg.norm(m)) / np.linalg.norm(2.0 * a)
    return m + scale * a


@pytest.mark.parametrize("pure", [False, True])
def test_a_validated_state_is_kept_as_its_hermitian_part(pure):
    # every matrix derived from a state is eigensolved unchecked, so the state
    # itself must be exactly Hermitian, whatever roundoff it was accepted with
    ds, de = 2, 3
    dim = ds * de
    if pure:
        chi = haar_random_pure(dim, 41)
        exact = np.outer(chi, chi.conj())
    else:
        exact = ginibre_mixed(dim, dim, 41)
    m = _off_hermitian(exact, 42)
    part = (m + m.conj().T) / 2.0
    assert not np.array_equal(m, part)
    st = BipartiteState(ds=ds, de=de, matrix=m)
    ref = BipartiteState(ds=ds, de=de, matrix=part)
    assert _same_bits(st.matrix, part) and _same_bits(ref.matrix, part)

    got, want = laziness_commutator(st), laziness_commutator(ref)
    for name in ("commutator", "trace_norm", "frobenius_norm", "lazy", "tolerance"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    h = random_interaction(ds, de, 43)
    got, want = rate_bounds(st, h, ns=(3,)), rate_bounds(ref, h, ns=(3,))
    for name in ("entropy_rate", "purity_rate", "entropy_bound", "purity_bound",
                 "ln_commutator_trace_norm"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert _same_bits(got.moment_rates[3], want.moment_rates[3])
    if pure:  # both read through the rank-one evaluator
        assert isinstance(laziness._evaluator(st), laziness._RankOne)
        assert _same_bits(got.mi_purity_bound, want.mi_purity_bound)
    else:
        assert got.mi_purity_bound is want.mi_purity_bound is None

    # stacked, each matrix is kept as its own Hermitian part
    stack = np.stack([m, _off_hermitian(ginibre_mixed(dim, 2, 44), 45), part])
    assert _same_bits(validate_density_matrix(stack), (stack + stack.conj().swapaxes(-1, -2)) / 2.0)


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        validate_density_matrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_tolerances_must_be_finite_and_non_negative(bad):
    # a nan tol would make every comparison False and accept lam_min = -0.5;
    # a nan cluster_tol would merge 0.7 and 0.3 into one projector
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        validate_density_matrix(np.diag([1.5, -0.5]), tol=bad)
    with pytest.raises(ValueError, match="cluster_tol must be finite and >= 0"):
        spectral_projection(np.diag([0.7, 0.3]), cluster_tol=bad)


def test_hermiticity_has_one_verdict_and_one_message():
    # tol= loosens the trace and lam_min only; Hermiticity is require_hermitian's
    m = np.array([[0.5, 1e-6], [0.0, 0.5]])
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix(m, tol=1e-3)
    messages = set()
    for check in (
        lambda: linalg.require_hermitian(m, name="bipartite state"),
        lambda: validate_density_matrix(m, name="bipartite state"),
        lambda: BipartiteState(ds=1, de=2, matrix=m),
    ):
        with pytest.raises(ValueError) as exc:
            check()
        messages.add(str(exc.value))
    assert messages == {
        "bipartite state is not Hermitian: ||m - m†||_F = 1.414e-06 exceeds tolerance"
    }
    with pytest.raises(ValueError) as exc:
        validate_density_matrix(np.stack([np.eye(2) / 2, m, np.eye(2) / 2]))
    assert exc.value.index == 1


def _state_with_lam_min(d: int, lam_min: float, seed: int) -> np.ndarray:
    """Unit-trace Hermitian matrix whose smallest eigenvalue is lam_min."""
    rest = derive_rng(seed, 0).uniform(0.5, 1.5, d - 1)
    lam = np.concatenate(([lam_min], rest * (1.0 - lam_min) / rest.sum()))
    u = haar_random_unitary(d, derive_rng(seed, 1))
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("d", [4, 16, 64])
@pytest.mark.parametrize("margin", [-1e-2, 1e-2])
def test_positivity_certificate_follows_the_eigenvalue_rule(d, margin):
    # lam_min = -tol (1 + margin): a hair inside or outside the tolerance
    tol = 1e-10
    m = _state_with_lam_min(d, -tol * (1.0 + margin), seed=d)
    lam = np.linalg.eigvalsh(m)[0]
    accept = bool(lam >= -tol)
    assert accept == (margin < 0)  # the construction landed on the intended side
    message = f"rho has negative eigenvalue {lam:.3e}"

    if accept:
        assert validate_density_matrix(m, tol=tol).tobytes() == m.tobytes()
    else:
        with pytest.raises(ValueError) as exc:
            validate_density_matrix(m, tol=tol)
        assert str(exc.value) == message
        assert not hasattr(exc.value, "index")

    # the same state at position k of a stack of acceptable states
    k = 3
    stack = np.stack(
        [_state_with_lam_min(d, -0.99 * tol if j % 2 else 0.1 / d, seed=d + j) for j in range(5)]
    )
    stack[k] = m
    if accept:
        assert validate_density_matrix(stack, tol=tol).tobytes() == stack.tobytes()
    else:
        with pytest.raises(ValueError) as exc:
            validate_density_matrix(stack, tol=tol)
        assert str(exc.value) == message
        assert exc.value.index == k
        with pytest.raises(ValueError) as exc:
            validate_density_matrix(stack.reshape(1, 5, d, d), tol=tol)
        assert exc.value.index == k


def test_bipartite_state_dim_mismatch():
    with pytest.raises(ValueError):
        BipartiteState(ds=2, de=3, matrix=np.eye(4) / 4)
    with pytest.raises(ValueError, match="subsystem dimensions must be positive"):
        BipartiteState(ds=0, de=4, matrix=np.eye(4) / 4)
    with pytest.raises(ValueError, match="must be one matrix"):
        BipartiteState(ds=2, de=2, matrix=np.stack([np.eye(4) / 4] * 2))


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(5, 0).standard_normal(4)
    b = derive_rng(5, 0).standard_normal(4)
    c = derive_rng(5, 1).standard_normal(4)
    assert_allclose(a, b)
    assert np.linalg.norm(a - c) > 1e-3
