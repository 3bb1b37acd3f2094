import ast
import tokenize
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lazylab import BipartiteState, decompose_hamiltonian, linalg, moment_rate
from lazylab.states import random_hermitian

from .conftest import SIGMA_X, SIGMA_Y, SIGMA_Z


def test_kron_identities():
    assert_allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))
    sx_i = linalg.kron(SIGMA_X, np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0:2, 2:4] = np.eye(2)
    expected[2:4, 0:2] = np.eye(2)
    assert_allclose(sx_i, expected)


def test_kron_trace_multiplies(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(np.trace(linalg.kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12)


def test_kron_mixed_product(rng):
    a, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    b, d = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    assert_allclose(linalg.kron(a, b) @ linalg.kron(c, d), linalg.kron(a @ c, b @ d), atol=1e-12)


def test_kron_associative_on_integer_matrices():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 1]], dtype=complex)
    c = np.array([[2, 0], [0, 5]], dtype=complex)
    left = linalg.kron(linalg.kron(a, b), c)
    right = linalg.kron(a, linalg.kron(b, c))
    assert np.array_equal(left, right)


def test_partial_trace_product_state(rng):
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    sigma = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sigma = sigma @ sigma.conj().T
    sigma /= np.trace(sigma)
    m = linalg.kron(rho, sigma)
    assert_allclose(linalg.partial_trace(m, 2, 3, "system"), rho, atol=1e-12)
    assert_allclose(linalg.partial_trace(m, 2, 3, "environment"), sigma, atol=1e-12)


def test_partial_trace_bell():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert_allclose(linalg.partial_trace(bell, 2, 2, "system"), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_index_summation_oracle(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ds, de = 2, 3
    # independent route: explicit index sums with row = i_s * de + i_e
    sys_oracle = np.zeros((ds, ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            for e in range(de):
                sys_oracle[i, j] += m[i * de + e, j * de + e]
    env_oracle = np.zeros((de, de), dtype=complex)
    for i in range(de):
        for j in range(de):
            for s in range(ds):
                env_oracle[i, j] += m[s * de + i, s * de + j]
    assert_allclose(linalg.partial_trace(m, ds, de, "system"), sys_oracle, atol=1e-13)
    assert_allclose(linalg.partial_trace(m, ds, de, "environment"), env_oracle, atol=1e-13)
    assert_allclose(np.trace(linalg.partial_trace(m, ds, de, "system")), np.trace(m), atol=1e-12)


def test_partial_trace_linearity(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    lhs = linalg.partial_trace(2.0 * a - 0.5j * b, 2, 3, "system")
    rhs = 2.0 * linalg.partial_trace(a, 2, 3, "system") - 0.5j * linalg.partial_trace(b, 2, 3, "system")
    assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(5), 2, 3)
    with pytest.raises(ValueError):
        linalg.partial_trace(np.eye(6), 2, 3, keep="both")


@pytest.mark.parametrize(
    "call",
    [
        lambda m: linalg.partial_trace(m, 2, 3),
        lambda m: linalg.partial_transpose_system(m, 2, 3),
        lambda m: BipartiteState(ds=2, de=3, matrix=m),
        lambda m: decompose_hamiltonian(m, 2, 3),
        lambda m: moment_rate(BipartiteState(ds=2, de=3, matrix=np.eye(6) / 6), m, 2),
    ],
    ids=["partial_trace", "partial_transpose_system", "BipartiteState", "decompose_hamiltonian",
         "h_int"],
)
def test_operator_shape_is_checked_against_the_dims(call):
    # a valid 4x4 state, Hermitian too, offered where (2, 3) needs 6x6
    with pytest.raises(ValueError, match=r"shape \(4, 4\) does not match dims \(2, 3\)"):
        call(np.eye(4) / 4)


def test_hermitian_eig_pauli_z():
    spec = linalg.hermitian_eig(SIGMA_Z)
    assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_hermitian_eig_identity():
    spec = linalg.hermitian_eig(np.eye(5))
    assert_allclose(spec.eigenvalues, np.ones(5), atol=1e-15)
    v = spec.eigenvectors
    assert_allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("d", range(2, 13))
def test_hermitian_eig_reconstruction_gue(d):
    for trial in range(10):
        h = random_hermitian(d, 1000 * d + trial)
        spec = linalg.hermitian_eig(h)
        v = spec.eigenvectors
        err = np.linalg.norm(spec.reconstruct() - h) / (1.0 + np.linalg.norm(h))
        assert err < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(d)) < 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_singular_values_unitary():
    u = linalg.unitary_from_hamiltonian(random_hermitian(4, 5), 0.7)
    assert_allclose(linalg.singular_values(u), np.ones(4), atol=1e-12)


def test_singular_values_hermitian_abs_eigenvalues():
    h = random_hermitian(4, 8)
    sv = linalg.singular_values(h)
    expected = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
    assert_allclose(sv, expected, atol=1e-12)


def test_singular_values_frobenius_sum(rng):
    m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    assert_allclose((linalg.singular_values(m) ** 2).sum(), np.linalg.norm(m) ** 2, rtol=1e-12)


def test_matrix_function_exp_of_zero():
    assert_allclose(linalg.matrix_function(np.zeros((3, 3)), np.exp), np.eye(3), atol=1e-15)


def test_matrix_function_log_diagonal():
    out = linalg.matrix_function(np.diag([0.5, 0.5]), np.log)
    assert_allclose(out, -np.log(2) * np.eye(2), atol=1e-14)


def test_matrix_function_exp_log_roundtrip(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    pd = g @ g.conj().T + 0.5 * np.eye(4)
    back = linalg.matrix_function(linalg.matrix_function(pd, np.log), np.exp)
    assert_allclose(back, pd, atol=1e-9 * np.linalg.norm(pd))


def test_matrix_function_reports_offending_eigenvalue():
    with pytest.raises(ValueError, match="undefined at eigenvalue"):
        linalg.matrix_function(np.diag([1.0, -2.0]), np.log)


def test_matrix_log_floor():
    with pytest.raises(ValueError, match="below"):
        linalg.matrix_log(np.diag([1.0, 1e-14]))


def test_norms_identity_and_zero():
    assert linalg.norm(np.eye(3), "trace") == pytest.approx(3.0)
    assert linalg.norm(np.eye(3), "operator") == pytest.approx(1.0)
    assert linalg.norm(np.eye(3), "frobenius") == pytest.approx(np.sqrt(3.0))
    z = np.zeros((2, 4))
    assert linalg.norm(z, "trace") == 0.0
    assert linalg.norm(z, "operator") == 0.0
    assert linalg.norm(z, "frobenius") == 0.0


def test_trace_norm_hermitian_eigen_oracle():
    h = random_hermitian(4, 13)
    assert_allclose(linalg.trace_norm(h), np.abs(np.linalg.eigvalsh(h)).sum(), atol=1e-10)


def test_norm_ordering(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op, fro, tr = (linalg.norm(m, k) for k in ("operator", "frobenius", "trace"))
    assert op <= fro + 1e-12
    assert fro <= tr + 1e-12


def test_norm_unknown_kind():
    with pytest.raises(ValueError):
        linalg.norm(np.eye(2), "nuclear?")


def test_commutator_pauli_algebra():
    assert_allclose(linalg.commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-15)


def test_commutator_trivial_cases(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(linalg.commutator(a, a), np.zeros((3, 3)), atol=1e-15)
    assert_allclose(linalg.commutator(a, np.eye(3)), np.zeros((3, 3)), atol=1e-15)


def test_commutator_of_hermitians_is_anti_hermitian():
    a = random_hermitian(4, 3)
    b = random_hermitian(4, 4)
    c = linalg.commutator(a, b)
    assert np.linalg.norm(c + c.conj().T) < 1e-12


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.commutator(np.eye(2), np.eye(3))


def test_unitary_at_zero_time():
    assert_allclose(linalg.unitary_from_hamiltonian(random_hermitian(3, 1), 0.0), np.eye(3), atol=1e-14)


def test_unitary_sigma_z_quarter_period():
    u = linalg.unitary_from_hamiltonian(SIGMA_Z, np.pi / 2)
    assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)


def test_unitary_is_unitary():
    u = linalg.unitary_from_hamiltonian(random_hermitian(6, 77), 0.37)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-10


def test_unitary_composition():
    h = random_hermitian(5, 91)
    u1 = linalg.unitary_from_hamiltonian(h, 0.31)
    u2 = linalg.unitary_from_hamiltonian(h, 0.57)
    u12 = linalg.unitary_from_hamiltonian(h, 0.88)
    assert np.linalg.norm(u1 @ u2 - u12) < 1e-9


def test_unitary_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.unitary_from_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_as_complex_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_complex_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_partial_transpose_system_involution(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pt = linalg.partial_transpose_system(m, 2, 3)
    assert_allclose(linalg.partial_transpose_system(pt, 2, 3), m, atol=1e-15)
    # block structure oracle: (i j),(i' j') -> (i' j),(i j')
    ds, de = 2, 3
    for i in range(ds):
        for ip in range(ds):
            for j in range(de):
                for jp in range(de):
                    assert pt[i * de + j, ip * de + jp] == m[ip * de + j, i * de + jp]


def test_every_exponent_literal_is_in_the_tolerance_table():
    # the table: module-level NAME = <number> assignments in linalg.py
    src = Path(linalg.__file__).parent
    tree = ast.parse((src / "linalg.py").read_text())
    table = {
        node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    }
    assert 0 < len(table) <= 13
    stray = []
    for path in sorted(src.glob("*.py")):
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                text = tok.string.lower()
                if tok.type != tokenize.NUMBER or text.startswith("0x") or "e" not in text:
                    continue
                if not (path.name == "linalg.py" and tok.start[0] in table):
                    stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert stray == []
