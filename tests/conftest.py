from collections import Counter

import numpy as np
import pytest

from lazylab import (
    BipartiteState,
    decompose_hamiltonian,
    derive_rng,
    ginibre_mixed,
    haar_random_pure,
    haar_random_unitary,
    linalg,
    pure_state,
    random_hermitian,
)

FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "qr", "cholesky")
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _same_bits(a, b):
    """Equal shape, dtype and bytes: a bit-for-bit comparison of arrays or scalars."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_full_rank_state(ds, de, seed):
    return BipartiteState(ds=ds, de=de, matrix=ginibre_mixed(ds * de, ds * de, seed))


def random_pure_bipartite(ds, de, seed):
    return pure_state(haar_random_pure(ds * de, seed), ds, de)


def random_interaction(ds, de, seed):
    """Traceless-partial-trace coupling from a GUE draw."""
    return decompose_hamiltonian(random_hermitian(ds * de, seed), ds, de).h_int


def schmidt_pure_vector(probs, seed=None):
    """Unit vector with the given Schmidt spectrum on C^s (x) C^s.

    With seed=None the Schmidt bases are computational; otherwise Haar
    random local bases are used.
    """
    p = np.asarray(probs, dtype=float)
    s = p.size
    if seed is None:
        left = np.eye(s, dtype=complex)
        right = np.eye(s, dtype=complex)
    else:
        left = haar_random_unitary(s, derive_rng(seed, 0))
        right = haar_random_unitary(s, derive_rng(seed, 1))
    chi = np.zeros(s * s, dtype=complex)
    for k in range(s):
        chi += np.sqrt(p[k]) * np.kron(left[:, k], right[:, k])
    return chi / np.linalg.norm(chi)


def lazy_block_state(blocks, de, seed):
    """A random lazy state whose system projectors have the ranks ``blocks``.

    A Haar basis of C^ds (ds = sum(blocks)) is split into blocks V_j of
    r_j columns. Each block holds a full-rank Ginibre state s_j on
    C^{r_j} (x) C^de, filtered by (m_j^{-1/2} / sqrt(r_j)) (x) I with
    m_j = tr_E s_j, so that its tr_E is I / r_j. Then
    rho = sum_j p_j (V_j (x) I) s_j (V_j (x) I)† is lazy, with
    rho_S = sum_j p_j V_j V_j† / r_j, and may be entangled within a block.
    """
    ds = sum(blocks)
    basis = haar_random_unitary(ds, derive_rng(seed, 0))
    probs = derive_rng(seed, 1).dirichlet(np.ones(len(blocks)))
    rho = np.zeros((ds * de, ds * de), dtype=complex)
    start = 0
    for j, (r, p) in enumerate(zip(blocks, probs)):
        s = ginibre_mixed(r * de, r * de, derive_rng(seed, 2, j))
        m = np.trace(s.reshape(r, de, r, de), axis1=1, axis2=3)
        w, v = np.linalg.eigh(m)
        lift = np.kron(basis[:, start:start + r] @ ((v / np.sqrt(w * r)) @ v.conj().T), np.eye(de))
        rho += p * (lift @ s @ lift.conj().T)
        start += r
    return BipartiteState(ds=ds, de=de, matrix=(rho + rho.conj().T) / 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def checks(monkeypatch):
    """A Counter of the calls made to linalg.require_hermitian ("hermitian") and to the
    factorizations np.linalg.eigh, eigvalsh, svd, qr and cholesky: each call counts once by
    name and once by (name, the stacked shape of the matrix it was given)."""
    counts = Counter()
    for module, name in ((linalg, "require_hermitian"), *((np.linalg, f) for f in FACTORIZATIONS)):
        def call(a, *args, _real=getattr(module, name), _key=name.removeprefix("require_"), **kwargs):
            counts[_key] += 1
            counts[_key, np.shape(a)] += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, call)
    return counts
