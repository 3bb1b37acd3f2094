"""Construction, sampling and decomposition of density matrices and pure states.

Every sampler takes an explicit seed and derives independent streams
through numpy's SeedSequence, so batch runs are reproducible trial by
trial. Density matrices are plain complex arrays validated at the
construction sites; bipartite states carry their subsystem dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import CLUSTER_TOL, DENSITY_TOL, NORM_TOL, PURITY_TOL, SCHMIDT_CUTOFF


def derive_rng(seed, *path: int) -> np.random.Generator:
    """Deterministic generator for (seed, trial, ...) tuples.

    Distinct paths give statistically independent streams, so Monte Carlo
    trials can be generated out of order or in parallel with identical
    results.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence((int(seed), *path)))


def validate_density_matrix(rho, *, tol: float = DENSITY_TOL, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity (up to -tol); return (rho + rho†)/2.

    Hermiticity is linalg.require_hermitian's verdict; ``tol`` bounds
    |tr rho - 1| and -lam_min, both absolute. Positivity is certified by
    a Cholesky factorization of (rho + rho†)/2 + tol I, which exists only
    if lam_min >= -tol (up to its backward error, about dim * eps); the
    eigenvalues are computed only when that fails, and they decide.
    Leading axes stack matrices, each checked on its own; an error names
    the first failing one and, for a stack, carries its position as
    ``index``. ``tol`` must be finite and >= 0. Matrices derived from the
    returned Hermitian part are Hermitian by construction, never checked again.
    """
    linalg._require_tolerance(tol, "tol")
    raw = np.asarray(rho, dtype=complex)
    mat = linalg.require_hermitian(raw, name=name)
    tr = raw.trace(axis1=-2, axis2=-1)
    linalg._raise_first(
        abs(tr - 1.0) > tol,
        ValueError,
        lambda i: f"{name} has trace {complex(tr[i]):.12g}, expected 1",
    )
    n = mat.shape[-1]
    shifted = mat.copy()
    shifted.reshape(*mat.shape[:-2], n * n)[..., :: n + 1] += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lam_min = np.linalg.eigvalsh(mat)[..., 0]
        linalg._raise_first(
            lam_min < -tol,
            ValueError,
            lambda i: f"{name} has negative eigenvalue {lam_min[i]:.3e}",
        )
    return mat


def _is_pure(purity, tol: float = PURITY_TOL):
    """The pure verdict tr rho^2 > 1 - tol, for one purity tr rho^2 or an array of them."""
    return purity > 1.0 - tol


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix on a system (x) environment tensor space.

    ``matrix`` is (ds*de) x (ds*de) with row index i_s * de + i_e.
    Construction validates the density-matrix invariants and keeps the
    matrix as its exact Hermitian part.
    """

    ds: int
    de: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2:
            raise ValueError(f"bipartite state must be one matrix, got shape {mat.shape}")
        linalg._require_dims(mat, self.ds, self.de, "bipartite state")
        object.__setattr__(self, "matrix", validate_density_matrix(mat, name="bipartite state"))

    @property
    def dim(self) -> int:
        return self.ds * self.de

    @cached_property
    def rho_s(self) -> np.ndarray:
        return linalg.partial_trace(self.matrix, self.ds, self.de, keep="system")

    @cached_property
    def rho_e(self) -> np.ndarray:
        return linalg.partial_trace(self.matrix, self.ds, self.de, keep="environment")

    def purity(self) -> float:
        return float(np.linalg.norm(self.matrix) ** 2)

    def is_pure(self, *, tol: float = PURITY_TOL) -> bool:
        linalg._require_tolerance(tol, "tol")
        return bool(_is_pure(self.purity(), tol))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """chi = sum_i coefficients[i] * left[:, i] (x) right[:, i].

    Coefficients are the positive Schmidt weights sqrt(p_i), descending;
    their squares sum to one. ``rank`` counts coefficients above the cutoff.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    rank: int

    def probabilities(self) -> np.ndarray:
        return self.coefficients**2

    def reconstruct(self) -> np.ndarray:
        terms = zip(self.coefficients[: self.rank], self.left_vectors.T, self.right_vectors.T)
        chi = np.zeros(self.left_vectors.shape[0] * self.right_vectors.shape[0], dtype=complex)
        return sum((c * np.kron(u, v) for c, u, v in terms), chi)


@dataclass(frozen=True)
class SpectralProjection:
    """Spectral projectors of a Hermitian operator, degenerate values merged.

    ``values`` are the distinct (clustered) eigenvalues, descending;
    ``projectors[j]`` projects onto the eigenspace of values[j] and has
    rank ``multiplicities[j]``.
    """

    projectors: tuple[np.ndarray, ...]
    values: np.ndarray
    multiplicities: tuple[int, ...]

    def reconstruct(self) -> np.ndarray:
        return sum(val * proj for val, proj in zip(self.values, self.projectors))


def _unit_vector(chi, ds: int, de: int) -> np.ndarray:
    """chi flattened, checked finite, of length ds*de (ds, de >= 1), |<chi|chi> - 1| <= NORM_TOL."""
    linalg._require_positive_dims(ds, de)
    vec = np.asarray(chi, dtype=complex).reshape(-1)
    if vec.size != ds * de:
        raise ValueError(f"vector length {vec.size} does not match dims ({ds}, {de})")
    linalg._require_finite(vec, "state vector")
    nrm2 = (vec * vec.conj()).sum().real  # summed as tr |v><v| is, so the density rule agrees
    if abs(nrm2 - 1.0) > NORM_TOL:
        raise ValueError(f"state vector has squared norm <v|v> = {nrm2:.12g}, expected 1")
    return vec


def pure_state(chi, ds: int, de: int) -> BipartiteState:
    """|chi><chi| as a BipartiteState, chi checked as a vector only: finite, of length
    ds*de and with |<chi|chi> - 1| <= NORM_TOL. |chi><chi| is then a product of accepted
    factors, kept as _valid_state keeps one, and the state keeps chi's own evaluator."""
    from .laziness import _eigenbasis  # laziness imports this module
    vec = _unit_vector(chi, ds, de).copy()
    return _valid_state(ds, de, np.outer(vec, vec.conj()), _eigenbasis(vec, ds, vectors=True))


def _valid_state(ds: int, de: int, mat: np.ndarray, ev=None) -> BipartiteState:
    """A product, mixture or unitary conjugation of accepted parts, kept as a state
    with its evaluator ev (or one built on first use) and not checked again.

    Each part may miss Hermiticity, unit trace (or unit norm, or a unit
    sum of probabilities) by its own tolerance, and the composite adds those
    errors up. It is kept as its Hermitian part, mat itself when the parts
    are Hermitian, divided by its trace only when that is off by more than
    DENSITY_TOL, so a composite that was accepted as it stood keeps its entries.
    """
    mat = (mat + linalg.dagger(mat)) / 2
    tr = mat.trace().real
    mat = mat / tr if abs(tr - 1.0) > DENSITY_TOL else mat
    state = object.__new__(BipartiteState)
    vars(state).update(ds=ds, de=de, matrix=mat, _evaluator=ev)
    return state


def product_state(rho_s, rho_e) -> BipartiteState:
    """rho_s (x) rho_e of the checked factors, kept as built; rho_S, rho_E reproduce them."""
    s = validate_density_matrix(rho_s, name="system factor")
    e = validate_density_matrix(rho_e, name="environment factor")
    return _valid_state(s.shape[0], e.shape[0], linalg.kron(s, e))


def haar_random_pure(d: int, seed) -> np.ndarray:
    """Unit vector drawn from the Haar-invariant distribution on C^d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = derive_rng(seed)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def haar_random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = derive_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _draw(rngs, d: int, rank: int | None = None) -> np.ndarray:
    """One sample per generator in ``rngs``, stacked along a leading axis.

    Without ``rank`` each sample is a GUE matrix (A + A†)/2, with it a
    Ginibre density matrix G G† / tr(G G†); A is d x d and G is d x rank,
    standard complex Gaussian. Each generator draws its own matrix, real
    parts first, and the arithmetic then runs once on the whole stack.
    ``d`` must be >= 1 and ``rank`` must lie in [1, d].
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if rank is not None and not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    cols = d if rank is None else rank
    g = np.empty((len(rngs), d, cols), dtype=complex)
    for k, rng in enumerate(rngs):
        g[k] = rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))
    if rank is not None:  # G -> G G† / tr(G G†)
        g = g @ linalg.dagger(g)
        g /= g.trace(axis1=-2, axis2=-1).real[:, None, None]
    out = g + linalg.dagger(g)
    out /= 2
    return out


def ginibre_mixed(d: int, rank: int, seed) -> np.ndarray:
    """Random density matrix rho = G G† / tr(G G†), G complex Gaussian d x rank."""
    return _draw([derive_rng(seed)], d, rank)[0]


def random_hermitian(d: int, seed) -> np.ndarray:
    """GUE matrix H = (A + A†)/2 with A standard complex Gaussian.

    Off-diagonal entries have E|H_ij|^2 = 1, so the spectral radius is
    about 2*sqrt(d) for large d.
    """
    return _draw([derive_rng(seed)], d)[0]


def maximally_entangled(d: int) -> BipartiteState:
    """(1/sqrt(d)) sum_i |ii> as a density matrix, valid as built; rho_s = I/d."""
    if d < 2:
        raise ValueError("maximally entangled states need dimension >= 2")
    mat = np.zeros((d * d, d * d), dtype=complex)
    diag = [i * d + i for i in range(d)]
    for i in diag:
        for j in diag:
            mat[i, j] = 1.0 / d
    return _valid_state(d, d, mat)


def zero_discord_state(
    probs: Sequence[float],
    basis: Sequence[np.ndarray],
    env_states: Sequence[np.ndarray],
) -> BipartiteState:
    """Classically correlated state sum_j p_j |b_j><b_j| (x) rho_j.

    ``basis`` must be orthonormal vectors on the system space, one per
    probability; ``env_states`` are density matrices on a common
    environment space, each checked; the mixture is kept as built.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a non-empty 1-D sequence")
    if np.any(p < -linalg.NEGATIVE_PROB_TOL):
        raise ValueError("probs must be non-negative")
    if abs(p.sum() - 1.0) > NORM_TOL:
        raise ValueError(f"probs sum to {p.sum():.12g}, expected 1")
    if len(basis) != p.size or len(env_states) != p.size:
        raise ValueError("probs, basis and env_states must have matching lengths")

    vecs = np.stack([np.asarray(b, dtype=complex).reshape(-1) for b in basis], axis=1)
    ds = vecs.shape[0]
    _require_orthonormal(vecs, "basis")

    envs = [validate_density_matrix(e, name=f"env_states[{j}]") for j, e in enumerate(env_states)]
    de = envs[0].shape[0]
    if any(e.shape != (de, de) for e in envs):
        raise ValueError("env_states must share one dimension")

    # entry (i, a), (k, b) of sum_j p_j |b_j><b_j| (x) rho_j, with b_j the column vecs[:, j]
    mat = np.einsum("j,ij,kj,jab->iakb", p, vecs, vecs.conj(), np.stack(envs))
    return _valid_state(ds, de, mat.reshape(ds * de, ds * de))


def schmidt_decompose(chi, ds: int, de: int, cutoff: float = SCHMIDT_CUTOFF) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit vector on C^ds (x) C^de; ``cutoff`` is finite and >= 0."""
    linalg._require_tolerance(cutoff, "cutoff")
    vec = _unit_vector(chi, ds, de)
    u, s, vh = np.linalg.svd(vec.reshape(ds, de), full_matrices=False)
    rank = int(np.count_nonzero(s > cutoff))
    if rank == 0:
        raise ValueError("all Schmidt coefficients fell below the cutoff")
    coeffs = s[:rank]
    coeffs = coeffs / np.linalg.norm(coeffs)  # re-normalize after truncation
    return SchmidtDecomposition(
        coefficients=coeffs,
        left_vectors=u[:, :rank],
        right_vectors=vh[:rank, :].T,
        rank=rank,
    )


def purify(rho, ancilla_basis: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """Purify a density matrix into (chi, d_system, d_ancilla).

    chi = sum_i sqrt(lam_i) v_i (x) a_i over the spectral pairs of rho,
    with the ancilla dimension equal to rank(rho). Tracing the ancilla
    out of |chi><chi| recovers rho, so ``ancilla_basis`` (the a_i as
    columns) must be unitary: overlaps within NORM_TOL of delta_ij.
    """
    mat = validate_density_matrix(rho)
    w, v = np.linalg.eigh(mat)
    keep = w > SCHMIDT_CUTOFF
    lams, vecs = w[keep][::-1], v[:, keep][:, ::-1]
    d = mat.shape[0]
    da = int(lams.size)
    if ancilla_basis is None:
        ancilla = np.eye(da, dtype=complex)
    else:
        ancilla = linalg.as_complex_matrix(ancilla_basis)
        if ancilla.shape != (da, da):
            raise ValueError(f"ancilla basis must be {da} x {da}")
        _require_orthonormal(ancilla, "ancilla basis")
    chi = ((vecs * np.sqrt(lams)) @ ancilla.T).reshape(-1)  # entry (i, a) at i * da + a
    chi /= np.linalg.norm(chi)
    return chi, d, da


def _require_orthonormal(vecs: np.ndarray, name: str) -> None:
    """Refuse the columns of vecs when an overlap <v_i|v_j> is off delta_ij by > NORM_TOL."""
    bad = np.argwhere(np.abs(linalg.dagger(vecs) @ vecs - np.eye(vecs.shape[1])) > NORM_TOL)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{name} vectors {i}, {j} are not orthonormal")


def _cluster_labels(w: np.ndarray, gap: float) -> np.ndarray:
    """Cluster index of each eigenvalue in the sorted array w.

    A difference between neighbours above the absolute ``gap`` starts a
    new cluster; indices count up along w.
    """
    return np.concatenate(([0], np.cumsum(np.abs(np.diff(w)) > gap)))


def spectral_projection(rho, cluster_tol: float = CLUSTER_TOL) -> SpectralProjection:
    """Spectral projectors of rho with near-degenerate eigenvalues merged.

    Eigenvalues whose gap is below cluster_tol (relative to the largest
    magnitude) share one projector; the surviving values are therefore
    pairwise separated by more than the tolerance, which must be finite
    and >= 0.
    """
    linalg._require_tolerance(cluster_tol, "cluster_tol")
    w, v = np.linalg.eigh(linalg.require_hermitian(rho, name="rho"))
    w, v = w[::-1], v[:, ::-1]
    labels = _cluster_labels(w, cluster_tol * np.abs(w).max())
    clusters = [labels == k for k in range(labels[-1] + 1)]
    return SpectralProjection(
        projectors=tuple(v[:, c] @ linalg.dagger(v[:, c]) for c in clusters),
        values=np.asarray([w[c].mean() for c in clusters]),
        multiplicities=tuple(int(c.sum()) for c in clusters),
    )
