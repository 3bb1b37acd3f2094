"""Dense complex linear algebra for desk-scale Hilbert spaces.

Plain complex numpy arrays are the carrier for every operator; all
routines are pure functions of their inputs. The bipartite index
convention is row = i_system * d_env + i_env throughout the package,
which is exactly the ordering produced by ``numpy.kron(sys_op, env_op)``.
Dimensions are expected to stay below ~100, so everything is dense O(d^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Every tolerance and default of the package: value  # kind (absolute, relative, per ds*de): verdict
HERMITICITY_RTOL = 1e-10  # relative to 1 + ||m||_F: an operator is Hermitian
DENSITY_TOL = 1e-10  # absolute: rho has trace 1 and lam_min >= -tol
NORM_TOL = 1e-10  # absolute: a vector is unit (|<v|v> - 1|), probabilities sum to 1, a basis is orthonormal
NEGATIVE_PROB_TOL = 1e-12  # absolute: a probability p >= -tol counts as non-negative
PURITY_TOL = 1e-10  # absolute: a state is pure when tr rho^2 > 1 - tol
SCHMIDT_CUTOFF = 1e-12  # absolute: a Schmidt coefficient or purified eigenvalue counts in the rank
LOG_EIGENVALUE_FLOOR = 1e-12  # absolute: ln(rho) is defined when lam_min >= floor, never clamped
LAZY_TOL_PER_DIM = 1e-10  # per ds*de: lazy when ||C||_1 <= tol*ds*de (also the pinching gap)
CLUSTER_TOL = 1e-8  # relative to max |lam|: spectral_projection merges eigenvalues this close
PROJECTOR_TOL = 1e-8  # absolute, Frobenius: spectral_pinch's projectors resolve the identity
IMAG_TOL = 1e-10  # absolute: the imaginary residue of a rate is roundoff
DEFAULT_DETECT_THRESHOLD = 1e-8  # absolute: detect_discord fires when a |purity rate| exceeds it
FD_STEP = 1e-5  # absolute time: the finite-difference step (rate oracle, detect_discord --fd)


def _require_tolerance(value, name: str) -> None:
    """Refuse a tolerance or threshold ``name`` that is not finite and >= 0."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _require_step(value, name: str) -> None:
    """Refuse a finite-difference step ``name`` that is not finite and > 0."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _complex_stack(m) -> np.ndarray:
    """Coerce to a complex array of one or more stacked matrices, rejecting non-finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    arr = _complex_stack(m)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def _raise_first(bad, exc_type: type[Exception], message: Callable[[tuple], str]) -> None:
    """Raise exc_type(message(i)) for the first matrix i that ``bad`` flags.

    ``bad`` is a numpy bool with one flag per matrix over the leading
    (stack) axes, a scalar for a single matrix, where i is then (). For a
    stack the error's ``index`` is the failing matrix's position in the
    flattened stack.
    """
    if not (bad.any() if bad.ndim else bad):
        return
    pos = int(np.flatnonzero(bad)[0])
    exc = exc_type(message(np.unravel_index(pos, bad.shape)))
    if bad.ndim:
        exc.index = pos
    raise exc


def _frobenius(m: np.ndarray):
    """||m||_F of each matrix in m, a scalar for a single matrix."""
    return np.linalg.norm(m) if m.ndim == 2 else np.linalg.norm(m, axis=(-2, -1))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix, for a stack)."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def require_hermitian(m, *, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within HERMITICITY_RTOL and return (m + m†)/2.

    The symmetrized matrix is returned so downstream eigensolves are not
    polluted by the roundoff the tolerance was meant to absorb. Leading
    axes stack matrices, each checked on its own; for a stack the error
    carries the failing matrix's position as ``index``.
    """
    arr = _complex_stack(m)
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    adj = dagger(arr)
    defect = _frobenius(arr - adj)
    _raise_first(
        defect > HERMITICITY_RTOL * (1.0 + _frobenius(arr)),
        ValueError,
        lambda i: f"{name} is not Hermitian: ||m - m†||_F = {defect[i]:.3e} exceeds tolerance",
    )
    return (arr + adj) / 2.0


def _require_dims(mat: np.ndarray, ds: int, de: int, name: str) -> np.ndarray:
    """Return mat if its last two axes are (ds*de, ds*de), else raise naming the dims."""
    dim = ds * de
    if mat.shape[-2:] != (dim, dim):
        raise ValueError(f"{name} shape {mat.shape} does not match dims ({ds}, {de})")
    return mat


def kron(a, b) -> np.ndarray:
    """Tensor product with the system-major index convention."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(m, d_system: int, d_env: int, keep: str = "system") -> np.ndarray:
    """Trace out one tensor factor of a (d_system*d_env)-dimensional operator.

    ``keep="system"`` returns the d_system x d_system matrix tr_E(m);
    ``keep="environment"`` returns tr_S(m). The global trace is preserved.
    Leading axes stack operators.
    """
    mat = _require_dims(_complex_stack(m), d_system, d_env, "matrix")
    t = mat.reshape(*mat.shape[:-2], d_system, d_env, d_system, d_env)
    if keep == "system":
        return np.einsum("...iaja->...ij", t)
    if keep == "environment":
        return np.einsum("...aiaj->...ij", t)
    raise ValueError(f"keep must be 'system' or 'environment', got {keep!r}")


def partial_transpose_system(m, d_system: int, d_env: int) -> np.ndarray:
    """Transpose the system indices only (used for negativity)."""
    mat = _require_dims(as_complex_matrix(m), d_system, d_env, "matrix")
    t = mat.reshape(d_system, d_env, d_system, d_env)
    return t.transpose(2, 1, 0, 3).reshape(mat.shape)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column k of ``eigenvectors``
    belongs to ``eigenvalues[k]`` and the columns are orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def hermitian_eig(h, *, name: str = "matrix") -> HermitianSpectrum:
    """Eigendecompose a Hermitian matrix (ascending eigenvalues); leading axes stack matrices."""
    sym = require_hermitian(h, name=name)
    w, v = np.linalg.eigh(sym)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def singular_values(m) -> np.ndarray:
    """Singular values, descending (sqrt of eigenvalues of m†m)."""
    return np.linalg.svd(as_complex_matrix(m), compute_uv=False)


def norm(m, kind: str = "frobenius") -> float:
    """Matrix norm: "trace" (sum of singular values), "operator"
    (largest singular value) or "frobenius".
    """
    mat = as_complex_matrix(m)
    if kind == "frobenius":
        return float(np.linalg.norm(mat))
    if kind == "trace":
        return float(singular_values(mat).sum())
    if kind == "operator":
        sv = singular_values(mat)
        return float(sv[0]) if sv.size else 0.0
    raise ValueError(f"kind must be 'trace', 'operator' or 'frobenius', got {kind!r}")


def trace_norm(m) -> float:
    return norm(m, "trace")


def operator_norm(m) -> float:
    return norm(m, "operator")


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba for equal-dimension square matrices."""
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValueError(f"incompatible shapes {ma.shape} and {mb.shape}")
    return ma @ mb - mb @ ma


def matrix_function(h, f: Callable[[float], float], *, name: str = "matrix") -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix spectrally.

    Raises if f is undefined (non-finite) at any eigenvalue, identifying
    the offending one.
    """
    spec = hermitian_eig(h, name=name)
    with np.errstate(all="ignore"):
        fw = np.array([f(x) for x in spec.eigenvalues], dtype=float)
    bad = np.flatnonzero(~np.isfinite(fw))
    if bad.size:
        raise ValueError(
            f"function undefined at eigenvalue {spec.eigenvalues[bad[0]]!r} "
            f"of {name}"
        )
    v = spec.eigenvectors
    return (v * fw) @ dagger(v)


def matrix_log(h, *, floor: float = LOG_EIGENVALUE_FLOOR, name: str = "matrix") -> np.ndarray:
    """Spectral ln of a positive Hermitian matrix.

    Eigenvalues at or below ``floor`` are an error, never clamped; callers
    that need a rank-deficient log must regularize the operator first.
    """
    spec = hermitian_eig(h, name=name)
    lam_min = float(spec.eigenvalues[0])
    if lam_min < floor:
        raise ValueError(
            f"ln undefined: {name} has eigenvalue {lam_min:.3e} below "
            f"floor {floor:.1e}"
        )
    v = spec.eigenvectors
    return (v * np.log(spec.eigenvalues)) @ dagger(v)


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """U = exp(-i h t) via the spectral decomposition (hbar = 1)."""
    spec = hermitian_eig(h, name="hamiltonian")
    v = spec.eigenvectors
    phases = np.exp(-1j * spec.eigenvalues * t)
    return (v * phases) @ dagger(v)
