"""Closed-form unitary evolution, Hamiltonian decomposition and rate oracles.

Evolution uses the spectral decomposition of the (time-independent)
total Hamiltonian, so rates extracted by finite differences are limited
only by the O(h^2) truncation of the stencil, not by integrator error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .laziness import (
    RankDeficientStateError,
    _chunks,
    _Eigenbasis,
    _eigenbasis,
    _evaluator,
    _moment_order,
    _operator_norm_hermitian,
    _optional_weight,
    _per_matrix,
    _power_sums,
    _RankOne,
    _rate_report,
    _regularized,
    _spectral_entropy,
)
from .linalg import FD_STEP
from .states import BipartiteState, _valid_state


def _env_diagonal(t: np.ndarray) -> np.ndarray:
    """Writable view v[..., a, i, j] = t[..., i, a, j, a] of (stacked) (ds, de, ds, de)
    operators, the entries where an h_s (x) I term adds h_s[i, j]."""
    return np.einsum("...iaja->...aij", t)


def _system_diagonal(t: np.ndarray) -> np.ndarray:
    """Writable view v[..., i, a, b] = t[..., i, a, i, b] of (stacked) (ds, de, ds, de)
    operators, the entries where an I (x) h_e term adds h_e[a, b]."""
    return np.einsum("...iaib->...iab", t)


@dataclass(frozen=True)
class HamiltonianTriple:
    """H_tot = h_s (x) I + I (x) h_e + h_int with partial-traceless h_int."""

    h_s: np.ndarray
    h_e: np.ndarray
    h_int: np.ndarray

    def reassemble(self) -> np.ndarray:
        ds = self.h_s.shape[0]
        de = self.h_e.shape[0]
        out = np.zeros((ds, de, ds, de), dtype=complex)
        _env_diagonal(out)[...] = self.h_s
        _system_diagonal(out)[...] += self.h_e
        out += self.h_int.reshape(ds, de, ds, de)
        return out.reshape(ds * de, ds * de)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Observables of the reduced system at one sample time."""

    entropy: float
    purity: float
    moment_values: dict[int, float]
    comm_trace_norm: float
    entropy_rate: float
    entropy_bound: float
    purity_rate: float
    purity_bound: float


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    records: tuple[TrajectoryRecord, ...]


def decompose_hamiltonian(h_tot, ds: int, de: int) -> HamiltonianTriple:
    """Split H_tot into local parts and an interaction with vanishing partial traces.

    With A = tr_E(H)/de, B = tr_S(H)/ds and c = tr(H)/(ds*de):
    h_int = H - A (x) I - I (x) B + c I, h_s = A - (c/2) I, h_e = B - (c/2) I.
    Both partial traces of h_int vanish and the triple reassembles H exactly.

    Leading axes stack Hamiltonians, each split on its own, and every part
    of the triple then carries them; for a stack, the Hermiticity error
    carries the failing Hamiltonian's ``index``.
    """
    return _decompose(linalg.require_hermitian(h_tot, name="h_tot"), ds, de)


def _decompose(h: np.ndarray, ds: int, de: int) -> HamiltonianTriple:
    """decompose_hamiltonian of an h_tot checked Hermitian already, which it overwrites."""
    h = linalg._require_dims(h, ds, de, "h_tot")
    lead = h.shape[:-2]
    t = h.reshape(*lead, ds, de, ds, de)  # a view of h, written after the partial traces
    dim = ds * de
    a = linalg.partial_trace(h, ds, de, keep="system") / de
    b = linalg.partial_trace(h, ds, de, keep="environment") / ds
    c = h.trace(axis1=-2, axis2=-1).real[..., None] / dim
    _env_diagonal(t)[...] -= a[..., None, :, :]
    _system_diagonal(t)[...] -= b[..., None, :, :]
    h_int = t.reshape(*lead, dim, dim)
    h_int.reshape(*lead, dim * dim)[..., :: dim + 1] += c
    return HamiltonianTriple(
        h_s=a - (c[..., None] / 2.0) * np.eye(ds),
        h_e=b - (c[..., None] / 2.0) * np.eye(de),
        h_int=h_int,
    )


def _spectrum(h_tot, rho: BipartiteState) -> linalg.HermitianSpectrum:
    """H_tot's spectrum, H_tot checked Hermitian and of rho's dims (as decompose_hamiltonian) first."""
    h = linalg._require_dims(linalg.require_hermitian(h_tot, name="h_tot"), rho.ds, rho.de, "h_tot")
    return linalg.HermitianSpectrum(*np.linalg.eigh(h))


def evolve_exact(rho: BipartiteState, h_tot, t: float) -> BipartiteState:
    """rho(t) = e^{-i H t} rho e^{i H t} (hbar = 1), for a finite t whose phases E t stay
    finite. H_tot and t are checked; U rho U† of the valid rho is kept as built."""
    linalg._require_time(t)
    u = _spectrum(h_tot, rho).unitary(t)
    return _valid_state(rho.ds, rho.de, u @ rho.matrix @ linalg.dagger(u))


def finite_difference_rate(
    rho: BipartiteState,
    h_tot,
    observable: str = "entropy",
    *,
    n: int = 2,
    h: float = FD_STEP,
    richardson: bool = False,
) -> float:
    """Central-difference rate of a reduced-system observable at t = 0.

    ``observable`` is "entropy" or "moment" (power ``n``). Independent of
    the analytic rate formulas: it only evolves the state to +-h and
    differences the observable, converging as O(h^2).
    ``richardson=True`` combines the h and h/2 stencils into the
    extrapolated (4 f(h/2) - f(h)) / 3 estimate, removing the leading
    truncation term. The inputs are checked once, before H_tot's one eigh (``n`` for "moment"
    only), the steps' phases after it; no state is rebuilt.
    """
    linalg._require_positive(h, "step")
    if observable not in ("entropy", "moment"):
        raise ValueError(f"observable must be 'entropy' or 'moment', got {observable!r}")
    n = _moment_order(n) if observable == "moment" else n
    return _fd_rate(rho, _spectrum(h_tot, rho), observable, n, h, richardson)


def _fd_rate(rho, spec: linalg.HermitianSpectrum, observable, n, h, richardson=False):
    """finite_difference_rate for the spectrum spec of H_tot (leading axes stack them), checked h
    and n, each rho_S read from the Hermitian part of U rho U†, as a state keeps it."""
    steps = np.array([h, -h, h / 2.0, -h / 2.0] if richardson else [h, -h])
    t = steps.reshape(-1, *[1] * spec.eigenvalues.ndim)  # the steps lead the stacks
    u = spec.unitary(t)
    m = u @ rho.matrix @ linalg.dagger(u)
    lam = np.linalg.eigvalsh(linalg.partial_trace((m + linalg.dagger(m)) / 2.0, rho.ds, rho.de))
    if observable == "entropy":
        # near a zero eigenvalue the entropy difference quotient is a poor
        # approximant of a derivative that may not even exist
        linalg._raise_first(
            lam[..., 0] < linalg.LOG_EIGENVALUE_FLOOR,
            RankDeficientStateError,
            lambda i: f"rho_S at t = +-{abs(steps[i[0]]):g} has eigenvalue {lam[i][0]:.3e}; "
            "use a smaller step or regularize the state first",
        )
    f = _spectral_entropy(lam) if observable == "entropy" else _power_sums(lam, [n])[n]
    rates = (f[0::2] - f[1::2]) / t[0::2, ..., 0] / 2.0  # one quotient per stencil; 2h may overflow
    return _per_matrix((4.0 * rates[1] - rates[0]) / 3.0 if richardson else rates[0])


def record_trajectory(
    rho0: BipartiteState,
    h_tot,
    times,
    ns: tuple[int, ...] = (),
    regularize: float | None = None,
) -> Trajectory:
    """Evolve rho0 under H_tot and record rates and bounds at each time.

    Rates use the interaction part of the decomposed Hamiltonian; the
    local parts provably contribute nothing. Entropy-rate evaluation
    requires full-rank rho_S at every sample (or ``regularize``). With
    H_tot = V diag(E) V† and rho_h = V† rho0 V formed once, each sample
    is rho(t) = W rho_h W† for W = V diag(φ), φ = exp(-i E t); one
    factorization of its rho_S yields the reduced observables, the commutator
    norms and every rate. The steps run in chunks of laziness._chunks, each
    read from one evaluator of its stacked states, which laziness._eigenbasis
    builds. A unitary step keeps rho0's purity, so rho0's own evaluator
    decides the path: when it is rank-one, rho0 = |chi><chi| evolves as the
    vectors chi(t) = W V† chi, stacked (n, dim) in chunks of 2^14 / dim steps
    (256 at dim 64), whose rank-one evaluator never forms |chi(t)><chi(t)|,
    regularized or not; otherwise the steps are the stacked (n, dim, dim)
    matrices V (rho_h ∘ Φ) V† = W rho_h W†, Φ_kl = φ_k conj(φ_l), formed
    against the fixed V and V† in chunks of 2^14 / dim^2 steps (4 at dim 64).

    Only the inputs are checked, once: rho0 when it was built, the times (finite, ascending),
    ``ns`` and ``regularize`` here, H_tot by decompose_hamiltonian and, against its energies,
    where each phase E t must stay finite, the times by linalg._require_phases. What is
    derived from them is not checked again: the reassembled H_tot is
    Hermitian by construction, and each step's V (rho_h ∘ Φ) V† is Hermitian
    to roundoff, its rho_S and rho' symmetrized where they are eigensolved.
    With ``regularize`` the rates come from the regularized evaluator derived
    from each chunk's (W I W† = I), with no eigensolve of its own.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.isfinite(ts).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(ts) < 0):
        raise ValueError("times must be sorted ascending")
    ns, regularize = tuple(map(_moment_order, ns)), _optional_weight(regularize)
    return _record_trajectory(rho0, decompose_hamiltonian(h_tot, rho0.ds, rho0.de), ts, ns, regularize)


def _record_trajectory(rho0, triple: HamiltonianTriple, ts, ns, regularize) -> Trajectory:
    """record_trajectory of H_tot's split triple at the checked 1-D ts, ns and regularize."""
    energies, v = np.linalg.eigh(triple.reassemble())
    linalg._require_phases(energies, ts)
    h_norm = _operator_norm_hermitian(triple.h_int)
    vd = linalg.dagger(v)
    ev0 = _evaluator(rho0)
    pure = isinstance(ev0, _RankOne)
    rho_h = vd @ ev0.chi if pure else vd @ rho0.matrix @ v  # V† chi when pure

    def evaluator(t: np.ndarray) -> _Eigenbasis:
        """The evaluator of the steps at times t, stacked."""
        phases = np.exp(-1j * energies * t[:, None])
        if pure:  # chi(t) = W V† chi, one matrix-vector product per step
            return _eigenbasis((v @ (phases * rho_h)[..., None])[..., 0], rho0.ds, vectors=True)
        # V (rho_h ∘ Φ) V† with Φ_kl = φ_k conj(φ_l), φ = phases, Hermitian to roundoff:
        # the dense evaluator symmetrizes the rho_S and rho' that its eigensolvers read
        return _eigenbasis(v @ (rho_h * (phases[:, :, None] * phases[:, None, :].conj())) @ vd, rho0.ds)

    records = []
    for steps in _chunks(ts.size, rho0.dim if pure else rho0.dim**2):
        t = ts[steps.start : steps.stop]
        # built and read in one expression, so each chunk's arrays are freed
        # before the next chunk's are allocated
        records += _records(evaluator(t), triple.h_int, h_norm, ns, regularize)
    return Trajectory(times=ts, records=tuple(records))


def _records(ev, h_int, h_norm, ns, regularize) -> list[TrajectoryRecord]:
    """The records of one chunk of steps, read from their stacked evaluator ev."""
    report = _rate_report(_regularized(ev, regularize), h_int, h_norm, ())
    moments = {n: m.tolist() for n, m in _power_sums(ev.lam, ns).items()}
    columns = (
        _spectral_entropy(ev.lam),
        (ev.lam**2).sum(axis=-1),
        ev.comm_trace_norm,
        report.entropy_rate,
        report.entropy_bound,
        report.purity_rate,
        report.purity_bound,
    )
    return [
        TrajectoryRecord(e, p, {n: m[k] for n, m in moments.items()}, c, er, eb, pr, pb)
        for k, (e, p, c, er, eb, pr, pb) in enumerate(zip(*(col.tolist() for col in columns)))
    ]
