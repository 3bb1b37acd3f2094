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
    _eigenbasis,
    _evaluator,
    _operator_norm_hermitian,
    _power_sums,
    _RankOne,
    _rate_report,
    _regularized,
    _spectral_entropy,
)
from .linalg import FD_STEP
from .states import BipartiteState


def _env_diagonal(t: np.ndarray) -> np.ndarray:
    """Writable view v[a, i, j] = t[i, a, j, a] of a (ds, de, ds, de) operator,
    the entries where an h_s (x) I term adds h_s[i, j]."""
    return np.einsum("iaja->aij", t)


def _system_diagonal(t: np.ndarray) -> np.ndarray:
    """Writable view v[i, a, b] = t[i, a, i, b] of a (ds, de, ds, de) operator,
    the entries where an I (x) h_e term adds h_e[a, b]."""
    return np.einsum("iaib->iab", t)


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
    """
    h = linalg._require_dims(linalg.require_hermitian(h_tot, name="h_tot"), ds, de, "h_tot")
    t = h.reshape(ds, de, ds, de)  # a view of the fresh h, written after the partial traces
    dim = ds * de
    a = linalg.partial_trace(h, ds, de, keep="system") / de
    b = linalg.partial_trace(h, ds, de, keep="environment") / ds
    c = float(np.trace(h).real) / dim
    _env_diagonal(t)[...] -= a
    _system_diagonal(t)[...] -= b
    h_int = t.reshape(dim, dim)
    h_int.reshape(-1)[:: dim + 1] += c
    return HamiltonianTriple(
        h_s=a - (c / 2.0) * np.eye(ds),
        h_e=b - (c / 2.0) * np.eye(de),
        h_int=h_int,
    )


def evolve_exact(rho: BipartiteState, h_tot, t: float) -> BipartiteState:
    """rho(t) = e^{-i H t} rho e^{i H t} (hbar = 1)."""
    u = linalg.unitary_from_hamiltonian(h_tot, t)
    mat = u @ rho.matrix @ linalg.dagger(u)
    mat = (mat + linalg.dagger(mat)) / 2
    return BipartiteState(ds=rho.ds, de=rho.de, matrix=mat)


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
    truncation term.
    """
    linalg._require_step(h, "step")
    if observable not in ("entropy", "moment"):
        raise ValueError(f"observable must be 'entropy' or 'moment', got {observable!r}")
    if richardson:
        coarse = finite_difference_rate(rho, h_tot, observable, n=n, h=h)
        fine = finite_difference_rate(rho, h_tot, observable, n=n, h=h / 2.0)
        return (4.0 * fine - coarse) / 3.0
    values = []
    for st in (evolve_exact(rho, h_tot, h), evolve_exact(rho, h_tot, -h)):
        lam = np.linalg.eigvalsh(st.rho_s)
        if observable == "moment":
            values.append(_power_sums(lam, [n])[n])
        # near a zero eigenvalue the entropy difference quotient is a poor
        # approximant of a derivative that may not even exist
        elif lam[0] < linalg.LOG_EIGENVALUE_FLOOR:
            raise RankDeficientStateError(
                f"rho_S at t = +-{h:g} has eigenvalue {lam[0]:.3e}; use a "
                f"smaller step or regularize the state first"
            )
        else:
            values.append(_spectral_entropy(lam))
    return (values[0] - values[1]) / (2.0 * h)


def _conjugate(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """W rho W†, symmetrized: Hermitian by construction, with no further check."""
    mat = w @ rho @ linalg.dagger(w)
    return (mat + linalg.dagger(mat)) / 2


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
    is rho(t) = W rho_h W† for W = V diag(exp(-i E t)); one factorization
    of its rho_S yields the reduced observables, the commutator norms and
    every rate. Each step's evaluator comes from laziness._eigenbasis. When rho0's
    own evaluator is rank-one, rho0 = |chi><chi| evolves as the vector
    chi(t) = W V† chi, whose evaluator forms |chi(t)><chi(t)| only for ``regularize``.

    Only the inputs are checked, once: rho0 when it was built, H_tot by
    decompose_hamiltonian, the times here (finite, ascending). With
    ``regularize`` the rates come from the regularized evaluator derived
    from each step's (W I W† = I), with no eigensolve of its own.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.isfinite(ts).all():
        raise ValueError("times must be finite")
    if np.any(np.diff(ts) < 0):
        raise ValueError("times must be sorted ascending")

    ds = rho0.ds
    triple = decompose_hamiltonian(h_tot, ds, rho0.de)
    spec = linalg.hermitian_eig(triple.reassemble(), name="h_tot")
    h_norm = _operator_norm_hermitian(triple.h_int)
    v, vd = spec.eigenvectors, linalg.dagger(spec.eigenvectors)
    ev0 = _evaluator(rho0)
    pure = isinstance(ev0, _RankOne)
    rho_h = vd @ ev0.chi if pure else vd @ rho0.matrix @ v  # V† chi when pure

    records = []
    for t in ts:
        phase = np.exp(-1j * spec.eigenvalues * t)
        ev = _eigenbasis(v @ (phase * rho_h) if pure else _conjugate(v * phase, rho_h), ds)
        rate_ev = ev if regularize is None else _regularized(ev, regularize)
        report = _rate_report(rate_ev, triple.h_int, h_norm, ())
        records.append(
            TrajectoryRecord(
                entropy=_spectral_entropy(ev.lam),
                purity=float((ev.lam**2).sum()),
                moment_values=_power_sums(ev.lam, ns),
                comm_trace_norm=ev.comm_trace_norm,
                entropy_rate=report.entropy_rate,
                entropy_bound=report.entropy_bound,
                purity_rate=report.purity_rate,
                purity_bound=report.purity_bound,
            )
        )
    return Trajectory(times=ts, records=tuple(records))
