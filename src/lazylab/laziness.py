"""Laziness commutator, exact rate formulas, rate bounds and correlation measures.

A bipartite state is lazy when [rho_S (x) I, rho_SE] = 0; equivalently
its system entropy rate vanishes for every interaction Hamiltonian, and
it is invariant under the spectral pinching of rho_S. The functions here
evaluate the commutator, the exact entropy/moment rates (hbar = 1, nats),
the universal bounds on those rates, and the correlation quantities the
bounds are made of.

All of them are evaluated in the eigenbasis of rho_S = u diag(lam) u†,
where [f(rho_S) (x) I, rho_SE] is the Hadamard product
(f(lam_i) - f(lam_j)) rho'_{(ia),(jb)} with rho' = (u (x) I)† rho_SE (u (x) I)
(the Daleckii-Krein form); f = x and ln give the commutators whose trace
norms sum |eigvalsh(i C)| bound the rates, i C formed in one pass by the
weights i (f(lam_i) - f(lam_j)). The rate of tr g(rho_S) is
sum_i g'(lam_i) f_i over the diagonal f_i = (u† d rho_S/dt u)_ii of the
reduced flow d rho_S/dt = -i (X - X†), X = tr_E(H_int rho_SE).

Every public function reads one evaluator per BipartiteState, built on
first use and kept on the (frozen) state as its rho_s is, so one answer
factorizes rho_S once. Its three variants differ in where rho_SE (``mat``)
comes from. _Dense holds a validated, exactly Hermitian matrix, or a
trajectory step W rho_h W† Hermitian to roundoff; the rho_S and rho' that
its eigensolvers read are symmetrized, so they are eigensolved unchecked
(for a validated matrix rho_S is already exact). _RankOne holds a pure
state's chi and forms |chi><chi| only when asked; its closed forms read
the Schmidt weights: ||C||_F = ||C||_1 / sqrt(2), S(rho_E) = S(rho_S),
S(rho_SE) = 0, tr rho_SE^2 = 1 and the negativity is ((sum_i sqrt lam_i)^2 - 1) / 2.
_Regularized holds rho_SE's evaluator and a weight d, and forms
rho_r = (1-d) rho_SE + d I/dim only when asked, with no eigensolve:
rho_r keeps the eigenvectors u, lam_r = (1-d) lam + d/ds and
rho'_r = (1-d) rho' + d I/dim. The identity sits in the diagonal blocks,
which every commutator weighs by 0, so C_r = (1-d)^2 C, K_r is (1-d)
times rho' weighed by ln lam_r, and the flow is (1-d) times rho_SE's,
since tr_E(h) d/dim is Hermitian. Its purity is
tr rho_r^2 = (1-d)^2 tr rho_SE^2 + (2d - d^2)/dim.

The kernel also takes states stacked along leading axes: the Monte Carlo
protocols evaluate their samples that way, and record_trajectory its time
steps, both in chunks of _chunks, sized by the entries one sample stacks
(dim^2 for a matrix, dim for a vector). Every per-state check then runs on
each state, and its error carries the failing state's ``index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Real

import numpy as np

from . import linalg
from .linalg import IMAG_TOL, LAZY_TOL_PER_DIM, PROJECTOR_TOL
from .states import BipartiteState, SpectralProjection, _cluster_labels, _is_pure, _valid_state


# Complex entries of one stacked array (256 KiB): stacked states are evaluated in
# chunks of n = _CHUNK_ENTRIES // entries, entries = dim**2 for (n, dim, dim)
# matrices and dim for (n, dim) vectors, so memory stays bounded however many
# samples or time steps are asked for.
_CHUNK_ENTRIES = 1 << 14


class RankDeficientStateError(ValueError):
    """rho_S has an eigenvalue too small for ln(rho_S) to be meaningful."""


def _chunks(samples: int, entries: int) -> list[range]:
    """Consecutive ranges of samples (trials, time steps) whose stacked arrays fit
    _CHUNK_ENTRIES, each sample stacking ``entries`` complex entries (at least one
    sample per chunk)."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    step = max(1, _CHUNK_ENTRIES // entries)
    return [range(lo, min(lo + step, samples)) for lo in range(0, samples, step)]


@dataclass(frozen=True)
class CommutatorReport:
    """[rho_S (x) I, rho_SE] together with its norms and the lazy verdict."""

    commutator: np.ndarray
    trace_norm: float
    frobenius_norm: float
    lazy: bool
    tolerance: float


@dataclass(frozen=True)
class RateReport:
    """Exact rates and their universal bounds for one (state, H_int) pair.

    Rates are nats (entropy) or purity units per unit time; bounds come
    from the Schatten inequality |tr(A sigma)| <= ||A|| * ||sigma||_1 with
    ||H_int|| the operator norm (recorded in h_int_norm_kind).
    mi_purity_bound is populated only when the total state is pure.
    """

    entropy_rate: float
    purity_rate: float
    moment_rates: dict[int, float]
    entropy_bound: float
    purity_bound: float
    mi_purity_bound: float | None
    h_int_operator_norm: float
    ln_commutator_trace_norm: float
    h_int_norm_kind: str = field(default="operator")


@dataclass(frozen=True)
class CorrelationReport:
    """Entropies and correlation measures of a bipartite state.

    The pure-only fields (entanglement entropy, discord, robustness) are
    None for mixed input; negativity is defined for any state via the
    partial transpose.
    """

    mutual_information: float
    negativity: float
    system_entropy: float
    environment_entropy: float
    total_entropy: float
    entanglement_entropy: float | None
    pure_discord: float | None
    robustness_pure: float | None


@dataclass(frozen=True)
class PureStateAnalytics:
    """Closed-form laziness quantities from a Schmidt spectrum alone."""

    is_lazy: bool
    commutator_trace_norm: float
    entrywise_bound: float
    robustness: float


def _per_matrix(x):
    """A Python float for one matrix's value, the array itself for a stack."""
    return float(x) if x.ndim == 0 else x


def _trace_norm_hermitian(m: np.ndarray):
    """||m||_1 = sum |eigenvalues| of a Hermitian m (pass i*C for anti-Hermitian C)."""
    return _per_matrix(np.abs(np.linalg.eigvalsh(m)).sum(axis=-1))


def _operator_norm_hermitian(m: np.ndarray):
    """||m|| = max |eigenvalue| of a Hermitian m."""
    return _per_matrix(np.abs(np.linalg.eigvalsh(m)).max(axis=-1))


def _lifted_sandwich(a: np.ndarray, op: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a (x) I_E) op (b (x) I_E) for system-space a and b, without the krons."""
    ds, dim = a.shape[-1], op.shape[-1]
    left = a @ op.reshape(*op.shape[:-2], ds, -1)
    left = left.reshape(*left.shape[:-2], dim, ds, -1)
    out = b.swapaxes(-1, -2)[..., None, :, :] @ left
    return out.reshape(*out.shape[:-3], dim, dim)


def _log_spectrum(lam: np.ndarray) -> np.ndarray:
    """ln of an ascending spectrum of rho_S, refused below the log floor."""
    lam_min = lam[..., 0]
    linalg._raise_first(
        lam_min < linalg.LOG_EIGENVALUE_FLOOR,
        RankDeficientStateError,
        lambda i: f"rho_S has eigenvalue {lam_min[i]:.3e} below "
        f"{linalg.LOG_EIGENVALUE_FLOOR:.1e}; pass regularize=delta to mix "
        f"with the maximally mixed state first",
    )
    return np.log(lam)


@dataclass(frozen=True)
class _Eigenbasis:
    """rho_SE (``mat``, from each variant) in the eigenbasis of rho_S = u diag(lam) u†,
    ``lam`` ascending: ``rho`` is the Hermitian rho' = (u (x) I)† rho_SE (u (x) I), in
    which norms and traces of products are unchanged. Leading axes stack states."""

    lam: np.ndarray
    u: np.ndarray

    @cached_property
    def ln_lam(self) -> np.ndarray:
        return _log_spectrum(self.lam)

    @cached_property
    def rho(self) -> np.ndarray:
        rot = _lifted_sandwich(linalg.dagger(self.u), self.mat, self.u)
        rot += linalg.dagger(rot)
        rot *= 0.5
        return rot

    def unrotate(self, op: np.ndarray) -> np.ndarray:
        return _lifted_sandwich(self.u, op, linalg.dagger(self.u))

    def weigh_blocks(self, w: np.ndarray) -> np.ndarray:
        """rho' with its (i, j) system block multiplied by w[..., i, j]."""
        ds, dim = self.lam.shape[-1], self.rho.shape[-1]
        blocks = self.rho.reshape(*self.rho.shape[:-2], ds, dim // ds, ds, dim // ds)
        return (w[..., :, None, :, None] * blocks).reshape(self.rho.shape)

    def i_commutator(self, f_lam: np.ndarray) -> np.ndarray:
        """i [f(rho_S) (x) I, rho_SE] in this basis, Hermitian, given f at each lam."""
        return self.weigh_blocks(1j * (f_lam[..., :, None] - f_lam[..., None, :]))

    @cached_property
    def i_comm(self) -> np.ndarray:
        """i C with C = [rho_S (x) I, rho_SE]; Hermitian, zero iff lazy."""
        return self.i_commutator(self.lam)

    def commutator_trace_norm(self, f_lam: np.ndarray):
        """||[f(rho_S) (x) I, rho_SE]||_1, given f at each lam."""
        return _trace_norm_hermitian(self.i_commutator(f_lam))

    @cached_property
    def comm_trace_norm(self):
        return _trace_norm_hermitian(self.i_comm)

    @cached_property
    def comm_frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.i_comm))

    @cached_property
    def ln_comm_trace_norm(self):
        return self.commutator_trace_norm(self.ln_lam)

    def interaction_trace(self, h: np.ndarray) -> np.ndarray:
        """X = tr_E(h rho_SE) as one (ds, de·dim) @ (de·dim, ds) product; stacks broadcast."""
        ds = self.lam.shape[-1]
        # rho_SE[k, (j, a)] rearranged to [(a, k), j], matching h[(i, a), k] read as [i, (a, k)]
        rho = self.mat.reshape(*self.mat.shape[:-1], ds, -1).swapaxes(-1, -3).swapaxes(-1, -2)
        return h.reshape(*h.shape[:-2], ds, -1) @ rho.reshape(*rho.shape[:-3], -1, ds)

    def flow(self, h: np.ndarray) -> np.ndarray:
        """f_i = (u† d rho_S/dt u)_ii with d rho_S/dt = -i (X - X†), X = tr_E(h rho_SE).

        The local parts of H_tot would add [h_S, rho_S], whose diagonal here is 0.
        """
        x = self.interaction_trace(h)
        return np.einsum("...ji,...jk,...ki->...i", self.u.conj(), -1j * (x - linalg.dagger(x)), self.u)

    @cached_property
    def system_entropy(self):
        return _spectral_entropy(self.lam)

    @cached_property
    def environment_entropy(self):
        ds = self.lam.shape[-1]
        rho_e = linalg.partial_trace(self.mat, ds, self.mat.shape[-1] // ds, keep="environment")
        return _spectral_entropy(np.linalg.eigvalsh(rho_e))

    @cached_property
    def total_entropy(self):
        return _spectral_entropy(np.linalg.eigvalsh(self.mat))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    @cached_property
    def purity(self):
        """tr rho_SE^2 = ||rho_SE||_F^2."""
        return linalg._frobenius(self.mat) ** 2

    @cached_property
    def mutual_information(self):
        return self.system_entropy + self.environment_entropy - self.total_entropy

    @cached_property
    def negativity(self) -> float:
        """(||rho^{T_S}||_1 - 1) / 2, non-negative."""
        ds = self.lam.shape[-1]
        pt = linalg.partial_transpose_system(self.mat, ds, self.mat.shape[-1] // ds)
        return max(0.0, (_trace_norm_hermitian(pt) - 1.0) / 2.0)


def _rank_one_trace_norm(lam: np.ndarray, f_lam: np.ndarray):
    """||[f(rho_S) (x) I, |chi><chi|]||_1 for a pure state whose rho_S has spectrum lam.

    With a = (f(rho_S) (x) I) chi the commutator is |a><chi| - |chi><a|, in
    which the component <f> chi of a along chi cancels, <f> = sum_j lam_j f(lam_j).
    The rest is a rank-two operator with trace norm 2 ||a - <f> chi|| =
    2 sqrt(sum_i lam_i (f(lam_i) - <f>)^2), summed over deviations of
    f - f(lam_0) from their mean, so a uniform spectrum gives exactly 0.
    """
    g = f_lam - f_lam[..., :1]
    mean = (lam * g).sum(axis=-1, keepdims=True)
    return _per_matrix(2.0 * np.sqrt((lam * (g - mean) ** 2).sum(axis=-1)))


def _pure_vector(mat: np.ndarray) -> np.ndarray | None:
    """chi with mat = |chi><chi| to within delta = dim * eps in Frobenius norm, else None.

    One vdot turns a mixed state away first: within delta of rank one,
    (tr mat)^2 - ||mat||_F^2 <= about 2 (1 + sqrt(dim)) delta. chi is
    mat's largest-diagonal column over the square root of that entry.
    """
    dim = mat.shape[-1]
    tol = dim * np.finfo(float).eps
    tr = mat.trace().real
    if tr * tr - np.vdot(mat, mat).real > 4.0 * (1.0 + dim**0.5) * tol:
        return None
    k = int(np.argmax(mat.diagonal().real))
    chi = mat[:, k] / np.sqrt(mat[k, k].real)
    if np.linalg.norm(mat - np.outer(chi, chi.conj())) > tol:
        return None
    return chi


@dataclass(frozen=True)
class _Dense(_Eigenbasis):
    """The validated state(s) ``mat``, every member evaluated from it."""

    mat: np.ndarray


@dataclass(frozen=True)
class _RankOne(_Eigenbasis):
    """A pure |chi><chi|: norms, entropies and X come from M = chi.reshape(ds, de),
    rho_S = M M†; mat and the inherited dense members are built only when asked for.
    Leading axes of chi stack states."""

    chi: np.ndarray

    @cached_property
    def mat(self) -> np.ndarray:
        return self.chi[..., :, None] * self.chi.conj()[..., None, :]

    def commutator_trace_norm(self, f_lam: np.ndarray) -> float:
        return _rank_one_trace_norm(self.lam, f_lam)

    @cached_property
    def comm_trace_norm(self) -> float:
        return self.commutator_trace_norm(self.lam)

    @cached_property
    def comm_frobenius_norm(self) -> float:
        # C is rank two with eigenvalues +-i ||C||_1 / 2
        return self.comm_trace_norm / 2**0.5

    @cached_property
    def environment_entropy(self) -> float:
        # rho_E has rho_S's nonzero spectrum
        return self.system_entropy

    total_entropy = 0.0
    purity = 1.0

    @property
    def dim(self) -> int:
        return self.chi.shape[-1]

    @cached_property
    def negativity(self):
        return _per_matrix(np.maximum(0.0, (np.sqrt(self.lam).sum(axis=-1) ** 2 - 1.0) / 2.0))

    def interaction_trace(self, h: np.ndarray) -> np.ndarray:
        """X = tr_E(h |chi><chi|) = Phi M† with Phi = (h chi).reshape(ds, de); stacks
        of h and of chi broadcast."""
        m = self.chi.reshape(*self.chi.shape[:-1], self.lam.shape[-1], -1)
        phi = h @ self.chi[..., None]
        return phi.reshape(*phi.shape[:-2], *m.shape[-2:]) @ linalg.dagger(m)


def _rank_one(chi: np.ndarray, ds: int) -> _RankOne:
    """The evaluator of |chi><chi| (chi unit vector(s), system dimension ds).

    lam is the squared singular values of M, zero-padded when ds > de: eigh(M M†)
    would leave a product state's zero weights at eps, read as sqrt(eps) by the norms.
    """
    m = chi.reshape(*chi.shape[:-1], ds, -1)
    u, s, _ = np.linalg.svd(m, full_matrices=ds > m.shape[-1])
    pad = np.zeros((*s.shape[:-1], ds - s.shape[-1]))
    lam = np.concatenate([pad, s[..., ::-1] ** 2], axis=-1)
    return _RankOne(lam=lam, u=u[..., ::-1], chi=chi)


def _eigenbasis(state: np.ndarray, ds: int, *, vectors: bool = False) -> _Eigenbasis:
    """The evaluator of the validated state(s) with system dimension ds: rank-one for
    unit ``vectors`` or one matrix pure within dim * eps, else dense (stacks included).

    ``vectors`` says what the last axis holds: an (n, dim) stack of vectors has the
    shape of one (dim, dim) matrix when n = dim.
    """
    if vectors:
        return _rank_one(state, ds)
    chi = _pure_vector(state) if state.ndim == 2 else None
    return _dense(state, ds) if chi is None else _rank_one(chi, ds)


def _dense(mat: np.ndarray, ds: int) -> _Dense:
    """The dense evaluator of the state(s) ``mat``, through the eigh of rho_S, whose
    Hermitian part eigh reads (rho_S itself when mat is exactly Hermitian)."""
    rho_s = linalg.partial_trace(mat, ds, mat.shape[-1] // ds, keep="system")
    lam, u = np.linalg.eigh(0.5 * (rho_s + linalg.dagger(rho_s)))
    return _Dense(lam=lam, u=u, mat=mat)


@dataclass(frozen=True)
class _Regularized(_Eigenbasis):
    """(1-d) rho_SE + d I/dim read from the evaluator ``base`` of rho_SE: C, every
    commutator trace norm and the flow are base's, scaled."""

    base: _Eigenbasis
    d: float

    @classmethod
    def of(cls, base: _Eigenbasis, d: float) -> _Regularized:  # d checked already
        return cls(lam=(1.0 - d) * base.lam + d / base.lam.shape[-1], u=base.u, base=base, d=d)

    @property
    def dim(self) -> int:
        return self.base.dim

    @cached_property
    def mat(self) -> np.ndarray:
        return (1.0 - self.d) * self.base.mat + self.d * np.eye(self.dim) / self.dim

    @cached_property
    def purity(self):
        return (1.0 - self.d) ** 2 * self.base.purity + (2.0 * self.d - self.d**2) / self.dim

    def commutator_trace_norm(self, f_lam: np.ndarray):
        return (1.0 - self.d) * self.base.commutator_trace_norm(f_lam)

    @cached_property
    def comm_trace_norm(self):
        return (1.0 - self.d) ** 2 * self.base.comm_trace_norm

    def flow(self, h: np.ndarray) -> np.ndarray:
        return (1.0 - self.d) * self.base.flow(h)


def _require_weight(d) -> float:
    """d, refused as a regularization weight unless it is a real number in (0, 1)."""
    if not (isinstance(d, Real) and 0.0 < d < 1.0):
        raise ValueError(f"regularization weight must be in (0, 1), got {d!r}")
    return d


def _optional_weight(d) -> float | None:
    """d, refused unless it is None (no regularization) or a weight _require_weight accepts."""
    return d if d is None else _require_weight(d)


def _regularized(ev: _Eigenbasis, d: float | None) -> _Eigenbasis:
    """The evaluator of (1-d) rho_SE + d I/dim derived from rho_SE's ev, d checked; ev if d is None."""
    return ev if d is None else _Regularized.of(ev, d)


def _evaluator(rho: BipartiteState) -> _Eigenbasis:
    """rho's evaluator, built on first use and kept on the frozen state, as rho.rho_s is."""
    ev = vars(rho).get("_evaluator")
    if ev is None:
        ev = vars(rho)["_evaluator"] = _eigenbasis(rho.matrix, rho.ds)
    return ev


def _spectral_entropy(lam: np.ndarray):
    """-sum lam ln lam over the last axis, with 0 ln 0 = 0."""
    lam = np.clip(lam, 0.0, 1.0)
    terms = lam * np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return _per_matrix(-terms.sum(axis=-1) + 0.0)  # normalize -0.0


def _moment_order(n) -> int:
    if not (float(n).is_integer() and n >= 1):
        raise ValueError(f"moment order must be an integer >= 1, got {n}")
    return int(n)


def _power_sums(lam: np.ndarray, ns) -> dict[int, float]:
    return {n: _per_matrix((lam**n).sum(axis=-1)) for n in ns}


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho ln rho) in nats, with 0 ln 0 = 0 (an array for stacked rho)."""
    mat = linalg.require_hermitian(rho, name="rho")
    return _spectral_entropy(np.linalg.eigvalsh(mat))


def moments(rho, ns) -> dict[int, float]:
    """tr(rho^N) for each requested power N >= 1."""
    ns = tuple(map(_moment_order, ns))
    mat = linalg.require_hermitian(rho, name="rho")
    return _power_sums(np.linalg.eigvalsh(mat), ns)


def default_lazy_tolerance(ds: int, de: int) -> float:
    """The one lazy rule is ||C||_1 <= this; O(dim) roundoff, hence the scaling."""
    return LAZY_TOL_PER_DIM * ds * de


def _commutator_norms(rho: BipartiteState, tol: float | None) -> dict:
    """Every CommutatorReport field but the dense commutator, as a dict."""
    if tol is None:
        tol = default_lazy_tolerance(rho.ds, rho.de)
    linalg._require_tolerance(tol, "tol")
    ev = _evaluator(rho)
    tn = ev.comm_trace_norm
    return {
        "trace_norm": tn,
        "frobenius_norm": ev.comm_frobenius_norm,
        "lazy": bool(tn <= tol),
        "tolerance": float(tol),
    }


def laziness_commutator(rho: BipartiteState, tol: float | None = None) -> CommutatorReport:
    """[rho_S (x) I, rho_SE] with trace norm and lazy verdict."""
    norms = _commutator_norms(rho, tol)
    ev = _evaluator(rho)
    return CommutatorReport(commutator=ev.unrotate(-1j * ev.i_comm), **norms)


def spectral_pinch(rho: BipartiteState, proj: SpectralProjection) -> BipartiteState:
    """sum_j (Pi_j (x) I) rho (Pi_j (x) I) for system-space projectors."""
    total = np.zeros((rho.ds, rho.ds), dtype=complex)
    for p in proj.projectors:
        if p.shape != (rho.ds, rho.ds):
            raise ValueError(
                f"projector shape {p.shape} does not span the system space "
                f"(dimension {rho.ds})"
            )
        total += p
    if np.linalg.norm(total - np.eye(rho.ds)) > PROJECTOR_TOL:
        raise ValueError("projectors do not resolve the identity on the system")
    ps = np.stack(proj.projectors)
    t = rho.matrix.reshape(rho.ds, rho.de, rho.ds, rho.de)
    out = np.einsum("pik,kalb,plj->iajb", ps, t, ps, optimize=True)
    return BipartiteState(ds=rho.ds, de=rho.de, matrix=out.reshape(rho.dim, rho.dim))


def pinching_residual(rho: BipartiteState, cluster_tol: float | None = None) -> float:
    """||rho - pinch(rho)||_1 with projectors from rho_S's own spectrum.

    Eigenvalues of rho_S whose neighbour gap is at most the absolute
    ``cluster_tol``, by default the lazy tolerance, share a projector. In
    the eigenbasis of rho_S the residual is rho' restricted to the blocks
    whose eigenvalues fall in different clusters. It is zero on lazy
    states, but within a small factor of the tolerance the two verdicts
    can differ: ||C||_1 weighs each gap by its block.
    """
    if cluster_tol is None:
        cluster_tol = default_lazy_tolerance(rho.ds, rho.de)
    linalg._require_tolerance(cluster_tol, "cluster_tol")
    basis = _evaluator(rho)
    labels = _cluster_labels(basis.lam, cluster_tol)
    return _trace_norm_hermitian(basis.weigh_blocks(labels[:, None] != labels[None, :]))


def regularize_state(rho: BipartiteState, delta: float) -> BipartiteState:
    """(1 - delta) rho + delta I/dim, pushing rho_S away from rank deficiency.

    delta is checked first, None too. A mixture of accepted states, the result is kept
    with the evaluator derived from rho's, neither checked nor factorized again.
    """
    ev = _Regularized.of(d=_require_weight(delta), base=_evaluator(rho))
    return _valid_state(rho.ds, rho.de, ev.mat, ev)


def _require_real(value, *, what: str):
    imag = value.imag
    linalg._raise_first(
        abs(imag) > IMAG_TOL,
        ValueError,
        lambda i: f"{what} has imaginary residue {imag[i]:.3e}",
    )
    return _per_matrix(value.real + 0.0)  # normalize -0.0


def _check_h_int(h_int, ds: int, de: int) -> np.ndarray:
    return linalg._require_dims(linalg.require_hermitian(h_int, name="h_int"), ds, de, "h_int")


def _flow_rate(ev: _Eigenbasis, flow: np.ndarray, n=None):
    """d/dt tr g(rho_S) = sum_i (g'(lam_i) - g'(lam_0)) f_i for g = -x ln x, or x^n (n checked).

    The g'(lam_0) reference is exact because sum_i f_i = tr d rho_S/dt = 0;
    it makes the rate exactly 0 wherever g' is constant on the spectrum
    (N = 1, a uniform spectrum), where sum_i g'(lam_i) f_i leaves roundoff.
    """
    if n is None:  # g' = -ln x - 1, whose constant drops out
        g_prime, what = -ev.ln_lam, "entropy rate"
    else:
        g_prime, what = n * ev.lam ** (n - 1), f"moment-{n} rate"
    return _require_real(((g_prime - g_prime[..., :1]) * flow).sum(axis=-1), what=what)


def _rate_report(ev: _Eigenbasis, h: np.ndarray, h_norm, ns: tuple[int, ...]) -> RateReport:
    """Rates and bounds of the evaluator's state for the (checked) interaction h.

    For stacked (state, h) pairs every field holds one value per pair.
    """
    flow = ev.flow(h)
    return RateReport(
        entropy_rate=_flow_rate(ev, flow),
        purity_rate=_flow_rate(ev, flow, 2),
        moment_rates={n: _flow_rate(ev, flow, n) for n in ns},
        entropy_bound=h_norm * ev.ln_comm_trace_norm,
        purity_bound=2.0 * h_norm * ev.comm_trace_norm,
        mi_purity_bound=None,
        h_int_operator_norm=h_norm,
        ln_commutator_trace_norm=ev.ln_comm_trace_norm,
    )


def entropy_rate(rho: BipartiteState, h_int, regularize: float | None = None) -> float:
    """Exact dS/dt of the system under H_int: -i tr{H_int [ln(rho_S) (x) I, rho_SE]}.

    Requires rho_S to be full rank; with ``regularize=delta`` the state is
    first mixed as (1-delta) rho + delta I/dim. The result is exact for
    arbitrary coupling strength and needs no Markovian assumption; it is
    evaluated from the reduced flow as -sum_i ln(lam_i) f_i.
    """
    h = _check_h_int(h_int, rho.ds, rho.de)
    ev = _regularized(d=_optional_weight(regularize), ev=_evaluator(rho))
    return _flow_rate(ev, ev.flow(h))


def moment_rate(rho: BipartiteState, h_int, n: int) -> float:
    """Exact d/dt tr(rho_S^N) = i N tr{H_int [rho_S^{N-1} (x) I, rho_SE]}.

    Evaluated from the reduced flow as N sum_i lam_i^(N-1) f_i. N must be
    an integer >= 1; N = 1 returns zero identically (trace preservation),
    N = 2 is the purity rate. Well-defined for rank-deficient rho_S, unlike
    the entropy rate. ``h_int`` may stack couplings along leading axes; the
    rates then come back as an array, all from one rho_S eigenbasis.
    """
    n = _moment_order(n)
    h = _check_h_int(h_int, rho.ds, rho.de)
    ev = _evaluator(rho)
    return _flow_rate(ev, ev.flow(h), n)


def purity_rate(rho: BipartiteState, h_int) -> float:
    return moment_rate(rho, h_int, 2)


def rate_bounds(
    rho: BipartiteState,
    h_int,
    ns: tuple[int, ...] = (),
    regularize: float | None = None,
) -> RateReport:
    """Exact rates plus their universal bounds for one (state, H_int) pair.

    entropy_bound = ||H_int|| ||[ln(rho_S) (x) I, rho_SE]||_1,
    purity_bound = 2 ||H_int|| ||C||_1, and for pure total states also
    mi_purity_bound = 4 ||H_int|| sqrt(2 I). With ``regularize`` every
    field describes the regularized state, so mi_purity_bound is None
    unless that state is still pure by is_pure. Every input is checked first.
    """
    h = _check_h_int(h_int, rho.ds, rho.de)
    return _rate_bounds(rho, h, tuple(map(_moment_order, ns)), _optional_weight(regularize))


def _rate_bounds(rho: BipartiteState, h: np.ndarray, ns, regularize) -> RateReport:
    """rate_bounds for an h_int (as a checked H_tot's split is), ns and regularize checked already."""
    h_norm = _operator_norm_hermitian(h)
    ev = _regularized(_evaluator(rho), regularize)
    mi = _mi_purity_bound(ev.mutual_information, h_norm) if _is_pure(ev.purity) else None
    return replace(_rate_report(ev, h, h_norm, ns), mi_purity_bound=mi)


def _mi_purity_bound(mi, h_norm):
    """4 ||H_int|| sqrt(2 I(S:E)), the purity-rate bound for a pure total state."""
    return _per_matrix(4.0 * h_norm * np.sqrt(2.0 * np.maximum(mi, 0.0)))


def witness_hamiltonian(
    rho: BipartiteState, regularize: float | None = None
) -> tuple[np.ndarray, float]:
    """Interaction H_int = i [ln(rho_S) (x) I, rho_SE] and its entropy rate.

    The construction makes the entropy rate equal -||K||_F^2, strictly
    negative for every non-lazy state and zero exactly on lazy ones. Both
    partial traces of the returned H_int vanish, so it is a valid
    interaction term without local components. With ``regularize`` the
    witness and prediction refer to the regularized state.
    """
    basis = _regularized(d=_optional_weight(regularize), ev=_evaluator(rho))
    ik = basis.i_commutator(basis.ln_lam)
    h_int = basis.unrotate(ik)
    h_int = (h_int + linalg.dagger(h_int)) / 2
    predicted = -float(np.linalg.norm(ik) ** 2)
    return h_int, predicted


def negativity(rho: BipartiteState) -> float:
    """(||rho^{T_S}||_1 - 1) / 2, non-negative."""
    return _evaluator(rho).negativity


def correlation_measures(rho: BipartiteState) -> CorrelationReport:
    """Mutual information, negativity and the pure-state correlation set.

    For pure total states the mutual information equals twice the
    entanglement entropy, which also equals twice the (system-to-
    environment) discord, and the robustness (sum_i sqrt p_i)^2 - 1 equals
    twice the negativity, which is how it is evaluated.
    """
    ev = _evaluator(rho)
    pure = _is_pure(ev.purity)
    return CorrelationReport(
        mutual_information=ev.mutual_information,
        negativity=ev.negativity,
        system_entropy=ev.system_entropy,
        environment_entropy=ev.environment_entropy,
        total_entropy=ev.total_entropy,
        entanglement_entropy=ev.system_entropy if pure else None,
        pure_discord=ev.system_entropy if pure else None,
        robustness_pure=2.0 * ev.negativity if pure else None,
    )


def pure_state_analytics(schmidt) -> PureStateAnalytics:
    """Laziness quantities of a pure state from its Schmidt spectrum.

    The commutator of |chi><chi| lives on the span of the Schmidt product
    vectors, where it acts as the antisymmetric matrix
    M_ik = sqrt(p_i p_k)(p_i - p_k); its trace norm
    2 sqrt(sum_i p_i (p_i - sum_k p_k^2)^2), the entrywise
    triangle bound sum_{i != k} |M_ik|, and the robustness
    (sum_i sqrt(p_i))^2 - 1 form an increasing chain. A pure state is
    lazy exactly when the spectrum is uniform, p_i = 1/rank; the verdict
    applies the lazy tolerance of the Schmidt vectors' ds, de to that norm.
    """
    p = np.asarray(schmidt.coefficients, dtype=float) ** 2
    tn = _rank_one_trace_norm(p, p)
    ds, de = schmidt.left_vectors.shape[0], schmidt.right_vectors.shape[0]
    m = np.sqrt(np.outer(p, p)) * (p[:, None] - p[None, :])
    entrywise = float(np.abs(m).sum())
    robustness = float(np.sqrt(p).sum() ** 2 - 1.0)
    return PureStateAnalytics(
        is_lazy=bool(tn <= default_lazy_tolerance(ds, de)),
        commutator_trace_norm=tn,
        entrywise_bound=entrywise,
        robustness=robustness,
    )
