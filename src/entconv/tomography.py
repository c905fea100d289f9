"""Maximum-likelihood state and process tomography with Monte-Carlo errors.

State reconstruction parameterizes the density matrix as T^dag T / Tr(T^dag T)
with an upper-triangular T (16 real parameters), so the estimate satisfies
Hermiticity, positivity and unit trace by construction, and maximizes the
Poisson log-likelihood sum_s [n_s log mu_s - mu_s].

Process reconstruction is the same fit applied to the Choi matrix
J = M^dag M followed by the exact trace-preservation retraction
J -> (I x G^{-1/2}) J (I x G^{-1/2}) with G = Tr_out J, then converts to the
chi representation in the Pauli basis (I, X, Y, Z). Both objectives have
analytic gradients; the process gradient is pulled back through the
retraction by the chain rule, with the derivative of G^{-1/2} taken from its
eigendecomposition (Daleckii-Krein divided differences).

Records are always fitted in canonical setting order, so the projector
stacks and the linear-inversion design matrix are built once, at import.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable

import numpy as np
from scipy import optimize

from .counts import CountRecord
from .states import (MetricReport, PAULIS, PROJECTOR_LABELS, bell_state, fidelity,
                     projector, purity, tangle)


class ReconstructionError(RuntimeError):
    """Raised when a reconstruction cannot be carried out on the given data."""


#: Basis family of each analysis label (H/V, D/A and R/L are complete pairs).
_BASIS_OF = {"H": 0, "V": 0, "D": 1, "A": 1, "R": 2, "L": 2}

_LABEL_INDEX = {l: i for i, l in enumerate(PROJECTOR_LABELS)}

_TRIU_R, _TRIU_C = np.triu_indices(4, 1)

#: Probabilities below this floor are clipped in both likelihoods.
_P_FLOOR = 1e-12


def tomography_settings(kind: str) -> list[tuple[str, str]]:
    """All 36 ordered pairs of the six analysis labels.

    "state2q" pairs two measurement labels; "process1q" pairs an input-state
    label with a measurement label. Both enumerate the same 6x6 grid.
    """
    if kind not in ("state2q", "process1q"):
        raise ValueError(f"unknown settings kind {kind!r}")
    return list(product(PROJECTOR_LABELS, PROJECTOR_LABELS))


#: Canonical setting order; every fit sees its records in this order.
_SETTINGS = tomography_settings("state2q")

#: Basis-pair group (0..8) of each canonical setting.
_GROUP = np.array([3 * _BASIS_OF[a] + _BASIS_OF[b] for a, b in _SETTINGS])


def _kron_grid(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """kron(left[a], right[b]) at [a, b] for two stacks of 2x2 matrices."""
    return np.einsum("aij,bkl->abikjl", left, right).reshape(len(left), len(right), 4, 4)


_LABEL_PROJS = np.array([projector(l) for l in PROJECTOR_LABELS])

#: P_a x P_b of each canonical state-tomography setting.
_STATE_PROJS = _kron_grid(_LABEL_PROJS, _LABEL_PROJS).reshape(36, 4, 4)

#: W_s = P_meas x rho_in^T of each canonical (input, measurement) setting, so
#: that p_s = Tr[W_s J]; flattened transposes make that one matrix product.
_PROCESS_W = _kron_grid(_LABEL_PROJS, _LABEL_PROJS.transpose(0, 2, 1)).swapaxes(
    0, 1).reshape(36, 4, 4)
_PROCESS_W_T = _PROCESS_W.transpose(0, 2, 1).reshape(36, 16)

#: Orthonormal Hermitian operator basis (Pauli products / 2) for inversion.
_HERM_BASIS = _kron_grid(np.array(PAULIS), np.array(PAULIS)).reshape(16, 4, 4) / 2.0


def _design_matrix() -> np.ndarray:
    """Tr[(P_a x P_b) B_k] for each canonical setting and basis element."""
    design = np.real(np.einsum("sij,kji->sk", _STATE_PROJS, _HERM_BASIS))
    if np.linalg.matrix_rank(design) < 16:
        raise ReconstructionError("rank-deficient design matrix")
    return design


_DESIGN = _design_matrix()


def subtract_accidentals(records: list[CountRecord]) -> list[CountRecord]:
    """Subtract each record's accidental estimate from its coincidences.

    Corrected counts are clamped at zero; all other fields are unchanged.
    """
    return [replace(r, coincidences=max(0.0, r.coincidences - r.accidental_estimate))
            for r in records]


def _sorted_label_records(records: list[CountRecord]) -> list[CountRecord]:
    """Validate a complete 36-setting label dataset and order it canonically."""
    if len(records) != 36:
        raise ReconstructionError(f"expected 36 records, got {len(records)}")
    by_setting = {}
    for r in records:
        if r.setting_a not in _LABEL_INDEX or r.setting_b not in _LABEL_INDEX:
            raise ReconstructionError(
                f"tomography requires label settings, got ({r.setting_a!r}, {r.setting_b!r})")
        key = (r.setting_a, r.setting_b)
        if key in by_setting:
            raise ReconstructionError(f"duplicate setting {key}")
        by_setting[key] = r
    return [by_setting[s] for s in _SETTINGS]


def _rates(ordered: list[CountRecord]) -> np.ndarray:
    return np.array([r.coincidences / r.duration for r in ordered])


def _group_sums(rates: np.ndarray) -> np.ndarray:
    """Summed rate of each of the nine basis-pair groups (canonical order)."""
    return np.bincount(_GROUP, weights=rates, minlength=9)


def _flux_rate(ordered: list[CountRecord]) -> float:
    """Total pair rate estimated from the nine complete basis-pair groups.

    Within one group the four joint projectors sum to the identity, so the
    group's summed rate estimates the same total flux; the groups are
    averaged.
    """
    rate = float(np.mean(_group_sums(_rates(ordered))))
    if rate <= 0.0:
        raise ReconstructionError("all counts are zero; cannot normalize")
    return rate


@dataclass
class TomographyOptions:
    """Optimizer and reporting knobs shared by both reconstructions."""

    max_iters: int = 5000
    rel_tol: float = 1e-10          # relative log-likelihood increment
    fit_normalization: bool = False  # fit the total flux as an extra parameter
    tp_mode: str = "constrain"       # "constrain" (exact TP) or "normalize"
    start: str = "inversion"         # "inversion" warm start or "mixed" cold start
    fidelity_target: np.ndarray | None = None  # defaults to |phi+>
    process_ideal: np.ndarray | None = None    # defaults to the identity chi

    def __post_init__(self):
        if self.tp_mode not in ("constrain", "normalize"):
            raise ValueError(f"unknown tp_mode {self.tp_mode!r}")
        if self.start not in ("inversion", "mixed"):
            raise ValueError(f"unknown start {self.start!r}")
        if self.max_iters < 1 or self.rel_tol <= 0.0:
            raise ValueError("max_iters must be >= 1 and rel_tol > 0")


@dataclass
class TomographyResult:
    """Reconstruction output: estimate plus optimizer diagnostics."""

    estimate: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    metrics: MetricReport
    kind: str = "state"
    history: list[float] = field(default_factory=list, repr=False)


def _check_monotone(history: list[float]) -> None:
    for prev, cur in zip(history, history[1:]):
        if cur < prev - 1e-9 * max(1.0, abs(prev)):
            raise ReconstructionError(
                f"log-likelihood decreased from {prev!r} to {cur!r}")


# ---------------------------------------------------------------------------
# likelihood core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Objective:
    """Negative Poisson log-likelihood of one fit, at unit count scale.

    ``fun(t)`` returns the value and its analytic gradient. Counts are divided
    by their mean ``scale`` so that the landscape (hence the estimate) is
    invariant under a global rescaling of all counts; ``loglik`` maps a value
    back to the log-likelihood of the raw counts.
    """

    fun: Callable[[np.ndarray], tuple[float, np.ndarray]]
    counts: np.ndarray
    scale: float
    raw_total: float

    def loglik(self, value: float) -> float:
        # sum n log mu - mu at raw scale is s * (scaled sum) + log(s) * sum n
        return -self.scale * value + float(np.log(self.scale)) * self.raw_total


def _scaled_counts(ordered: list[CountRecord]) -> tuple[np.ndarray, np.ndarray, float]:
    """Raw counts, the same counts at unit mean, and their mean ``scale``."""
    raw_counts = np.array([max(0.0, r.coincidences) for r in ordered])
    if np.all(raw_counts == 0):
        raise ReconstructionError("all counts are zero")
    scale = raw_counts.sum() / raw_counts.size
    return raw_counts, raw_counts / scale, scale


def _poisson_terms(p: np.ndarray, counts: np.ndarray, norms: np.ndarray):
    """Negative log-likelihood at probabilities p, the clipped p, mu and weights.

    The weight w_s = dll/dp_s is zero where p_s is clipped at the floor,
    because the clipped objective does not depend on p_s there.
    """
    c = np.clip(p, _P_FLOOR, None)
    mu = norms * c
    nll = -float(np.sum(counts * np.log(mu) - mu))
    w = np.where(p < _P_FLOOR, 0.0, counts / c - norms)
    return nll, c, mu, w


def _maximize(objective: Objective, t0: np.ndarray, opts: TomographyOptions,
              gtol: float, maxcor: int) -> tuple[optimize.OptimizeResult, list[float]]:
    """L-BFGS-B on ``objective``; history holds the raw log-likelihood per iterate."""
    history = [objective.loglik(objective.fun(t0)[0])]

    # SciPy >= 1.11 passes the OptimizeResult at x_k to a callback whose
    # parameter is named intermediate_result; its ``fun`` is the value the
    # optimizer already computed there.
    def record_step(intermediate_result):
        history.append(objective.loglik(intermediate_result.fun))

    res = optimize.minimize(
        objective.fun, t0, jac=True, method="L-BFGS-B", callback=record_step,
        options={"maxiter": opts.max_iters, "ftol": opts.rel_tol,
                 "gtol": gtol * max(1.0, objective.counts.sum()), "maxcor": maxcor})
    _check_monotone(history)
    return res, history


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------

def _params_to_t(t: np.ndarray) -> np.ndarray:
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    T[_TRIU_R, _TRIU_C] = t[4:10] + 1j * t[10:16]
    return T


def _t_to_params(T: np.ndarray) -> np.ndarray:
    """Inverse of ``_params_to_t``.

    Applied to the Wirtinger derivative dll/dT^* of a real function ll, it
    gives half the gradient of ll over the 16 parameters.
    """
    t = np.zeros(16)
    t[:4] = np.real(np.diag(T))
    t[4:10] = np.real(T[_TRIU_R, _TRIU_C])
    t[10:16] = np.imag(T[_TRIU_R, _TRIU_C])
    return t


def _rho_of_params(t: np.ndarray) -> np.ndarray:
    T = _params_to_t(t)
    g = T.conj().T @ T
    return g / float(np.real(np.trace(g)))


def _params_of_rho(rho: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Parameters whose reconstruction is the PSD projection of ``rho``."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    w = np.clip(w, floor, None)
    r = (v * w) @ v.conj().T
    r /= float(np.real(np.trace(r)))
    T = np.linalg.cholesky(r).conj().T
    return _t_to_params(T)


def linear_inversion_state(records: list[CountRecord]) -> np.ndarray:
    """Least-squares state estimate; Hermitian but possibly non-positive.

    Probabilities are normalized per basis-pair group, then the 36 linear
    equations Tr[(P_a x P_b) rho] = p are solved over the 16-dimensional
    Hermitian operator basis. Used as an independent cross-check on (and a
    starting point for) the likelihood fit.
    """
    rates = _rates(_sorted_label_records(records))
    group_tot = _group_sums(rates)[_GROUP]
    empty = np.flatnonzero(group_tot <= 0.0)
    if empty.size:
        a, b = _SETTINGS[empty[0]]
        raise ReconstructionError(f"basis group of ({a}, {b}) has zero counts")
    x, *_ = np.linalg.lstsq(_DESIGN, rates / group_tot, rcond=None)
    rho = (x[:, None, None] * _HERM_BASIS).sum(axis=0)
    return rho / float(np.real(np.trace(rho)))


def state_objective(records: list[CountRecord],
                    fit_normalization: bool = False) -> Objective:
    """The objective ``mle_state`` minimizes, over 16 (or 17) parameters.

    Expected counts are mu_s = N * duration_s * Tr[(P_a x P_b) rho(t)]; the
    flux N is estimated from the complete basis groups, or scaled by
    exp(t[16]) when ``fit_normalization`` is set.
    """
    ordered = _sorted_label_records(records)
    raw_counts, counts, scale = _scaled_counts(ordered)
    durations = np.array([r.duration for r in ordered])
    base_norms = _flux_rate(ordered) * durations / scale

    def fun(t):
        T = _params_to_t(t[:16])
        g = T.conj().T @ T
        tau = float(np.real(np.trace(g)))
        norms = np.exp(t[16]) * base_norms if fit_normalization else base_norms
        p = np.real(np.einsum("sij,ji->s", _STATE_PROJS, g / tau))
        nll, c, mu, w = _poisson_terms(p, counts, norms)
        m = np.tensordot(w, _STATE_PROJS, axes=(0, 0))
        grad = 2.0 * _t_to_params((T @ m - float(np.dot(w, c)) * T) / tau)
        if fit_normalization:
            grad = np.append(grad, float(np.sum(counts - mu)))
        return nll, -grad

    return Objective(fun, counts, scale, float(raw_counts.sum()))


def mle_state(records: list[CountRecord],
              options: TomographyOptions | None = None) -> TomographyResult:
    """Maximum-likelihood two-qubit state reconstruction.

    Maximizes the likelihood of ``state_objective``. Non-convergence is
    reported through the ``converged`` flag, never silently.
    """
    opts = options or TomographyOptions()
    objective = state_objective(records, opts.fit_normalization)
    if opts.start == "mixed":
        t0 = _params_of_rho(np.eye(4) / 4.0)
    else:
        try:
            t0 = _params_of_rho(linear_inversion_state(records))
        except ReconstructionError:
            t0 = _params_of_rho(np.eye(4) / 4.0)
    if opts.fit_normalization:
        t0 = np.append(t0, 0.0)
    res, history = _maximize(objective, t0, opts, 1e-10, maxcor=20)
    rho_hat = _rho_of_params(res.x[:16])
    target = opts.fidelity_target if opts.fidelity_target is not None else bell_state("phi+")
    metrics = MetricReport(fidelity=fidelity(rho_hat, target), purity=purity(rho_hat),
                           tangle=tangle(rho_hat))
    return TomographyResult(estimate=rho_hat, log_likelihood=history[-1],
                            iterations=int(res.nit), converged=bool(res.success),
                            metrics=metrics, kind="state", history=history)

# ---------------------------------------------------------------------------
# process tomography
# ---------------------------------------------------------------------------

def _chi_basis_matrix() -> np.ndarray:
    """Column 4m+n holds vec(sigma_n^T x sigma_m) (column-major vec)."""
    cmat = np.zeros((16, 16), dtype=complex)
    for m in range(4):
        for n in range(4):
            cmat[:, 4 * m + n] = np.kron(PAULIS[n].T, PAULIS[m]).reshape(-1, order="F")
    return cmat


_CHI_BASIS = _chi_basis_matrix()
_CHI_BASIS_INV = np.linalg.inv(_CHI_BASIS)


def channel_chi(apply_fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Chi matrix (Pauli basis) of a linear single-qubit map."""
    smat = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for i in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            smat[:, 2 * j + i] = apply_fn(e).reshape(-1, order="F")
    return (_CHI_BASIS_INV @ smat.reshape(-1, order="F")).reshape(4, 4)


def identity_chi() -> np.ndarray:
    """Chi matrix of the identity channel: single (I, I) element."""
    return channel_chi(lambda r: r)


def chi_to_transfer(chi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Return the map rho -> sum_mn chi_mn sigma_m rho sigma_n."""
    def apply(rho):
        out = np.zeros((2, 2), dtype=complex)
        for m in range(4):
            for n in range(4):
                out += chi[m, n] * PAULIS[m] @ rho @ PAULIS[n]
        return out
    return apply


def tp_violation(chi: np.ndarray) -> float:
    """Max deviation of sum_mn chi_mn sigma_n sigma_m from the identity."""
    acc = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            acc += chi[m, n] * PAULIS[n] @ PAULIS[m]
    return float(np.max(np.abs(acc - np.eye(2))))


def check_chi_matrix(chi: np.ndarray, require_tp: bool = False,
                     herm_tol: float = 1e-10, eig_tol: float = 1e-10,
                     tp_tol: float = 1e-6) -> np.ndarray:
    """Validate Hermiticity, positivity, trace range and optionally TP."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError("chi matrix must be 4x4")
    if np.max(np.abs(chi - chi.conj().T)) > herm_tol:
        raise ValueError("chi matrix not Hermitian")
    if float(np.min(np.linalg.eigvalsh(chi))) < -eig_tol:
        raise ValueError("chi matrix not positive semidefinite")
    tr = float(np.real(np.trace(chi)))
    if not 0.0 < tr <= 1.0 + 1e-10:
        raise ValueError(f"chi trace {tr} outside (0, 1]")
    if require_tp and tp_violation(chi) > tp_tol:
        raise ValueError("chi matrix is not trace preserving")
    return chi


def _blocks(a: np.ndarray) -> np.ndarray:
    """A 4x4 operator on out x in as its 2x2 grid of 2x2 blocks on the input.

    X = I x S acts blockwise: (X a X)[k, l] = S a[k, l] S.
    """
    return a.reshape(2, 2, 2, 2).swapaxes(1, 2)


def _from_blocks(b: np.ndarray) -> np.ndarray:
    return b.swapaxes(1, 2).reshape(4, 4)


def _retraction(j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trace-preserving Choi matrix X j X, X = I x S, S = G^{-1/2} for
    G = Tr_out j, with S, the square roots of G's eigenvalues and its
    eigenvectors."""
    jb = _blocks(j)
    lam, v = np.linalg.eigh(jb[0, 0] + jb[1, 1])
    r = np.sqrt(np.clip(lam, 1e-14, None))
    s = (v * (1.0 / r)) @ v.conj().T
    return _from_blocks(s @ jb @ s), s, r, v


def _chi_of_choi(j: np.ndarray) -> np.ndarray:
    smat = np.zeros((4, 4), dtype=complex)
    j4 = j.reshape(2, 2, 2, 2)
    for jj in range(2):
        for ii in range(2):
            # E(|ii><jj|)[o1, o2] = J4[o1, ii, o2, jj]
            out = j4[:, ii, :, jj]
            smat[:, 2 * jj + ii] = out.reshape(-1, order="F")
    return (_CHI_BASIS_INV @ smat.reshape(-1, order="F")).reshape(4, 4)


def process_objective(records: list[CountRecord], tp_mode: str = "constrain") -> Objective:
    """The objective ``mle_process`` minimizes over the 16 Choi-factor parameters.

    Records pair an input-state label (setting_a) with a measurement label
    (setting_b). Expected counts are mu_s = N_k * duration_s * Tr[W_s J(t)]
    with the per-input flux N_k estimated from the three complete
    measurement bases. With tp_mode="constrain", J(t) is the retracted Choi
    matrix and the gradient is pulled back through the retraction.
    """
    if tp_mode not in ("constrain", "normalize"):
        raise ValueError(f"unknown tp_mode {tp_mode!r}")
    retract = tp_mode == "constrain"
    ordered = _sorted_label_records(records)
    raw_counts, counts, scale = _scaled_counts(ordered)
    durations = np.array([r.duration for r in ordered])
    rates = raw_counts / durations
    norms = np.empty(36)
    for k in range(6):
        sl = slice(6 * k, 6 * k + 6)
        flux = float(np.sum(rates[sl])) / 3.0
        if flux <= 0.0:
            raise ReconstructionError(
                f"input state {PROJECTOR_LABELS[k]!r} has zero counts")
        norms[sl] = flux * durations[sl] / scale

    def fun(t):
        T = _params_to_t(t)
        j = T.conj().T @ T
        if retract:
            choi, s, r, v = _retraction(j)
        else:
            choi = j
        nll, _, _, w = _poisson_terms(np.real(_PROCESS_W_T @ choi.ravel()), counts, norms)
        k = np.tensordot(w, _PROCESS_W, axes=(0, 0))  # dll = Tr[K dJ]
        if retract:
            # J = X j X with X = I x S: Tr[K dJ] = Tr[X K X dj] + Tr[q dS] with
            # q = Tr_out(j X K + K X j), and dS = V (F o V^dag dG V) V^dag
            # where F_ab = -1 / (r_a r_b (r_a + r_b)) and dG = Tr_out dj.
            xk = s @ _blocks(k)
            q = j @ _from_blocks(xk)
            qb = _blocks(q + q.conj().T)
            f = -1.0 / (np.outer(r, r) * (r[:, None] + r[None, :]))
            vh = v.conj().T
            dg = v @ (f * (vh @ (qb[0, 0] + qb[1, 1]) @ v)) @ vh
            kb = xk @ s
            kb[0, 0] += dg
            kb[1, 1] += dg
            k = _from_blocks(kb)
        return nll, -2.0 * _t_to_params(T @ k)

    return Objective(fun, counts, scale, float(raw_counts.sum()))


def mle_process(records: list[CountRecord],
                options: TomographyOptions | None = None) -> TomographyResult:
    """Maximum-likelihood single-qubit process reconstruction.

    Maximizes the likelihood of ``process_objective``. With
    tp_mode="constrain" trace preservation holds exactly through the Choi
    retraction; "normalize" fits an unconstrained CP map and rescales the chi
    matrix to unit trace afterwards.
    """
    opts = options or TomographyOptions()
    objective = process_objective(records, opts.tp_mode)
    t0 = np.zeros(16)
    t0[:4] = (1.0, 1.0, 0.05, 0.05)
    res, history = _maximize(objective, t0, opts, 1e-8, maxcor=10)
    retract = opts.tp_mode == "constrain"
    T = _params_to_t(res.x)
    j_hat = T.conj().T @ T
    if retract:
        j_hat = _retraction(j_hat)[0]
    chi_hat = _chi_of_choi(j_hat)
    chi_hat = (chi_hat + chi_hat.conj().T) / 2.0
    if not retract:
        chi_hat = chi_hat / float(np.real(np.trace(chi_hat)))
    ideal = opts.process_ideal if opts.process_ideal is not None else identity_chi()
    metrics = MetricReport(fidelity=process_fidelity(chi_hat, ideal),
                           purity=process_purity(chi_hat), tangle=None)
    return TomographyResult(estimate=chi_hat, log_likelihood=history[-1],
                            iterations=int(res.nit), converged=bool(res.success),
                            metrics=metrics, kind="process", history=history)


def process_fidelity(chi: np.ndarray, ideal: np.ndarray) -> float:
    """Overlap Tr(chi chi_ideal) for a rank-1, trace-normalized ideal."""
    f = float(np.real(np.trace(np.asarray(chi) @ np.asarray(ideal))))
    return min(max(f, 0.0), 1.0)


def process_purity(chi: np.ndarray) -> float:
    """Tr(chi^2) of a trace-normalized process matrix."""
    chi = np.asarray(chi)
    p = float(np.real(np.trace(chi @ chi)))
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Monte-Carlo error bars
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloErrors:
    """Per-metric sample means and standard deviations over MC resamples."""

    means: dict[str, float]
    std_errors: dict[str, float]
    n_samples: int
    n_failed: int


def monte_carlo_errors(records: list[CountRecord],
                       reconstructor: Callable[[list[CountRecord]], np.ndarray],
                       metrics: dict[str, Callable[[np.ndarray], float]],
                       n_samples: int, seed: int) -> MonteCarloErrors:
    """Poissonian resampling error bars for reconstruction-derived metrics.

    Each resample redraws every coincidence count from a Poisson law with
    mean equal to the observed count, reruns ``reconstructor`` and evaluates
    the metric set. Individual failures are tolerated up to 10% of the
    samples; beyond that the run aborts.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    raw = np.array([max(0.0, r.coincidences) for r in records])
    values: dict[str, list[float]] = {name: [] for name in metrics}
    n_failed = 0
    for s in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        resampled = [replace(r, coincidences=float(c))
                     for r, c in zip(records, rng.poisson(raw))]
        try:
            estimate = reconstructor(resampled)
        except (ReconstructionError, ValueError):
            n_failed += 1
            continue
        for name, fn in metrics.items():
            values[name].append(float(fn(estimate)))
    if n_failed > 0.1 * n_samples:
        raise ReconstructionError(
            f"{n_failed}/{n_samples} Monte-Carlo resamples failed to reconstruct")
    means = {name: float(np.mean(v)) for name, v in values.items()}
    stds = {name: float(np.std(v, ddof=1)) for name, v in values.items()}
    return MonteCarloErrors(means=means, std_errors=stds,
                            n_samples=n_samples, n_failed=n_failed)
