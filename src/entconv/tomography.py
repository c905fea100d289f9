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

Both objectives take a leading batch axis: one row per count table, rows
independent. A single fit is the one-row case, maximized by scipy's
L-BFGS-B. Monte-Carlo error bars fit all resamples of a stage at once with
``lbfgs.minimize_rows``, the same iteration vectorised over rows; the scipy
fit is the reference it is tested against.

Records are always fitted in canonical setting order, so the projector
stacks and the linear-inversion design matrix are built once, at import.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Callable

import numpy as np
from scipy import optimize

from .counts import CountRecord, poisson_resamples
from .lbfgs import minimize_rows
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

#: (gtol, L-BFGS memory) of the state and of the process fit, for the scipy
#: point fits and the batched resample fits alike.
_STATE_LBFGS = (1e-10, 20)
_PROCESS_LBFGS = (1e-8, 10)


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

#: P_a x P_b of each canonical state-tomography setting, and their flattened
#: transposes, so that p_s = Tr[P_s g] is one matrix product.
_STATE_PROJS = _kron_grid(_LABEL_PROJS, _LABEL_PROJS).reshape(36, 4, 4)
_STATE_PROJS_T = _STATE_PROJS.transpose(0, 2, 1).reshape(36, 16)

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


def _param_map() -> np.ndarray:
    """Row k is the row-major upper-triangular T that parameter k alone builds."""
    m = np.zeros((16, 16), dtype=complex)
    triu = 4 * _TRIU_R + _TRIU_C
    m[range(4), (0, 5, 10, 15)] = 1.0
    m[range(4, 10), triu] = 1.0
    m[range(10, 16), triu] = 1j
    return m


_T_OF_PARAMS = _param_map()
_PARAMS_OF_T = _T_OF_PARAMS.conj().T


def subtract_accidentals(records: list[CountRecord]) -> list[CountRecord]:
    """Subtract each record's accidental estimate from its coincidences.

    Corrected counts are clamped at zero; all other fields are unchanged.
    """
    return [replace(r, coincidences=max(0.0, r.coincidences - r.accidental_estimate))
            for r in records]


def _canonical_order(records: list[CountRecord]) -> np.ndarray:
    """Validate a complete 36-setting label dataset; the index of the record
    of each canonical setting."""
    if len(records) != 36:
        raise ReconstructionError(f"expected 36 records, got {len(records)}")
    by_setting = {}
    for i, r in enumerate(records):
        if r.setting_a not in _LABEL_INDEX or r.setting_b not in _LABEL_INDEX:
            raise ReconstructionError(
                f"tomography requires label settings, got ({r.setting_a!r}, {r.setting_b!r})")
        key = (r.setting_a, r.setting_b)
        if key in by_setting:
            raise ReconstructionError(f"duplicate setting {key}")
        by_setting[key] = i
    return np.array([by_setting[s] for s in _SETTINGS])


def _group_sums(rates: np.ndarray) -> np.ndarray:
    """Summed rate of each of the nine basis-pair groups, per row of (B, 36) rates.

    Labels come in basis pairs (H V, D A, R L), so setting 6 a + b belongs to
    group 3 (a // 2) + b // 2.
    """
    return rates.reshape(-1, 3, 2, 3, 2).sum(axis=(2, 4)).reshape(-1, 9)


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


@dataclass
class BatchFit:
    """Fits of B count tables that share their settings and durations, row b
    for table b. ``failed`` rows (nothing to normalize) hold NaN; a fit that
    stopped on ``max_iters`` or a failed line search is not ``converged``.
    ``history`` is the raw-count log-likelihood per batch iteration."""

    estimates: np.ndarray
    log_likelihood: np.ndarray
    converged: np.ndarray
    failed: np.ndarray
    history: np.ndarray = field(repr=False)


def _drops(history: np.ndarray) -> np.ndarray:
    """Where a log-likelihood history (iterations along axis 0) decreases."""
    prev, cur = history[:-1], history[1:]
    return cur < prev - 1e-9 * np.maximum(1.0, np.abs(prev))


def _check_monotone(history: list[float]) -> None:
    drops = np.flatnonzero(_drops(np.array(history)))
    if drops.size:
        i = drops[0]
        raise ReconstructionError(
            f"log-likelihood decreased from {history[i]!r} to {history[i + 1]!r}")


# ---------------------------------------------------------------------------
# likelihood core
# ---------------------------------------------------------------------------

def _dag(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _params_to_t(t: np.ndarray) -> np.ndarray:
    """Upper-triangular T of each row of parameters (last axis 16)."""
    return (t @ _T_OF_PARAMS).reshape(t.shape[:-1] + (4, 4))


def _t_to_params(T: np.ndarray) -> np.ndarray:
    """Inverse of ``_params_to_t``.

    Applied to the Wirtinger derivative dll/dT^* of a real function ll, it
    gives half the gradient of ll over the 16 parameters.
    """
    return np.real(T.reshape(T.shape[:-2] + (16,)) @ _PARAMS_OF_T)


def _poisson_terms(p: np.ndarray, counts: np.ndarray, norms: np.ndarray):
    """Negative log-likelihood per row at probabilities p (B, 36), the clipped
    p, mu and weights.

    The weight w_s = dll/dp_s is zero where p_s is clipped at the floor,
    because the clipped objective does not depend on p_s there.
    """
    c = np.clip(p, _P_FLOOR, None)
    mu = norms * c
    nll = -np.sum(counts * np.log(mu) - mu, axis=1)
    w = np.where(p < _P_FLOOR, 0.0, counts / c - norms)
    return nll, c, mu, w


def _state_nll(t, counts, norms, fit_normalization):
    T = _params_to_t(t[:, :16])
    g = _dag(T) @ T
    tau = np.real(np.trace(g, axis1=1, axis2=2))[:, None, None]
    if fit_normalization:
        norms = np.exp(t[:, 16:]) * norms
    p = np.real((g / tau).reshape(-1, 16) @ _STATE_PROJS_T.T)
    nll, c, mu, w = _poisson_terms(p, counts, norms)
    m = (w @ _STATE_PROJS.reshape(36, 16)).reshape(-1, 4, 4)
    wc = np.sum(w * c, axis=1)[:, None, None]
    grad = 2.0 * _t_to_params((T @ m - wc * T) / tau)
    if fit_normalization:
        grad = np.concatenate([grad, np.sum(counts - mu, axis=1)[:, None]], axis=1)
    return nll, -grad


def _blocks(a: np.ndarray) -> np.ndarray:
    """(B, 4, 4) operators on out x in as 2x2 grids of 2x2 blocks on the input.

    X = I x S acts blockwise: (X a X)[k, l] = S a[k, l] S.
    """
    return a.reshape(-1, 2, 2, 2, 2).swapaxes(2, 3)


def _from_blocks(b: np.ndarray) -> np.ndarray:
    return b.swapaxes(2, 3).reshape(-1, 4, 4)


def _retraction(j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The trace-preserving Choi matrices X j X, X = I x S, S = G^{-1/2} for
    G = Tr_out j, of a (B, 4, 4) stack, with S, the square roots of G's
    eigenvalues and its eigenvectors."""
    jb = _blocks(j)
    lam, v = np.linalg.eigh(jb[:, 0, 0] + jb[:, 1, 1])
    r = np.sqrt(np.clip(lam, 1e-14, None))
    s = (v * (1.0 / r)[:, None, :]) @ _dag(v)
    sb = s[:, None, None]
    return _from_blocks(sb @ jb @ sb), s, r, v


def _process_nll(t, counts, norms, retract):
    T = _params_to_t(t)
    j = _dag(T) @ T
    if retract:
        choi, s, r, v = _retraction(j)
    else:
        choi = j
    nll, _, _, w = _poisson_terms(np.real(choi.reshape(-1, 16) @ _PROCESS_W_T.T),
                                  counts, norms)
    k = (w @ _PROCESS_W.reshape(36, 16)).reshape(-1, 4, 4)  # dll = Tr[K dJ]
    if retract:
        # J = X j X with X = I x S: Tr[K dJ] = Tr[X K X dj] + Tr[q dS] with
        # q = Tr_out(j X K + K X j), and dS = V (F o V^dag dG V) V^dag
        # where F_ab = -1 / (r_a r_b (r_a + r_b)) and dG = Tr_out dj.
        sb = s[:, None, None]
        xk = sb @ _blocks(k)
        q = j @ _from_blocks(xk)
        qb = _blocks(q + _dag(q))
        ra, rb = r[:, :, None], r[:, None, :]
        f = -1.0 / (ra * rb * (ra + rb))
        vh = _dag(v)
        dg = v @ (f * (vh @ (qb[:, 0, 0] + qb[:, 1, 1]) @ v)) @ vh
        kb = xk @ sb
        kb[:, 0, 0] += dg
        kb[:, 1, 1] += dg
        k = _from_blocks(kb)
    return nll, -2.0 * _t_to_params(T @ k)


@dataclass(frozen=True)
class Objective:
    """Negative Poisson log-likelihoods of B independent fits, at unit count scale.

    ``core(t, counts, norms)`` returns the value and analytic gradient of
    every row of ``t`` (shape (k, n_params)) against the same rows of counts
    and norms; rows never interact. ``rows(t, idx)`` evaluates fits ``idx``;
    ``fun(t)`` is fit 0 as the scalar function scipy minimizes. Counts are
    divided by their per-fit mean ``scale`` so that the landscape (hence the
    estimate) is invariant under a global rescaling of all counts;
    ``loglik`` maps a value back to the log-likelihood of the raw counts.
    """

    core: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    counts: np.ndarray
    norms: np.ndarray
    scale: np.ndarray
    raw_total: np.ndarray

    def rows(self, t: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.core(t, self.counts[idx], self.norms[idx])

    def fun(self, t: np.ndarray) -> tuple[float, np.ndarray]:
        nll, grad = self.core(t[None], self.counts[:1], self.norms[:1])
        return nll[0], grad[0]

    def pgtol(self, gtol: float) -> np.ndarray:
        """Per-fit gradient tolerance: gtol * max(1, sum of unit counts)."""
        return gtol * np.maximum(1.0, self.counts.sum(axis=1))

    def loglik(self, value, idx=0):
        # sum n log mu - mu at raw scale is s * (scaled sum) + log(s) * sum n
        return -self.scale[idx] * value + np.log(self.scale[idx]) * self.raw_total[idx]


def _unit_counts(raw: np.ndarray):
    """Counts at unit mean per row of (B, 36) raw counts, the row means
    ``scale``, the row totals and the rows without any count."""
    total = raw.sum(axis=1)
    empty = total == 0
    scale = np.where(empty, 1.0, total / raw.shape[1])
    return raw / scale[:, None], scale, total, empty


def _state_problem(durations: np.ndarray, raw: np.ndarray,
                   fit_normalization: bool) -> tuple[Objective, np.ndarray]:
    """``state_objective`` of (B, 36) canonical raw counts, and its rows
    without counts. The flux N is the mean summed rate of the nine basis-pair
    groups, whose four joint projectors sum to the identity."""
    counts, scale, total, empty = _unit_counts(raw)
    flux = np.mean(_group_sums(raw / durations), axis=1)
    norms = flux[:, None] * durations / scale[:, None]
    core = partial(_state_nll, fit_normalization=fit_normalization)
    return Objective(core, counts, norms, scale, total), empty


def _process_problem(durations: np.ndarray, raw: np.ndarray, tp_mode: str):
    """``process_objective`` of (B, 36) canonical raw counts, its rows
    without counts and, per row, the input states without counts."""
    counts, scale, total, empty = _unit_counts(raw)
    flux = (raw / durations).reshape(-1, 6, 6).sum(axis=2) / 3.0
    norms = np.repeat(flux, 6, axis=1) * durations / scale[:, None]
    core = partial(_process_nll, retract=tp_mode == "constrain")
    return Objective(core, counts, norms, scale, total), empty, flux <= 0.0


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _maximize(objective: Objective, t0: np.ndarray, opts: TomographyOptions,
              gtol: float, maxcor: int) -> tuple[optimize.OptimizeResult, list[float]]:
    """L-BFGS-B on fit 0 of ``objective``; history holds the raw log-likelihood
    per iterate."""
    history = []

    def fun(t):
        value, grad = objective.fun(t)
        if not history:  # L-BFGS-B evaluates t0 first
            history.append(objective.loglik(value))
        return value, grad

    # SciPy >= 1.11 passes the OptimizeResult at x_k to a callback whose
    # parameter is named intermediate_result; its ``fun`` is the value the
    # optimizer already computed there.
    def record_step(intermediate_result):
        history.append(objective.loglik(intermediate_result.fun))

    res = optimize.minimize(
        fun, t0, jac=True, method="L-BFGS-B", callback=record_step,
        options={"maxiter": opts.max_iters, "ftol": opts.rel_tol,
                 "gtol": objective.pgtol(gtol)[0], "maxcor": maxcor})
    _check_monotone(history)
    return res, history


def _fit_batch(objective: Objective, t0: np.ndarray, failed: np.ndarray,
               opts: TomographyOptions, lbfgs: tuple[float, int],
               estimate: Callable[[np.ndarray], np.ndarray]) -> BatchFit:
    """Minimize every fit of ``objective`` not marked failed with the stopping
    rules of ``_maximize``; a fit whose likelihood history falls fails too."""
    gtol, maxcor = lbfgs
    x, converged, history = minimize_rows(objective.rows, t0, ~failed, objective.pgtol(gtol),
                                          opts.rel_tol, opts.max_iters, maxcor)
    loglik = objective.loglik(history, slice(None))
    failed = failed | np.any(_drops(loglik), axis=0)
    estimates = estimate(x)
    estimates[failed] = np.nan
    loglik[:, failed] = np.nan
    return BatchFit(estimates=estimates, log_likelihood=loglik[-1],
                    converged=converged & ~failed, failed=failed, history=loglik)


def _batch_table(records: list[CountRecord], counts) -> tuple[np.ndarray, np.ndarray]:
    """Durations and (B, 36) clamped counts, both in canonical order, of the
    count rows ``counts`` given in the order of ``records``."""
    order = _canonical_order(records)
    durations = np.array([records[i].duration for i in order])
    return durations, np.maximum(np.asarray(counts, dtype=float)[:, order], 0.0)


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------

def _rho_of_params(t: np.ndarray) -> np.ndarray:
    T = _params_to_t(t)
    g = _dag(T) @ T
    return g / np.real(np.trace(g, axis1=-2, axis2=-1))[..., None, None]


def _params_of_rho(rho: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Parameters whose reconstruction is the PSD projection of ``rho``
    (one matrix or a stack)."""
    w, v = np.linalg.eigh((rho + _dag(rho)) / 2.0)
    w = np.clip(w, floor, None)
    r = (v * w[..., None, :]) @ _dag(v)
    r /= np.real(np.trace(r, axis1=-2, axis2=-1))[..., None, None]
    return _t_to_params(_dag(np.linalg.cholesky(r)))


def _inversion(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``linear_inversion_state`` of (B, 36) canonical rates, and per row the
    first setting whose basis group has no counts (-1 if none; otherwise the
    row's state is meaningless)."""
    group_tot = _group_sums(rates)[:, _GROUP]
    empty = group_tot <= 0.0
    first_empty = np.where(empty.any(axis=1), np.argmax(empty, axis=1), -1)
    p = rates / np.where(empty, 1.0, group_tot)
    x = np.linalg.lstsq(_DESIGN, p.T, rcond=None)[0].T
    rho = (x @ _HERM_BASIS.reshape(16, 16)).reshape(-1, 4, 4)
    trace = np.real(np.trace(rho, axis1=1, axis2=2))
    return rho / np.where(first_empty < 0, trace, 1.0)[:, None, None], first_empty


def linear_inversion_state(records: list[CountRecord]) -> np.ndarray:
    """Least-squares state estimate; Hermitian but possibly non-positive.

    Probabilities are normalized per basis-pair group, then the 36 linear
    equations Tr[(P_a x P_b) rho] = p are solved over the 16-dimensional
    Hermitian operator basis. Used as an independent cross-check on (and a
    starting point for) the likelihood fit.
    """
    order = _canonical_order(records)
    rates = np.array([[records[i].coincidences / records[i].duration for i in order]])
    rho, first_empty = _inversion(rates)
    if first_empty[0] >= 0:
        a, b = _SETTINGS[first_empty[0]]
        raise ReconstructionError(f"basis group of ({a}, {b}) has zero counts")
    return rho[0]


def state_objective(records: list[CountRecord],
                    fit_normalization: bool = False) -> Objective:
    """The objective ``mle_state`` minimizes, over 16 (or 17) parameters.

    Expected counts are mu_s = N * duration_s * Tr[(P_a x P_b) rho(t)]; the
    flux N is estimated from the complete basis groups, or scaled by
    exp(t[16]) when ``fit_normalization`` is set.
    """
    durations, raw = _batch_table(records, [[r.coincidences for r in records]])
    objective, empty = _state_problem(durations, raw, fit_normalization)
    if empty[0]:
        raise ReconstructionError("all counts are zero")
    return objective


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
    res, history = _maximize(objective, t0, opts, *_STATE_LBFGS)
    rho_hat = _rho_of_params(res.x[:16])
    target = opts.fidelity_target if opts.fidelity_target is not None else bell_state("phi+")
    metrics = MetricReport(fidelity=fidelity(rho_hat, target), purity=purity(rho_hat),
                           tangle=tangle(rho_hat))
    return TomographyResult(estimate=rho_hat, log_likelihood=history[-1],
                            iterations=int(res.nit), converged=bool(res.success),
                            metrics=metrics, kind="state", history=history)


def mle_state_batch(records: list[CountRecord], counts: np.ndarray,
                    options: TomographyOptions | None = None) -> BatchFit:
    """``mle_state`` of many count tables at once.

    ``records`` give the settings and durations; row b of ``counts`` (shape
    (B, 36), in the order of ``records``) replaces their coincidences,
    clamped at zero. All rows are fitted together by ``lbfgs.minimize_rows``
    with the objective, warm start and stopping rules of ``mle_state``. A row
    without counts fails.
    """
    opts = options or TomographyOptions()
    durations, raw = _batch_table(records, counts)
    objective, failed = _state_problem(durations, raw, opts.fit_normalization)
    rho0 = np.tile(np.eye(4, dtype=complex) / 4.0, (len(raw), 1, 1))
    if opts.start == "inversion":
        rho_li, first_empty = _inversion(raw / durations)
        rho0[first_empty < 0] = rho_li[first_empty < 0]
    t0 = _params_of_rho(rho0)
    if opts.fit_normalization:
        t0 = np.column_stack([t0, np.zeros(len(t0))])
    return _fit_batch(objective, t0, failed, opts, _STATE_LBFGS,
                      lambda x: _rho_of_params(x[:, :16]))


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

#: Parameters of the process fit's start, a Choi factor near the identity.
_PROCESS_START = np.concatenate([[1.0, 1.0, 0.05, 0.05], np.zeros(12)])


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


def _chi_of_params(t: np.ndarray, retract: bool) -> np.ndarray:
    """Chi matrices of (B, 16) Choi-factor parameters.

    E(|i><j|)[o1, o2] = J[2 o1 + i, 2 o2 + j]; its column-major vec, stacked
    over the input basis, is the chi matrix in the Pauli-product basis.
    """
    T = _params_to_t(t)
    j = _dag(T) @ T
    if retract:
        j = _retraction(j)[0]
    vec = j.reshape(-1, 2, 2, 2, 2).transpose(0, 4, 2, 3, 1).reshape(-1, 16)
    chi = (vec @ _CHI_BASIS_INV.T).reshape(-1, 4, 4)
    chi = (chi + _dag(chi)) / 2.0
    if not retract:
        chi = chi / np.real(np.trace(chi, axis1=1, axis2=2))[:, None, None]
    return chi


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
    durations, raw = _batch_table(records, [[r.coincidences for r in records]])
    objective, empty, dark = _process_problem(durations, raw, tp_mode)
    if empty[0]:
        raise ReconstructionError("all counts are zero")
    if dark[0].any():
        raise ReconstructionError(
            f"input state {PROJECTOR_LABELS[np.argmax(dark[0])]!r} has zero counts")
    return objective


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
    res, history = _maximize(objective, _PROCESS_START, opts, *_PROCESS_LBFGS)
    chi_hat = _chi_of_params(res.x[None], opts.tp_mode == "constrain")[0]
    ideal = opts.process_ideal if opts.process_ideal is not None else identity_chi()
    metrics = MetricReport(fidelity=process_fidelity(chi_hat, ideal),
                           purity=process_purity(chi_hat), tangle=None)
    return TomographyResult(estimate=chi_hat, log_likelihood=history[-1],
                            iterations=int(res.nit), converged=bool(res.success),
                            metrics=metrics, kind="process", history=history)


def mle_process_batch(records: list[CountRecord], counts: np.ndarray,
                      options: TomographyOptions | None = None) -> BatchFit:
    """``mle_process`` of many count tables at once.

    As ``mle_state_batch``, with the objective, start and stopping rules of
    ``mle_process``. A row without counts, or with an input state without
    counts, fails.
    """
    opts = options or TomographyOptions()
    durations, raw = _batch_table(records, counts)
    objective, empty, dark = _process_problem(durations, raw, opts.tp_mode)
    failed = empty | dark.any(axis=1)
    t0 = np.tile(_PROCESS_START, (len(raw), 1))
    retract = opts.tp_mode == "constrain"
    return _fit_batch(objective, t0, failed, opts, _PROCESS_LBFGS,
                      lambda x: _chi_of_params(x, retract))


def process_fidelity(chi: np.ndarray, ideal: np.ndarray) -> float:
    """Overlap Tr(chi chi_ideal) for a rank-1, trace-normalized ideal; per chi for a stack."""
    return _clip01(np.real(np.trace(np.asarray(chi) @ np.asarray(ideal), axis1=-2, axis2=-1)))


def process_purity(chi: np.ndarray) -> float:
    """Tr(chi^2) of a trace-normalized process matrix; per chi for a stack."""
    chi = np.asarray(chi)
    return _clip01(np.real(np.trace(chi @ chi, axis1=-2, axis2=-1)))


def _clip01(x):
    """x clipped onto [0, 1]: a float for one value, an array for a stack."""
    return min(max(float(x), 0.0), 1.0) if np.ndim(x) == 0 else np.clip(x, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Monte-Carlo error bars
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloErrors:
    """Per-metric sample means and standard deviations over MC resamples.

    ``n_failed`` resamples could not be reconstructed and are left out;
    ``n_unconverged`` were reconstructed by a fit that stopped on its
    iteration limit or a failed line search, and are kept.
    """

    means: dict[str, float]
    std_errors: dict[str, float]
    n_samples: int
    n_failed: int
    n_unconverged: int


def monte_carlo_errors(records: list[CountRecord],
                       reconstructor: Callable[[np.ndarray], BatchFit],
                       metrics: dict[str, Callable[[np.ndarray], float]],
                       n_samples: int, seed: int) -> MonteCarloErrors:
    """Poissonian resampling error bars for reconstruction-derived metrics.

    ``poisson_resamples`` redraws every coincidence count from a Poisson law
    with mean equal to the observed count, ``n_samples`` times.
    ``reconstructor`` fits all resamples at once: it takes the
    (n_samples, len(records)) counts, in the order of ``records``, and
    returns a ``BatchFit`` (see ``mle_state_batch``, ``mle_process_batch``).
    Each metric is called once with the (n_kept, d, d) stack of kept
    estimates and returns one value per estimate. Failed resamples are
    tolerated up to 10% of the samples; beyond that the run aborts.
    """
    counts = poisson_resamples([r.coincidences for r in records], n_samples, seed)
    fit = reconstructor(counts)
    n_failed = int(np.count_nonzero(fit.failed))
    if n_failed > 0.1 * n_samples:
        raise ReconstructionError(
            f"{n_failed}/{n_samples} Monte-Carlo resamples failed to reconstruct")
    kept = fit.estimates[~fit.failed]
    values = {name: np.asarray(fn(kept), dtype=float) for name, fn in metrics.items()}
    means = {name: float(np.mean(v)) for name, v in values.items()}
    stds = {name: float(np.std(v, ddof=1)) for name, v in values.items()}
    return MonteCarloErrors(means=means, std_errors=stds, n_samples=n_samples,
                            n_failed=n_failed,
                            n_unconverged=int(np.count_nonzero(~fit.converged & ~fit.failed)))
