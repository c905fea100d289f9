"""Maximum-likelihood state and process tomography with Monte-Carlo errors.

State reconstruction parameterizes the density matrix as T^dag T / Tr(T^dag T)
with an upper-triangular T (16 real parameters), so the estimate satisfies
Hermiticity, positivity and unit trace by construction, and maximizes the
Poisson log-likelihood sum_s [n_s log mu_s - mu_s] from the linear inversion.

Process reconstruction is the same fit applied to the Choi matrix
J = M^dag M followed by the exact trace-preservation retraction
J -> (I x G^{-1/2}) J (I x G^{-1/2}) with G = Tr_out J, so every estimate is
trace preserving, then converts to the chi representation in the Pauli basis
(I, X, Y, Z). Each fit kind has this one likelihood model. Both objectives have
analytic gradients; the process gradient is pulled back through the
retraction by the chain rule, with the derivative of G^{-1/2} taken from its
eigendecomposition (Daleckii-Krein divided differences).

Both objectives take a leading batch axis: one row per count table, rows
independent. ``mle_tables`` fits the rows of several tables of a kind in one
batch; ``mle_state``/``mle_process`` are its one-row case. One row is fitted
by scipy's L-BFGS-B, several (a report's point tables and resamples) at once
by ``lbfgs.minimize_rows``, the same iteration vectorised over rows, each the
faster on its side; the scipy fit is the reference it is tested against.

``counts.table_order`` sorts every table into canonical setting order before
a fit, so the projector stacks and the linear-inversion design matrix are
built once, at import.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable

import numpy as np
from scipy import optimize

from .counts import CountRecord, table_order
from .lbfgs import minimize_rows
from .states import (MetricReport, PAULIS, PROJECTOR_LABELS, bell_state, fidelity,
                     projector, purity, tangle)


class ReconstructionError(RuntimeError):
    """Raised when a reconstruction cannot be carried out on the given data."""


_TRIU_R, _TRIU_C = np.triu_indices(4, 1)

#: Probabilities below this floor are clipped in both likelihoods.
_P_FLOOR = 1e-12

#: (gtol, L-BFGS memory) of the state and of the process fit, for the scipy
#: point fits and the batched resample fits alike.
_STATE_LBFGS = (1e-10, 20)
_PROCESS_LBFGS = (1e-8, 10)


def tomography_settings() -> list[tuple[str, str]]:
    """All 36 ordered pairs of the six analysis labels: two measurement labels
    of a state, or an input-state label and a measurement label of a process."""
    return list(product(PROJECTOR_LABELS, PROJECTOR_LABELS))


#: Canonical setting order; every fit sees its records in this order.
_SETTINGS = tomography_settings()

#: Basis-pair group (0..8) of each canonical setting, by ``_group_sums``' rule.
_GROUP = 3 * (np.arange(36) // 12) + np.arange(36) % 6 // 2


def _kron_grid(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """np.kron(left[a], right[b]) at [a, b] for two stacks of 2x2 matrices."""
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


def _group_sums(rates: np.ndarray) -> np.ndarray:
    """Summed rate of each of the nine basis-pair groups, per row of (B, 36) rates.

    Labels come in basis pairs (H V, D A, R L), so setting 6 a + b belongs to
    group 3 (a // 2) + b // 2.
    """
    return rates.reshape(-1, 3, 2, 3, 2).sum(axis=(2, 4)).reshape(-1, 9)


@dataclass
class TomographyOptions:
    """Optimizer stopping rules shared by both reconstructions."""

    max_iters: int = 5000
    rel_tol: float = 1e-10          # relative log-likelihood increment

    def __post_init__(self):
        if not (self.max_iters >= 1 and 0.0 < self.rel_tol < np.inf):
            raise ValueError("max_iters must be >= 1 and rel_tol finite and > 0")


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
    """Fits of B count tables with the same settings, row b for table b.
    ``failed`` rows hold NaN and ``errors`` maps each to its reason (nothing
    to normalize, or a falling likelihood); a fit that stopped on
    ``max_iters`` or a failed line search is not ``converged``. ``history``
    is the raw-count log-likelihood per batch iteration, and row b's own
    iterates are its first ``iterations[b] + 1`` entries."""

    estimates: np.ndarray
    log_likelihood: np.ndarray
    converged: np.ndarray
    failed: np.ndarray
    errors: dict[int, str]
    history: np.ndarray = field(repr=False)
    iterations: np.ndarray = field(repr=False)

    def rows(self, start: int, stop: int) -> BatchFit:
        """Rows ``start`` to ``stop - 1`` as a fit of their own."""
        sl = slice(start, stop)
        errors = {b - start: e for b, e in self.errors.items() if start <= b < stop}
        return BatchFit(self.estimates[sl], self.log_likelihood[sl], self.converged[sl],
                        self.failed[sl], errors, self.history[:, sl], self.iterations[sl])


def _drops(history: np.ndarray) -> np.ndarray:
    """Where a log-likelihood history (iterations along axis 0) decreases."""
    prev, cur = history[:-1], history[1:]
    return cur < prev - 1e-9 * np.maximum(1.0, np.abs(prev))


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
    p and the weights.

    The weight w_s = dll/dp_s is zero where p_s is clipped at the floor,
    because the clipped objective does not depend on p_s there.
    """
    c = np.clip(p, _P_FLOOR, None)
    mu = norms * c
    nll = -np.sum(counts * np.log(mu) - mu, axis=1)
    w = np.where(p < _P_FLOOR, 0.0, counts / c - norms)
    return nll, c, w


def _state_nll(t, counts, norms):
    T = _params_to_t(t)
    g = _dag(T) @ T
    tau = np.real(np.trace(g, axis1=1, axis2=2))[:, None, None]
    p = np.real((g / tau).reshape(-1, 16) @ _STATE_PROJS_T.T)
    nll, c, w = _poisson_terms(p, counts, norms)
    m = (w @ _STATE_PROJS.reshape(36, 16)).reshape(-1, 4, 4)
    wc = np.sum(w * c, axis=1)[:, None, None]
    return nll, -2.0 * _t_to_params((T @ m - wc * T) / tau)


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


def _process_nll(t, counts, norms):
    T = _params_to_t(t)
    j = _dag(T) @ T
    choi, s, r, v = _retraction(j)
    nll, _, w = _poisson_terms(np.real(choi.reshape(-1, 16) @ _PROCESS_W_T.T),
                               counts, norms)
    k = (w @ _PROCESS_W.reshape(36, 16)).reshape(-1, 4, 4)  # dll = Tr[K dJ]
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
    return nll, -2.0 * _t_to_params(T @ _from_blocks(kb))


@dataclass(frozen=True)
class Objective:
    """Negative Poisson log-likelihoods of B independent fits, at unit count scale.

    ``core(t, counts, norms)`` returns the value and analytic gradient of
    every row of ``t`` (shape (k, n_params)) against the same rows of counts
    and norms; rows never interact. ``rows(t, idx)`` evaluates fits ``idx``
    (an index array, or a slice, which takes no copy). Counts are
    divided by their per-fit mean ``scale`` so that the landscape (hence the
    estimate) is invariant under a global rescaling of all counts;
    ``loglik`` maps a value back to the log-likelihood of the raw counts.
    """

    core: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    counts: np.ndarray
    norms: np.ndarray
    scale: np.ndarray
    raw_total: np.ndarray

    def rows(self, t: np.ndarray, idx: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        return self.core(t, self.counts[idx], self.norms[idx])

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


def _state_problem(durations: np.ndarray, raw: np.ndarray) -> tuple[Objective, dict[int, str]]:
    """The objective the state fits of ``mle_tables`` minimize for (B, 36)
    canonical raw counts, and why each row without counts cannot be fitted.
    The flux N is the mean summed rate of the nine basis-pair groups, whose
    four joint projectors sum to the identity."""
    counts, scale, total, empty = _unit_counts(raw)
    flux = np.mean(_group_sums(raw / durations), axis=1)
    norms = flux[:, None] * durations / scale[:, None]
    errors = {b: "all counts are zero" for b in np.flatnonzero(empty).tolist()}
    return Objective(_state_nll, counts, norms, scale, total), errors


def _process_problem(durations: np.ndarray, raw: np.ndarray) -> tuple[Objective, dict[int, str]]:
    """The objective the process fits of ``mle_tables`` minimize for (B, 36)
    canonical raw counts, and why each row without counts, or with an input
    state without counts, cannot be fitted."""
    counts, scale, total, empty = _unit_counts(raw)
    flux = (raw / durations).reshape(-1, 6, 6).sum(axis=2) / 3.0
    norms = np.repeat(flux, 6, axis=1) * durations / scale[:, None]
    dark = flux <= 0.0
    errors = {b: "all counts are zero" if empty[b] else
              f"input state {PROJECTOR_LABELS[np.argmax(dark[b])]!r} has zero counts"
              for b in np.flatnonzero(dark.any(axis=1)).tolist()}
    return Objective(_process_nll, counts, norms, scale, total), errors


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _minimize_one(fun, x0, fit, pgtol, rel_tol, max_iters, maxcor):
    """``minimize_rows`` of a one-row batch by scipy's L-BFGS-B, which is the
    faster on a single fit; the history holds the objective per iterate."""
    if not fit[0]:
        return x0, np.zeros(1, dtype=bool), np.zeros((1, 1)), np.zeros(1, dtype=int)
    history = []
    row = slice(0, 1)  # a view: no copy of the counts per evaluation

    def value_and_grad(x):
        value, grad = fun(x[None], row)
        if not history:  # L-BFGS-B evaluates x0 first
            history.append(value[0])
        return value[0], grad[0]

    # SciPy >= 1.11 passes the OptimizeResult at x_k to a callback whose
    # parameter is named intermediate_result; its ``fun`` is the value the
    # optimizer already computed there.
    def record_step(intermediate_result):
        history.append(intermediate_result.fun)

    res = optimize.minimize(
        value_and_grad, x0[0], jac=True, method="L-BFGS-B", callback=record_step,
        options={"maxiter": max_iters, "ftol": rel_tol, "gtol": pgtol[0], "maxcor": maxcor})
    return (res.x[None], np.array([res.success]), np.array(history)[:, None],
            np.array([len(history) - 1]))


def _fit_batch(objective: Objective, t0: np.ndarray, errors: dict[int, str],
               options: TomographyOptions | None, lbfgs: tuple[float, int],
               estimate: Callable[[np.ndarray], np.ndarray]) -> BatchFit:
    """Minimize every fit of ``objective`` without an entry in ``errors``; a
    fit whose likelihood history falls fails too. One row is fitted by
    ``_minimize_one``, several at once by ``lbfgs.minimize_rows``."""
    opts = options or TomographyOptions()
    gtol, maxcor = lbfgs
    failed = np.isin(np.arange(len(t0)), list(errors))
    minimize = _minimize_one if len(t0) == 1 else minimize_rows
    x, converged, history, nit = minimize(objective.rows, t0, ~failed, objective.pgtol(gtol),
                                          opts.rel_tol, opts.max_iters, maxcor)
    loglik = objective.loglik(history, slice(None))
    drops = _drops(loglik)
    for b in np.flatnonzero(drops.any(axis=0)).tolist():
        i = np.argmax(drops[:, b])
        errors[b] = f"log-likelihood decreased from {loglik[i, b]!r} to {loglik[i + 1, b]!r}"
    failed |= drops.any(axis=0)
    estimates = estimate(x)
    estimates[failed] = np.nan
    loglik[:, failed] = np.nan
    return BatchFit(estimates=estimates, log_likelihood=loglik[-1], converged=converged & ~failed,
                    failed=failed, errors=errors, history=loglik, iterations=nit)


def point_result(fit: BatchFit, kind: str) -> TomographyResult:
    """Row 0 of a ``kind`` fit, with its ``METRICS``; raises
    ``ReconstructionError`` if it failed."""
    if fit.failed[0]:
        raise ReconstructionError(fit.errors[0])
    estimate, nit = fit.estimates[0], int(fit.iterations[0])
    metrics = MetricReport(**{name: fn(estimate) for name, fn in METRICS[kind].items()})
    return TomographyResult(estimate, fit.log_likelihood[0], nit, bool(fit.converged[0]),
                            metrics, kind, list(fit.history[:nit + 1, 0]))


def _batch_table(records: list[CountRecord], counts) -> tuple[np.ndarray, np.ndarray]:
    """Durations and (B, 36) clamped counts, both in canonical order, of the
    count rows ``counts`` given in the order of ``records``."""
    order = table_order(records, _SETTINGS)
    durations = np.array([records[i].duration for i in order])
    return durations, np.maximum(np.asarray(counts, dtype=float)[:, order], 0.0)


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------

def _rho_of_params(t: np.ndarray) -> np.ndarray:
    T = _params_to_t(t)
    g = _dag(T) @ T
    return g / np.real(np.trace(g, axis1=-2, axis2=-1))[..., None, None]


def _params_of_rho(rho: np.ndarray) -> np.ndarray:
    """Parameters whose reconstruction is the PSD projection of ``rho``
    (one matrix or a stack)."""
    w, v = np.linalg.eigh((rho + _dag(rho)) / 2.0)
    w = np.clip(w, 1e-10, None)
    r = (v * w[..., None, :]) @ _dag(v)
    r /= np.real(np.trace(r, axis1=-2, axis2=-1))[..., None, None]
    return _t_to_params(_dag(np.linalg.cholesky(r)))


def _inversion(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``linear_inversion_state`` of (B, 36) canonical rates, and per row the
    first setting whose basis group has no counts (-1 if none; otherwise the
    row's state is the mixed state, where a fit can start)."""
    group_tot = _group_sums(rates)[:, _GROUP]
    empty = group_tot <= 0.0
    first_empty = np.where(empty.any(axis=1), np.argmax(empty, axis=1), -1)
    p = rates / np.where(empty, 1.0, group_tot)
    x = np.linalg.lstsq(_DESIGN, p.T, rcond=None)[0].T
    rho = (x @ _HERM_BASIS.reshape(16, 16)).reshape(-1, 4, 4)
    rho /= np.where(first_empty < 0, np.real(np.trace(rho, axis1=1, axis2=2)), 1.0)[:, None, None]
    rho[first_empty >= 0] = np.eye(4) / 4.0
    return rho, first_empty


def linear_inversion_state(records: list[CountRecord]) -> np.ndarray:
    """Least-squares state estimate; Hermitian but possibly non-positive.

    Probabilities are normalized per basis-pair group, then the 36 linear
    equations Tr[(P_a x P_b) rho] = p are solved over the 16-dimensional
    Hermitian operator basis. Used as an independent cross-check on the
    likelihood fit, which starts from the same inversion.
    """
    order = table_order(records, _SETTINGS)
    rates = np.array([[records[i].coincidences / records[i].duration for i in order]])
    rho, first_empty = _inversion(rates)
    if first_empty[0] >= 0:
        a, b = _SETTINGS[first_empty[0]]
        raise ReconstructionError(f"basis group of ({a}, {b}) has zero counts")
    return rho[0]


def mle_state(records: list[CountRecord],
              options: TomographyOptions | None = None) -> TomographyResult:
    """Maximum-likelihood two-qubit state reconstruction of the records' own
    coincidences, with the fidelity to |phi+>.

    Expected counts are mu_s = N * duration_s * Tr[(P_a x P_b) rho(t)] over
    16 parameters, with the flux N fixed to the mean summed rate of the nine
    complete basis groups. The fit starts from the linear inversion of its
    table, or from the mixed state where a basis group has no counts.
    Non-convergence is reported through the ``converged`` flag, never
    silently; a table that cannot be fitted raises ``ReconstructionError``.
    """
    fit = mle_tables("state", [(records, [[r.coincidences for r in records]])], options)[0]
    return point_result(fit, "state")


# ---------------------------------------------------------------------------
# process tomography
# ---------------------------------------------------------------------------

def _chi_basis_matrix() -> np.ndarray:
    """Column 4m+n holds vec(sigma_n^T x sigma_m) (column-major vec)."""
    p = np.array(PAULIS)
    kron = p.transpose(0, 2, 1)[:, None, :, None, :, None] * p[None, :, None, :, None, :]
    return kron.reshape(4, 4, 4, 4).transpose(1, 0, 3, 2).reshape(16, 16).T


_CHI_BASIS = _chi_basis_matrix()
_CHI_BASIS_INV = np.linalg.inv(_CHI_BASIS)

#: Parameters of the process fit's start, a Choi factor near the identity.
_PROCESS_START = np.concatenate([[1.0, 1.0, 0.05, 0.05], np.zeros(12)])


def _chi_of_choi(j: np.ndarray) -> np.ndarray:
    """Hermitian chi matrices (Pauli basis) of a (B, 4, 4) stack of Choi matrices
    J[2 o1 + i, 2 o2 + j] = E(|i><j|)[o1, o2]: the column-major vecs of the
    E(|i><j|), stacked over the input basis, in the Pauli-product basis."""
    vec = j.reshape(-1, 2, 2, 2, 2).transpose(0, 4, 2, 3, 1).reshape(-1, 16)
    chi = (vec @ _CHI_BASIS_INV.T).reshape(-1, 4, 4)
    return (chi + _dag(chi)) / 2.0


def _choi_of_chi(chi: np.ndarray) -> np.ndarray:
    """Choi matrices of a chi matrix or a stack: ``_chi_of_choi`` inverted."""
    vec = np.asarray(chi, dtype=complex).reshape(-1, 16) @ _CHI_BASIS.T
    return vec.reshape(-1, 2, 2, 2, 2).transpose(0, 4, 2, 3, 1).reshape(-1, 4, 4)


def channel_chi(apply_fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Chi matrix (Pauli basis) of a linear single-qubit map, via its Choi matrix."""
    images = np.array([apply_fn(e) for e in np.eye(4, dtype=complex).reshape(4, 2, 2)])
    return _chi_of_choi(images.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1))[0]


def identity_chi() -> np.ndarray:
    """Chi matrix of the identity channel: single (I, I) element."""
    return channel_chi(lambda r: r)


def chi_to_transfer(chi: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Return the map rho -> sum_mn chi_mn sigma_m rho sigma_n."""
    choi = _choi_of_chi(chi).reshape(2, 2, 2, 2)
    return lambda rho: np.einsum("aibj,...ij->...ab", choi, rho)


def tp_violation(chi: np.ndarray) -> float:
    """Largest entry of |Tr_out J - I| for the Choi matrix J of ``chi``."""
    choi = _choi_of_chi(chi).reshape(2, 2, 2, 2)
    return float(np.max(np.abs(np.einsum("aiaj->ij", choi) - np.eye(2))))


def check_chi_matrix(chi: np.ndarray, require_tp: bool = False) -> np.ndarray:
    """Validate Hermiticity and positivity to 1e-10, the trace range and optionally TP to 1e-6."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (4, 4):
        raise ValueError("chi matrix must be 4x4")
    if np.max(np.abs(chi - chi.conj().T)) > 1e-10:
        raise ValueError("chi matrix not Hermitian")
    if float(np.min(np.linalg.eigvalsh(chi))) < -1e-10:
        raise ValueError("chi matrix not positive semidefinite")
    tr = float(np.real(np.trace(chi)))
    if not 0.0 < tr <= 1.0 + 1e-10:
        raise ValueError(f"chi trace {tr} outside (0, 1]")
    if require_tp and tp_violation(chi) > 1e-6:
        raise ValueError("chi matrix is not trace preserving")
    return chi


def _chi_of_params(t: np.ndarray) -> np.ndarray:
    """Chi matrices of the retracted Choi matrices of (B, 16) Choi-factor parameters."""
    T = _params_to_t(t)
    return _chi_of_choi(_retraction(_dag(T) @ T)[0])


def mle_process(records: list[CountRecord],
                options: TomographyOptions | None = None) -> TomographyResult:
    """Maximum-likelihood single-qubit process reconstruction of the records'
    own coincidences, with the fidelity to the identity channel.

    Records pair an input-state label (setting_a) with a measurement label
    (setting_b). Expected counts are mu_s = N_k * duration_s * Tr[W_s J(t)]
    over 16 Choi-factor parameters, with the per-input flux N_k fixed by the
    three complete measurement bases. J(t) is the retracted Choi matrix, so
    trace preservation holds exactly (Jezek, Fiurasek and Hradil, PRA 68,
    012305, 2003), and the gradient is pulled back through the retraction.
    Failures as in ``mle_state``; an input state without counts fails too.
    """
    fit = mle_tables("process", [(records, [[r.coincidences for r in records]])], options)[0]
    return point_result(fit, "process")


def mle_tables(kind: str, tables: list[tuple[list[CountRecord], np.ndarray]],
               options: TomographyOptions | None = None) -> list[BatchFit]:
    """The ``mle_state`` (``kind`` "state") or ``mle_process`` ("process")
    fits of the rows of several (records, counts) tables, all in one batch,
    split back per table.

    ``records`` give the settings and durations, which may differ between
    tables; row b of ``counts`` (shape (B, 36), in the order of ``records``)
    replaces their coincidences, clamped at zero. A row that cannot be
    fitted fails alone. A row's fit does not depend on the rows around it,
    but the least-squares inversion rounds a row differently next to other
    right-hand sides, so each table's state starts are solved from that
    table alone."""
    parts = [_batch_table(records, counts) for records, counts in tables]
    durations = np.concatenate([np.broadcast_to(d, raw.shape) for d, raw in parts])
    raw = np.concatenate([raw for _, raw in parts])
    if kind == "state":
        objective, errors = _state_problem(durations, raw)
        t0 = np.concatenate([_params_of_rho(_inversion(r / d)[0]) for d, r in parts])
        fit = _fit_batch(objective, t0, errors, options, _STATE_LBFGS, _rho_of_params)
    else:
        objective, errors = _process_problem(durations, raw)
        fit = _fit_batch(objective, np.tile(_PROCESS_START, (len(raw), 1)), errors, options,
                         _PROCESS_LBFGS, _chi_of_params)
    ends = np.cumsum([len(r) for _, r in parts]).tolist()
    return [fit.rows(end - len(r), end) for end, (_, r) in zip(ends, parts)]


# ---------------------------------------------------------------------------
# Monte-Carlo error bars
# ---------------------------------------------------------------------------

#: The reported metrics of each fit kind: name -> function of one estimate,
#: or of a stack of estimates with one value each. The identity channel's chi
#: is |e0><e0| (``identity_chi``), so the process fidelity Tr(chi chi_id) is
#: <e0|chi|e0>.
METRICS = {
    "state": {"fidelity": lambda m: fidelity(m, bell_state("phi+")), "purity": purity,
              "tangle": tangle},
    "process": {"fidelity": lambda m: fidelity(m, np.eye(4)[0]), "purity": purity},
}


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


def monte_carlo_errors(fit: BatchFit, metrics: dict[str, Callable[[np.ndarray], float]],
                       stage: str) -> MonteCarloErrors:
    """Error bars of a ``stage`` from ``fit``, the fits of its Poisson
    resamples (``counts.poisson_resamples``).

    Each metric is called once with the (n_kept, d, d) stack of kept
    estimates and returns one value per estimate. Failed resamples are
    tolerated up to 10% of the samples; beyond that a ``ReconstructionError``
    naming the stage aborts the run.
    """
    n_samples = len(fit.failed)
    n_failed = int(np.count_nonzero(fit.failed))
    if n_failed > 0.1 * n_samples:
        raise ReconstructionError(
            f"{stage}: {n_failed}/{n_samples} Monte-Carlo resamples failed to reconstruct")
    kept = fit.estimates[~fit.failed]
    values = {name: np.asarray(fn(kept), dtype=float) for name, fn in metrics.items()}
    means = {name: float(np.mean(v)) for name, v in values.items()}
    stds = {name: float(np.std(v, ddof=1)) for name, v in values.items()}
    return MonteCarloErrors(means=means, std_errors=stds, n_samples=n_samples,
                            n_failed=n_failed,
                            n_unconverged=int(np.count_nonzero(~fit.converged & ~fit.failed)))
