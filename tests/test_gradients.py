"""Likelihood objectives: analytic gradients against central finite differences,
the one-table optimizer's evaluations, and the raw-count log-likelihood
reported by a fit. Objectives are those of point fits: one-row tables."""
import numpy as np
import pytest
from scipy import optimize

from entconv import tomography
from entconv.conversion import ConversionParams, DetectionModel, SourceModel, convert_qubit
from entconv.counts import expected_counts, simulate_counts, simulate_process_counts
from entconv.states import projector, werner_state
from entconv.tomography import _minimize_one, _params_of_rho, mle_state, tomography_settings
from test_mc_batch import batch_objective

SETTINGS = tomography_settings()
SRC = SourceModel(kind="werner", p=1.0, pair_rate=100.0)
DET = DetectionModel()
REL_TOL = 1e-6
ROW = slice(0, 1)


def central_difference(fun, t, h):
    """Central differences with step h, one number or one step per parameter."""
    h = np.broadcast_to(h, t.shape)
    grad = np.empty_like(t)
    for i in range(t.size):
        e = np.zeros_like(t)
        e[i] = h[i]
        grad[i] = (fun(t + e)[0] - fun(t - e)[0]) / (2.0 * h[i])
    return grad


def one_table(kind, records):
    return batch_objective(kind, records, [[r.coincidences for r in records]])


def assert_gradient_matches(objective, t, h=1e-6):
    def fun(x):
        nll, grad = objective.rows(x[None], ROW)
        return nll[0], grad[0]

    value, grad = fun(t)
    assert np.isfinite(value)
    fd = central_difference(fun, t, h)
    assert np.linalg.norm(grad - fd) <= REL_TOL * np.linalg.norm(fd)


def state_records(seed):
    return simulate_counts(werner_state(0.9), SETTINGS, SRC, DET, 10.0, seed=seed)


def process_records(seed):
    channel = lambda r: convert_qubit(r, ConversionParams(eta_v=0.8, theta=0.3, dephase=0.9))
    return simulate_process_counts(channel, SETTINGS, 200.0, 10.0, seed=seed)


def test_state_gradient():
    rng = np.random.default_rng(31)
    objective = one_table("state", state_records(1))
    for _ in range(4):
        assert_gradient_matches(objective, rng.normal(size=16))


def test_process_gradient():
    rng = np.random.default_rng(32)
    objective = one_table("process", process_records(2))
    for _ in range(4):
        assert_gradient_matches(objective, rng.normal(size=16))


def test_process_gradient_where_g_is_near_singular():
    # Shrinking the columns of T on input index 1 (T_11, T_33, T_01, T_03,
    # T_13, T_23) leaves G = Tr_out T^dag T with an eigenvalue near 1e-11,
    # above the 1e-14 floor; the steps are relative, since the retraction
    # scales those parameters up by about 1e6.
    rng = np.random.default_rng(35)
    t = rng.normal(size=16)
    t[[1, 3, 4, 6, 8, 9, 10, 12, 14, 15]] *= 1e-6
    T = tomography._params_to_t(t[None])
    j = tomography._dag(T) @ T
    lam = np.linalg.eigvalsh(j[0, :2, :2] + j[0, 2:, 2:])
    assert 1e-14 < lam[0] < 1e-10 and lam[1] > 1.0
    assert_gradient_matches(one_table("process", process_records(2)), t, h=1e-6 * np.abs(t))


def test_state_gradient_where_probability_is_clipped():
    # A near-pure state whose (V, V) probability is positive but below the
    # 1e-12 clip, while the (V, V) record has counts: there the objective is
    # flat in p_VV, so the gradient must ignore that setting.
    records = expected_counts(werner_state(0.9), SETTINGS, SRC, DET, 10.0)
    assert records[SETTINGS.index(("V", "V"))].coincidences > 0
    rng = np.random.default_rng(33)
    t = rng.normal(size=16)
    column3 = [3, 4 + 2, 4 + 4, 4 + 5, 10 + 2, 10 + 4, 10 + 5]  # T_33, T_03, T_13, T_23
    t[column3] = 1e-8
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    T[np.triu_indices(4, 1)] = t[4:10] + 1j * t[10:16]
    rho = T.conj().T @ T
    p_vv = float(np.real(rho[3, 3] / np.trace(rho)))
    assert 0.0 < p_vv < 1e-12
    assert_gradient_matches(one_table("state", records), t, h=1e-7)


def test_fit_evaluates_objective_once_per_optimizer_call(monkeypatch):
    # history[0] comes from the optimizer's own evaluation at t0
    objective = one_table("state", state_records(6))
    calls, results = [], []
    scipy_minimize = optimize.minimize

    def counting_rows(t, idx):
        calls.append(1)
        return objective.rows(t, idx)

    def recording_minimize(*args, **kwargs):
        results.append(scipy_minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tomography.optimize, "minimize", recording_minimize)
    t0 = _params_of_rho(np.eye(4) / 4.0)[None]
    pgtol, maxcor = tomography._KINDS["state"][1]
    x, converged, history, nit = _minimize_one(counting_rows, t0, np.array([True]), pgtol,
                                               1e-10, 5000, maxcor)
    (res,) = results
    assert np.array_equal(x[0], res.x) and converged[0] == res.success
    assert len(calls) == res.nfev
    assert history[0, 0] == objective.rows(t0, ROW)[0][0]
    assert len(history) == res.nit + 1 and nit.tolist() == [res.nit]


def test_log_likelihood_is_raw_count_likelihood_of_estimate():
    records = state_records(5)
    result = mle_state(records)
    n = np.array([r.coincidences for r in records])
    rates = n / np.array([r.duration for r in records])
    groups = {}
    for (a, b), rate in zip(SETTINGS, rates):
        key = ("HVDARL".index(a) // 2, "HVDARL".index(b) // 2)
        groups[key] = groups.get(key, 0.0) + rate
    flux = np.mean(list(groups.values()))
    p = np.array([np.real(np.trace(np.kron(projector(a), projector(b)) @ result.estimate))
                  for a, b in SETTINGS])
    mu = flux * np.array([r.duration for r in records]) * p
    expected = float(np.sum(n * np.log(mu) - mu))
    assert result.log_likelihood == result.history[-1]
    assert abs(result.log_likelihood - expected) <= 1e-9 * abs(expected)
