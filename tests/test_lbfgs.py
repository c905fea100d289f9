"""lbfgs.minimize_rows on the rare paths of scipy's L-BFGS-B: a line search
that fails, where the row drops its L-BFGS memory and retries once along -g,
and a step whose memory update is skipped, where the row keeps its pairs in
order while the others update; lbfgs._line_search on a batch whose rows
stop on different rounds, each as if searched alone; a row-wise dot that
rounds a row alike in any batch; and a batch of state fits that does not
depend on the memory order of its gradients."""
import numpy as np
from scipy import optimize

from entconv import lbfgs
from entconv.config import default_config
from entconv.conversion import convert, source_state
from entconv.counts import poisson_resamples, simulate_counts
from entconv.pipeline import stage_seed
from entconv.tomography import _KINDS, TomographyOptions, _batch_table, tomography_settings

#: f(x) = sum_i W_i |x_i - 1| + 0.05 |x|^2 has kinks at x_i = 1, where no
#: step meets the strong Wolfe curvature test, so a search near the minimum
#: can spend every evaluation it has
W = np.array([1.0, 2.0])
#: row 0's search 14 fails with memory present; row 1 never fails
STARTS = np.array([[0.3, 2.7], [3.0, -2.0]])
PGTOL, REL_TOL, MAX_ITERS, MAXCOR = 1e-8, 1e-12, 200, 10


def kinked(x):
    """Values and gradients (a subgradient at a kink) of every row of x."""
    return (np.sum(W * np.abs(x - 1.0), axis=-1) + 0.05 * np.sum(x * x, axis=-1),
            W * np.sign(x - 1.0) + 0.1 * x)


#: row 0 falls with slope -1 in x_0 up to x_0 = 1 and with slope -3 up to a
#: wall at x_0 = 2; a step across x_0 = 1 that stops at the wall has s'y < 0,
#: so its memory update is skipped. Row 1 is Rosenbrock's function plus 1.
LEDGE_STARTS = np.array([[-3.0, 0.0], [-1.2, 1.0]])


def ledge(x):
    u, v = x[..., 0], x[..., 1]
    slope = np.where(u < 1.0, -1.0, np.where(u < 2.0, -3.0, 20.0))
    corner = np.where(u < 1.0, 0.0, np.where(u < 2.0, 2.0, -44.0))
    f = slope * u + corner + 0.05 * u * u + 0.5 * (v - 3.0) ** 2 + 0.1 * (u - v) ** 2
    return f, np.stack([slope + 0.1 * u + 0.2 * (u - v), v - 3.0 - 0.2 * (u - v)], axis=-1)


def rosenbrock(x):
    a, b = x[..., 0], x[..., 1]
    return (1.0 + (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
            np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)], axis=-1))


def ledge_or_rosenbrock(x, idx):
    (f0, g0), (f1, g1) = ledge(x), rosenbrock(x)
    return np.where(idx == 1, f1, f0), np.where((idx == 1)[:, None], g1, g0)


def scipy_fit(fun, x0):
    history = []

    def value_and_grad(x):
        f, g = fun(x)
        if not history:
            history.append(f)
        return float(f), g

    def record_step(intermediate_result):
        history.append(intermediate_result.fun)

    res = optimize.minimize(value_and_grad, x0, jac=True, method="L-BFGS-B",
                            callback=record_step,
                            options={"maxiter": MAX_ITERS, "ftol": REL_TOL, "gtol": PGTOL,
                                     "maxcor": MAXCOR})
    return res, np.array(history)


def test_failed_search_retries_along_minus_g_and_ends_where_scipy_does(monkeypatch):
    searches = []
    line_search = lbfgs._line_search

    def recording(fun, rows, x, f, g, d, stp):
        found, *rest = line_search(fun, rows, x, f, g, d, stp)
        searches.append((rows.tolist(), found.tolist(), d, g))
        return (found, *rest)

    monkeypatch.setattr(lbfgs, "_line_search", recording)
    x, converged, history, nit = lbfgs.minimize_rows(
        lambda x, idx: kinked(x), STARTS, np.array([True, True]), PGTOL,
        REL_TOL, MAX_ITERS, MAXCOR)

    failed = [k for k, (rows, found, _, _) in enumerate(searches) if not all(found)]
    assert len(failed) == 1
    rows, found, _, _ = searches[failed[0]]
    assert rows == [0, 1] and found == [False, True]
    retry_rows, retry_found, d, g = searches[failed[0] + 1]
    assert retry_rows == [0] and retry_found == [True]
    assert np.array_equal(d, -g)  # no memory left: the steepest-descent direction
    assert converged.tolist() == [True, True]

    for b, x0 in enumerate(STARTS):
        res, scipy_history = scipy_fit(kinked, x0)
        assert res.success and nit[b] == res.nit
        np.testing.assert_allclose(x[b], res.x, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(history[:nit[b] + 1, b], scipy_history, rtol=1e-9)


def test_skipped_update_keeps_the_memory_order_and_ends_where_scipy_does(monkeypatch):
    searches = []
    line_search = lbfgs._line_search

    def recording(fun, rows, x, f, g, d, stp):
        found, x_new, f_new, g_new = line_search(fun, rows, x, f, g, d, stp)
        s, y = x_new - x, g_new - g
        skip = np.sum(s * y, axis=1) <= np.finfo(float).eps * -np.sum(g * s, axis=1)
        searches.append((rows.tolist(), found.tolist(), (found & skip).tolist()))
        return found, x_new, f_new, g_new

    monkeypatch.setattr(lbfgs, "_line_search", recording)
    x, converged, history, nit = lbfgs.minimize_rows(
        ledge_or_rosenbrock, LEDGE_STARTS, np.array([True, True]), PGTOL,
        REL_TOL, MAX_ITERS, MAXCOR)

    skipped = [k for k, (_, _, skip) in enumerate(searches) if any(skip)]
    assert skipped
    rows, found, skip = searches[skipped[0]]
    assert rows == [0, 1] and found == [True, True] and skip == [True, False]
    # row 0 holds two pairs then, so their order under the shared head matters
    assert all(found == [True, True] and not any(skip)
               for _, found, skip in searches[:skipped[0]]) and skipped[0] >= 2

    for b, (fun, x0) in enumerate(zip((ledge, rosenbrock), LEDGE_STARTS)):
        res, scipy_history = scipy_fit(fun, x0)
        assert converged[b] == res.success and nit[b] == res.nit
        np.testing.assert_allclose(x[b], res.x, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(history[:nit[b] + 1, b], scipy_history, rtol=1e-9)


#: separable quartics sum_j A_j u_j^2 + Q_j u_j^4, u = x - C, one per row: elementwise,
#: so a row's values do not depend on the rows evaluated with it
QA = np.array([[1.0, 2.0], [1.0, 1.0], [0.5, 3.0], [2.0, 0.7], [1.0, 1.5]])
QQ = np.array([[0.3, 0.1], [0.0, 0.0], [0.2, 1.0], [0.5, 0.05], [0.1, 0.4]])
QC = np.array([[1.0, -1.0], [1.0, 1.0], [2.0, -0.5], [-1.0, 0.3], [1.0, 2.0]])


def quartics(x, rows):
    u = x - QC[rows]
    return (np.sum(QA[rows] * u * u + QQ[rows] * u ** 4, axis=1),
            2.0 * QA[rows] * u + 4.0 * QQ[rows] * u ** 3)


def test_line_search_rows_stop_on_their_own_rounds_as_if_searched_alone():
    rows = np.arange(5)
    x = np.zeros((5, 2))
    f, g = quartics(x, rows)
    # row 0 goes uphill; row 1 steps onto its minimum (a quadratic); rows 2 and 3
    # start short and long; row 4 starts too short to get anywhere in _MAX_EVALS
    d = -g
    d[0], d[1] = g[0], QC[1]
    stp = np.array([1.0, 1.0, 1e-3, 50.0, 1e-20])
    evaluated = []

    def recording(x, rows):
        evaluated.extend(rows.tolist())
        return quartics(x, rows)

    found, x_new, f_new, g_new = lbfgs._line_search(recording, rows, x, f, g, d, stp)
    assert [evaluated.count(b) for b in rows] == [0, 1, 3, 4, lbfgs._MAX_EVALS]
    assert found.tolist() == [False, True, True, True, False]
    for b in rows:
        one = lbfgs._line_search(quartics, rows[b:b + 1], x[b:b + 1], f[b:b + 1], g[b:b + 1],
                                 d[b:b + 1], stp[b:b + 1])
        for batched, alone in zip((found, x_new, f_new, g_new), one):
            assert np.array_equal(batched[b:b + 1], alone)
    for b in (0, 4):  # a failed row comes back at its start
        assert np.array_equal(x_new[b], x[b]) and f_new[b] == f[b]
        assert np.array_equal(g_new[b], g[b])

    evaluated.clear()
    uphill = lbfgs._line_search(recording, rows, x, f, g, g, stp)
    assert not evaluated and not uphill[0].any()
    for out, start in zip(uphill[1:], (x, f, g)):
        assert np.array_equal(out, start)


def test_dot_of_any_rows_equals_those_rows_of_the_whole_call():
    """``lbfgs._dot`` of a row subset of a (k, 16) batch, lone rows among them,
    and of the slot slices of a (m, k, 16) memory, compacted or not, equals
    those rows of the call on the whole batch, bit for bit."""
    rng = np.random.default_rng(22)
    for k in (2, 3, 20, 101, 404):
        a, b = rng.normal(size=(2, k, 16))
        whole = lbfgs._dot(a, b)
        subsets = [[i] for i in range(k)] + [
            np.sort(rng.choice(k, size=rng.integers(1, k + 1), replace=False)) for _ in range(20)]
        for rows in subsets:
            assert lbfgs._dot(a[rows], b[rows]).tobytes() == whole[rows].tobytes()
    mem, q = rng.normal(size=(20, 404, 16)), rng.normal(size=(404, 16))
    kept = np.sort(rng.choice(404, size=150, replace=False))
    for slot in range(len(mem)):
        whole = lbfgs._dot(mem[slot], q)
        assert lbfgs._dot(mem[:, kept][slot], q[kept]).tobytes() == whole[kept].tobytes()
        for row in range(0, 404, 37):
            assert lbfgs._dot(mem[slot, row:row + 1], q[row:row + 1])[0] == whole[row]


def test_batched_fit_does_not_depend_on_gradient_memory_order():
    """numpy rounds a reduction (the vecdot of ``lbfgs._dot``) differently for
    C- and F-ordered operands; on these resamples of the default output table,
    whose line searches do not all accept step 1, a fit that took the
    gradient's layout as it came moved rows by rounding."""
    config = default_config()
    rho, _ = convert(source_state(config.source), config.conversion)
    records = simulate_counts(rho, tomography_settings(), config.source,
                              config.detection["output"], config.acquisition.output_duration,
                              stage_seed(config.seed, "state_output"))
    durations, raw = _batch_table(records, poisson_resamples(
        [r.coincidences for r in records], 10, seed=5))
    problem, (pgtol, maxcor), _ = _KINDS["state"]
    objective, t0, _ = problem(durations, raw)
    options = TomographyOptions()

    def fit(order):
        def fun(x, idx):
            f, g = objective.rows(x, idx)
            return f, order(g)
        return lbfgs.minimize_rows(fun, t0, np.ones(len(t0), dtype=bool), pgtol,
                                   options.rel_tol, options.max_iters, maxcor)

    for c_order, f_order in zip(fit(np.ascontiguousarray), fit(np.asfortranarray)):
        assert np.array_equal(c_order, f_order)
