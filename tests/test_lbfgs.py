"""lbfgs.minimize_rows where a line search fails: the row drops its L-BFGS
memory and retries once along -g, as scipy's L-BFGS-B restarts."""
import numpy as np
from scipy import optimize

from entconv import lbfgs

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


def scipy_fit(x0):
    history = []

    def value_and_grad(x):
        f, g = kinked(x)
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
        lambda x, idx: kinked(x), STARTS, np.array([True, True]), np.full(2, PGTOL),
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
        res, scipy_history = scipy_fit(x0)
        assert res.success and nit[b] == res.nit
        np.testing.assert_allclose(x[b], res.x, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(history[:nit[b] + 1, b], scipy_history, rtol=1e-9)
