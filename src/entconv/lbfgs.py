"""Many small independent minimizations in one vectorised L-BFGS loop.

``minimize_rows`` runs the unconstrained L-BFGS-B iteration of scipy's
``minimize(method="L-BFGS-B")`` on every row of a (B, n) parameter array at
once: the same direction (L-BFGS with H0 = (s'y / y'y) I), first step
(length 1 along -g), More-Thuente line search (MINPACK-2 dcsrch with the
parameters below), restart on a failed search, memory-update skip rule and
stopping rules. Rows never interact, to the bit: each evaluation round calls
the objective once on the rows still searching, a lone row as a pair (BLAS
rounds a one-row product differently), and its gradients are read in C order
(numpy rounds a reduction such as ``_dot``'s ``vecdot`` differently for C- and
F-ordered operands, so the fit depends on the objective's values only). The
rows still iterating form one block, compacted when a row stops, whose
memories are a ring with one head for all rows: the i-th newest pair is in
slot (head + i) % maxcor. A line search keeps the rows still searching in a
block of their own, compacted alike.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

#: dcsrch's ftol, gtol, xtol, largest step and evaluations per search, as in scipy's L-BFGS-B
_FTOL, _GTOL, _XTOL, _STPMAX, _MAX_EVALS = 1e-3, 0.9, 0.1, 1e10, 20


#: the dot product of each row of two (k, n) arrays
_dot = np.vecdot


def _two_loop(g, s_mem, y_mem, rho_mem, head):
    """L-BFGS product H g per row; memories are slot-major (m, rows, n), the
    i-th newest pair in slot (head + i) % m, empty slots zero."""
    slots = (head + np.arange(np.count_nonzero(rho_mem, axis=0).max())) % len(rho_mem)
    q, alpha = g.copy(), np.zeros(rho_mem.shape)
    for i in slots:
        alpha[i] = rho_mem[i] * _dot(s_mem[i], q)
        q -= alpha[i, :, None] * y_mem[i]
    has = rho_mem[head] > 0.0
    yy = np.where(has, rho_mem[head] * _dot(y_mem[head], y_mem[head]), 1.0)
    r = np.where(has, 1.0 / yy, 1.0)[:, None] * q
    for i in slots[::-1]:
        beta = rho_mem[i] * _dot(y_mem[i], r)
        r += (alpha[i] - beta)[:, None] * s_mem[i]
    return r


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stmin, stmax):
    """More-Thuente safeguarded step (MINPACK-2 dcstep), elementwise.

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of the
    interval and (stp, fp, dp) the trial. Returns the updated interval, the
    next trial step and whether a minimizer is bracketed.
    """
    sgnd = np.sign(dp) * np.sign(dx)
    case1 = fp > fx
    case2 = ~case1 & (sgnd < 0.0)
    case3 = ~case1 & ~case2 & (np.abs(dp) < np.abs(dx))

    def cubic(st, f0, d0):
        theta = 3.0 * (f0 - fp) / (stp - st) + d0 + dp
        s = np.maximum(np.maximum(np.abs(theta), np.abs(d0)), np.abs(dp))
        return theta, s * np.sqrt(np.maximum((theta / s) ** 2 - (d0 / s) * (dp / s), 0.0))

    theta, gamma = cubic(stx, fx, dx)
    g1 = np.where(stp < stx, -gamma, gamma)
    stpc = stx + ((g1 - dx) + theta) / (((g1 - dx) + g1) + dp) * (stp - stx)
    stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
    step1 = np.where(np.abs(stpc - stx) < np.abs(stpq - stx), stpc, stpc + (stpq - stpc) / 2.0)
    g2 = np.where(stp > stx, -gamma, gamma)
    r = ((g2 - dp) + theta) / (((g2 - dp) + g2) + dx)
    stpc = stp + r * (stx - stp)
    stpq = stp + (dp / (dp - dx)) * (stx - stp)
    step2 = np.where(np.abs(stpc - stp) > np.abs(stpq - stp), stpc, stpq)
    stpc = np.where((r < 0.0) & (g2 != 0.0), stpc, np.where(stp > stx, stmax, stmin))
    nearer = np.where(np.abs(stpc - stp) < np.abs(stpq - stp), stpc, stpq)
    limit = stp + 0.66 * (sty - stp)
    step3 = np.where(brackt, np.where(stp > stx, np.minimum(limit, nearer),
                                      np.maximum(limit, nearer)),
                     np.clip(np.where(np.abs(stpc - stp) > np.abs(stpq - stp), stpc, stpq),
                             stmin, stmax))
    theta, gamma = cubic(sty, fy, dy)
    g4 = np.where(stp > sty, -gamma, gamma)
    step4 = np.where(brackt, stp + ((g4 - dp) + theta) / (((g4 - dp) + g4) + dy) * (sty - stp),
                     np.where(stp > stx, stmax, stmin))
    step = np.select([case1, case2, case3], [step1, step2, step3], step4)
    swap = ~case1 & (sgnd < 0.0)
    sty, fy, dy = (np.where(case1, stp, np.where(swap, stx, sty)),
                   np.where(case1, fp, np.where(swap, fx, fy)),
                   np.where(case1, dp, np.where(swap, dx, dy)))
    stx, fx, dx = (np.where(case1, stx, stp), np.where(case1, fx, fp),
                   np.where(case1, dx, dp))
    return stx, fx, dx, sty, fy, dy, step, brackt | case1 | case2


def _line_search(fun, rows, x, f, g, d, stp):
    """More-Thuente line search (MINPACK-2 dcsrch) along d for every row.

    A row stops at a step with f <= f0 + ftol stp g0'd and |g'd| <= gtol
    |g0'd|, or where rounding or the bracket width prevents progress (the
    trial point is then taken as it is). Returns which rows stopped within
    ``_MAX_EVALS`` evaluations and their new points, the start where a row
    failed; a row where d is not a descent direction fails at once. The rows
    still searching form one block, compacted when a row stops.
    """
    found = np.zeros(len(rows), dtype=bool)
    x_new, f_new, g_new = x.copy(), f.copy(), g.copy()
    ginit = _dot(g, d)
    i = np.flatnonzero(ginit < 0.0)  # the rows of the block in the batch
    rows, x, f, d, ginit, stp = rows[i], x[i], f[i], d[i], ginit[i], stp[i]
    n, gtest = len(i), _FTOL * ginit
    stx, fx, gx, sty, fy, gy = np.zeros(n), f, ginit, np.zeros(n), f, ginit
    stmin, stmax = np.zeros(n), 5.0 * stp
    width, width1 = np.full(n, _STPMAX), np.full(n, 2.0 * _STPMAX)
    brackt, stage1 = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_EVALS if n else 0):
            xt = x + stp[:, None] * d
            ft, gt = fun(xt, rows)
            dt = _dot(gt, d)
            ftest = f + stp * gtest
            stage1 = stage1 & ~((ft <= ftest) & (dt >= 0.0))
            stop = ((ft <= ftest) & (np.abs(dt) <= -_GTOL * ginit)
                    | brackt & ((stp <= stmin) | (stp >= stmax) | (stmax - stmin <= _XTOL * stmax))
                    | (stp == _STPMAX) & (ft <= ftest) & (dt <= gtest))
            if stop.any():  # write the rows back and drop them from the block
                done = i[stop]
                x_new[done], f_new[done], g_new[done] = xt[stop], ft[stop], gt[stop]
                found[done] = True
                if stop.all():
                    break
                (i, rows, x, f, d, ginit, gtest, stx, fx, gx, sty, fy, gy, stp, stmin, stmax,
                 width, width1, brackt, stage1, ft, dt, ftest) = (a[~stop] for a in (
                    i, rows, x, f, d, ginit, gtest, stx, fx, gx, sty, fy, gy, stp, stmin, stmax,
                    width, width1, brackt, stage1, ft, dt, ftest))
            # stage 1 steers by f - ftol stp g0'd while f fell but not enough
            m = np.where(stage1 & (ft <= fx) & (ft > ftest), gtest, 0.0)
            stx, fx, gx, sty, fy, gy, step, brackt = _dcstep(
                stx, fx - stx * m, gx - m, sty, fy - sty * m, gy - m,
                stp, ft - stp * m, dt - m, brackt, stmin, stmax)
            fx, fy, gx, gy = fx + stx * m, fy + sty * m, gx + m, gy + m
            span = np.abs(sty - stx)
            step = np.where(brackt & (span >= 0.66 * width1), stx + 0.5 * (sty - stx), step)
            width1 = np.where(brackt, width, width1)
            width = np.where(brackt, span, width)
            stmin = np.where(brackt, np.minimum(stx, sty), step + 1.1 * (step - stx))
            stmax = np.where(brackt, np.maximum(stx, sty), step + 4.0 * (step - stx))
            step = np.clip(step, 0.0, _STPMAX)
            stuck = brackt & ((step <= stmin) | (step >= stmax) | (stmax - stmin <= _XTOL * stmax))
            stp = np.where(stuck, stx, step)
    return found, x_new, f_new, g_new


def minimize_rows(fun: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
                  x0: np.ndarray, fit: np.ndarray, pgtol: float, rel_tol: float,
                  max_iters: int, maxcor: int):
    """Minimize every row b of a batch of objectives with ``fit[b]``, from x0[b].

    ``fun(x, idx)`` returns the values and gradients of objectives ``idx`` at
    the rows of x. A row converges when max |g| <= pgtol or its relative
    decrease (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ``rel_tol``; it stops
    unconverged after ``max_iters`` iterations, or when a line search fails
    without L-BFGS memory to clear and retry along -g. Returns the final
    parameters, the converged flags, the objective of every row per batch
    iteration, shape (iterations + 1, B), where stopped and unfitted rows
    repeat their last value, and each row's own iteration count.
    """
    def evaluate(x, idx):  # see the module docstring
        if len(idx) == 1:
            f, g = fun(np.repeat(x, 2, axis=0), np.repeat(idx, 2))
            return f[:1], np.ascontiguousarray(g[:1])
        f, g = fun(x, idx)
        return f, np.ascontiguousarray(g)

    x = x0.copy()
    n_rows, n_par = x.shape
    f, g, nit = np.zeros(n_rows), np.zeros_like(x), np.zeros(n_rows, dtype=int)
    rows = np.flatnonzero(fit)
    f[rows], g[rows] = evaluate(x[rows], rows)
    converged = fit & (np.max(np.abs(g), axis=1) <= pgtol)
    history = [f.copy()]
    idx = np.flatnonzero(fit & ~converged)  # the block of rows still iterating
    bx, bf, bg, bnit = x[idx], f[idx], g[idx], nit[idx]
    s_mem, y_mem = np.zeros((2, maxcor, len(idx), n_par))
    rho_mem, head = np.zeros((maxcor, len(idx))), 0

    while idx.size:
        d = -_two_loop(bg, s_mem, y_mem, rho_mem, head)
        stp = np.where(bnit == 0, 1.0 / np.linalg.norm(d, axis=1), 1.0)
        found, x_new, f_new, g_new = _line_search(evaluate, idx, bx, bf, bg, d, stp)
        retry = np.flatnonzero(~found & (rho_mem[head] > 0.0))
        if retry.size:  # along -g from stp = 1, as a row with a stored pair has iterated
            s_mem[:, retry], y_mem[:, retry], rho_mem[:, retry] = 0.0, 0.0, 0.0
            found[retry], x_new[retry], f_new[retry], g_new[retry] = _line_search(
                evaluate, idx[retry], bx[retry], bf[retry], bg[retry], -bg[retry], stp[retry])
        s, y = x_new - bx, g_new - bg  # zero where the search failed
        sy = _dot(s, y)
        keep = sy > np.finfo(float).eps * -_dot(bg, s)
        head = (head - 1) % maxcor
        if not keep.all():  # a row that skips its update keeps its pairs' order
            for mem in (s_mem, y_mem, rho_mem):
                mem[:, ~keep] = np.roll(mem[:, ~keep], -1, axis=0)
        k = slice(None) if keep.all() else keep
        s_mem[head, k], y_mem[head, k], rho_mem[head, k] = s[k], y[k], 1.0 / sy[k]
        scale = np.maximum(np.maximum(np.abs(bf), np.abs(f_new)), 1.0)
        done = found & ((np.max(np.abs(g_new), axis=1) <= pgtol) | (bf - f_new <= rel_tol * scale))
        bx, bf, bg, bnit = x_new, f_new, g_new, bnit + found
        f[idx] = bf
        leave = ~found | done | (bnit >= max_iters)
        if leave.any():  # write the rows back and drop them from the block
            out = idx[leave]
            x[out], nit[out] = bx[leave], bnit[leave]
            converged[out] = (done & (bnit < max_iters))[leave]
            idx, bx, bf, bg, bnit = (a[~leave] for a in (idx, bx, bf, bg, bnit))
            s_mem, y_mem, rho_mem = s_mem[:, ~leave], y_mem[:, ~leave], rho_mem[:, ~leave]
        history.append(f.copy())
    return x, converged, np.array(history), nit
