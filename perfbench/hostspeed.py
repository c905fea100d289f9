"""Host-speed reference: a fixed kernel, timed while the benchmark runs.

The shared 2-vCPU VMs this benchmark was defined on switch between a fast
and a slow state, up to about 1.5x apart, for seconds to minutes at a time.
A whole run can fall in either, so raw times of identical work differ
between runs by more than any useful bound.

The kernel below runs no entconv code. It is three L-BFGS-B steps of a
maximum-likelihood fit of a two-qubit density matrix, written afresh here,
to fixed made-up counts: the same scipy optimizer, small numpy calls and
interpreter work as entconv's fits, so a slow host state slows it about as
much. (A kernel of eigendecompositions and a Python loop tracked
``report_mc100`` half as well.) ``SpeedSampler`` times it every
``SAMPLE_INTERVAL_S`` from a SIGALRM handler, so it runs on the same core
and thread as the workload, between the program's bytecodes. A time scaled
by ``REF_KERNEL_S / kernel time`` reads as it would on a host where the
kernel takes ``REF_KERNEL_S``. A change to entconv moves raw and scaled
times alike.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy import optimize

KERNEL_ITERATIONS = 3
#: about the kernel time on the fast state of the 2-vCPU Xeon VM the
#: benchmark was defined on; scaled times are seconds on that host
REF_KERNEL_S = 0.0025
#: 3-4% of the workload's time goes to sampling; sampling every 0.25 s with
#: a kernel three times as long left a wider spread on report_mc100 (0.072
#: against 0.044, quartile distance over median of five runs)
SAMPLE_INTERVAL_S = 0.1

clock = time.perf_counter
_rng = np.random.default_rng(1)
#: 36 random pure-state projectors and their counts
_V = _rng.standard_normal((36, 4)) + 1j * _rng.standard_normal((36, 4))
_V /= np.linalg.norm(_V, axis=1, keepdims=True)
_N = _rng.integers(50, 500, 36).astype(float)
_T0 = np.r_[np.ones(4), np.zeros(12)]
_LOWER = np.tril_indices(4, -1)


def _neg_loglik(t: np.ndarray) -> float:
    """Poisson negative log-likelihood of rho = T T^dag / tr, T lower triangular."""
    T = np.diag(t[:4]).astype(complex)
    T[_LOWER] = t[4:10] + 1j * t[10:16]
    rho = T @ T.conj().T
    rho /= np.trace(rho).real
    p = np.einsum("ki,ij,kj->k", _V.conj(), rho, _V).real
    return -float(np.sum(_N * np.log(p + 1e-12)))


def kernel_time() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = clock()
    optimize.minimize(_neg_loglik, _T0, method="L-BFGS-B",
                      options={"maxiter": KERNEL_ITERATIONS})
    return clock() - t0


def setup_scale() -> float:
    """REF_KERNEL_S over the median of three kernel times, after one warm-up."""
    kernel_time()
    return REF_KERNEL_S / statistics.median(kernel_time() for _ in range(3))


class SpeedSampler:
    """Times the kernel on entry and every SAMPLE_INTERVAL_S until exit.

    ``samples`` holds the kernel times in order. ``spent`` is the wall time
    the samples took; whoever times work while the sampler is active
    subtracts the growth of ``spent`` from it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = clock()
        self.samples.append(kernel_time())
        self.spent += clock() - t0

    def __enter__(self) -> SpeedSampler:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int) -> float:
        """Scale for work that began when ``first`` samples had been taken.

        Uses the last sample before the work began and every sample since.
        """
        return REF_KERNEL_S / statistics.fmean(self.samples[max(first - 1, 0):])
