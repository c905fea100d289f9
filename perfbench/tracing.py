"""In-memory span tracing around calls into entconv's public functions.

The program itself carries no instrumentation. ``installed`` swaps each
traced function for a wrapper in every loaded ``entconv`` module that
refers to it (so calls between modules, such as pipeline -> tomography, are
caught too) and puts the originals back on exit.

A span is (layer, start, end, parent, job). A layer's self time is the sum
of its spans' durations minus the durations of their direct children; spans
nest strictly because the benchmark runs one client in one thread.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

_clock = time.perf_counter


def _fit_attrs(args, kwargs, result):
    return {"nit": int(result.iterations), "converged": bool(result.converged)}


def _mc_attrs(args, kwargs, result):
    return {"samples": int(result.n_samples), "failed": int(result.n_failed)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


#: layer name -> (module, function names, attribute extractor or None)
LAYERS = {
    "tomography.mle_state": ("entconv.tomography", ("mle_state",), _fit_attrs),
    "tomography.mle_process": ("entconv.tomography", ("mle_process",), _fit_attrs),
    "tomography.linear_inversion": ("entconv.tomography", ("linear_inversion_state",), None),
    "tomography.monte_carlo": ("entconv.tomography", ("monte_carlo_errors",), _mc_attrs),
    "chsh.chsh_s": ("entconv.chsh", ("chsh_s",), None),
    "chsh.sigma_resampled": ("entconv.chsh", ("chsh_sigma_resampled",), None),
    "counts.simulate": ("entconv.counts", ("simulate_counts", "simulate_process_counts",
                                           "expected_counts", "expected_process_counts"), None),
    "counts.csv": ("entconv.counts", ("write_counts_csv", "read_counts_csv"), _csv_bytes),
    "conversion.focusing_factor": ("entconv.conversion", ("focusing_factor",), None),
    "pipeline": ("entconv.pipeline", ("run_report", "run_simulate"), None),
}

#: Root span of one benchmark job; its self time is harness time outside any layer.
JOB_LAYER = "bench"


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._job = -1

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Root span for one benchmark job; every span inside carries job_id."""
        self._job = job_id
        i = self.open(JOB_LAYER)
        try:
            yield
        finally:
            self.close(i)
            self._job = -1

    def wrap(self, name: str, fn, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if attrs_fn is not None:
                self.attrs[i] = attrs_fn(args, kwargs, result)
            return result
        return traced

    def self_times(self, first: int, last: int) -> list[float]:
        """Self time of every span in [first, last): duration minus child durations."""
        out = [self.ends[i] - self.starts[i] for i in range(first, last)]
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                out[p - first] -= self.ends[i] - self.starts[i]
        return out

    def rows(self):
        """Spans as plain tuples (index, layer, start, end, parent, job, attrs)."""
        t0 = self.starts[0] if self.starts else 0.0
        for i, name in enumerate(self.names):
            yield (i, name, self.starts[i] - t0, self.ends[i] - t0, self.parents[i],
                   self.jobs[i], self.attrs.get(i, {}))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every loaded entconv reference to a traced function through tracer."""
    patched = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "entconv" or n.startswith("entconv."))]
    try:
        for name, (module_name, fnames, attrs_fn) in LAYERS.items():
            home = sys.modules[module_name]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapper = tracer.wrap(name, orig, attrs_fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, orig))
        yield tracer
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)
