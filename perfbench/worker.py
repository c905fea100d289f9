"""One benchmark process: set up a workload, run timed passes, check outputs.

Started by ``run.py``, never by hand. The parent passes the monotonic-clock
time at which it spawned this process in ``PERFBENCH_SPAWN_T``, so set-up is
timed from interpreter start to the first timed job. The last stdout line
is one JSON object for the parent.

  --probe     stop after set-up and report only its duration
  --trace 1   alternate untraced and traced passes over the same inputs

With ``--trace 0`` passes run under ``hostspeed.SpeedSampler``, and every
job's time is kept raw and scaled to the reference host speed (see
``hostspeed.py``). A traced run leaves the sampler off, so it adds nothing
to any span and traced and untraced passes compare like for like.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import SpeedSampler, setup_scale
from tracing import JOB_LAYER, LAYERS, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SPAWN_T = float(os.environ["PERFBENCH_SPAWN_T"])
clock = time.perf_counter
#: failures whose traceback is printed to stderr; the rest are only counted
MAX_REPORTED_FAILURES = 3


class PassRecord:
    """One pass over a workload's job list; ``outputs`` lives until checked.

    ``latencies`` are raw job times, ``scaled`` the same at the reference
    host speed (equal to ``latencies`` when no sampler ran).
    """

    def __init__(self, latencies: list[float], scaled: list[float], outputs: list,
                 failures: list[str]):
        self.latencies = latencies
        self.scaled = scaled
        self.wall = sum(latencies)
        self.scaled_wall = sum(scaled)
        self.outputs = outputs
        self.failures = failures


def run_pass(workload, inputs, workdir: Path, tracer=None, sampler=None) -> PassRecord:
    """Run every job of one pass; a job that raises counts as failed."""
    outputs, latencies, scaled, failures = [], [], [], []
    for i, inp in enumerate(inputs):
        first, spent = (len(sampler.samples), sampler.spent) if sampler else (0, 0.0)
        t0 = clock()
        try:
            if tracer is None:
                outputs.append(workload.run_job(inp, workdir / f"job{i}"))
            else:
                with tracer.job(i):
                    outputs.append(workload.run_job(inp, workdir / f"job{i}"))
        except Exception:
            outputs.append(None)
            failures.append(traceback.format_exc())
        if sampler is None:
            latencies.append(clock() - t0)
            scaled.append(latencies[-1])
        else:
            latencies.append(clock() - t0 - (sampler.spent - spent))
            scaled.append(latencies[-1] * sampler.scale(first))
    return PassRecord(latencies, scaled, outputs, failures)


def check_pass(workload, inputs, record: PassRecord, workdir: Path) -> None:
    """Check each output outside the timed (and traced) region, then drop them."""
    for inp, out in zip(inputs, record.outputs):
        if out is None:
            continue
        try:
            workload.check(inp, out)
        except Exception:
            record.failures.append(traceback.format_exc())
    record.outputs = []
    shutil.rmtree(workdir, ignore_errors=True)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[PassRecord]) -> dict:
    """Pass wall (median over passes) and job percentiles, scaled and raw."""
    lat = [x for p in passes for x in p.scaled]
    raw = [x for p in passes for x in p.latencies]
    return {
        "wall_s": statistics.median(p.scaled_wall for p in passes),
        "job_p50_s": percentile(lat, 50),
        "job_p90_s": percentile(lat, 90),
        "raw_wall_s": statistics.median(p.wall for p in passes),
        "raw_job_p50_s": percentile(raw, 50),
        "raw_job_p90_s": percentile(raw, 90),
        "passes": len(passes),
        "jobs": len(lat),
    }


def per_layer(tracer, spans: list[tuple[int, int]], traced: list[PassRecord],
              untraced: list[PassRecord]) -> tuple[dict, dict]:
    """Per-pass self times (mean over traced passes) and counts from the first traced pass.

    The first pass's inputs depend only on the seed, so its counts (calls,
    iterations, unconverged fits, failed resamples, bytes) repeat exactly.
    """
    layers = list(LAYERS) + [JOB_LAYER]
    self_s = dict.fromkeys(layers, 0.0)
    for first, last in spans:
        for i, t in zip(range(first, last), tracer.self_times(first, last)):
            self_s[tracer.names[i]] += t
    n = len(spans)
    m = {f"{layer}.self_s": total / n for layer, total in self_s.items()}

    first, last = spans[0]
    calls = dict.fromkeys(layers, 0)
    attrs: dict[str, dict[str, list]] = {layer: {} for layer in layers}
    for i in range(first, last):
        name = tracer.names[i]
        calls[name] += 1
        for key, value in tracer.attrs.get(i, {}).items():
            attrs[name].setdefault(key, []).append(value)
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
    for layer in ("tomography.mle_state", "tomography.mle_process"):
        nit = attrs[layer].get("nit", [])
        m[f"{layer}.nit_mean"] = statistics.fmean(nit) if nit else 0.0
        m[f"{layer}.unconverged"] = sum(not c for c in attrs[layer].get("converged", []))
    mc = attrs["tomography.monte_carlo"]
    m["tomography.monte_carlo.samples"] = sum(mc.get("samples", []))
    m["tomography.monte_carlo.failed"] = sum(mc.get("failed", []))
    m["counts.csv.bytes"] = sum(attrs["counts.csv"].get("bytes", []))

    traced_wall = sum(p.wall for p in traced)
    m["trace.wall_s"] = traced_wall / n
    m["trace.accounted_pct"] = 100.0 * sum(self_s[layer] for layer in LAYERS) / traced_wall
    # each traced pass runs next to an untraced pass over the same inputs;
    # the median pair ratio leaves out host-speed swings between pairs
    ratios = [t.wall / u.wall for t, u in zip(traced, untraced)]
    m["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    m["trace.spans"] = last - first
    return m, attrs


def write_spans(path: Path, tracer) -> None:
    with open(path, "w") as fh:
        for row in tracer.rows():
            fh.write(json.dumps(row) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import entconv
    if Path(entconv.__file__).resolve().parent != ROOT / "src" / "entconv":
        raise SystemExit(f"imported entconv from {entconv.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workdir = args.out_dir / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - SPAWN_T
    setup = {"setup_s": setup_s, "setup_scale": setup_scale()}
    if args.probe:
        print(json.dumps(setup))
        return 0

    untraced, traced, spans, kernel_samples = [], [], [], []
    t_start = clock()
    try:
        k = 0
        while True:
            inputs = workload.pass_inputs(k)
            if tracer is None:
                order = [False]
            else:
                # odd passes go traced-first, so first-call costs do not all
                # land on the untraced side
                order = [False, True] if k % 2 == 0 else [True, False]
            for traced_now in order:
                pdir = workdir / f"pass{k}{'t' if traced_now else ''}"
                if traced_now:
                    first = len(tracer.names)
                    with installed(tracer):
                        traced.append(run_pass(workload, inputs, pdir, tracer))
                    spans.append((first, len(tracer.names)))
                elif tracer is not None:
                    untraced.append(run_pass(workload, inputs, pdir))
                else:
                    with SpeedSampler() as sampler:
                        untraced.append(run_pass(workload, inputs, pdir, sampler=sampler))
                    kernel_samples += sampler.samples
                check_pass(workload, inputs, (traced if traced_now else untraced)[-1], pdir)
            k += 1
            if clock() - t_start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = untraced + traced
    failures = [f for p in runs for f in p.failures]
    for f in failures[:MAX_REPORTED_FAILURES]:
        print(f, file=sys.stderr)
    result = {
        "workload": args.workload,
        "attempted": sum(len(p.latencies) for p in runs),
        "failed": len(failures),
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "measured_s": clock() - t_start,
        "end_to_end": end_to_end(untraced),
        "pass_walls_s": [p.wall for p in untraced],
        "job_latencies_s": [p.latencies for p in untraced],
        "scaled_job_latencies_s": [p.scaled for p in untraced],
        "kernel_samples_s": kernel_samples,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "entconv": entconv.__version__},
    }
    if tracer is not None:
        layer_metrics, attrs = per_layer(tracer, spans, traced, untraced)
        result["per_layer"] = layer_metrics
        result["fit_iterations"] = {layer: attrs[layer].get("nit", [])
                                    for layer in ("tomography.mle_state",
                                                  "tomography.mle_process")}
        spans_path = args.out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        write_spans(spans_path, tracer)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
