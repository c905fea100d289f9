"""entconv benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload report_mc100 --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the code measured is its ``src/entconv``. This process imports only the
standard library. It times set-up in separate probe processes, runs the
workload in a worker process (``worker.py``), prints the environment and
every metric with its unit, writes the full record to
``.perfbench_out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` list.
``--smoke`` shrinks every workload for ``smoke.py``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
#: one client in one process: every BLAS/OpenMP pool gets a single thread
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: set-up probes per untraced run; with the worker's own set-up this gives
#: the median of SETUP_PROBES + 1 samples
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60.0
#: the whole run must end within this time
RUN_DEADLINE_S = 175.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; nothing is printed on stdout."""


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest() -> str:
    """SHA-256 over src/entconv/*.py, identifying the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entconv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _spawn(args: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py and return the JSON object on its last stdout line."""
    env = dict(env, PERFBENCH_SPAWN_T=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    t_begin = time.monotonic()
    if not (ROOT / "src" / "entconv" / "__init__.py").is_file():
        raise BenchError(f"no entconv sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    specs = spec["per_layer" if args.trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, **THREAD_ENV, PYTHONDONTWRITEBYTECODE="1")
    wargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", str(OUT_DIR)] + (["--smoke"] if args.smoke else [])

    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probes.append(_spawn(wargs + ["--probe"], env, PROBE_TIMEOUT_S))
    remaining = RUN_DEADLINE_S - (time.monotonic() - t_begin)
    res = _spawn(wargs, env, remaining)
    probes.append(res)
    setups = [p["setup_s"] for p in probes]
    # set-up at the reference host speed, as the passes are (hostspeed.py)
    scaled_setups = [p["setup_s"] * p["setup_scale"] for p in probes]

    e2e = res["end_to_end"]
    available = dict(res.get("per_layer", {}))
    available.update(setup_s=statistics.median(scaled_setups),
                     peak_rss_mb=res["peak_rss_mb"],
                     wall_s=e2e["wall_s"], job_p90_s=e2e["job_p90_s"])
    missing = [s["name"] for s in specs if s["name"] not in available]
    if missing:
        raise BenchError(f"workload did not produce {missing}")
    metrics = {s["name"]: {"value": available[s["name"]], "unit": s["unit"]} for s in specs}

    environment = {
        "python": platform.python_version(), **res["versions"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": platform.machine(),
    }
    samples = {"setup_s": setups, "scaled_setup_s": scaled_setups,
               "pass_walls_s": res["pass_walls_s"],
               "job_latencies_s": res["job_latencies_s"],
               "scaled_job_latencies_s": res["scaled_job_latencies_s"],
               "kernel_samples_s": res["kernel_samples_s"],
               "passes": e2e["passes"], "jobs": e2e["jobs"], "measured_s": res["measured_s"]}
    record = {"environment": environment, "samples": samples, "metrics": metrics,
              "attempted": res["attempted"], "failed": res["failed"]}
    for key in ("fit_iterations", "spans_file"):
        if key in res:
            record[key] = res[key]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, value in environment.items():
        print(f"# {key}: {value}")
    print(f"# jobs: {e2e['jobs']} in {e2e['passes']} passes; setup samples: {len(setups)}")
    if e2e["jobs"] < 100:
        print("# job_p90_s has fewer than 10 samples beyond it")
    # shown but not gated; README.md, "End-to-end metrics", says why
    print(f"fail_frac = {res['failed'] / res['attempted']!r} ({res['failed']}/{res['attempted']})")
    print(f"job_p50_s = {e2e['job_p50_s']!r} s")
    # the same figures before scaling to the reference host speed
    print(f"raw setup_s = {statistics.median(setups)!r} s")
    for key in ("wall_s", "job_p50_s", "job_p90_s"):
        print(f"raw {key} = {e2e['raw_' + key]!r} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
