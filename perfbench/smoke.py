"""Smoke test for the benchmark: every workload at reduced size, every metric name.

    python3 perfbench/smoke.py

Checks that layers.json maps every per-layer metric, that each workload
runs with ``--smoke`` in both modes, passes its correctness checks (on the default seed, so report_mc100 also
compares its point estimates with golden_report.json) and emits exactly the
metric names and units of BENCHMARK.json, and that the benchmark refuses to
run in a directory without the entconv sources. Exits 0 when all pass.
It is a plain script, not a pytest module, so the repository's test run
does not pick it up.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 103


def check_layer_map(spec: dict, layer_map: dict) -> list[str]:
    """Every per-layer metric belongs to a layer that layers.json maps."""
    return [f"{m['name']} has no entry in layers.json" for m in spec["per_layer"]
            if m["name"].rsplit(".", 1)[0] not in layer_map]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                      f"/{result['attempted']}\n{proc.stderr}")
    specs = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for k, v in result["metrics"].items():
        if isinstance(v["value"], bool) or not isinstance(v["value"], (int, float)):
            errors.append(f"{where}: {k} value {v['value']!r} is not a number")
    if not trace:
        errors += [f"{where}: {k} is 0" for k, v in result["metrics"].items() if v["value"] == 0]
    return errors


def check_refuses_bare_copy(spec: dict) -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark must fail cleanly."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())["layers"]
    errors = check_layer_map(spec, layer_map)
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_run(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: {'FAIL' if errs else 'ok'}")
            errors += errs
    errs = check_refuses_bare_copy(spec)
    print(f"refuses a copy without sources: {'FAIL' if errs else 'ok'}")
    errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
