"""Output parity: what a fixed set of runs writes, hashed, and compared between commits.

    python3 tools/parity.py manifest OUT.json [--quick]   # path -> SHA-256 of this tree's outputs
    python3 tools/parity.py compare COMMIT [--quick]      # this tree against COMMIT

The runs, on the default configuration with BLAS at one thread:

- ``report``: every file ``run_report`` writes, on seeds 103 and 7;
- ``commands``: the files of ``simulate``, ``reconstruct-state`` (the
  default and ``--raw --label input_raw`` on the input table),
  ``reconstruct-process``, ``chsh`` and ``efficiency`` on seed 7, and their
  exit codes;
- ``design_scan``: for one pass of the benchmark workload of that name,
  each job's state and process estimate, log-likelihood, iteration count
  and converged flag, and its focusing factor;
- ``bell_scan``: for one pass of that workload, each job's S, its
  delta-method sigma and its resampled sigma.

``--quick`` runs seed 7 only, at 2 Monte-Carlo samples, and the workloads'
smoke passes. ``compare`` extracts ``git archive COMMIT`` into a temporary
directory, writes both trees' outputs, each in a fresh interpreter that
imports that tree's ``entconv`` and ``perfbench``, and prints every line of
a file whose hash differs: its file, its key (the name before `` = ``, else
its line number), and the largest absolute and relative change of its
numbers, or ``text`` when a word differs, then one line naming the largest
relative change among the numeric entries, with its file and key. It exits 1
when an entry moved, and 2 when git cannot archive COMMIT.
Only the standard library and numpy are used here.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS thread pins of every run, so a tree's outputs do not depend on the host
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS")}
BENCH_SEED = 103


def _write_fit(path: Path, fits: dict) -> None:
    lines = []
    for name, fit in fits.items():
        lines += [f"{name}_log_likelihood = {float(fit.log_likelihood)!r}",
                  f"{name}_iterations = {fit.iterations}",
                  f"{name}_converged = {fit.converged}"]
        lines += [f"{name}_estimate_{i} = " + " ".join(f"{z.real!r} {z.imag!r}" for z in row)
                  for i, row in enumerate(fit.estimate.tolist())]
    path.write_text("".join(line + "\n" for line in lines))


def write_outputs(outdir: Path, quick: bool) -> None:
    """Run every job of the manifest into ``outdir``, with the ``entconv`` and
    ``perfbench`` found on ``sys.path``."""
    from dataclasses import replace

    from entconv import pipeline
    from entconv.cli import main
    from entconv.config import default_config
    from perfbench import workloads

    config = default_config()
    if quick:
        config = replace(config, mc_samples=2)
    for seed in (7,) if quick else (BENCH_SEED, 7):
        try:
            pipeline.run_report(replace(config, seed=seed), outdir / f"report_seed{seed}")
        except RuntimeError as exc:  # the files are written; the summary says which
            print(f"report seed {seed}: {exc}", file=sys.stderr)

    out = outdir / "commands_seed7"
    args = ["--seed", "7", "--mc-samples", str(config.mc_samples), "--out", str(out)]
    commands = {"simulate": ["simulate"], "reconstruct-state": ["reconstruct-state"],
                "reconstruct-state-input-raw": [
                    "reconstruct-state", "--raw", "--label", "input_raw",
                    "--counts", str(out / pipeline.COUNT_FILES["state_input"])],
                "reconstruct-process": ["reconstruct-process"], "chsh": ["chsh"],
                "efficiency": ["efficiency"]}
    codes = {name: main(args + command) for name, command in commands.items()}
    (out / "exit_codes.txt").write_text("".join(f"{k} = {v}\n" for k, v in codes.items()))

    scan = workloads.DesignScan(BENCH_SEED, smoke=quick)
    (outdir / "design_scan").mkdir()
    for i, inp in enumerate(scan.pass_inputs(0)):
        with tempfile.TemporaryDirectory() as work:
            _, state, process, h, _ = scan.run_job(inp, Path(work))
        path = outdir / "design_scan" / f"job{i:03d}.txt"
        _write_fit(path, {"state": state, "process": process})
        with path.open("a") as fh:
            fh.write(f"focusing_factor = {h!r}\n")

    bell = workloads.BellScan(BENCH_SEED, smoke=quick)
    lines = []
    for i, inp in enumerate(bell.pass_inputs(0)):
        result, sigma = bell.run_job(inp, outdir)
        lines += [f"job{i:03d}_s_value = {result.s_value!r}",
                  f"job{i:03d}_s_sigma = {result.s_sigma!r}",
                  f"job{i:03d}_s_sigma_resampled = {sigma!r}"]
    (outdir / "bell_scan.txt").write_text("".join(line + "\n" for line in lines))


def manifest(outdir: Path) -> dict[str, str]:
    """Sorted path -> SHA-256 of every file under ``outdir``."""
    return {path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*")) if path.is_file()}


def run_tree(tree: Path, outdir: Path, quick: bool) -> dict[str, str]:
    """Write ``tree``'s outputs into ``outdir`` in a fresh interpreter; their manifest."""
    outdir.mkdir(parents=True)
    env = {**os.environ, **SINGLE_THREAD,
           "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree)])}
    cmd = [sys.executable, str(Path(__file__).resolve()), "write", str(outdir), str(tree)]
    subprocess.run(cmd + ["--quick"] * quick, env=env, cwd=outdir, check=True,
                   stdout=subprocess.DEVNULL)
    return manifest(outdir)


def _numbers(value: str):
    """The whitespace- or comma-separated words of ``value``, numbers as floats."""
    words = value.replace(",", " ").split()
    out = []
    for word in words:
        try:
            out.append(float(word))
        except ValueError:
            out.append(word)
    return out


def moved_lines(old: str, new: str) -> list[tuple[str, str, float | None]]:
    """(key, change, rel) of every line of ``new`` that differs from ``old``'s
    line in the same place; the change is the largest absolute and relative
    change ``rel`` of the line's numbers, or ``text`` (``rel`` None) when a
    word or the number of words differs. Texts with different line counts
    are one entry."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [("(file)", f"text: {len(old_lines)} -> {len(new_lines)} lines", None)]
    out = []
    for n, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a == b:
            continue
        key = a.split(" = ", 1)[0] if " = " in a else f"line {n}"
        words_a, words_b = (_numbers(x.split(" = ", 1)[-1]) for x in (a, b))
        changed = [(x, y) for x, y in zip(words_a, words_b) if x != y]
        same_key = (b.split(" = ", 1)[0] if " = " in b else f"line {n}") == key
        if same_key and len(words_a) == len(words_b) and changed and \
                all(isinstance(v, float) and math.isfinite(v) for pair in changed for v in pair):
            rel = max(abs(y - x) / max(abs(x), abs(y)) for x, y in changed)
            out.append((key, f"abs {max(abs(y - x) for x, y in changed):.3g} rel {rel:.3g}", rel))
        else:
            out.append((key, f"text: {a!r} -> {b!r}", None))
    return out


def compare(old_tree: Path, new_tree: Path,
            quick: bool) -> tuple[list[tuple[str, str, str, float | None]], dict[str, str]]:
    """(file, key, change, rel) of every entry of ``new_tree``'s outputs that
    moved from ``old_tree``'s, as in ``moved_lines``, and ``new_tree``'s manifest."""
    with tempfile.TemporaryDirectory() as work:
        old_dir, new_dir = Path(work) / "old", Path(work) / "new"
        old, new = run_tree(old_tree, old_dir, quick), run_tree(new_tree, new_dir, quick)
        out = [(path, "(file)", f"only in {'new' if path in new else 'old'}", None)
               for path in sorted(old.keys() ^ new.keys())]
        for path in sorted(old.keys() & new.keys()):
            if old[path] != new[path]:
                out += [(path, *entry) for entry in moved_lines(
                    (old_dir / path).read_text(), (new_dir / path).read_text())]
    return out, new


def listing(moved: list[tuple[str, str, str, float | None]]) -> list[str]:
    """The lines ``compare`` prints: one per moved entry, then the largest
    relative change among the numeric entries, with its file and key."""
    lines = [f"{path}  {key}  {change}" for path, key, change, _ in moved]
    numeric = [(rel, path, key) for path, key, _, rel in moved if rel is not None]
    if numeric:
        rel, path, key = max(numeric)
        lines.append(f"largest relative change: {rel:.3g} in {path}  {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("manifest", help="write path -> SHA-256 of this tree's outputs")
    p.add_argument("out", type=Path)
    p.add_argument("--quick", action="store_true")
    p = sub.add_parser("compare", help="list the outputs that moved from COMMIT to this tree")
    p.add_argument("commit")
    p.add_argument("--quick", action="store_true")
    p = sub.add_parser("write", help=argparse.SUPPRESS)  # one tree's run, in its interpreter
    p.add_argument("outdir", type=Path)
    p.add_argument("tree", type=Path)
    p.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    if args.mode == "write":
        import entconv
        from perfbench import workloads
        for module in (entconv, workloads):
            if not Path(module.__file__).resolve().is_relative_to(args.tree.resolve()):
                sys.exit(f"{module.__name__} imported from {module.__file__}, not {args.tree}")
        write_outputs(args.outdir, args.quick)
        return 0
    if args.mode == "manifest":
        with tempfile.TemporaryDirectory() as work:
            entries = run_tree(ROOT, Path(work) / "out", args.quick)
        args.out.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"{len(entries)} entries written to {args.out}")
        return 0
    with tempfile.TemporaryDirectory() as work:
        old_tree = Path(work) / "old"
        old_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.commit],
                                 capture_output=True)
        if archive.returncode:
            print(f"error: git archive cannot read commit {args.commit!r}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(old_tree)], input=archive.stdout, check=True)
        moved, entries = compare(old_tree, ROOT, args.quick)
    print("\n".join(listing(moved)) if moved else "no moved entry")
    print(f"{len(moved)} moved entries in {len(entries)} files, against {args.commit}",
          file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
