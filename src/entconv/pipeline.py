"""End-to-end orchestration: simulate, reconstruct, analyze, summarize.

Every ML reconstruction runs through ``fit_stages``, which fits a stage's
point table and resamples in one batch (a report's four state stages share it).

All artifacts are flat text (CSV count tables, key=value reports with
matrix blocks) and are byte-reproducible for a fixed configuration and seed.
"""
from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .chsh import ChshResult, chsh_s, chsh_sigma_resampled
from .config import ExperimentConfig
from .conversion import convert, convert_qubit, efficiency_budget, focusing_factor, source_state
from .counts import (CountRecord, expected_counts, expected_process_counts,
                     poisson_resamples, read_counts_csv, simulate_counts,
                     simulate_process_counts, write_counts_csv)
from .reference import REFERENCE_VALUES
from .reports import emit_keyvalues, emit_report
from .states import werner_state
from .tomography import (METRICS, MonteCarloErrors, TomographyOptions, TomographyResult,
                         mle_tables, monte_carlo_errors, point_result, tomography_settings)

COUNT_FILES = {
    "state_input": "counts_state_input.csv",
    "state_output": "counts_state_output.csv",
    "process": "counts_process.csv",
    "chsh": "counts_chsh.csv",
}


def stage_seed(seed: int, stage: str) -> int:
    """Derive a per-stage root seed from the run seed and a stage name."""
    stages = ("state_input", "state_output", "process", "chsh", "monte_carlo")
    if stage not in stages:
        raise ValueError(f"unknown stage {stage!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1000 + stages.index(stage),))
    return int(ss.generate_state(1, np.uint64)[0])


def resample_seed(seed: int, report: str) -> int:
    """Seed of the resamples behind the report file named ``report``, the same in
    every command that writes it; a file the report does not write takes key 0."""
    reports = ("process_chi.txt", "chsh.txt", "state_input_raw.txt", "state_input.txt",
               "state_output_raw.txt", "state_output.txt")
    key = reports.index(report) + 1 if report in reports else 0
    ss = np.random.SeedSequence(entropy=stage_seed(seed, "monte_carlo"), spawn_key=(key,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_simulate(config: ExperimentConfig, outdir: str | Path) -> dict[str, Path]:
    """Generate the four count tables for one simulated run.

    With ``config.noiseless`` every count is set to its expectation instead
    of being Poisson-sampled, which closes reconstruction loops exactly.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rho_src = source_state(config.source)
    rho_conv, _ = convert(rho_src, config.conversion)
    acq, det = config.acquisition, config.detection
    pair_stages = {
        "state_input": (rho_src, tomography_settings(), det["input"], acq.input_duration),
        "state_output": (rho_conv, tomography_settings(), det["output"],
                         acq.output_duration),
        "chsh": (werner_state(config.chsh_source_p), config.chsh.measurement_angles(),
                 det["chsh"], acq.chsh_duration),
    }
    tables = {}
    for stage, (rho, settings, stage_det, duration) in pair_stages.items():
        if config.noiseless:
            tables[stage] = expected_counts(rho, settings, config.source, stage_det, duration)
        else:
            tables[stage] = simulate_counts(rho, settings, config.source, stage_det, duration,
                                            stage_seed(config.seed, stage))

    channel = config.process.channel
    process = (lambda r: convert_qubit(r, channel), tomography_settings(),
               config.process.rate, acq.process_duration)
    if config.noiseless:
        tables["process"] = expected_process_counts(
            *process, accidental_rate=config.process.accidental_rate)
    else:
        tables["process"] = simulate_process_counts(
            *process, stage_seed(config.seed, "process"),
            accidental_rate=config.process.accidental_rate)

    paths = {}
    for stage in COUNT_FILES:
        paths[stage] = outdir / COUNT_FILES[stage]
        write_counts_csv(paths[stage], tables[stage])
    return paths


def fit_stages(kind: str, stages: dict[str, tuple[list[CountRecord], bool, int]],
               options: TomographyOptions,
               mc_samples: int) -> dict[str, tuple[TomographyResult, MonteCarloErrors]]:
    """ML reconstructions with Monte-Carlo std-errors of the stages of one fit
    kind ("state" or "process"), all fitted in one ``mle_tables`` batch.

    ``stages`` maps a label to (records, subtract, seed). A stage's row 0,
    its observed table, gives the ``point_result``; rows 1..``mc_samples``,
    Poisson resamples from ``seed``, give the ``monte_carlo_errors``; the two
    are separate tables, so each starts where a fit of it alone would. With
    ``subtract`` every row loses the accidental estimates, clamped at zero."""
    tables = []
    for records, subtract, seed in stages.values():
        observed = np.array([r.coincidences for r in records])
        accidentals = np.array([r.accidental_estimate for r in records]) if subtract else 0.0
        tables += [(records, [observed - accidentals]),
                   (records, poisson_resamples(observed, mc_samples, seed) - accidentals)]
    fits = mle_tables(kind, tables, options)
    out = {}
    for label, point, resampled in zip(stages, fits[::2], fits[1::2]):
        result = point_result(point, kind)
        mc = monte_carlo_errors(resampled, METRICS[kind], label)
        result.metrics = replace(result.metrics, **{f"{name}_err": err
                                                    for name, err in mc.std_errors.items()})
        out[label] = result, mc
    return out


def _state_report(result: TomographyResult, label: str) -> str:
    items = {"kind": result.kind, "label": label, "converged": result.converged,
             "iterations": result.iterations, "log_likelihood": result.log_likelihood}
    for name in METRICS[result.kind]:
        items |= {key: getattr(result.metrics, key) for key in (name, f"{name}_err")}
    return emit_report(items, result.estimate)


def _fit_and_write(kind: str, config: ExperimentConfig, outdir: str | Path,
                   stages: dict[str, tuple[list[CountRecord], bool]]
                   ) -> dict[str, TomographyResult]:
    """Fit a kind's stages (label -> records, subtract) in one batch and write
    each one's report, its resamples seeded by the report's file name."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = {label: "process_chi.txt" if kind == "process" else f"state_{label}.txt"
             for label in stages}
    fits = fit_stages(kind, {label: (records, subtract, resample_seed(config.seed, names[label]))
                             for label, (records, subtract) in stages.items()},
                      config.tomography, config.mc_samples)
    for label, (result, _) in fits.items():
        (outdir / names[label]).write_text(_state_report(result, label))
    return {label: result for label, (result, _) in fits.items()}


def run_reconstruct_state(config: ExperimentConfig, outdir: str | Path,
                          counts_path: str | Path, label: str,
                          subtract: bool = True) -> TomographyResult:
    """Reconstruct a two-qubit state from a count CSV and write its report
    ``state_<label>.txt``; an empty label, or one with a path separator, is
    a ``ValueError``."""
    if not label or {"/", os.sep} & set(label):
        raise ValueError(f"label {label!r} must be nonempty and contain no path separator")
    records = read_counts_csv(counts_path)
    return _fit_and_write("state", config, outdir, {label: (records, subtract)})[label]


def run_reconstruct_process(config: ExperimentConfig, outdir: str | Path,
                            counts_path: str | Path) -> TomographyResult:
    """Reconstruct the conversion process from a count CSV and write its report."""
    records = read_counts_csv(counts_path)
    return _fit_and_write("process", config, outdir, {"process": (records, False)})["process"]


def run_chsh(config: ExperimentConfig, outdir: str | Path,
             counts_path: str | Path) -> ChshResult:
    """Evaluate the CHSH parameter from a 16-record count CSV."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = read_counts_csv(counts_path)
    result = chsh_s(config.chsh, records)
    sigma_mc = chsh_sigma_resampled(config.chsh, records, n_samples=200,
                                    seed=resample_seed(config.seed, "chsh.txt"))
    items = {
        "s_value": result.s_value, "s_sigma": result.s_sigma,
        "s_sigma_resampled": sigma_mc,
        "correlation_ab": result.correlations[0],
        "correlation_ab_prime": result.correlations[1],
        "correlation_a_prime_b": result.correlations[2],
        "correlation_a_prime_b_prime": result.correlations[3],
    }
    (outdir / "chsh.txt").write_text(emit_keyvalues(items))
    return result


def run_efficiency(config: ExperimentConfig, outdir: str | Path) -> dict[str, float]:
    """Evaluate the conversion-efficiency budget and write its report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    budget = efficiency_budget(config.efficiency)
    xi = 0.8
    budget["focusing_factor_xi"] = xi
    budget["focusing_factor"] = focusing_factor(xi)
    (outdir / "efficiency.txt").write_text(emit_keyvalues(budget))
    return budget


def run_report(config: ExperimentConfig, outdir: str | Path) -> dict[str, float]:
    """Full pipeline: simulate, reconstruct everything, compare to references.

    The summary lists each simulated quantity next to the published value it
    models; the references are labels, not fit targets. Every file is written
    even if a fit did not converge; a RuntimeError then names those stages.
    """
    outdir = Path(outdir)
    paths = run_simulate(config, outdir)
    ins, outs = (read_counts_csv(paths[table]) for table in ("state_input", "state_output"))
    fits = _fit_and_write("state", config, outdir, {
        "input_raw": (ins, False), "input": (ins, True),
        "output_raw": (outs, False), "output": (outs, True)})

    proc = run_reconstruct_process(config, outdir, paths["process"])
    bell = run_chsh(config, outdir, paths["chsh"])
    budget = run_efficiency(config, outdir)

    values = {
        "chsh_s": bell.s_value,
        "chsh_s_sigma": bell.s_sigma,
        "fidelity_input_raw": fits["input_raw"].metrics.fidelity,
        "fidelity_input_corrected": fits["input"].metrics.fidelity,
        "fidelity_output_raw": fits["output_raw"].metrics.fidelity,
        "tangle_output_raw": fits["output_raw"].metrics.tangle,
        "fidelity_output_corrected": fits["output"].metrics.fidelity,
        "purity_output_corrected": fits["output"].metrics.purity,
        "tangle_output_corrected": fits["output"].metrics.tangle,
        "process_fidelity": proc.metrics.fidelity,
        "process_purity": proc.metrics.purity,
        "observed_photon_conversion": budget["photon_conversion_observed"],
        "intrinsic_pair_conversion": budget["pair_conversion_intrinsic"],
        "theory_single_crystal_efficiency": budget["theory_single_crystal"],
    }
    results = fits | {"process": proc}
    unconverged = [label for label, result in results.items() if not result.converged]
    items: dict[str, object] = {"all_reconstructions_converged": not unconverged}
    for key, value in values.items():
        items[key] = value
        items[key + "_ref"] = float(REFERENCE_VALUES[key])
    (outdir / "summary.txt").write_text(emit_keyvalues(items))
    if unconverged:
        raise RuntimeError(f"reconstructions did not converge: {', '.join(unconverged)}")
    return values
