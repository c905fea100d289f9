"""End-to-end orchestration: simulate, reconstruct, analyze, summarize.

Every ML reconstruction runs through ``fit_stages``, which fits a stage's
point table and resamples in one batch (a report's four state stages share it).

All artifacts are flat text (CSV count tables, key=value reports with
matrix blocks) and are byte-reproducible for a fixed configuration and seed.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .chsh import ChshResult, chsh_s, chsh_sigma_resampled
from .config import ExperimentConfig
from .conversion import convert, convert_qubit, efficiency_budget, focusing_factor, source_state
from .counts import (CountRecord, expected_counts, expected_process_counts,
                     poisson_resamples, read_counts_csv, simulate_counts,
                     simulate_process_counts, stage_seed, write_counts_csv)
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


def _mc_seed(config: ExperimentConfig, index: int) -> int:
    ss = np.random.SeedSequence(entropy=stage_seed(config.seed, "monte_carlo"),
                                spawn_key=(index,))
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
    chsh_settings = [(repr(a), repr(b)) for a, b in config.chsh.measurement_angles()]
    pair_stages = {
        "state_input": (rho_src, tomography_settings(), det["input"], acq.input_duration),
        "state_output": (rho_conv, tomography_settings(), det["output"],
                         acq.output_duration),
        "chsh": (werner_state(config.chsh_source_p), chsh_settings, det["chsh"],
                 acq.chsh_duration),
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
    m = result.metrics
    items = {
        "kind": result.kind, "label": label, "converged": result.converged,
        "iterations": result.iterations, "log_likelihood": result.log_likelihood,
        "fidelity": m.fidelity, "fidelity_err": m.fidelity_err,
        "purity": m.purity, "purity_err": m.purity_err,
    }
    if m.tangle is not None:
        items["tangle"] = m.tangle
        items["tangle_err"] = m.tangle_err
    return emit_report(items, result.estimate)


def run_reconstruct_state(config: ExperimentConfig, outdir: str | Path,
                          counts_path: str | Path, label: str,
                          subtract: bool = True) -> TomographyResult:
    """Reconstruct a two-qubit state from a count CSV and write its report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = read_counts_csv(counts_path)
    result, _ = fit_stages("state", {label: (records, subtract, _mc_seed(config, 0))},
                           config.tomography, config.mc_samples)[label]
    (outdir / f"state_{label}.txt").write_text(_state_report(result, label))
    return result


def run_reconstruct_process(config: ExperimentConfig, outdir: str | Path,
                            counts_path: str | Path) -> TomographyResult:
    """Reconstruct the conversion process from a count CSV and write its report."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = read_counts_csv(counts_path)
    result, _ = fit_stages("process", {"process": (records, False, _mc_seed(config, 1))},
                           config.tomography, config.mc_samples)["process"]
    (outdir / "process_chi.txt").write_text(_state_report(result, "process"))
    return result


def run_chsh(config: ExperimentConfig, outdir: str | Path,
             counts_path: str | Path) -> ChshResult:
    """Evaluate the CHSH parameter from a 16-record count CSV."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    records = read_counts_csv(counts_path)
    result = chsh_s(config.chsh, records)
    sigma_mc = chsh_sigma_resampled(config.chsh, records, n_samples=200,
                                    seed=_mc_seed(config, 2))
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


_SUMMARY_KEYS = (
    "chsh_s", "chsh_s_sigma",
    "fidelity_input_raw", "fidelity_input_corrected",
    "fidelity_output_raw", "tangle_output_raw",
    "fidelity_output_corrected", "purity_output_corrected", "tangle_output_corrected",
    "process_fidelity", "process_purity",
    "observed_photon_conversion", "intrinsic_pair_conversion",
    "theory_single_crystal_efficiency",
)


def run_report(config: ExperimentConfig, outdir: str | Path) -> dict[str, float]:
    """Full pipeline: simulate, reconstruct everything, compare to references.

    The summary lists each simulated quantity next to the published value it
    models; the references are labels, not fit targets. Every file is written
    even if a fit did not converge; a RuntimeError then names those stages.
    """
    outdir = Path(outdir)
    paths = run_simulate(config, outdir)
    ins, outs = (read_counts_csv(paths[table]) for table in ("state_input", "state_output"))
    stages = {"input_raw": (ins, False, 3, "state_input_raw.txt"),
              "input_corrected": (ins, True, 4, "state_input.txt"),
              "output_raw": (outs, False, 5, "state_output_raw.txt"),
              "output_corrected": (outs, True, 6, "state_output.txt")}
    fits = fit_stages("state", {label: (records, subtract, _mc_seed(config, index))
                                for label, (records, subtract, index, _) in stages.items()},
                      config.tomography, config.mc_samples)
    for label, (*_, name) in stages.items():
        (outdir / name).write_text(_state_report(fits[label][0], label))
    in_raw, in_cor, out_raw, out_cor = (result for result, _ in fits.values())

    proc = run_reconstruct_process(config, outdir, paths["process"])
    bell = run_chsh(config, outdir, paths["chsh"])
    budget = run_efficiency(config, outdir)

    values = {
        "chsh_s": bell.s_value,
        "chsh_s_sigma": bell.s_sigma,
        "fidelity_input_raw": in_raw.metrics.fidelity,
        "fidelity_input_corrected": in_cor.metrics.fidelity,
        "fidelity_output_raw": out_raw.metrics.fidelity,
        "tangle_output_raw": out_raw.metrics.tangle,
        "fidelity_output_corrected": out_cor.metrics.fidelity,
        "purity_output_corrected": out_cor.metrics.purity,
        "tangle_output_corrected": out_cor.metrics.tangle,
        "process_fidelity": proc.metrics.fidelity,
        "process_purity": proc.metrics.purity,
        "observed_photon_conversion": budget["photon_conversion_observed"],
        "intrinsic_pair_conversion": budget["pair_conversion_intrinsic"],
        "theory_single_crystal_efficiency": budget["theory_single_crystal"],
    }
    results = {label: result for label, (result, _) in fits.items()} | {"process": proc}
    unconverged = [label for label, result in results.items() if not result.converged]
    items: dict[str, object] = {"all_reconstructions_converged": not unconverged}
    for key in _SUMMARY_KEYS:
        items[key] = values[key]
        items[key + "_ref"] = float(REFERENCE_VALUES[key])
    (outdir / "summary.txt").write_text(emit_keyvalues(items))
    if unconverged:
        raise RuntimeError(f"reconstructions did not converge: {', '.join(unconverged)}")
    return values
