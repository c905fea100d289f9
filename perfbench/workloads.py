"""The benchmark workloads: inputs from a seed, one job, its check.

Every workload is a fixed list of jobs (a *pass*). The runner repeats passes
until the measuring time is used up; pass ``k`` draws its Poisson seeds from
(workload seed, k), so no two passes reuse a count table and nothing in the
program can serve a repeat from memory. Checks run after a pass, outside the
timed region.
"""
from __future__ import annotations

import json
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from entconv import chsh, config, conversion, counts, pipeline, states, tomography
from entconv.reference import REFERENCE_VALUES
from entconv.reports import parse_keyvalues, parse_report

GOLDEN_PATH = Path(__file__).with_name("golden_report.json")


class CheckError(AssertionError):
    """A job's output failed its correctness check."""


def derive_seed(seed: int, *key: int) -> int:
    """Independent 64-bit seed for (workload seed, key...)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class ReportMC100:
    """``pipeline.run_report`` on the default config, one report per job.

    Pass 0 runs with ``config.seed`` equal to the workload seed, so on the
    default seed its point estimates are compared with the values recorded
    when the benchmark was defined (``golden_report.json``).
    """

    name = "report_mc100"

    #: summary key -> (report file, metric) whose Monte-Carlo error scales
    #: the allowed deviation from the reference
    SIGMA_SCALED = {
        "fidelity_output_raw": ("state_output_raw.txt", "fidelity"),
        "fidelity_output_corrected": ("state_output.txt", "fidelity"),
        "purity_output_corrected": ("state_output.txt", "purity"),
        "tangle_output_corrected": ("state_output.txt", "tangle"),
        "process_fidelity": ("process_chi.txt", "fidelity"),
        "process_purity": ("process_chi.txt", "purity"),
    }
    #: summary key -> absolute tolerance, as in the acceptance suite
    ABSOLUTE = {
        "observed_photon_conversion": 5e-4,
        "intrinsic_pair_conversion": 5e-5,
        "theory_single_crystal_efficiency": 1e-4,
    }
    #: deviation allowed from a reference, in Monte-Carlo (or delta-method)
    #: sigmas. The acceptance suite's 2-3 sigma gates hold for its one fixed
    #: seed; over arbitrary seeds they would fail a few percent of reports by
    #: chance alone.
    N_SIGMA = 5.0

    def __init__(self, seed: int, smoke: bool):
        self.base = config.default_config()
        self.base.mc_samples = 4 if smoke else 100
        self.seed = seed
        self.golden = json.loads(GOLDEN_PATH.read_text())

    def pass_inputs(self, k: int) -> list:
        s = self.seed if k == 0 else derive_seed(self.seed, k)
        return [replace(self.base, seed=s)]

    def run_job(self, cfg, workdir: Path):
        values = pipeline.run_report(cfg, workdir)
        return workdir, values

    def check(self, cfg, output) -> None:
        outdir, values = output
        summary = parse_keyvalues((outdir / "summary.txt").read_text())
        _require(summary["all_reconstructions_converged"] == "True",
                 "not all reconstructions converged")
        for key, tol in self.ABSOLUTE.items():
            dev = abs(values[key] - REFERENCE_VALUES[key])
            _require(dev < tol, f"{key} = {values[key]!r} is {dev:.3g} from reference")
        for key, (fname, field) in self.SIGMA_SCALED.items():
            sigma = float(parse_report((outdir / fname).read_text())[0][field + "_err"])
            dev = abs(values[key] - REFERENCE_VALUES[key])
            _require(sigma > 0.0 and dev <= self.N_SIGMA * sigma,
                     f"{key} = {values[key]!r} is {dev:.3g} from reference, "
                     f"sigma {sigma:.3g}")
        dev = abs(values["chsh_s"] - REFERENCE_VALUES["chsh_s"])
        _require(dev <= self.N_SIGMA * values["chsh_s_sigma"],
                 f"chsh_s = {values['chsh_s']!r} is {dev:.3g} from reference")
        if cfg.seed == self.golden["seed"]:
            for key, ref in self.golden["values"].items():
                tol = self.golden["abs_tol"][key]
                _require(abs(values[key] - ref) <= tol,
                         f"{key} = {values[key]!r} differs from the recorded {ref!r}")


class DesignScan:
    """Point fits over a fixed grid of conversion channels and focusing parameters.

    Each job simulates the four count tables, reads two back, fits the
    output state and the process once each (no Monte-Carlo), and evaluates
    the focusing factor and the efficiency budget.
    """

    name = "design_scan"

    DEPHASE = (1.0, 0.97, 0.90)
    THETA = (0.0, 0.3)            # radians
    ETA_V_RATIO = (1.0, 0.6)      # eta_v / eta_h
    ACCIDENTAL = (0.0, 500.0)     # process-stage accidental rate, cps
    XI = (0.25, 0.8, 1.5, 2.84, 5.0)
    #: allowed |F_ML - F_LI| against |phi+> on the same output table
    FIDELITY_AGREEMENT = 0.02

    def __init__(self, seed: int, smoke: bool):
        base = config.default_config()
        eta = base.conversion.eta_h
        self.points = []
        grid = list(product(self.DEPHASE, self.THETA, self.ETA_V_RATIO, self.ACCIDENTAL))
        for i, (dephase, theta, ratio, acc) in enumerate(grid[:3] if smoke else grid):
            cfg = replace(
                base,
                conversion=conversion.ConversionParams(eta_h=eta, eta_v=eta * ratio,
                                                       theta=theta, dephase=dephase),
                process=config.ProcessStage(
                    rate=base.process.rate, accidental_rate=acc,
                    channel=conversion.ConversionParams(eta_v=ratio, theta=theta,
                                                        dephase=dephase)))
            self.points.append((cfg, self.XI[i % len(self.XI)]))
        self.seed = seed
        self.target = states.bell_state("phi+")

    def pass_inputs(self, k: int) -> list:
        return [(replace(cfg, seed=derive_seed(self.seed, k, i)), xi)
                for i, (cfg, xi) in enumerate(self.points)]

    def run_job(self, inp, workdir: Path):
        cfg, xi = inp
        paths = pipeline.run_simulate(cfg, workdir)
        out_records = counts.read_counts_csv(paths["state_output"])
        proc_records = counts.read_counts_csv(paths["process"])
        state = tomography.mle_state(out_records, cfg.tomography)
        process = tomography.mle_process(proc_records, cfg.tomography)
        h = conversion.focusing_factor(xi)
        budget = conversion.efficiency_budget(cfg.efficiency)
        return out_records, state, process, h, budget

    def check(self, inp, output) -> None:
        out_records, state, process, h, budget = output
        try:
            states.check_density_matrix(state.estimate)
            tomography.check_chi_matrix(process.estimate, require_tp=True)
        except ValueError as exc:
            raise CheckError(f"unphysical estimate: {exc}") from exc
        f_ml = states.fidelity(state.estimate, self.target)
        f_li = states.fidelity(tomography.linear_inversion_state(out_records), self.target)
        _require(abs(f_ml - f_li) <= self.FIDELITY_AGREEMENT,
                 f"ML fidelity {f_ml:.5f} and linear-inversion fidelity {f_li:.5f} disagree")
        _require(0.0 < h < 1.07, f"focusing factor {h!r} outside (0, 1.07)")
        _require(all(np.isfinite(v) and v > 0.0 for v in budget.values()),
                 "efficiency budget has a non-positive entry")


class BellScan:
    """CHSH over a fixed sweep of analyzer angles, one count table per job.

    Each job simulates the 16 coincidence settings from the Werner source,
    evaluates S and its delta-method sigma, and the Poisson-resampled sigma
    with 200 resamples.
    """

    name = "bell_scan"

    ALPHA = (0.0, 15.0, 30.0, 60.0)       # degrees
    BETA_OFFSET = (22.5, 15.0, 30.0, 45.0)  # beta - alpha, degrees; 22.5 is optimal
    N_RESAMPLES = 200
    #: allowed |S_counts - S_state| in delta-method sigmas, and allowed
    #: relative gap between the resampled and the delta-method sigma in
    #: standard errors of a sample sigma, 1 / sqrt(2 (n - 1)): 25% at n = 200
    N_SIGMA = 5.0

    def __init__(self, seed: int, smoke: bool):
        self.base = config.default_config()
        self.rho = states.werner_state(self.base.chsh_source_p)
        self.settings = []
        for a, db in product(self.ALPHA, self.BETA_OFFSET):
            b = a + db
            self.settings.append(chsh.ChshSettings(alpha=a, alpha_prime=(a + 45.0) % 180.0,
                                                   beta=b % 180.0,
                                                   beta_prime=(b + 45.0) % 180.0))
        if smoke:
            self.settings = self.settings[:3]
        self.n_resamples = 4 if smoke else self.N_RESAMPLES
        self.seed = seed

    def pass_inputs(self, k: int) -> list:
        return [(settings, derive_seed(self.seed, k, i))
                for i, settings in enumerate(self.settings)]

    def run_job(self, inp, workdir: Path):
        settings, seed = inp
        pairs = [(repr(a), repr(b)) for a, b in settings.measurement_angles()]
        records = counts.simulate_counts(self.rho, pairs, self.base.source,
                                         self.base.detection["chsh"],
                                         self.base.acquisition.chsh_duration, seed)
        result = chsh.chsh_s(settings, records)
        sigma = chsh.chsh_sigma_resampled(settings, records, self.n_resamples, seed)
        return result, sigma

    def check(self, inp, output) -> None:
        settings, _ = inp
        result, sigma = output
        exact = chsh.chsh_s(settings, self.rho).s_value
        dev = abs(result.s_value - exact)
        _require(0.0 < result.s_sigma and dev <= self.N_SIGMA * result.s_sigma,
                 f"S = {result.s_value!r} is {dev:.3g} from the state's {exact!r}, "
                 f"sigma {result.s_sigma:.3g}")
        sigma_tol = self.N_SIGMA / np.sqrt(2.0 * (self.n_resamples - 1))
        _require(abs(sigma / result.s_sigma - 1.0) <= sigma_tol,
                 f"resampled sigma {sigma!r} and delta-method sigma "
                 f"{result.s_sigma!r} disagree")


WORKLOADS = {w.name: w for w in (ReportMC100, DesignScan, BellScan)}
