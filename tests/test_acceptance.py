"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is fixed here; nothing is calibrated at test time.
"""
import time

import numpy as np

from entconv.chsh import ChshSettings, chsh_s
from entconv.config import default_config
from entconv.conversion import (BudgetInputs, ConversionParams, convert, convert_qubit,
                                efficiency_budget, focusing_factor,
                                p_max_from_efficiency, sfg_efficiency, source_state)
from entconv.counts import (expected_counts, expected_process_counts, poisson_resamples,
                            simulate_counts, simulate_process_counts)
from entconv.pipeline import run_report, run_simulate, stage_seed
from entconv.states import (bell_state, fidelity, ket2dm, purity, tangle,
                            trace_distance, werner_state)
from entconv.tomography import (_STATE_LBFGS, METRICS, TomographyOptions, _batch_table,
                                _fit_batch, _params_of_rho, _rho_of_params, _state_problem,
                                linear_inversion_state, mle_process, mle_state,
                                mle_tables, monte_carlo_errors,
                                subtract_accidentals, tomography_settings)

PHI_P = ket2dm(bell_state("phi+"))
SETTINGS36 = tomography_settings()
TIGHT = TomographyOptions(rel_tol=1e-14)


def cold_start_estimate(records, options):
    """``mle_state``'s fit of ``records`` started from I/4 instead of the
    linear inversion, through the same fit core."""
    durations, raw = _batch_table(records, [[r.coincidences for r in records]])
    objective, errors = _state_problem(durations, raw)
    t0 = _params_of_rho(np.eye(4, dtype=complex)[None] / 4.0)
    return _fit_batch(objective, t0, errors, options, _STATE_LBFGS, _rho_of_params).estimates[0]


def report_line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_density_matrix(rng, dim=4, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_1_tsirelson_fixture():
    angles = ChshSettings(alpha=0.0, alpha_prime=45.0, beta=22.5, beta_prime=67.5)
    chsh_s(angles, PHI_P)  # warm-up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        result = chsh_s(angles, PHI_P)
        best = min(best, time.perf_counter() - t0)
    err = abs(result.s_value - 2 * np.sqrt(2))
    report_line(1, "Tsirelson fixture", err < 1e-9 and best < 1e-3,
                f"|S - 2sqrt2| = {err:.2e}, runtime = {best * 1e3:.3f} ms")


def test_criterion_2_chsh_reproduction():
    t0 = time.perf_counter()
    config = default_config()
    rho = werner_state(config.chsh_source_p)
    pairs = [(repr(a), repr(b)) for a, b in config.chsh.measurement_angles()]
    records = simulate_counts(rho, pairs, config.source, config.detection["chsh"],
                              config.acquisition.chsh_duration,
                              stage_seed(config.seed, "chsh"))
    result = chsh_s(config.chsh, records)
    elapsed = time.perf_counter() - t0
    dev = abs(result.s_value - 2.615)
    ok = dev <= 3 * result.s_sigma and 0.027 / 2 <= result.s_sigma <= 0.027 * 2 \
        and elapsed < 5.0
    report_line(2, "CHSH reproduction",
                ok, f"S = {result.s_value:.4f} +- {result.s_sigma:.4f}, "
                    f"|S - 2.615| = {dev:.4f} <= 3 sigma, {elapsed:.2f} s")


def test_criterion_3_mle_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_truth, worst_oracle, worst_cold = 0.0, 0.0, 0.0
    for _ in range(50):
        rho = random_density_matrix(rng)
        records = expected_counts(rho, SETTINGS36,
                                  default_config().source.__class__(
                                      kind="werner", p=1.0, pair_rate=100.0),
                                  default_config().detection["input"].__class__(),
                                  duration=30.0)
        estimate = mle_state(records, TIGHT).estimate
        worst_truth = max(worst_truth, trace_distance(estimate, rho))
        worst_oracle = max(worst_oracle,
                           trace_distance(estimate, linear_inversion_state(records)))
        # ascent from the maximally mixed state must find the same optimum
        worst_cold = max(worst_cold,
                         trace_distance(cold_start_estimate(records, TIGHT), rho))
    elapsed = time.perf_counter() - t0
    ok = worst_truth < 1e-6 and worst_oracle < 1e-6 and worst_cold < 1e-6 \
        and elapsed < 60.0
    report_line(3, "MLE consistency (50 states)",
                ok, f"max TD to truth = {worst_truth:.2e}, "
                    f"max TD to inversion oracle = {worst_oracle:.2e}, "
                    f"cold-start max TD = {worst_cold:.2e}, {elapsed:.1f} s")


def test_criterion_4_state_metric_reproduction():
    t0 = time.perf_counter()
    config = default_config()
    rho_out, _ = convert(source_state(config.source), config.conversion)
    records = simulate_counts(rho_out, SETTINGS36, config.source,
                              config.detection["output"],
                              config.acquisition.output_duration,
                              stage_seed(config.seed, "state_output"))

    raw = mle_state(records, config.tomography)
    corrected = mle_state(subtract_accidentals(records), config.tomography)

    target = bell_state("phi+")
    accidentals = np.array([r.accidental_estimate for r in records])
    counts = poisson_resamples([r.coincidences for r in records], 100, seed=404)
    mc = monte_carlo_errors(
        mle_tables("state", [(records, counts - accidentals)], config.tomography)[0],
        {"fidelity": lambda m: fidelity(m, target), "purity": purity, "tangle": tangle},
        "output_corrected")
    elapsed = time.perf_counter() - t0

    m = corrected.metrics
    dev_f = abs(m.fidelity - 0.967)
    dev_p = abs(m.purity - 0.947)
    dev_t = abs(m.tangle - 0.88)
    ok = (abs(raw.metrics.fidelity - 0.938) < 0.012
          and dev_f <= 2 * mc.std_errors["fidelity"]
          and dev_p <= 2 * mc.std_errors["purity"]
          and dev_t <= 2 * mc.std_errors["tangle"]
          and elapsed < 300.0)
    report_line(4, "state metrics after accidental subtraction", ok,
                f"raw F = {raw.metrics.fidelity:.4f} (~0.938), corrected "
                f"F = {m.fidelity:.4f} (|d|={dev_f:.4f} <= {2 * mc.std_errors['fidelity']:.4f}), "
                f"P = {m.purity:.4f} (|d|={dev_p:.4f} <= {2 * mc.std_errors['purity']:.4f}), "
                f"T = {m.tangle:.4f} (|d|={dev_t:.4f} <= {2 * mc.std_errors['tangle']:.4f}), "
                f"{elapsed:.1f} s with 100 MC samples")


def test_criterion_5_process_tomography():
    t0 = time.perf_counter()
    proc_settings = tomography_settings()
    noiseless = expected_process_counts(lambda r: r, proc_settings,
                                        rate=1e5, duration=1.0)
    chi_id = mle_process(noiseless, TIGHT).estimate
    ident_ok = chi_id[0, 0].real > 1 - 1e-6

    config = default_config()
    channel = config.process.channel
    records = simulate_process_counts(lambda r: convert_qubit(r, channel),
                                      proc_settings, config.process.rate,
                                      config.acquisition.process_duration,
                                      stage_seed(config.seed, "process"))
    result = mle_process(records, config.tomography)
    counts = poisson_resamples([r.coincidences for r in records], 40, seed=505)
    mc = monte_carlo_errors(
        mle_tables("process", [(records, counts)], config.tomography)[0], METRICS["process"],
        "process")
    elapsed = time.perf_counter() - t0

    dev_f = abs(result.metrics.fidelity - 0.9923)
    dev_p = abs(result.metrics.purity - 0.9854)
    ok = (ident_ok and dev_f <= 2 * mc.std_errors["fidelity"]
          and dev_p <= 2 * mc.std_errors["purity"] and elapsed < 60.0)
    report_line(5, "process tomography", ok,
                f"identity chi_II = {chi_id[0, 0].real:.8f}, noisy F = "
                f"{result.metrics.fidelity:.5f} (|d|={dev_f:.5f} <= "
                f"{2 * mc.std_errors['fidelity']:.5f}), P = {result.metrics.purity:.5f} "
                f"(|d|={dev_p:.5f} <= {2 * mc.std_errors['purity']:.5f}), {elapsed:.1f} s")


def test_criterion_6_efficiency_model():
    t0 = time.perf_counter()
    pmax = p_max_from_efficiency(0.008, 1.0)
    unit_exact = sfg_efficiency(pmax, pmax) == 1.0
    eta_1w = sfg_efficiency(1.0, pmax)
    h_08 = focusing_factor(0.8)
    budget = efficiency_budget(BudgetInputs())
    elapsed = time.perf_counter() - t0
    ok = (unit_exact and abs(eta_1w - 0.008) < 1e-4 and 0.55 <= h_08 <= 0.70
          and abs(budget["photon_conversion_observed"] - 0.006) < 5e-4
          and abs(budget["pair_conversion_intrinsic"] - 4e-4) < 5e-5
          and elapsed < 10.0)
    report_line(6, "efficiency model", ok,
                f"eta(P_max) == 1 exactly: {unit_exact}, eta(1 W) = {eta_1w:.6f}, "
                f"h(0.8) = {h_08:.3f}, observed = {budget['photon_conversion_observed']:.5f}, "
                f"intrinsic = {budget['pair_conversion_intrinsic']:.6f}, {elapsed:.1f} s")


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    violations = []

    # Tsirelson bound over 1000 random states and settings
    for _ in range(1000):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        angles = ChshSettings(*rng.uniform(0, 180, size=4))
        if abs(chsh_s(angles, rho).s_value) > 2 * np.sqrt(2) + 1e-9:
            violations.append("tsirelson")

    # tangle invariance under local unitaries
    rho = random_density_matrix(rng)
    t_ref = tangle(rho)
    for _ in range(100):
        u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        u = np.kron(u1, u2)
        if abs(tangle(u @ rho @ u.conj().T) - t_ref) >= 1e-9:
            violations.append("tangle-lu")

    # tangle non-increase under balanced conversion (+ equality at identity)
    for _ in range(1000):
        rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
        eta = rng.uniform(0.1, 1.0)
        params = ConversionParams(eta_h=eta, eta_v=eta,
                                  theta=rng.uniform(0, 2 * np.pi),
                                  dephase=rng.uniform(0, 1))
        rho_c, _ = convert(rho, params)
        if tangle(rho_c) > tangle(rho) + 1e-9:
            violations.append("tangle-convert")
    rho = random_density_matrix(rng)
    rho_id, _ = convert(rho, ConversionParams())
    if abs(tangle(rho_id) - tangle(rho)) > 1e-9:
        violations.append("tangle-identity-point")

    # monotone MLE likelihood and count-rescaling invariance
    config = default_config()
    for seed in range(10):
        rho = random_density_matrix(rng)
        records = simulate_counts(rho, SETTINGS36, config.source,
                                  config.detection["input"], 1.0, seed=seed)
        result = mle_state(records)
        hist = result.history
        if not all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:])):
            violations.append("monotone-likelihood")
        if seed < 5:
            scaled = [r.__class__(r.setting_a, r.setting_b, r.duration,
                                  r.coincidences * 250.0, r.singles_a, r.singles_b,
                                  r.accidental_estimate) for r in records]
            base = mle_state(records, TIGHT).estimate
            if trace_distance(base, mle_state(scaled, TIGHT).estimate) >= 1e-8:
                violations.append("count-rescaling")

    elapsed = time.perf_counter() - t0
    report_line(7, "property suites", not violations,
                f"violations = {violations or 'none'}, {elapsed:.1f} s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    config = default_config()
    config.mc_samples = 12
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_simulate(config, out1)
    run_report(config, out1)
    run_simulate(config, out2)
    run_report(config, out2)
    names = sorted(p.name for p in out1.iterdir())
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    elapsed = time.perf_counter() - t0
    report_line(8, "byte-identical reruns", identical and names,
                f"{len(names)} files compared, {elapsed:.1f} s")
