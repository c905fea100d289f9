"""Batched Monte-Carlo fits: the batched objectives row by row, failed rows,
agreement with the one-resample-at-a-time scipy fits they replace, and the
error bars against the simulated truth."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from entconv import pipeline, tomography
from entconv.config import default_config
from entconv.conversion import ConversionParams, DetectionModel, SourceModel, convert_qubit
from entconv.counts import (CountRecord, expected_counts, poisson_resamples, read_counts_csv,
                            simulate_counts, simulate_process_counts)
from entconv.pipeline import (COUNT_FILES, fit_stages, resample_seed, run_report,
                              run_reconstruct_process, run_reconstruct_state, run_simulate)
from entconv.states import (bell_state, concurrence, fidelity, purity, tangle,
                            werner_state)
from entconv.tomography import (_KINDS, METRICS, TomographyOptions, _batch_table, _inversion,
                                check_chi_matrix, identity_chi, mle_process, mle_state,
                                mle_tables, monte_carlo_errors, subtract_accidentals,
                                tomography_settings)

SETTINGS = tomography_settings()
SRC = SourceModel(kind="werner", p=1.0, pair_rate=100.0)
DET = DetectionModel()
REL_TOL = 1e-6


def state_records(seed=1):
    return simulate_counts(werner_state(0.9), SETTINGS, SRC, DET, 10.0, seed=seed)


def process_records(seed=2):
    channel = lambda r: convert_qubit(r, ConversionParams(eta_v=0.8, theta=0.3, dephase=0.9))
    return simulate_process_counts(channel, SETTINGS, 200.0, 10.0, seed=seed)


def resamples(records, n, seed):
    return poisson_resamples([r.coincidences for r in records], n, seed)


def with_counts(records, row):
    return [replace(r, coincidences=float(c)) for r, c in zip(records, row)]


def batch_objective(kind, records, counts):
    """The objective the fits of the (B, 36) ``counts`` minimize."""
    return _KINDS[kind][0](*_batch_table(records, counts))[0]


def clipped_state_params(rng):
    """A near-pure state whose (V, V) probability sits below the 1e-12 clip."""
    t = rng.normal(size=16)
    t[[3, 4 + 2, 4 + 4, 4 + 5, 10 + 2, 10 + 4, 10 + 5]] = 1e-8  # T_33, T_03, T_13, T_23
    return t


KINDS = ["state", "process"]


@pytest.mark.parametrize("kind", KINDS)
def test_batched_gradient_matches_central_differences_row_by_row(kind):
    rng = np.random.default_rng(41)
    if kind == "state":
        records = expected_counts(werner_state(0.9), SETTINGS, SRC, DET, 10.0)
    else:
        records = process_records()
    counts = resamples(records, 4, seed=3)
    objective = batch_objective(kind, records, counts)
    t = rng.normal(size=(4, 16))
    h = np.full(4, 1e-6)
    if kind == "state":
        t[1] = clipped_state_params(rng)
        h[1] = 1e-7
        assert counts[1, SETTINGS.index(("V", "V"))] > 0
    rows = np.arange(4)
    _, grad = objective.rows(t, rows)
    fd = np.empty_like(t)
    for i in range(16):
        e = np.zeros_like(t)
        e[:, i] = h
        fd[:, i] = (objective.rows(t + e, rows)[0] - objective.rows(t - e, rows)[0]) / (2 * h)
    for b in rows:
        assert np.linalg.norm(grad[b] - fd[b]) <= REL_TOL * np.linalg.norm(fd[b])


@pytest.mark.parametrize("kind", KINDS)
def test_perturbing_one_row_moves_only_that_row(kind):
    records = state_records() if kind == "state" else process_records()
    objective = batch_objective(kind, records, resamples(records, 5, seed=4))
    t = np.random.default_rng(42).normal(size=(5, 16))
    rows = np.arange(5)
    nll, grad = objective.rows(t, rows)
    moved = t.copy()
    moved[2] += 0.3
    nll2, grad2 = objective.rows(moved, rows)
    others = rows != 2
    assert np.array_equal(nll2[others], nll[others])
    assert np.array_equal(grad2[others], grad[others])
    assert nll2[2] != nll[2]


@pytest.mark.parametrize("kind", KINDS)
def test_batched_rows_equal_scalar_objectives(kind):
    records = state_records() if kind == "state" else process_records()
    counts = resamples(records, 3, seed=5)
    objective = batch_objective(kind, records, counts)
    t = np.random.default_rng(43).normal(size=(3, 16))
    nll, grad = objective.rows(t, np.arange(3))
    for b in range(3):
        # the objective of a point fit of table b alone
        one = batch_objective(kind, records, counts[b:b + 1])
        (value,), (g,) = one.rows(t[b:b + 1], slice(0, 1))
        assert value == pytest.approx(nll[b], rel=1e-13, abs=0)
        np.testing.assert_allclose(g, grad[b], rtol=1e-10, atol=1e-12 * np.abs(g).max())


def test_one_table_batch_is_the_point_fit():
    # both run the one-table optimizer; several tables run minimize_rows
    for kind in KINDS:
        if kind == "state":
            records, point = state_records(), mle_state
        else:
            records, point = process_records(), mle_process
        result = point(records)
        fit = mle_tables(kind, [(records, [[r.coincidences for r in records]])])[0]
        assert np.array_equal(fit.estimates[0], result.estimate)
        assert np.array_equal(fit.history[:, 0], result.history)
        assert fit.log_likelihood[0] == result.log_likelihood
        assert fit.converged[0] == result.converged and not fit.failed[0]


#: what a batch fit compares row by row, bit for bit
ROW_FIELDS = ("estimates", "log_likelihood", "converged", "iterations")


def test_inversion_rows_equal_the_whole_call():
    """Each row's linear inversion, computed in any subset of the rows, lone
    rows included, equals that row of the whole call bit for bit."""
    records = state_records()
    counts = resamples(records, 40, seed=14)
    counts[5, [SETTINGS.index(s) for s in (("D", "R"), ("D", "L"), ("A", "R"), ("A", "L"))]] = 0
    durations, raw = _batch_table(records, counts)
    rates = raw / durations
    whole, first_empty = _inversion(rates)
    assert first_empty.tolist().count(-1) == 39
    rng = np.random.default_rng(15)
    subsets = [[b] for b in range(40)] + [rng.choice(40, size, replace=False)
                                          for size in (2, 3, 20, 39) for _ in range(5)]
    for idx in subsets:
        part, part_empty = _inversion(rates[idx])
        assert np.array_equal(part, whole[idx]) and np.array_equal(part_empty, first_empty[idx])


@pytest.mark.parametrize("kind", KINDS)
def test_a_row_fits_alike_in_any_batch(kind):
    """A row's fit is the same, bit for bit, whatever tables its rows are
    split into, merged with or permuted within; the rows stop at different
    iterations, so some are searched alone."""
    records = (simulate_counts(werner_state(0.97), SETTINGS, SRC, DET, 10.0, seed=12)
               if kind == "state" else process_records())
    counts = resamples(records, 30, seed=11)
    ref = mle_tables(kind, [(records, counts[:12])])[0]
    assert len(set(ref.iterations.tolist())) > 1
    perm = np.random.default_rng(13).permutation(12)
    for tables in ([perm], [[3, 7]], [perm[:5], perm[5:]], [[9], [2], [4]],
                   [np.arange(2, 9)], [np.arange(20, 30), np.arange(12), np.arange(12, 20)]):
        for idx, fit in zip(tables, mle_tables(kind, [(records, counts[i]) for i in tables])):
            idx = np.asarray(idx)
            mine = idx < 12
            for name in ROW_FIELDS:
                mine_in_ref = getattr(ref, name)[idx[mine]]
                assert np.array_equal(getattr(fit, name)[mine], mine_in_ref), name


def test_an_unknown_fit_kind_is_rejected():
    records = state_records()
    with pytest.raises(ValueError, match="'states'"):
        mle_tables("states", [(records, resamples(records, 2, seed=1))])


def test_objectives_see_c_ordered_tables(monkeypatch):
    """The objectives' row sums round by memory order, so the counts and
    norms that ``fit_stages`` and ``mle_state`` build are C-ordered."""
    seen = []
    fit_batch = tomography._fit_batch

    def recording(objective, *args):
        seen.append(objective)
        return fit_batch(objective, *args)

    monkeypatch.setattr(tomography, "_fit_batch", recording)
    state, process = state_records(), process_records()
    fit_stages("state", {"raw": (state, False, 1), "subtracted": (state, True, 2)},
               TomographyOptions(), 3)
    fit_stages("process", {"process": (process, False, 3)}, TomographyOptions(), 3)
    mle_state(state)
    assert [len(o.counts) for o in seen] == [8, 4, 1]
    for objective in seen:
        assert objective.counts.flags.c_contiguous and objective.norms.flags.c_contiguous


@pytest.mark.parametrize("seed", [103, 7, 6])
def test_report_state_batch_equals_one_stage_fits(tmp_path, monkeypatch, seed):
    """Every row of the report's one state batch (4 stages, 404 rows) equals,
    bit for bit, its row in the fit of its stage alone."""
    calls = []

    def recording(kind, tables, options=None):
        calls.append((kind, tables, options, mle_tables(kind, tables, options)))
        return calls[-1][-1]

    monkeypatch.setattr(pipeline, "mle_tables", recording)
    run_report(replace(default_config(), seed=seed), tmp_path)
    (kind, tables, options, merged), (process_kind, _, _, _) = calls
    assert (kind, process_kind) == ("state", "process")
    assert [len(fit.failed) for fit in merged] == [101] * 4
    for table, fit in zip(tables, merged):
        (alone,) = mle_tables("state", [table], options)
        for name in ROW_FIELDS:
            assert np.array_equal(getattr(alone, name), getattr(fit, name)), name


class ScipyCalled(Exception):
    pass


def test_report_path_never_calls_scipy_minimize(tmp_path, monkeypatch):
    # every report fit is a row of a minimize_rows batch; library point fits
    # keep scipy's one-table L-BFGS-B
    def refuse(*args, **kwargs):
        raise ScipyCalled

    monkeypatch.setattr(optimize, "minimize", refuse)
    config = replace(default_config(), mc_samples=2)
    run_report(config, tmp_path)
    run_reconstruct_state(config, tmp_path, tmp_path / COUNT_FILES["state_output"], "output")
    run_reconstruct_process(config, tmp_path, tmp_path / COUNT_FILES["process"])
    with pytest.raises(ScipyCalled):
        mle_state(state_records())
    with pytest.raises(ScipyCalled):
        mle_process(process_records())


def test_state_rows_without_counts_fail_alone():
    records = state_records()
    counts = resamples(records, 6, seed=6)
    good = mle_tables("state", [(records, counts)])[0]
    counts_bad = counts.copy()
    counts_bad[3] = 0.0
    fit = mle_tables("state", [(records, counts_bad)])[0]
    assert fit.failed.tolist() == [False, False, False, True, False, False]
    assert fit.errors == {3: "all counts are zero"}
    assert np.all(np.isnan(fit.estimates[3]))
    keep = ~fit.failed
    np.testing.assert_allclose(fit.estimates[keep], good.estimates[keep], atol=1e-12)
    assert fit.converged[keep].all() and not fit.converged[3]


def test_empty_basis_group_row_uses_mixed_start_like_mle_state():
    # no counts in the (H, H) group: linear inversion is impossible, the fit
    # itself is not
    records = state_records()
    counts = resamples(records, 4, seed=7)
    group = [SETTINGS.index(s) for s in (("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"))]
    counts[1, group] = 0.0
    fit = mle_tables("state", [(records, counts)])[0]
    assert not fit.failed.any() and fit.converged.all()
    for b in range(4):
        seq = mle_state(with_counts(records, counts[b]))
        assert np.max(np.abs(fit.estimates[b] - seq.estimate)) < 1e-6


def test_process_row_with_dark_input_fails_alone():
    records = process_records()
    counts = resamples(records, 5, seed=8)
    good = mle_tables("process", [(records, counts)])[0]
    counts[2, [i for i, (a, _) in enumerate(SETTINGS) if a == "D"]] = 0.0
    counts[4] = 0.0
    fit = mle_tables("process", [(records, counts)])[0]
    assert fit.failed.tolist() == [False, False, True, False, True]
    assert fit.errors == {2: "input state 'D' has zero counts", 4: "all counts are zero"}
    keep = ~fit.failed
    np.testing.assert_allclose(fit.estimates[keep], good.estimates[keep], atol=1e-12)
    for chi in fit.estimates[keep]:
        check_chi_matrix(chi, require_tp=True)


def test_batched_histories_are_monotone_and_end_at_the_fit():
    records = state_records()
    fit = mle_tables("state", [(records, resamples(records, 8, seed=9))])[0]
    steps = np.diff(fit.history, axis=0)
    assert np.all(steps >= -1e-9 * np.maximum(1.0, np.abs(fit.history[:-1])))
    assert np.array_equal(fit.history[-1], fit.log_likelihood)


#: kinds of rows in a random count table
ROW_KINDS = ("counts", "zeroed_group", "dark_label", "empty")


@st.composite
def count_tables(draw):
    """Canonical records with random durations and (B >= 2, 36) random counts
    whose rows are drawn from ROW_KINDS: random counts, random counts with one
    basis-pair group zeroed, with one first label's six settings zeroed, or
    no counts at all."""
    durations = draw(st.lists(st.sampled_from([0.5, 1.0, 10.0]), min_size=36, max_size=36))
    records = [CountRecord(a, b, d, 0.0, 0, 0) for (a, b), d in zip(SETTINGS, durations)]
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    group = 3 * (np.arange(36) // 12) + np.arange(36) % 6 // 2
    counts = rng.poisson(rng.uniform(0.0, 10.0 ** rng.uniform(0, 4), (len(kinds), 36))) * 1.0
    for row, kind in zip(counts, kinds):
        if kind == "zeroed_group":
            row[group == rng.integers(9)] = 0.0
        elif kind == "dark_label":
            start = 6 * rng.integers(6)
            row[start:start + 6] = 0.0
        elif kind == "empty":
            row[:] = 0.0
    return records, counts


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(table=count_tables())
def test_every_fitted_row_is_physical(kind, table):
    records, counts = table
    fit = mle_tables(kind, [(records, counts)])[0]
    assert sorted(fit.errors) == np.flatnonzero(fit.failed).tolist()
    assert fit.failed[counts.sum(axis=1) == 0].all()
    assert np.isnan(fit.estimates[fit.failed]).all()
    for estimate in fit.estimates[~fit.failed]:
        np.testing.assert_allclose(estimate, estimate.conj().T, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(estimate).min() >= -1e-10
        assert abs(np.trace(estimate) - 1.0) < 1e-10
        if kind == "process":
            check_chi_matrix(estimate, require_tp=True)


def test_iteration_limit_marks_rows_unconverged():
    records = state_records()
    opts = TomographyOptions(max_iters=2)
    fit = mle_tables("state", [(records, resamples(records, 6, seed=10))], opts)[0]
    mc = monte_carlo_errors(fit, {"purity": purity}, "state")
    assert mc.n_failed == 0 and mc.n_unconverged == 6


@pytest.fixture(scope="module")
def default_stage_tables(tmp_path_factory):
    config = default_config()
    paths = run_simulate(config, tmp_path_factory.mktemp("stages"))
    return config, {name: read_counts_csv(paths[name])
                    for name in ("state_input", "state_output", "process")}


#: the report's five Monte-Carlo stages: (table, accidental subtraction, report file)
STAGES = {"input_raw": ("state_input", False, "state_input_raw.txt"),
          "input": ("state_input", True, "state_input.txt"),
          "output_raw": ("state_output", False, "state_output_raw.txt"),
          "output": ("state_output", True, "state_output.txt"),
          "process": ("process", False, "process_chi.txt")}


@pytest.mark.parametrize("stage", STAGES)
def test_default_report_stages_converge_every_resample(default_stage_tables, stage):
    config, tables = default_stage_tables
    table, subtract, report = STAGES[stage]
    kind = "process" if table == "process" else "state"
    seed = resample_seed(config.seed, report)
    _, mc = fit_stages(kind, {stage: (tables[table], subtract, seed)},
                       config.tomography, config.mc_samples)[stage]
    assert (mc.n_samples, mc.n_failed, mc.n_unconverged) == (100, 0, 0)


@pytest.mark.parametrize("stage", STAGES)
def test_batched_stage_agrees_with_sequential_fits(default_stage_tables, stage):
    """Every resample refitted one at a time by scipy (the fits the batch
    replaced) against the batch: error bars within 2% and the batch's
    likelihood at least the scipy fit's, up to 1e-6 of the scaled objective,
    on all but one resample in a hundred."""
    config, tables = default_stage_tables
    table, subtract, report = STAGES[stage]
    records, opts = tables[table], config.tomography
    counts = poisson_resamples([r.coincidences for r in records], config.mc_samples,
                               resample_seed(config.seed, report))
    if table == "process":
        fit = mle_tables("process", [(records, counts)], opts)[0]
        seq = [mle_process(with_counts(records, row), opts) for row in counts]
        metrics = METRICS["process"]
        raw = counts
    else:
        accidentals = np.array([r.accidental_estimate for r in records]) if subtract else 0.0
        fit = mle_tables("state", [(records, counts - accidentals)], opts)[0]
        prepare = subtract_accidentals if subtract else list
        seq = [mle_state(prepare(with_counts(records, row)), opts) for row in counts]
        target = bell_state("phi+")
        metrics = {"fidelity": lambda m: fidelity(m, target), "purity": purity,
                   "tangle": tangle}
        raw = np.maximum(counts - accidentals, 0.0)
    scale = raw.mean(axis=1)
    worse = (np.array([r.log_likelihood for r in seq]) - fit.log_likelihood) / scale
    assert np.count_nonzero(worse > 1e-6) <= 1
    for fn in metrics.values():
        err_batch = np.std([fn(e) for e in fit.estimates], ddof=1)
        err_seq = np.std([fn(r.estimate) for r in seq], ddof=1)
        assert abs(err_batch / err_seq - 1.0) <= 0.02


def random_stack(rng, n, rank):
    a = rng.normal(size=(n, 4, rank)) + 1j * rng.normal(size=(n, 4, rank))
    m = a @ np.swapaxes(a.conj(), -1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("name", ["fidelity_pure", "fidelity_mixed", "purity", "concurrence",
                                  "tangle", "process_fidelity", "process_purity"])
def test_metrics_on_a_stack_equal_the_per_estimate_loop(name):
    rng = np.random.default_rng(8)
    stack = np.concatenate([random_stack(rng, 40, rank) for rank in (1, 2, 4)])
    target = random_stack(rng, 1, 4)[0]
    fn = {"fidelity_pure": lambda m: fidelity(m, bell_state("phi+")),
          "fidelity_mixed": lambda m: fidelity(m, target), "purity": purity,
          "concurrence": concurrence, "tangle": tangle,
          "process_fidelity": METRICS["process"]["fidelity"],
          "process_purity": METRICS["process"]["purity"]}[name]
    batched = fn(stack)
    assert batched.shape == (len(stack),)
    loop = np.array([fn(m) for m in stack])
    assert all(type(fn(m)) is float for m in stack[:3])
    np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=1e-15)


#: every *_err of the five default report stages on seed 103, first computed
#: one estimate at a time before the metrics took the stack of estimates; last
#: re-derived, for all five stages, when every L-BFGS dot became ``np.vecdot`` and the state
#: likelihood took |t|^2 for Tr(T^dag T) and real projector products: rounding
#: moved the input and process errors by at most 7e-11 and the output errors
#: by at most 4.7e-6 relative
PER_ESTIMATE_ERRORS = {
    "input_raw": {"fidelity": 0.0005205762096266736, "purity": 0.0010494419210683506,
                  "tangle": 0.00205226072381514},
    "input": {"fidelity": 0.0005485128540391164, "purity": 0.0011846966205812787,
              "tangle": 0.0021572785569410812},
    "output_raw": {"fidelity": 0.004428057590799448, "purity": 0.008394286413878956,
                   "tangle": 0.016502006515862127},
    "output": {"fidelity": 0.004787148625921494, "purity": 0.009339501316941003,
               "tangle": 0.019078403440500238},
    "process": {"fidelity": 3.076409572547595e-05, "purity": 6.291720524255026e-05},
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_error_bars_equal_per_estimate_values(default_stage_tables, stage):
    config, tables = default_stage_tables
    assert config.seed == 103
    table, subtract, report = STAGES[stage]
    kind = "process" if table == "process" else "state"
    seed = resample_seed(config.seed, report)
    _, mc = fit_stages(kind, {stage: (tables[table], subtract, seed)},
                       config.tomography, config.mc_samples)[stage]
    assert mc.std_errors.keys() == PER_ESTIMATE_ERRORS[stage].keys()
    for name, ref in PER_ESTIMATE_ERRORS[stage].items():
        assert mc.std_errors[name] == pytest.approx(ref, rel=1e-12, abs=0)


def test_process_metrics_are_the_chi_overlap_and_purity_to_the_bit(default_stage_tables):
    """The process stage's 101 estimates: METRICS' fidelity to the ket e0
    equals Tr(chi chi_id) clipped onto [0, 1], and its purity Tr(chi^2), bitwise."""
    config, tables = default_stage_tables
    records = tables["process"]
    counts = np.concatenate([[[r.coincidences for r in records]],
                             resamples(records, config.mc_samples,
                                       resample_seed(config.seed, "process_chi.txt"))])
    chi = mle_tables("process", [(records, counts)], config.tomography)[0].estimates
    assert chi.shape == (101, 4, 4)
    overlap = np.clip(np.real(np.trace(chi @ identity_chi(), axis1=-2, axis2=-1)), 0.0, 1.0)
    chi_purity = np.clip(np.real(np.trace(chi @ chi, axis1=-2, axis2=-1)), 0.0, 1.0)
    np.testing.assert_array_equal(METRICS["process"]["fidelity"](chi), overlap)
    np.testing.assert_array_equal(METRICS["process"]["purity"](chi), chi_purity)
    assert METRICS["process"]["fidelity"](chi[0]) == float(overlap[0])


#: seeds of the coverage check, fixed before it was first run
COVERAGE_SEEDS = range(1001, 1041)
#: seeds per ``fit_stages`` call: a row fits alike in any batch, and five
#: seeds' 2020 state rows fit in 0.7 of the time of five batches of 404
COVERAGE_BATCH = 5
#: largest chance that calibrated error bars, of a point biased by at most
#: BIAS, fail the check
FALSE_FAIL = 0.01
#: largest point-estimate bias let through, in error bars: the largest
#: |mean z| of seeds 1-300 is 0.29 (output tangle)
BIAS = 0.3


def report_errors(configs, outdir, mc_samples):
    """(value, err) of every metric of the five report stages of each config,
    keyed (seed, stage, metric); each kind's stages of all configs are
    fitted in one ``fit_stages`` batch."""
    stages = {"state": {}, "process": {}}
    for config in configs:
        paths = run_simulate(config, outdir)
        for stage, (table, subtract, report) in STAGES.items():
            kind = "process" if table == "process" else "state"
            stages[kind][config.seed, stage] = (read_counts_csv(paths[table]), subtract,
                                                resample_seed(config.seed, report))
    out = {}
    for kind, group in stages.items():
        fits = fit_stages(kind, group, configs[0].tomography, mc_samples)
        for (seed, stage), (result, _) in fits.items():
            for name in METRICS[kind]:
                out[seed, stage, name] = (getattr(result.metrics, name),
                                          getattr(result.metrics, f"{name}_err"))
    return out


def test_error_bars_cover_the_noiseless_truth(tmp_path):
    """Over 40 seeds of the default config, z = (point - truth) / err of each
    metric of the five report stages, with the fit of the noiseless run as
    the truth, is consistent with N(mu, 1), |mu| <= BIAS: its std within the
    chi-square bounds, its |z| > 2 count within the binomial bound and its
    |mean| within BIAS plus the normal bound, each at FALSE_FAIL split over
    all the bounds checked."""
    config = default_config()
    truth = {(stage, name): value for (_, stage, name), (value, _)
             in report_errors([replace(config, noiseless=True)], tmp_path, 2).items()}
    z = {key: [] for key in truth}
    for i in range(0, len(COVERAGE_SEEDS), COVERAGE_BATCH):
        configs = [replace(config, seed=s) for s in COVERAGE_SEEDS[i:i + COVERAGE_BATCH]]
        for (_, stage, name), (value, err) in report_errors(configs, tmp_path,
                                                            config.mc_samples).items():
            z[stage, name].append((value - truth[stage, name]) / err)
    n = len(COVERAGE_SEEDS)
    alpha = FALSE_FAIL / (3 * len(z))
    std_lo, std_hi = np.sqrt(stats.chi2.ppf([alpha / 2, 1 - alpha / 2], n - 1) / (n - 1))
    max_beyond_2 = stats.binom.isf(alpha, n, 2 * stats.norm.sf(2.0))
    max_mean = BIAS + stats.norm.isf(alpha / 2) / np.sqrt(n)
    faults = {}
    for key, values in z.items():
        std, beyond_2, mean = (np.std(values, ddof=1), np.count_nonzero(np.abs(values) > 2.0),
                               np.mean(values))
        if not (std_lo <= std <= std_hi and beyond_2 <= max_beyond_2 and abs(mean) <= max_mean):
            faults[key] = (round(float(std), 3), int(beyond_2), round(float(mean), 3))
    assert not faults, (f"(std z, |z| > 2 count, mean z) outside [{std_lo:.3f}, {std_hi:.3f}], "
                        f"{max_beyond_2:.0f}, +-{max_mean:.3f}: {faults}")
