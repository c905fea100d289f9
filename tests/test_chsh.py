"""Unit tests for the CHSH analysis."""
import numpy as np
import pytest

from entconv.chsh import ChshResult, ChshSettings, chsh_s, chsh_sigma_resampled
from entconv.conversion import DetectionModel, SourceModel
from entconv.counts import CountDataError, CountRecord, expected_counts, simulate_counts
from entconv.states import SIGMA_X, SIGMA_Z, bell_state, ket2dm, werner_state

PHI_P = ket2dm(bell_state("phi+"))
REFERENCE_ANGLES = ChshSettings()


def chsh_table(groups, settings=REFERENCE_ANGLES, duration=1.0):
    """16 records in ``measurement_angles`` order; row k of ``groups`` holds the
    counts of correlation k at (a,b), (a,b+90), (a+90,b), (a+90,b+90)."""
    return [CountRecord(repr(a), repr(b), duration, float(n), int(n), int(n))
            for (a, b), n in zip(settings.measurement_angles(), np.ravel(groups))]


def reference_correlation(counts):
    """E = (N_ab + N_a'b' - N_ab' - N_a'b) / N_total of one group and its
    first-order Poisson sigma, one record at a time."""
    signs = (1.0, -1.0, -1.0, 1.0)
    total = sum(counts)
    e = sum(s * n for s, n in zip(signs, counts)) / total
    var = sum(n * (s - e) ** 2 for s, n in zip(signs, counts)) / total ** 2
    return e, np.sqrt(var)


def analyzer_observable(angle_deg):
    """Reference: the +-1-valued polarization observable cos(2t) Z + sin(2t) X."""
    t = np.radians(angle_deg)
    return np.cos(2 * t) * SIGMA_Z + np.sin(2 * t) * SIGMA_X


def state_correlation(rho, a, b):
    """E(a, b) of a state as ``chsh_s`` computes it: its first correlation."""
    return chsh_s(ChshSettings(alpha=a, beta=b), rho).correlations[0]


def product_state(a, b):
    """|a>|b> with |t> = cos(t)|H> + sin(t)|V>, t in degrees."""
    ta, tb = np.radians(a), np.radians(b)
    return ket2dm(np.kron([np.cos(ta), np.sin(ta)], [np.cos(tb), np.sin(tb)]))


class TestAnalyzerObservable:
    """The analyzer at angle t measures cos(2t) Z + sin(2t) X: the +1 outcome
    is |t>, the -1 outcome |t + 90>."""

    def test_zero_degrees(self):
        assert state_correlation(product_state(0, 0), 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert state_correlation(product_state(0, 90), 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        assert state_correlation(product_state(45, 45), 45.0, 45.0) == pytest.approx(
            1.0, abs=1e-12)
        assert state_correlation(product_state(45, 135), 45.0, 45.0) == pytest.approx(
            -1.0, abs=1e-12)

    def test_intermediate_angle(self):
        # <H|(Z + X)/sqrt(2)|H> = 1/sqrt(2) on each side
        assert state_correlation(product_state(0, 0), 22.5, 22.5) == pytest.approx(
            0.5, abs=1e-12)

    def test_unit_eigenvalues(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.uniform(0, 90, size=2)
            assert state_correlation(product_state(a, b), a, b) == pytest.approx(1.0, abs=1e-12)
            assert state_correlation(product_state(a, b + 90), a, b) == pytest.approx(
                -1.0, abs=1e-12)


class TestCorrelationFromState:
    """The four correlations ``chsh_s`` computes from a state."""

    def test_parallel_analyzers(self):
        assert state_correlation(PHI_P, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_angle_pair(self):
        assert state_correlation(PHI_P, 0.0, 22.5) == pytest.approx(
            np.cos(np.radians(45.0)), abs=1e-12)

    def test_werner_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(0, 1)
            a, b = rng.uniform(0, 180, size=2)
            expect = p * np.cos(2 * np.radians(a - b))
            assert state_correlation(werner_state(p), a, b) == pytest.approx(expect, abs=1e-10)

    def test_equals_the_observable_expectation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
            settings = ChshSettings(*rng.uniform(0, 180, size=4).tolist())
            ref = [np.real(np.trace(rho @ np.kron(analyzer_observable(a),
                                                  analyzer_observable(b))))
                   for a, b in (settings.measurement_angles()[4 * k] for k in range(4))]
            result = chsh_s(settings, rho)
            np.testing.assert_allclose(result.correlations, ref, rtol=0, atol=1e-12)
            assert result.s_sigma == 0.0

    def test_is_the_noiseless_limit_of_the_counts(self):
        """A state's S is the S of its expected counts at unit rate and duration,
        whose coincidences are the detection probabilities themselves."""
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
            settings = ChshSettings(*rng.uniform(0, 180, size=4).tolist())
            pairs = [(repr(a), repr(b)) for a, b in settings.measurement_angles()]
            records = expected_counts(rho, pairs, SourceModel(pair_rate=1.0), DetectionModel(),
                                      1.0)
            exact, counted = chsh_s(settings, rho), chsh_s(settings, records)
            np.testing.assert_allclose(exact.correlations, counted.correlations,
                                       rtol=0, atol=1e-12)
            assert exact.s_value == pytest.approx(counted.s_value, rel=0, abs=1e-12)

    def test_rejects_a_one_qubit_state(self):
        with pytest.raises(ValueError, match="two-qubit"):
            chsh_s(REFERENCE_ANGLES, np.eye(2) / 2)


class TestCorrelationFromCounts:
    """The four correlations of ``chsh_s`` on count records, group by group."""

    def test_perfect_correlation(self):
        result = chsh_s(REFERENCE_ANGLES, chsh_table([[100, 0, 0, 100]] * 4))
        assert result.correlations == (1.0, 1.0, 1.0, 1.0)
        assert result.s_value == 2.0
        assert result.s_sigma == 0.0

    def test_no_correlation(self):
        groups = [[100, 0, 0, 100], [50, 50, 50, 50], [100, 0, 0, 100], [100, 0, 0, 100]]
        assert chsh_s(REFERENCE_ANGLES, chsh_table(groups)).correlations[1] == 0.0

    def test_reference_scale_counts(self):
        # counts matching phi+ at (0, 22.5): E = 242/342
        result = chsh_s(REFERENCE_ANGLES, chsh_table([[146, 25, 25, 146]] * 4))
        assert result.correlations[0] == pytest.approx(0.7076, abs=5e-5)
        assert result.s_sigma > 0

    def test_each_group_matches_reference_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            groups = rng.integers(0, 500, size=(4, 4))
            groups[:, 0] += 1
            records = chsh_table(groups)
            result = chsh_s(REFERENCE_ANGLES, [records[i] for i in rng.permutation(16)])
            refs = [reference_correlation(g.tolist()) for g in groups]
            assert result.correlations == pytest.approx([e for e, _ in refs], rel=1e-12)
            assert result.s_sigma == pytest.approx(
                np.sqrt(sum(sig ** 2 for _, sig in refs)), rel=1e-12)

    def test_zero_total_rejected(self):
        groups = [[100, 0, 0, 100], [0, 0, 0, 0], [100, 0, 0, 100], [100, 0, 0, 100]]
        with pytest.raises(CountDataError, match="zero total"):
            chsh_s(REFERENCE_ANGLES, chsh_table(groups))

    def test_wrong_group_size(self):
        records = chsh_table([[1, 1, 1, 1]] * 4)
        for table in (records[:15], records + records[:1]):
            with pytest.raises(CountDataError, match="16 records"):
                chsh_s(REFERENCE_ANGLES, table)

    def test_label_settings_rejected(self):
        recs = [CountRecord("H", "V", 1.0, 1.0, 1, 1)] * 16
        with pytest.raises(CountDataError, match="angle"):
            chsh_s(REFERENCE_ANGLES, recs)


def noiseless_chsh_records(rho, settings=REFERENCE_ANGLES, rate=15.0, duration=100.0):
    src = SourceModel(kind="werner", p=1.0, pair_rate=rate)
    pairs = [(repr(a), repr(b)) for a, b in settings.measurement_angles()]
    return expected_counts(rho, pairs, src, DetectionModel(), duration)


class TestChshS:
    def test_tsirelson_value_for_bell_state(self):
        result = chsh_s(REFERENCE_ANGLES, PHI_P)
        assert abs(result.s_value - 2 * np.sqrt(2)) < 1e-9
        assert result.s_sigma == 0.0

    def test_separable_state_below_classical_bound(self):
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        result = chsh_s(REFERENCE_ANGLES, hh)
        assert result.s_value == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_werner_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.uniform(0, 1)
            result = chsh_s(REFERENCE_ANGLES, werner_state(p))
            assert abs(result.s_value - 2 * np.sqrt(2) * p) < 1e-9

    def test_counts_match_state_on_noiseless_data(self):
        for rho in (PHI_P, werner_state(0.6)):
            exact = chsh_s(REFERENCE_ANGLES, rho).s_value
            from_counts = chsh_s(REFERENCE_ANGLES, noiseless_chsh_records(rho)).s_value
            assert abs(exact - from_counts) < 1e-9

    def test_missing_record_rejected(self):
        records = noiseless_chsh_records(PHI_P)[:-1]
        with pytest.raises(CountDataError, match="16 records"):
            chsh_s(REFERENCE_ANGLES, records)

    def test_tsirelson_bound_random_states_and_settings(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            angles = ChshSettings(*rng.uniform(0, 180, size=4))
            assert abs(chsh_s(angles, rho).s_value) <= 2 * np.sqrt(2) + 1e-9

    def test_separable_product_states_respect_classical_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            va = rng.normal(size=2) + 1j * rng.normal(size=2)
            vb = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = np.kron(ket2dm(va / np.linalg.norm(va)),
                          ket2dm(vb / np.linalg.norm(vb)))
            assert abs(chsh_s(REFERENCE_ANGLES, rho).s_value) <= 2.0 + 1e-9

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            ChshSettings(alpha=190.0)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            ChshResult(correlations=(0.5, 0.5, 0.5, 1.5), s_value=2.0, s_sigma=0.1)


class TestSimulatedStatistics:
    def _simulated_records(self, duration, seed):
        src = SourceModel(kind="werner", p=1.0, pair_rate=15.0)
        pairs = [(repr(a), repr(b)) for a, b in REFERENCE_ANGLES.measurement_angles()]
        return simulate_counts(werner_state(0.925), pairs, src, DetectionModel(),
                               duration, seed=seed)

    def test_sigma_scales_with_inverse_sqrt_duration(self):
        sig_1, sig_2 = [], []
        for seed in range(25):
            sig_1.append(chsh_s(REFERENCE_ANGLES, self._simulated_records(100.0, seed)).s_sigma)
            sig_2.append(chsh_s(REFERENCE_ANGLES, self._simulated_records(200.0, 100 + seed)).s_sigma)
        ratio = np.mean(sig_1) / np.mean(sig_2)
        assert np.sqrt(2) * 0.8 <= ratio <= np.sqrt(2) * 1.2

    def test_delta_method_agrees_with_resampling(self):
        records = self._simulated_records(100.0, seed=8)
        result = chsh_s(REFERENCE_ANGLES, records)
        sigma_mc = chsh_sigma_resampled(REFERENCE_ANGLES, records, n_samples=400, seed=9)
        assert result.s_sigma == pytest.approx(sigma_mc, rel=0.3)

    def test_resampled_sigma_equals_per_sample_loop(self):
        # the reference: one resample at a time through chsh_s on rebuilt records
        from dataclasses import replace

        records = self._simulated_records(100.0, seed=12)
        raw = np.array([r.coincidences for r in records])
        values = []
        for i in range(200):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(i,)))
            resampled = [replace(r, coincidences=float(c))
                         for r, c in zip(records, rng.poisson(raw))]
            values.append(chsh_s(REFERENCE_ANGLES, resampled).s_value)
        expected = float(np.std(values, ddof=1))
        sigma = chsh_sigma_resampled(REFERENCE_ANGLES, records, n_samples=200, seed=5)
        assert sigma == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_value_within_tsirelson_plus_noise_band(self):
        for seed in range(30):
            result = chsh_s(REFERENCE_ANGLES, self._simulated_records(100.0, seed))
            assert abs(result.s_value) <= 2 * np.sqrt(2) + 5 * result.s_sigma
