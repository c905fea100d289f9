"""Unit tests for count simulation and CSV I/O."""
import numpy as np
import pytest

from entconv.conversion import ConversionParams, DetectionModel, SourceModel, convert_qubit
from entconv.counts import (CountDataError, CountRecord, coincidence_rate, expected_counts,
                            expected_process_counts, joint_projector, parse_setting,
                            poisson_resamples, read_counts_csv, setting_projector, simulate_counts,
                            simulate_process_counts, stage_seed, substream,
                            write_counts_csv)
from entconv.states import bell_state, ket2dm, projector

PHI_P = ket2dm(bell_state("phi+"))
SRC = SourceModel(kind="werner", p=1.0, pair_rate=15.0)
DET = DetectionModel()


class TestSettings:
    def test_label_projector(self):
        assert np.allclose(setting_projector("D"), projector("D"))

    def test_angle_projector(self):
        t = np.radians(22.5)
        v = np.array([np.cos(t), np.sin(t)])
        assert np.allclose(setting_projector("22.5"), np.outer(v, v))

    def test_angle_zero_is_h(self):
        assert np.allclose(setting_projector("0.0"), projector("H"))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_setting("Q")

    def test_joint_projector(self):
        assert np.allclose(joint_projector("H", "V"),
                           np.kron(projector("H"), projector("V")))


class TestExpectedCounts:
    def test_orthogonal_setting_is_dark(self):
        recs = expected_counts(PHI_P, [("H", "V")], SRC, DET, 100.0)
        assert recs[0].coincidences == pytest.approx(0.0, abs=1e-9)

    def test_parallel_setting_counts(self):
        # Tr[(P_H x P_H) phi+] = 0.5 at 15 cps for 100 s -> 750
        recs = expected_counts(PHI_P, [("H", "H")], SRC, DET, 100.0)
        assert recs[0].coincidences == pytest.approx(750.0, abs=1e-9)

    def test_rate_includes_efficiencies(self):
        det = DetectionModel(det_eff_810=0.5, det_eff_532=0.4, conversion_eff=0.1)
        assert coincidence_rate(PHI_P, "H", "H", SRC, det) == pytest.approx(
            15.0 * 0.5 * 0.4 * 0.1 * 0.5, rel=1e-12)

    def test_empty_settings_rejected(self):
        with pytest.raises(ValueError):
            expected_counts(PHI_P, [], SRC, DET, 1.0)


class TestSimulateCounts:
    def test_deterministic_for_fixed_seed(self):
        settings = [("H", "H"), ("D", "D"), ("R", "L")]
        a = simulate_counts(PHI_P, settings, SRC, DET, 100.0, seed=5)
        b = simulate_counts(PHI_P, settings, SRC, DET, 100.0, seed=5)
        assert a == b

    def test_repetitions_differ(self):
        settings = [("H", "H")] * 4
        a = simulate_counts(PHI_P, settings, SRC, DET, 100.0, seed=5, repetition=0)
        b = simulate_counts(PHI_P, settings, SRC, DET, 100.0, seed=5, repetition=1)
        assert any(x.coincidences != y.coincidences for x, y in zip(a, b))

    def test_orthogonal_setting_samples_zero(self):
        recs = simulate_counts(PHI_P, [("H", "V")], SRC, DET, 100.0, seed=1)
        assert recs[0].coincidences == 0

    def test_coincidences_bounded_by_singles(self):
        det = DetectionModel(singles_rate_a=8.0, singles_rate_b=7.6,
                             coinc_window=1e-7)
        for seed in range(30):
            recs = simulate_counts(PHI_P, [("H", "H"), ("D", "D")],
                                   SRC, det, 50.0, seed=seed)
            for r in recs:
                assert r.coincidences <= min(r.singles_a, r.singles_b)

    def test_sample_mean_matches_rate(self):
        # 200 repetitions at a fixed stream: empirical mean within
        # 5 sigma / sqrt(200) of the analytic rate
        det = DetectionModel(singles_rate_a=1000.0, singles_rate_b=1000.0)
        settings = [("H", "H"), ("D", "A"), ("R", "R"), ("H", "D")]
        sums = np.zeros(len(settings))
        n_rep = 200
        for rep in range(n_rep):
            recs = simulate_counts(PHI_P, settings, SRC, det, 100.0,
                                   seed=77, repetition=rep)
            sums += [r.coincidences for r in recs]
        means = sums / n_rep
        expect = np.array([r.coincidences
                           for r in expected_counts(PHI_P, settings, SRC, det, 100.0)])
        tol = 5 * np.sqrt(expect) / np.sqrt(n_rep)
        assert np.all(np.abs(means - expect) <= tol)

    def test_accidental_estimate_recorded(self):
        det = DetectionModel(singles_rate_a=1000.0, singles_rate_b=1000.0,
                             coinc_window=3e-9)
        recs = simulate_counts(PHI_P, [("H", "V")], SRC, det, 100.0, seed=2)
        assert recs[0].accidental_estimate == pytest.approx(1000.0 * 1000.0 * 3e-9 * 100.0)


class TestProcessCounts:
    def test_identity_channel_probabilities(self):
        recs = expected_process_counts(lambda r: r, [("H", "H"), ("H", "V"), ("D", "D")],
                                       rate=1000.0, duration=1.0)
        assert recs[0].coincidences == pytest.approx(1000.0)
        assert recs[1].coincidences == pytest.approx(0.0, abs=1e-9)
        assert recs[2].coincidences == pytest.approx(1000.0)

    def test_lossy_channel_scales_rate(self):
        params = ConversionParams(eta_h=0.5, eta_v=0.5)
        recs = expected_process_counts(lambda r: convert_qubit(r, params),
                                       [("H", "H")], rate=1000.0, duration=1.0)
        assert recs[0].coincidences == pytest.approx(250.0)

    def test_simulated_deterministic(self):
        a = simulate_process_counts(lambda r: r, [("H", "H")], 100.0, 1.0, seed=3)
        b = simulate_process_counts(lambda r: r, [("H", "H")], 100.0, 1.0, seed=3)
        assert a == b


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        records = [
            CountRecord("H", "V", 100.0, 33.0, 12345, 67890, 15.807924300000002),
            CountRecord("22.5", "112.5", 1.0, 0.0, 0, 0, 0.0),
            CountRecord("D", "R", 0.5, 7.25, 10, 9, 1e-9),
        ]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, records)
        assert read_counts_csv(path) == records

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_counts_csv(path)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CountRecord("H", "H", 0.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            CountRecord("H", "H", 1.0, -1.0, 1, 1)

    @pytest.mark.parametrize("field", ["duration", "coincidences", "accidental_estimate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(setting_a="H", setting_b="H", duration=1.0, coincidences=1.0,
                      singles_a=1, singles_b=1, accidental_estimate=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CountRecord(**kwargs)

    def test_csv_nan_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_counts_csv(path, [CountRecord("H", "V", 1.0, 3.0, 5, 5, 0.5)])
        path.write_text(path.read_text() + "V,H,1.0,nan,5,5,0.5\n")
        with pytest.raises(ValueError, match="coincidences must be finite"):
            read_counts_csv(path)

    @pytest.mark.parametrize("row", ["V,H,1.0,abc,5,5,0.5", "V,H,1.0,3.0"])
    def test_csv_malformed_row_is_count_data_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        write_counts_csv(path, [CountRecord("H", "V", 1.0, 3.0, 5, 5, 0.5)])
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(CountDataError, match="line 3"):
            read_counts_csv(path)


class TestStreams:
    def test_substream_stable(self):
        assert substream(9, 1, 2).integers(1 << 30) == substream(9, 1, 2).integers(1 << 30)
        assert substream(9, 1, 2).integers(1 << 30) != substream(9, 2, 1).integers(1 << 30)

    def test_stage_seeds_distinct(self):
        seeds = {stage_seed(42, s)
                 for s in ("state_input", "state_output", "process", "chsh", "monte_carlo")}
        assert len(seeds) == 5

    def test_poisson_resamples_equal_per_sample_streams(self):
        means = [0.0, 0.4, 3.0, 17.5, 1234.0]
        draws = poisson_resamples(means, 50, seed=77)
        assert draws.shape == (50, 5) and draws.dtype == float
        for s, row in enumerate(draws):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(s,)))
            assert row.tolist() == [float(c) for c in rng.poisson(np.array(means))]

    def test_poisson_resamples_need_two_samples(self):
        with pytest.raises(ValueError):
            poisson_resamples([1.0], 1, seed=0)

    def test_stage_seed_rejects_unknown(self):
        with pytest.raises(ValueError):
            stage_seed(1, "warmup")
