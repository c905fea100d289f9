"""Unit tests for count simulation and CSV I/O."""
import csv
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entconv.config import default_config
from entconv.conversion import (ConversionParams, DetectionModel, SourceModel, convert,
                                convert_qubit, source_state)
from entconv.counts import (CSV_HEADER, CountDataError, CountRecord, expected_counts,
                            expected_process_counts, joint_projector, parse_setting,
                            poisson_resamples, read_counts_csv, setting_projector,
                            simulate_counts, simulate_process_counts, stage_seed, substream,
                            write_counts_csv)
from entconv.states import PROJECTOR_LABELS, bell_state, ket2dm, projector, werner_state
from entconv.tomography import tomography_settings

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
        (rec,) = expected_counts(PHI_P, [("H", "H")], SRC, det, 1.0)
        assert rec.accidental_estimate == 0.0
        assert rec.coincidences == pytest.approx(15.0 * 0.5 * 0.4 * 0.1 * 0.5, rel=1e-12)

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

    @pytest.mark.parametrize("row", ["V,H,1.0,abc,5,5,0.5", "V,H,1.0,3.0", "V,H,1.0,3.0,5,5",
                                     "H,H,1.0,5.0,10,10,0.0,999"])
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


# ---------------------------------------------------------------------------
# The per-record generators and the asdict-based writer that the batched core
# replaced, kept as references: the core must reproduce them field for field
# and byte for byte.

def legacy_coincidence_rate(rho, setting_a, setting_b, source, det):
    p = float(np.real(np.trace(joint_projector(setting_a, setting_b) @ rho)))
    p = min(max(p, 0.0), 1.0)
    return source.pair_rate * det.conversion_eff * det.det_eff_810 * det.det_eff_532 * p


def legacy_expected_counts(rho, settings, source, det, duration):
    acc = det.accidental_rate * duration
    out = []
    for a, b in settings:
        a, b = str(a), str(b)
        mean = legacy_coincidence_rate(rho, a, b, source, det) * duration + acc
        out.append(CountRecord(a, b, duration, mean,
                               int(round(det.singles_rate_a * duration)),
                               int(round(det.singles_rate_b * duration)),
                               accidental_estimate=acc))
    return out


def legacy_simulate_counts(rho, settings, source, det, duration, seed, repetition=0):
    acc_rate = det.accidental_rate
    records = []
    for i, (a, b) in enumerate(settings):
        a, b = str(a), str(b)
        rng = substream(seed, i, repetition)
        mean_c = (legacy_coincidence_rate(rho, a, b, source, det) + acc_rate) * duration
        n_c = int(rng.poisson(mean_c))
        extra_a = det.singles_rate_a * duration - mean_c
        extra_b = det.singles_rate_b * duration - mean_c
        s_a = n_c + int(rng.poisson(max(extra_a, 0.0)))
        s_b = n_c + int(rng.poisson(max(extra_b, 0.0)))
        records.append(CountRecord(a, b, duration, n_c, s_a, s_b,
                                   accidental_estimate=acc_rate * duration))
    return records


def legacy_process_rate(channel, setting_in, setting_meas, rate):
    rho_in = setting_projector(setting_in)
    p = float(np.real(np.trace(setting_projector(setting_meas) @ channel(rho_in))))
    return rate * max(p, 0.0)


def legacy_expected_process_counts(channel, settings, rate, duration, accidental_rate=0.0):
    out = []
    for k, m in settings:
        mean = legacy_process_rate(channel, str(k), str(m), rate) * duration + \
            accidental_rate * duration
        out.append(CountRecord(str(k), str(m), duration, mean,
                               int(round(mean)), int(round(mean)),
                               accidental_estimate=accidental_rate * duration))
    return out


def legacy_simulate_process_counts(channel, settings, rate, duration, seed, repetition=0,
                                   accidental_rate=0.0):
    records = []
    for i, (k, m) in enumerate(settings):
        rng = substream(seed, i, repetition)
        mean = (legacy_process_rate(channel, str(k), str(m), rate) + accidental_rate) * duration
        n = int(rng.poisson(mean))
        records.append(CountRecord(str(k), str(m), duration, n, n, n,
                                   accidental_estimate=accidental_rate * duration))
    return records


def legacy_write_counts_csv(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            row = asdict(r)
            w.writerow([row["setting_a"], row["setting_b"], repr(row["duration"]),
                        repr(float(row["coincidences"])), row["singles_a"],
                        row["singles_b"], repr(row["accidental_estimate"])])


def field_reprs(records):
    """Type and repr of every field of every record, so 0.0 and -0.0 or 3 and
    3.0 count as different."""
    return [[(type(v), repr(v)) for v in (getattr(r, f.name) for f in fields(r))]
            for r in records]


LABEL_SETTINGS = tomography_settings()
CHSH_SETTINGS = [(repr(a), repr(b))
                 for a, b in default_config().chsh.measurement_angles()]
CHANNELS = [ConversionParams(),
            ConversionParams(eta_h=0.9, eta_v=0.6, theta=0.3, dephase=0.97),
            ConversionParams(eta_h=1.0, eta_v=0.2, theta=2.5, dephase=0.5),
            ConversionParams(eta_h=0.0, eta_v=0.7, theta=-1.0, dephase=0.0)]


def pair_stages(config):
    """(rho, settings, detection, duration) of the three pair stages of run_simulate."""
    rho_src = source_state(config.source)
    rho_conv, _ = convert(rho_src, config.conversion)
    acq = config.acquisition
    return [(rho_src, LABEL_SETTINGS, config.detection["input"], acq.input_duration),
            (rho_conv, LABEL_SETTINGS, config.detection["output"], acq.output_duration),
            (werner_state(config.chsh_source_p), CHSH_SETTINGS, config.detection["chsh"],
             acq.chsh_duration)]


class TestBatchedGeneratorMatchesPerRecordLoops:
    @pytest.mark.parametrize("seed", [103, 1, 2, 77, 2024])
    def test_default_config_pair_stages(self, seed):
        config = default_config()
        for rho, settings_, det, duration in pair_stages(config):
            assert field_reprs(simulate_counts(rho, settings_, config.source, det, duration,
                                               seed)) == \
                field_reprs(legacy_simulate_counts(rho, settings_, config.source, det,
                                                   duration, seed))
            assert field_reprs(expected_counts(rho, settings_, config.source, det,
                                               duration)) == \
                field_reprs(legacy_expected_counts(rho, settings_, config.source, det, duration))

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("accidental_rate", [0.0, 500.0])
    def test_process_channels(self, channel, accidental_rate):
        fn = lambda r: convert_qubit(r, channel)
        for seed in (103, 5, 6):
            args = (fn, LABEL_SETTINGS, 1000.0, 10.0, seed)
            assert field_reprs(simulate_process_counts(
                *args, accidental_rate=accidental_rate)) == \
                field_reprs(legacy_simulate_process_counts(
                    *args, accidental_rate=accidental_rate))
        assert field_reprs(expected_process_counts(
            fn, LABEL_SETTINGS, 1000.0, 10.0, accidental_rate=accidental_rate)) == \
            field_reprs(legacy_expected_process_counts(
                fn, LABEL_SETTINGS, 1000.0, 10.0, accidental_rate=accidental_rate))

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_converted_states_with_accidentals(self, channel):
        """The conversion channel on the pair source, with singles high enough
        for a nonzero accidental rate, label and CHSH-angle settings, and a
        repetition other than 0."""
        config = default_config()
        try:
            rho, _ = convert(source_state(config.source), channel)
        except ValueError:
            rho = werner_state(0.7)
        det = DetectionModel(det_eff_810=0.4, det_eff_532=0.3, conversion_eff=0.5,
                             coinc_window=1e-6, singles_rate_a=9e3, singles_rate_b=4e3)
        for settings_ in (LABEL_SETTINGS, CHSH_SETTINGS, [("H", 22.5), (-10.0, "R")]):
            for repetition in (0, 3):
                assert field_reprs(simulate_counts(rho, settings_, config.source, det, 20.0,
                                                   9, repetition)) == \
                    field_reprs(legacy_simulate_counts(rho, settings_, config.source, det,
                                                       20.0, 9, repetition))
            assert field_reprs(expected_counts(rho, settings_, config.source, det, 20.0)) == \
                field_reprs(legacy_expected_counts(rho, settings_, config.source, det, 20.0))

    def test_csv_bytes_equal_asdict_writer(self, tmp_path):
        config = default_config()
        tables = [simulate_counts(rho, s, config.source, det, duration, 4)
                  for rho, s, det, duration in pair_stages(config)]
        tables += [expected_counts(rho, s, config.source, det, duration)
                   for rho, s, det, duration in pair_stages(config)]
        tables.append(expected_process_counts(lambda r: convert_qubit(r, CHANNELS[2]),
                                              LABEL_SETTINGS, 1000.0, 10.0, 500.0))
        tables.append([CountRecord("H", "V", 1, 3, 5, 5),
                       CountRecord("22.5", "-0.0", 0.5, -0.0, 0, 10 ** 30, 1e-300)])
        for i, records in enumerate(tables):
            write_counts_csv(tmp_path / f"new{i}.csv", records)
            legacy_write_counts_csv(tmp_path / f"old{i}.csv", records)
            assert (tmp_path / f"new{i}.csv").read_bytes() == \
                (tmp_path / f"old{i}.csv").read_bytes()


finite_nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
angle_setting = st.floats(allow_nan=False, allow_infinity=False).map(repr)
setting = st.one_of(st.sampled_from(PROJECTOR_LABELS), angle_setting)
count_records = st.builds(
    CountRecord,
    setting_a=setting, setting_b=setting,
    duration=st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                       allow_infinity=False),
    coincidences=finite_nonneg,
    singles_a=st.integers(min_value=0, max_value=10 ** 40),
    singles_b=st.integers(min_value=0, max_value=10 ** 40),
    accidental_estimate=finite_nonneg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(count_records, min_size=1, max_size=8))
def test_csv_round_trip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "counts.csv"
    write_counts_csv(path, records)
    back = read_counts_csv(path)
    assert field_reprs(back) == field_reprs(records)
