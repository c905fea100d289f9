"""Round-trip tests for report serialization and the INI configuration."""
import tempfile
from dataclasses import fields, is_dataclass
from functools import reduce
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entconv.chsh import ChshSettings
from entconv.config import (DETECTION_KEYS, FIELDS, Acquisition, ConfigError, ExperimentConfig,
                            ProcessStage, default_config, load_config, save_config,
                            tuned_source_state)
from entconv.conversion import (BudgetInputs, ConversionParams, DetectionModel,
                                EfficiencyParams, SourceModel)
from entconv.reports import (emit_keyvalues, emit_matrix, emit_report,
                             parse_keyvalues, parse_matrix, parse_report)
from entconv.states import check_density_matrix
from entconv.tomography import TomographyOptions

DATA = Path(__file__).parent / "data"
# The keys written since [process] eta_h/eta_v joined the format; files
# written before then lack exactly these lines.
ADDED_LINES = ("eta_h = 1.0\n", "eta_v = 1.0\n")
# ExperimentConfig fields stored outside the field table: the werner/custom
# branch of [source] and the [detection.<stage>] sections.
NOT_IN_TABLE = {"source.p", "source.state", "detection"}


def same_config(a, b) -> bool:
    """Exact equality of two config trees (ExperimentConfig.__eq__ raises on
    the ndarray source state)."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same_config(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_config(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and repr(a) == repr(b)


def leaf_paths(cls: type, prefix: str = ""):
    for name, kind in get_type_hints(cls).items():
        if is_dataclass(kind):
            yield from leaf_paths(kind, f"{prefix}{name}.")
        else:
            yield prefix + name


def random_density_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.real(np.trace(rho))


def round_trip(config: ExperimentConfig) -> ExperimentConfig:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.ini"
        save_config(config, path)
        return load_config(path)


reals = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
angles = st.floats(0.0, 180.0, exclude_max=True)
channels = st.builds(ConversionParams, eta_h=st.floats(1e-3, 1.0), eta_v=unit,
                     theta=reals, dephase=unit)
detections = st.builds(DetectionModel, det_eff_810=unit, det_eff_532=unit,
                       conversion_eff=unit, coinc_window=positive,
                       singles_rate_a=non_negative, singles_rate_b=non_negative)
configs = st.builds(
    ExperimentConfig,
    seed=st.integers(0, 2 ** 64),
    noiseless=st.booleans(),
    source=st.one_of(
        st.builds(SourceModel, kind=st.just("werner"), p=unit, pair_rate=non_negative),
        st.builds(SourceModel, kind=st.just("custom"), pair_rate=non_negative,
                  state=st.integers(0, 2 ** 32 - 1).map(random_density_matrix))),
    conversion=channels,
    detection=st.fixed_dictionaries({"input": detections, "output": detections,
                                     "chsh": detections}),
    acquisition=st.builds(Acquisition, input_duration=positive, output_duration=positive,
                          process_duration=positive, chsh_duration=positive),
    chsh=st.builds(ChshSettings, alpha=angles, alpha_prime=angles, beta=angles,
                   beta_prime=angles),
    chsh_source_p=unit,
    process=st.builds(ProcessStage, rate=positive, channel=channels,
                      accidental_rate=non_negative),
    tomography=st.builds(TomographyOptions, max_iters=st.integers(1, 10 ** 6),
                         rel_tol=positive),
    mc_samples=st.integers(2, 10 ** 6),
    efficiency=st.builds(
        BudgetInputs, power_in=positive, power_out=positive, lambda_in=positive,
        lambda_out=positive, optical_loss=st.floats(0.0, 1.0, exclude_max=True),
        pair_rate_in=positive, pair_rate_converted=positive,
        fiber_coupling=st.floats(0.0, 1.0, exclude_min=True),
        per_crystal_pump_factor=positive, focus_position_factor=positive,
        efficiency=st.builds(EfficiencyParams, pump_power=positive, lambda_1=positive,
                             lambda_2=positive, lambda_p=positive, n_1=positive,
                             n_2=positive, d_eff=positive, crystal_length=positive,
                             h_m=positive)))


identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)
# keys that end in the matrix marker's word must not start the matrix block
report_keys = st.one_of(identifiers, identifiers.map(lambda k: k + "_matrix"), st.just("matrix"))
report_floats = st.one_of(st.floats(allow_nan=False),
                          st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, float("inf"),
                                           float("-inf")]))


@st.composite
def complex_matrices(draw):
    n = draw(st.integers(1, 4))
    m = np.empty(n * n, dtype=complex)  # re + 1j * im would turn an infinite re into nan
    m.real = draw(st.lists(report_floats, min_size=n * n, max_size=n * n))
    m.imag = draw(st.lists(report_floats, min_size=n * n, max_size=n * n))
    return m.reshape(n, n)


def typed(text: str, like):
    """A parsed report value as the type of the emitted value ``like``."""
    return {"True": True, "False": False}[text] if isinstance(like, bool) else type(like)(text)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(report_keys, st.one_of(st.booleans(), st.integers(), report_floats)),
       st.one_of(st.none(), complex_matrices()))
def test_report_round_trip_property(items, matrix):
    text = emit_keyvalues(items) if matrix is None else emit_report(items, matrix)
    parsed, back = parse_report(text)
    assert list(parsed) == list(items)
    for key, value in items.items():
        # repr tells -0.0 from 0.0 and keeps every float digit
        assert repr(typed(parsed[key], value)) == repr(value)
    if matrix is None:
        assert back is None
    else:
        assert back.shape == matrix.shape
        assert np.array_equal(back.view(np.int64), matrix.view(np.int64))  # bit for bit


class TestKeyValueBlocks:
    def test_round_trip(self):
        items = {"s_value": 2.615370000001, "converged": True, "iterations": 42,
                 "label": "output"}
        parsed = parse_keyvalues(emit_keyvalues(items))
        assert float(parsed["s_value"]) == items["s_value"]
        assert parsed["converged"] == "True"
        assert int(parsed["iterations"]) == 42
        assert parsed["label"] == "output"

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_keyvalues("just some text\n")

    def test_comments_and_blanks_skipped(self):
        parsed = parse_keyvalues("# comment\n\nx = 1\n")
        assert parsed == {"x": "1"}


class TestMatrixBlocks:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(1)
        for dim in (2, 4):
            m = rng.normal(size=(dim, dim)) * 10.0 ** int(rng.integers(-9, 9)) \
                + 1j * rng.normal(size=(dim, dim))
            assert np.array_equal(parse_matrix(emit_matrix(m)), m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            parse_matrix("1.0 0.0 2.0 0.0\n")

    def test_rejects_odd_tokens(self):
        with pytest.raises(ValueError, match="pairs"):
            parse_matrix("1.0 0.0 2.0\n")

    def test_report_with_matrix(self):
        items = {"fidelity": 0.9671234, "converged": True}
        m = np.eye(4, dtype=complex) / 4
        parsed, matrix = parse_report(emit_report(items, m))
        assert float(parsed["fidelity"]) == items["fidelity"]
        assert np.array_equal(matrix, m)

    def test_report_without_matrix(self):
        parsed, matrix = parse_report(emit_keyvalues({"a": 1.0}))
        assert matrix is None
        assert float(parsed["a"]) == 1.0


class TestConfig:
    def test_default_is_valid(self):
        config = default_config()
        check_density_matrix(config.source.state)
        assert config.detection["output"].conversion_eff < 1e-3

    def test_tuned_source_state_physical(self):
        check_density_matrix(tuned_source_state())

    def test_save_load_round_trip(self, tmp_path):
        config = default_config()
        path = tmp_path / "exp.ini"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.seed == config.seed
        assert loaded.mc_samples == config.mc_samples
        assert np.array_equal(loaded.source.state, config.source.state)
        assert loaded.source.pair_rate == config.source.pair_rate
        assert loaded.conversion == config.conversion
        assert loaded.detection == config.detection
        assert loaded.acquisition == config.acquisition
        assert loaded.chsh == config.chsh
        assert loaded.chsh_source_p == config.chsh_source_p
        assert loaded.process == config.process
        assert loaded.tomography == config.tomography
        assert loaded.efficiency == config.efficiency

    def test_werner_source_round_trip(self, tmp_path):
        config = default_config()
        config.source.kind = "werner"
        config.source.p = 0.925
        config.source.state = None
        path = tmp_path / "werner.ini"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded.source.kind == "werner"
        assert loaded.source.p == 0.925

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_invalid_value(self, tmp_path):
        config = default_config()
        path = tmp_path / "bad.ini"
        save_config(config, path)
        text = path.read_text().replace("dephase = 0.99065", "dephase = 1.4")
        path.write_text(text)
        with pytest.raises(ConfigError, match="invalid config"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "partial.ini"
        path.write_text("[run]\nseed = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_config_matches_fixture(self, tmp_path):
        path = tmp_path / "default.ini"
        save_config(default_config(), path)
        assert path.read_bytes() == (DATA / "default.ini").read_bytes()

    def test_file_without_added_keys_loads_default(self, tmp_path):
        text = (DATA / "default.ini").read_text()
        for line in ADDED_LINES:
            assert text.count(line) == 1
            text = text.replace(line, "")
        path = tmp_path / "old.ini"
        path.write_text(text)
        assert same_config(load_config(path), default_config())

    @pytest.mark.parametrize("path, value", [("process.channel.eta_h", 0.5),
                                             ("process.channel.eta_v", 0.25)])
    def test_formerly_dropped_field_round_trips(self, path, value):
        config = default_config()
        owner, _, name = path.rpartition(".")
        setattr(reduce(getattr, owner.split("."), config), name, value)
        assert same_config(round_trip(config), config)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(configs)
    def test_every_field_round_trips(self, config):
        assert same_config(round_trip(config), config)

    def test_table_covers_every_field(self):
        paths = [f.path for f in FIELDS]
        keys = [(f.section, f.key) for f in FIELDS]
        assert len(set(paths)) == len(paths) and len(set(keys)) == len(keys)
        assert not set(paths) & NOT_IN_TABLE
        assert set(paths) | NOT_IN_TABLE == set(leaf_paths(ExperimentConfig))
        assert sorted(name for _, name in DETECTION_KEYS) == sorted(
            f.name for f in fields(DetectionModel))

    @pytest.mark.parametrize("old, new, message", [
        ("coinc_window_s = 3e-09", "coinc_window_s = nan",
         r"\[detection.input\] coinc_window_s: 'nan' is not a finite number"),
        ("pair_rate_cps = 73000.0", "pair_rate_cps = inf",
         r"\[source\] pair_rate_cps: 'inf' is not a finite number"),
        ("rel_tol = 1e-10", "rel_tol = -inf", r"\[tomography\] rel_tol: '-inf'"),
        ("noiseless = False", "noiseless = true", r"\[run\] noiseless: invalid bool 'true'"),
        ("max_iters = 5000", "max_iters = 5e3", r"\[tomography\] max_iters: invalid int"),
        ("mc_samples = 100", "mc_sample = 5", r"unknown key \[run\] mc_sample"),
        ("singles_rate_b_cps = 0.0", "singles_rate_b_cps = 0.0\nsingles_rate_c_cps = 0.0",
         r"unknown key \[detection.chsh\] singles_rate_c_cps"),
        ("[chsh]", "[chsh_settings]", r"unknown section \[chsh_settings\]"),
        ("[detection.output]", "[detection.outptu]", r"unknown detection stage 'outptu'"),
        ("[acquisition]", "[detection.outptu]\n" + "".join(
            f"{key} = 0.5\n" for key, _ in DETECTION_KEYS) + "\n[acquisition]",
         r"unknown detection stage 'outptu'"),
        ("seed = 103", "seed = -1", "seed must be >= 0"),
        ("dephase = 0.99065", "dephase = 1.4", r"\[conversion\] dephase must be in \[0, 1\]"),
        ("dephase = 0.98529183", "dephase = 1.4", r"\[process\] dephase must be in \[0, 1\]"),
        ("rate_cps = 20000.0", "rate_cps = 0.0", r"\[process\] process rate must be > 0"),
        ("optical_loss = 0.16", "optical_loss = 1.0",
         r"\[efficiency\] optical_loss must be in \[0, 1\)"),
        ("det_eff_532 = 0.5", "det_eff_532 = 1.5",
         r"\[detection.output\] det_eff_532 must be in \[0, 1\], got 1.5"),
        ("\t0.4894971116915896 0.0 0.05321647669192113", "\tnan 0.0 0.05321647669192113",
         r"\[source\] state: density matrix has a non-finite entry"),
        ("0.007645419291124082 0.0", "0.007645419291124082 0.5",
         r"\[source\] state: matrix not Hermitian"),
    ])
    def test_strict_values_and_names(self, tmp_path, old, new, message):
        text = (DATA / "default.ini").read_text()
        assert old in text
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_file_without_section_header(self, tmp_path):
        path = tmp_path / "headless.ini"
        path.write_text("seed = 1\n")
        with pytest.raises(ConfigError, match="invalid config"):
            load_config(path)

    def test_unknown_source_kind(self, tmp_path):
        config = default_config()
        path = tmp_path / "kind.ini"
        save_config(config, path)
        text = path.read_text().replace("kind = custom", "kind = thermal")
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)


#: Every float field of the model dataclasses with a range check; the INI
#: loader rejects non-finite values before these run, the Python API does not.
RANGE_CHECKED = [(Acquisition, f.name) for f in fields(Acquisition)] + [
    (SourceModel, "p"), (SourceModel, "pair_rate"), (ConversionParams, "eta_h"),
    (ConversionParams, "eta_v"), (ConversionParams, "theta"), (ConversionParams, "dephase"),
    (ProcessStage, "rate"), (ProcessStage, "accidental_rate"),
    (TomographyOptions, "rel_tol")] + [
    (DetectionModel, name) for _, name in DETECTION_KEYS] + [
    (EfficiencyParams, f.name) for f in fields(EfficiencyParams)] + [
    (BudgetInputs, name) for name in ("power_in", "power_out", "lambda_in", "lambda_out",
                                      "optical_loss", "pair_rate_in", "pair_rate_converted",
                                      "fiber_coupling", "per_crystal_pump_factor",
                                      "focus_position_factor")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls, name", RANGE_CHECKED,
                         ids=[f"{cls.__name__}.{name}" for cls, name in RANGE_CHECKED])
def test_range_checks_reject_non_finite_values(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("name", ["per_crystal_pump_factor", "focus_position_factor"])
@pytest.mark.parametrize("value", [0.0, -3.0])
def test_budget_factors_must_be_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        BudgetInputs(**{name: value})


@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_werner_weight_checked_at_construction(p):
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        SourceModel(kind="werner", p=p)
    assert SourceModel(kind="custom", p=p).p == p  # a custom source has no weight
