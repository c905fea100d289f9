"""Experiment configuration: dataclasses, INI round-trip and tuned defaults.

The default configuration reproduces the reference experiment: a slightly
imperfect entangled source measured at 7.3e4 pairs/s, conversion of the
second photon at an intrinsic efficiency of 4.11e-4 with a small residual
dephasing, detection of ~15 converted pairs/s, and accidental levels set by
the singles rates and a 3 ns coincidence window.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, reduce
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .chsh import ChshSettings
from .conversion import (BudgetInputs, ConversionParams, DetectionModel,
                         EfficiencyParams, SourceModel)
from .reports import emit_matrix, parse_matrix
from .states import bell_state, check_density_matrix, ket2dm
from .tomography import TomographyOptions


class ConfigError(ValueError):
    """Raised for unreadable or inconsistent configuration input."""


# Tuned source/channel constants. The source is a mixture of a tilted
# entangled pure state with white noise,
#   rho = lam |psi><psi| + (1 - lam) I/4,
#   |psi> ~ cos(t1) cos(t2) |phi+> + sin(t1) cos(t2) |HV> + sin(t2) |VH>,
# and the conversion keeps DEPHASE of the converted photon's coherence.
# Together with the singles rates below this reproduces the reference
# fidelity/purity/tangle values before and after accidental subtraction.
SOURCE_MIX = 0.97006
SOURCE_TILT_1 = 0.07791
SOURCE_TILT_2 = 0.01286
CONVERSION_DEPHASE = 0.99065
CONVERSION_EFF_INTRINSIC = 4.11e-4

# Intrinsic conversion-process noise probed with the attenuated diode:
# relative phase and coherence retention of the converted polarization.
PROCESS_THETA = 0.03747652
PROCESS_DEPHASE = 0.98529183


def tuned_source_state() -> np.ndarray:
    """The tuned two-qubit source state described above."""
    psi = (np.cos(SOURCE_TILT_1) * np.cos(SOURCE_TILT_2) * bell_state("phi+")
           + np.sin(SOURCE_TILT_1) * np.cos(SOURCE_TILT_2) * np.array([0, 1, 0, 0], complex)
           + np.sin(SOURCE_TILT_2) * np.array([0, 0, 1, 0], complex))
    psi /= np.linalg.norm(psi)
    rho = SOURCE_MIX * ket2dm(psi) + (1.0 - SOURCE_MIX) * np.eye(4) / 4.0
    return check_density_matrix(rho)


@dataclass
class Acquisition:
    """Per-stage integration times in seconds."""

    input_duration: float = 1.0
    output_duration: float = 100.0
    process_duration: float = 100.0
    chsh_duration: float = 100.0

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < np.inf:
                raise ValueError(f"{f.name} must be finite and > 0")


@dataclass
class ProcessStage:
    """Diode-probe process tomography stage."""

    rate: float = 2e4               # detected cps per input state
    channel: ConversionParams = field(default_factory=lambda: ConversionParams(
        theta=PROCESS_THETA, dephase=PROCESS_DEPHASE))
    accidental_rate: float = 0.0    # cps per setting

    def __post_init__(self):
        if not 0.0 < self.rate < np.inf:
            raise ValueError("process rate must be > 0 and finite")
        if not 0.0 <= self.accidental_rate < np.inf:
            raise ValueError("accidental_rate must be finite and >= 0")


@dataclass
class ExperimentConfig:
    """Everything needed for a reproducible end-to-end simulated run."""

    seed: int = 103
    noiseless: bool = False  # emit expected counts instead of Poisson samples
    source: SourceModel = field(default_factory=lambda: SourceModel(
        kind="custom", state=tuned_source_state(), pair_rate=7.3e4))
    conversion: ConversionParams = field(default_factory=lambda: ConversionParams(
        eta_h=float(np.sqrt(CONVERSION_EFF_INTRINSIC)),
        eta_v=float(np.sqrt(CONVERSION_EFF_INTRINSIC)),
        theta=0.0, dephase=CONVERSION_DEPHASE))
    detection: dict[str, DetectionModel] = field(default_factory=lambda: {
        "input": DetectionModel(det_eff_810=1.0, det_eff_532=1.0, conversion_eff=1.0,
                                coinc_window=3e-9, singles_rate_a=326267.0,
                                singles_rate_b=326267.0),
        "output": DetectionModel(det_eff_810=1.0, det_eff_532=0.5,
                                 conversion_eff=CONVERSION_EFF_INTRINSIC,
                                 coinc_window=3e-9, singles_rate_a=7259.0,
                                 singles_rate_b=7259.0),
        "chsh": DetectionModel(det_eff_810=1.0, det_eff_532=0.5,
                               conversion_eff=CONVERSION_EFF_INTRINSIC,
                               coinc_window=3e-9, singles_rate_a=0.0,
                               singles_rate_b=0.0),
    })
    acquisition: Acquisition = field(default_factory=Acquisition)
    chsh: ChshSettings = field(default_factory=ChshSettings)
    chsh_source_p: float = 0.925
    process: ProcessStage = field(default_factory=ProcessStage)
    tomography: TomographyOptions = field(default_factory=TomographyOptions)
    mc_samples: int = 100
    efficiency: BudgetInputs = field(default_factory=BudgetInputs)

    def __post_init__(self):
        stages = ("input", "output", "chsh")
        for stage in self.detection:
            if stage not in stages:
                raise ConfigError(f"unknown detection stage {stage!r}")
        for stage in stages:
            if stage not in self.detection:
                raise ConfigError(f"missing detection stage {stage!r}")
        if not 0.0 <= self.chsh_source_p <= 1.0:
            raise ConfigError("chsh source_p must be in [0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mc_samples < 2:
            raise ConfigError(f"mc_samples must be >= 2, got {self.mc_samples}")


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


class Key(NamedTuple):
    """One INI key and the ExperimentConfig field it stores."""

    section: str
    key: str
    path: str               # dotted attribute path from ExperimentConfig
    optional: bool = False  # absent -> the field's dataclass default


# The INI layout in file order. Each value is formatted and parsed by the type
# of its field (float, int, bool or str). The [detection.<stage>] sections,
# written just before [acquisition], and the werner `p` / custom `state` key
# of [source] are written and read by hand.
FIELDS = (
    Key("run", "seed", "seed"),
    Key("run", "mc_samples", "mc_samples", optional=True),
    Key("run", "noiseless", "noiseless", optional=True),
    Key("source", "kind", "source.kind"),
    Key("source", "pair_rate_cps", "source.pair_rate"),
    Key("conversion", "eta_h", "conversion.eta_h"),
    Key("conversion", "eta_v", "conversion.eta_v"),
    Key("conversion", "theta_rad", "conversion.theta"),
    Key("conversion", "dephase", "conversion.dephase"),
    Key("acquisition", "input_duration_s", "acquisition.input_duration"),
    Key("acquisition", "output_duration_s", "acquisition.output_duration"),
    Key("acquisition", "process_duration_s", "acquisition.process_duration"),
    Key("acquisition", "chsh_duration_s", "acquisition.chsh_duration"),
    Key("chsh", "alpha_deg", "chsh.alpha"),
    Key("chsh", "alpha_prime_deg", "chsh.alpha_prime"),
    Key("chsh", "beta_deg", "chsh.beta"),
    Key("chsh", "beta_prime_deg", "chsh.beta_prime"),
    Key("chsh", "source_p", "chsh_source_p"),
    Key("process", "rate_cps", "process.rate"),
    Key("process", "theta_rad", "process.channel.theta"),
    Key("process", "dephase", "process.channel.dephase"),
    Key("process", "eta_h", "process.channel.eta_h", optional=True),
    Key("process", "eta_v", "process.channel.eta_v", optional=True),
    Key("process", "accidental_rate_cps", "process.accidental_rate", optional=True),
    Key("tomography", "max_iters", "tomography.max_iters"),
    Key("tomography", "rel_tol", "tomography.rel_tol"),
    Key("efficiency", "pump_power_w", "efficiency.efficiency.pump_power"),
    Key("efficiency", "lambda_in_m", "efficiency.efficiency.lambda_1"),
    Key("efficiency", "lambda_out_m", "efficiency.efficiency.lambda_2"),
    Key("efficiency", "lambda_pump_m", "efficiency.efficiency.lambda_p"),
    Key("efficiency", "n_in", "efficiency.efficiency.n_1"),
    Key("efficiency", "n_out", "efficiency.efficiency.n_2"),
    Key("efficiency", "d_eff_m_per_v", "efficiency.efficiency.d_eff"),
    Key("efficiency", "crystal_length_m", "efficiency.efficiency.crystal_length"),
    Key("efficiency", "h_m", "efficiency.efficiency.h_m"),
    Key("efficiency", "power_in_w", "efficiency.power_in"),
    Key("efficiency", "power_out_w", "efficiency.power_out"),
    Key("efficiency", "cal_lambda_in_m", "efficiency.lambda_in"),
    Key("efficiency", "cal_lambda_out_m", "efficiency.lambda_out"),
    Key("efficiency", "optical_loss", "efficiency.optical_loss"),
    Key("efficiency", "pair_rate_in_cps", "efficiency.pair_rate_in"),
    Key("efficiency", "pair_rate_converted_cps", "efficiency.pair_rate_converted"),
    Key("efficiency", "fiber_coupling", "efficiency.fiber_coupling"),
    Key("efficiency", "per_crystal_pump_factor", "efficiency.per_crystal_pump_factor"),
    Key("efficiency", "focus_position_factor", "efficiency.focus_position_factor"),
)

# The keys of every [detection.<stage>] section and their (float) DetectionModel fields.
DETECTION_KEYS = (
    ("det_eff_810", "det_eff_810"),
    ("det_eff_532", "det_eff_532"),
    ("conversion_eff", "conversion_eff"),
    ("coinc_window_s", "coinc_window"),
    ("singles_rate_a_cps", "singles_rate_a"),
    ("singles_rate_b_cps", "singles_rate_b"),
)

_hints = cache(get_type_hints)  # resolving string annotations takes ~0.2 ms a call


def _field_type(cls: type, path: str) -> type:
    return reduce(lambda owner, name: _hints(owner)[name], path.split("."), cls)


def _format(owner, path: str) -> str:
    value = reduce(getattr, path.split("."), owner)
    return repr(float(value)) if _field_type(type(owner), path) is float else str(value)


def _parse(cp: configparser.ConfigParser, section: str, key: str, kind: type):
    """[section] key as a finite float, an int, True/False or a str."""
    text = cp.get(section, key)  # NoSectionError/NoOptionError name what is missing
    try:
        value = {"True": True, "False": False}[text] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: invalid {kind.__name__} {text!r}") from None
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {text!r} is not a finite number")
    return value


def _checked(where: str, fn, **kwargs):
    """fn(**kwargs); a failed check names ``where`` in the INI file it came from."""
    try:
        return fn(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _build(cls: type, prefix: str, values: dict):
    """cls from the values at or below prefix; other fields keep their defaults."""
    kwargs = {}
    for name, kind in _hints(cls).items():
        if prefix + name in values:
            kwargs[name] = values[prefix + name]
        elif is_dataclass(kind):
            kwargs[name] = _build(kind, f"{prefix}{name}.", values)
    if not prefix:  # ExperimentConfig's own checks name their keys
        return cls(**kwargs)
    section = next(f.section for f in FIELDS if f.path.startswith(prefix))
    return _checked(f"[{section}]", cls, **kwargs)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write the configuration as an INI file; load_config inverts it."""
    cp = configparser.ConfigParser()
    for f in FIELDS:
        if f.section == "acquisition" and not cp.has_section(f.section):
            for stage, det in config.detection.items():
                cp[f"detection.{stage}"] = {key: _format(det, name) for key, name in DETECTION_KEYS}
        cp.read_dict({f.section: {f.key: _format(config, f.path)}})
    if config.source.kind == "werner":
        cp["source"]["p"] = _format(config, "source.p")
    else:
        cp["source"]["state"] = "\n" + emit_matrix(config.source.state).rstrip("\n")
    with open(path, "w") as fh:
        cp.write(fh)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an INI configuration written by save_config (or by hand).

    Unknown sections or keys, floats that are not finite and booleans other
    than True/False raise a ConfigError naming the section and key; a failed
    range check names its section.
    """
    cp = configparser.ConfigParser()
    try:
        if cp.read(path):
            return _from_ini(cp)
    except (configparser.Error, ValueError) as exc:  # ConfigError among them
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    raise ConfigError(f"cannot read config file {path}")


def _from_ini(cp: configparser.ConfigParser) -> ExperimentConfig:
    known = {"source": {"p", "state"}}
    for f in FIELDS:
        known.setdefault(f.section, set()).add(f.key)
    values = {"detection": {}}
    for section in cp.sections():
        stage = section.removeprefix("detection.") if section.startswith("detection.") else None
        allowed = known.get(section) if stage is None else dict(DETECTION_KEYS)
        if allowed is None:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in allowed:
                raise ConfigError(f"unknown key [{section}] {key}")
        if stage is not None:
            values["detection"][stage] = _checked(f"[{section}]", DetectionModel, **{
                name: _parse(cp, section, key, float) for key, name in DETECTION_KEYS})
    for f in FIELDS:
        if cp.has_option(f.section, f.key) or not f.optional:
            values[f.path] = _parse(cp, f.section, f.key, _field_type(ExperimentConfig, f.path))
    if values["source.kind"] == "werner":
        values["source.p"] = _parse(cp, "source", "p", float)
    elif values["source.kind"] == "custom":
        values["source.state"] = _checked("[source] state:", check_density_matrix,
                                          rho=parse_matrix(cp.get("source", "state")))
    return _build(ExperimentConfig, "", values)
