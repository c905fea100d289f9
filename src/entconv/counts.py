"""Coincidence-count records, the Poissonian count simulator and CSV I/O.

A measurement setting is either one of the six polarization labels or an
analyzer angle in degrees (projector onto cos(t)|H> + sin(t)|V>). Settings
are stored as strings so both kinds serialize uniformly.

Random streams: every sampled record draws from an independent generator
derived from (root seed, setting index, repetition) through SeedSequence
spawn keys, so runs are reproducible and settings can be sampled in any
order or in parallel.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .conversion import DetectionModel, SourceModel
from .states import PROJECTOR_LABELS, projector

CSV_HEADER = ["setting_a", "setting_b", "duration_s", "coincidences",
              "singles_a", "singles_b", "accidental_estimate"]


@dataclass
class CountRecord:
    """Counts for one pair of analyzer settings.

    ``accidental_estimate`` is the expected number of accidental coincidences
    over this record's duration (same units as ``coincidences``).
    """

    setting_a: str
    setting_b: str
    duration: float
    coincidences: float
    singles_a: int
    singles_b: int
    accidental_estimate: float = 0.0

    def __post_init__(self):
        for name in ("duration", "coincidences", "accidental_estimate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.duration <= 0.0:
            raise ValueError("duration must be > 0")
        if self.coincidences < 0 or self.singles_a < 0 or self.singles_b < 0:
            raise ValueError("counts must be >= 0")
        if self.accidental_estimate < 0.0:
            raise ValueError("accidental_estimate must be >= 0")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...) via SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def stage_seed(seed: int, stage: str) -> int:
    """Derive a per-stage root seed from the run seed and a stage name."""
    stages = ("state_input", "state_output", "process", "chsh", "monte_carlo")
    if stage not in stages:
        raise ValueError(f"unknown stage {stage!r}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(1000 + stages.index(stage),))
    return int(ss.generate_state(1, np.uint64)[0])


def parse_setting(setting: str) -> tuple[str, float | str]:
    """Classify a setting string as ("label", L) or ("angle", degrees)."""
    s = str(setting).strip()
    if s in PROJECTOR_LABELS:
        return "label", s
    try:
        return "angle", float(s)
    except ValueError:
        raise ValueError(f"setting must be one of {PROJECTOR_LABELS} or an angle, got {setting!r}") from None


def setting_projector(setting: str) -> np.ndarray:
    """2x2 projector for a polarization label or an analyzer angle in degrees."""
    kind, value = parse_setting(setting)
    if kind == "label":
        return projector(value)
    t = np.radians(value)
    v = np.array([np.cos(t), np.sin(t)], dtype=complex)
    return np.outer(v, v.conj())


def joint_projector(setting_a: str, setting_b: str) -> np.ndarray:
    """4x4 projector P_a (x) P_b for a setting pair."""
    return np.kron(setting_projector(setting_a), setting_projector(setting_b))


def coincidence_rate(rho: np.ndarray, setting_a: str, setting_b: str,
                     source: SourceModel, det: DetectionModel) -> float:
    """Expected signal coincidence rate (cps) for one setting pair."""
    p = float(np.real(np.trace(joint_projector(setting_a, setting_b) @ rho)))
    p = min(max(p, 0.0), 1.0)
    return source.pair_rate * det.conversion_eff * det.det_eff_810 * det.det_eff_532 * p


def expected_counts(rho: np.ndarray, settings: list[tuple[str, str]],
                    source: SourceModel, det: DetectionModel,
                    duration: float) -> list[CountRecord]:
    """Noise-free records: every count field is set to its expectation."""
    if not settings:
        raise ValueError("settings must be nonempty")
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    acc = det.accidental_rate * duration
    out = []
    for a, b in settings:
        a, b = str(a), str(b)
        mean = coincidence_rate(rho, a, b, source, det) * duration + acc
        out.append(CountRecord(a, b, duration, mean,
                               int(round(det.singles_rate_a * duration)),
                               int(round(det.singles_rate_b * duration)),
                               accidental_estimate=acc))
    return out


def simulate_counts(rho: np.ndarray, settings: list[tuple[str, str]],
                    source: SourceModel, det: DetectionModel, duration: float,
                    seed: int, repetition: int = 0) -> list[CountRecord]:
    """Draw Poissonian coincidence and singles counts for each setting pair.

    Coincidences are Poisson with mean (signal + accidental) * duration;
    the singles totals include the coincident events so that
    coincidences <= min(singles_a, singles_b) always holds.
    """
    if not settings:
        raise ValueError("settings must be nonempty")
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    acc_rate = det.accidental_rate
    records = []
    for i, (a, b) in enumerate(settings):
        a, b = str(a), str(b)
        rng = substream(seed, i, repetition)
        mean_c = (coincidence_rate(rho, a, b, source, det) + acc_rate) * duration
        n_c = int(rng.poisson(mean_c))
        extra_a = det.singles_rate_a * duration - mean_c
        extra_b = det.singles_rate_b * duration - mean_c
        s_a = n_c + int(rng.poisson(max(extra_a, 0.0)))
        s_b = n_c + int(rng.poisson(max(extra_b, 0.0)))
        records.append(CountRecord(a, b, duration, n_c, s_a, s_b,
                                   accidental_estimate=acc_rate * duration))
    return records


def process_rate(channel, setting_in: str, setting_meas: str, rate: float) -> float:
    """Expected detection rate rate * Tr[P_meas E(rho_in)] for a 1-qubit map.

    ``channel`` maps a 2x2 matrix to a 2x2 matrix and may be trace
    non-increasing; the lost trace simply lowers the count rate.
    """
    rho_in = setting_projector(setting_in)
    p = float(np.real(np.trace(setting_projector(setting_meas) @ channel(rho_in))))
    return rate * max(p, 0.0)


def expected_process_counts(channel, settings: list[tuple[str, str]], rate: float,
                            duration: float, accidental_rate: float = 0.0) -> list[CountRecord]:
    """Noise-free process-tomography records (input label, measurement label)."""
    if not settings:
        raise ValueError("settings must be nonempty")
    out = []
    for k, m in settings:
        mean = process_rate(channel, str(k), str(m), rate) * duration + accidental_rate * duration
        out.append(CountRecord(str(k), str(m), duration, mean,
                               int(round(mean)), int(round(mean)),
                               accidental_estimate=accidental_rate * duration))
    return out


def simulate_process_counts(channel, settings: list[tuple[str, str]], rate: float,
                            duration: float, seed: int, repetition: int = 0,
                            accidental_rate: float = 0.0) -> list[CountRecord]:
    """Poisson-sampled process-tomography records.

    Single-arm detection: the singles fields mirror the coincidence counts.
    """
    if not settings:
        raise ValueError("settings must be nonempty")
    records = []
    for i, (k, m) in enumerate(settings):
        rng = substream(seed, i, repetition)
        mean = (process_rate(channel, str(k), str(m), rate) + accidental_rate) * duration
        n = int(rng.poisson(mean))
        records.append(CountRecord(str(k), str(m), duration, n, n, n,
                                   accidental_estimate=accidental_rate * duration))
    return records


def write_counts_csv(path: str | Path, records: list[CountRecord]) -> None:
    """Write records with the canonical header; floats use repr round-tripping."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            row = asdict(r)
            w.writerow([row["setting_a"], row["setting_b"], repr(row["duration"]),
                        repr(float(row["coincidences"])), row["singles_a"],
                        row["singles_b"], repr(row["accidental_estimate"])])


def read_counts_csv(path: str | Path) -> list[CountRecord]:
    """Read records written by write_counts_csv."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for row in reader:
            if not row:
                continue
            records.append(CountRecord(row[0], row[1], float(row[2]), float(row[3]),
                                       int(row[4]), int(row[5]), float(row[6])))
    return records
