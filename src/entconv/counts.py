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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conversion import DetectionModel, SourceModel
from .states import PROJECTOR_LABELS, projector

CSV_HEADER = ["setting_a", "setting_b", "duration_s", "coincidences",
              "singles_a", "singles_b", "accidental_estimate"]


class CountDataError(ValueError):
    """Raised for a count record or count table that is not valid data."""


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
                raise CountDataError(f"{name} must be finite, got {value!r}")
        if self.duration <= 0.0:
            raise CountDataError("duration must be > 0")
        if self.coincidences < 0 or self.singles_a < 0 or self.singles_b < 0:
            raise CountDataError("counts must be >= 0")
        if self.accidental_estimate < 0.0:
            raise CountDataError("accidental_estimate must be >= 0")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, key...) via SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def poisson_resamples(means, n_samples: int, seed: int) -> np.ndarray:
    """Poisson redraws of ``means``, one row per resample, as floats.

    Row s, of shape ``len(means)``, comes from ``substream(seed, s)``, so it
    does not depend on how many rows are drawn.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    means = np.asarray(means, dtype=float)
    return np.array([substream(seed, s).poisson(means) for s in range(n_samples)],
                    dtype=float)


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


def _projector_stack(settings: list[str]) -> np.ndarray:
    """2x2 projector of each setting; each distinct setting is built once."""
    table = {s: setting_projector(s) for s in dict.fromkeys(settings)}
    return np.array([table[s] for s in settings])


def _probabilities(settings, rho: np.ndarray | None = None, channel=None):
    """Both settings of every record as strings, and its detection probability.

    One batched trace gives Tr[(P_a (x) P_b) rho], clipped onto [0, 1], for
    pair records, or Tr[P_meas E(P_in)], clipped at 0, for process records,
    with ``channel`` applied once per distinct input setting. Each value is
    computed with a single record's arithmetic.
    """
    if not settings:
        raise ValueError("settings must be nonempty")
    first, second = [str(a) for a, _ in settings], [str(b) for _, b in settings]
    if channel is None:
        pa, pb = _projector_stack(first), _projector_stack(second)
        ops = (pa[:, :, None, :, None] * pb[:, None, :, None, :]).reshape(-1, 4, 4)
        states = rho
    else:
        outputs = {s: channel(setting_projector(s)) for s in dict.fromkeys(first)}
        ops, states = _projector_stack(second), np.array([outputs[s] for s in first])
    p = np.real(np.trace(ops @ states, axis1=-2, axis2=-1))
    return first, second, np.clip(p, 0.0, 1.0) if channel is None else np.maximum(p, 0.0)


def _pair_rates(rho, settings, source: SourceModel, det: DetectionModel):
    """Settings and signal coincidence rate (cps) of every setting pair."""
    first, second, p = _probabilities(settings, rho=rho)
    return first, second, \
        source.pair_rate * det.conversion_eff * det.det_eff_810 * det.det_eff_532 * p


def _poisson_rows(means: np.ndarray, seed: int, repetition: int) -> list[list[int]]:
    """Poisson draws of each row i of ``means``, in column order, from its own
    stream substream(seed, i, repetition)."""
    return [substream(seed, i, repetition).poisson(row).tolist()
            for i, row in enumerate(means)]


def expected_counts(rho: np.ndarray, settings: list[tuple[str, str]],
                    source: SourceModel, det: DetectionModel,
                    duration: float) -> list[CountRecord]:
    """Noise-free records: every count field is set to its expectation."""
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    first, second, rate = _pair_rates(rho, settings, source, det)
    acc = det.accidental_rate * duration
    singles = (int(round(det.singles_rate_a * duration)),
               int(round(det.singles_rate_b * duration)))
    return [CountRecord(a, b, duration, mean, *singles, accidental_estimate=acc)
            for a, b, mean in zip(first, second, (rate * duration + acc).tolist())]


def simulate_counts(rho: np.ndarray, settings: list[tuple[str, str]],
                    source: SourceModel, det: DetectionModel, duration: float,
                    seed: int, repetition: int = 0) -> list[CountRecord]:
    """Draw Poissonian coincidence and singles counts for each setting pair.

    Coincidences are Poisson with mean (signal + accidental) * duration;
    the singles totals include the coincident events so that
    coincidences <= min(singles_a, singles_b) always holds.
    """
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    first, second, rate = _pair_rates(rho, settings, source, det)
    mean_c = (rate + det.accidental_rate) * duration
    means = np.stack([mean_c, np.maximum(det.singles_rate_a * duration - mean_c, 0.0),
                      np.maximum(det.singles_rate_b * duration - mean_c, 0.0)], axis=1)
    acc = det.accidental_rate * duration
    return [CountRecord(a, b, duration, n_c, n_c + extra_a, n_c + extra_b,
                        accidental_estimate=acc)
            for a, b, (n_c, extra_a, extra_b)
            in zip(first, second, _poisson_rows(means, seed, repetition))]


def expected_process_counts(channel, settings: list[tuple[str, str]], rate: float,
                            duration: float, accidental_rate: float = 0.0) -> list[CountRecord]:
    """Noise-free process-tomography records (input label, measurement label)."""
    first, second, p = _probabilities(settings, channel=channel)
    acc = accidental_rate * duration
    return [CountRecord(k, m, duration, mean, int(round(mean)), int(round(mean)),
                        accidental_estimate=acc)
            for k, m, mean in zip(first, second, (rate * p * duration + acc).tolist())]


def simulate_process_counts(channel, settings: list[tuple[str, str]], rate: float,
                            duration: float, seed: int, repetition: int = 0,
                            accidental_rate: float = 0.0) -> list[CountRecord]:
    """Poisson-sampled process-tomography records.

    Single-arm detection: the singles fields mirror the coincidence counts.
    """
    first, second, p = _probabilities(settings, channel=channel)
    draws = _poisson_rows(((rate * p + accidental_rate) * duration)[:, None], seed, repetition)
    acc = accidental_rate * duration
    return [CountRecord(k, m, duration, n, n, n, accidental_estimate=acc)
            for k, m, (n,) in zip(first, second, draws)]


def write_counts_csv(path: str | Path, records: list[CountRecord]) -> None:
    """Write records with the canonical header; floats use repr round-tripping."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow([r.setting_a, r.setting_b, repr(r.duration),
                        repr(float(r.coincidences)), r.singles_a, r.singles_b,
                        repr(r.accidental_estimate)])


def read_counts_csv(path: str | Path) -> list[CountRecord]:
    """Read records written by write_counts_csv.

    A wrong header, a row with a field too few or too many, an unparsable
    number or an invalid record raises ``CountDataError`` naming the line.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise CountDataError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(CSV_HEADER):
                raise CountDataError(f"{where}: expected {len(CSV_HEADER)} fields, "
                                     f"got {len(row)}")
            try:
                records.append(CountRecord(row[0], row[1], float(row[2]), float(row[3]),
                                           int(row[4]), int(row[5]), float(row[6])))
            except ValueError as exc:
                raise CountDataError(f"{where}: {exc}") from None
    return records
