"""Coincidence-count records, the Poissonian count simulator and CSV I/O.

A measurement setting is either one of the six polarization labels or an
analyzer angle in degrees (projector onto cos(t)|H> + sin(t)|V>). Settings
are stored as strings so both kinds serialize uniformly.

Random streams: record i of a sampled table draws from the SeedSequence
stream keyed (seed, i, 0), resample s from the one keyed (seed, s), so runs
are reproducible and settings can be sampled in any order or in parallel;
the PCG64 states of all keys of a call are computed in one vectorised pass;
which seed a table or its resamples take is the pipeline's. ``table_order``
matches a table's records to the settings an analysis expects, and raises
every layout fault of a count table.
"""
from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conversion import DetectionModel, SourceModel
from .states import PROJECTOR_LABELS, projector

CSV_HEADER = ["setting_a", "setting_b", "duration_s", "coincidences",
              "singles_a", "singles_b", "accidental_estimate"]


class CountDataError(ValueError):
    """Raised for a count record or count table that is not valid data."""


#: A record's domain: counts and accidentals at most MAX_COUNT (exact as floats, below
#: numpy's Poisson limit), durations (s) in DURATIONS, where rates cannot overflow.
MAX_COUNT, DURATIONS = 2.0 ** 53, (1e-9, 1e9)


@dataclass
class CountRecord:
    """Counts for one pair of analyzer settings, within the domain above.

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
        for name, (low, high) in (("duration", DURATIONS), ("coincidences", (0.0, MAX_COUNT)),
                                  ("accidental_estimate", (0.0, MAX_COUNT))):
            value = getattr(self, name)
            if not low <= value <= high:
                raise CountDataError(f"{name} must be in {[low, high]}, got {value!r}")


_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _streams(seed: int, keys):
    """For each row ``key`` of ``keys``, a generator that draws what
    ``default_rng(SeedSequence(entropy=seed, spawn_key=key))`` draws.

    Such a SeedSequence hashes into its 4-word pool the seed's 32-bit words,
    padded to 4, then the key's words. One SeedSequence of the seed's words
    gives the pool they leave; a uint32 port of ``mix_entropy`` and
    ``generate_state(4, uint64)`` takes it on for all keys at once, and
    PCG64's seeding runs on 128-bit Python ints. One PCG64, built per call,
    is reseated at each key, so every item is the same generator: take a
    key's draws before the next. A negative seed or key word, or a key word
    of 2**32 or more (which SeedSequence splits up), raises ``ValueError``.
    """
    seed, keys = operator.index(seed), np.asarray(keys)
    if seed < 0 or keys.dtype.kind not in "iu" or \
            keys.size and not 0 <= keys.min() <= keys.max() <= _M32:
        raise ValueError("seed and key words must be non-negative integers below 2**32")
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 128), 32)]
    # hashmix t of the pool xors a word with a[t] and multiplies it by a[t + 1]
    a = np.multiply.accumulate([0x43B0D7E5] + [0x931E8875] * 4 * (len(words) + keys.shape[1]),
                               dtype=np.uint32)
    b = np.multiply.accumulate([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)
    pool = np.tile(np.random.SeedSequence(words).pool, (len(keys), 1))
    for t, column in zip(range(4 * len(words), len(a), 4), keys.T.astype(np.uint32)):
        value = (column[:, None] ^ a[t:t + 4]) * a[t + 1:t + 5]
        pool = 0xCA01F9DD * pool - 0x4973F715 * (value ^ value >> 16)
        pool ^= pool >> 16
    state = (np.tile(pool, 2) ^ b[:8]) * b[1:]
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for s_hi, s_lo, i_hi, i_lo in (state ^ state >> 16).astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc
            & _M128, "inc": inc}}
        yield rng


def poisson_resamples(means, n_samples: int, seed: int) -> np.ndarray:
    """Poisson redraws of ``means``, one row per resample, as floats.

    Row s, of shape ``len(means)``, is one draw from the stream keyed
    (seed, s), so it does not depend on how many rows are drawn.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    means = np.asarray(means, dtype=float)
    return np.array([rng.poisson(means)
                     for rng in _streams(seed, [(s,) for s in range(n_samples)])], dtype=float)


#: Analyzer angles closer than this, in degrees modulo 180, are one setting.
_ANGLE_TOL = 1e-6


def table_order(records: list[CountRecord],
                settings: list[tuple[str | float, str | float]]) -> np.ndarray:
    """Index of the record of each expected setting pair, in the order of ``settings``.

    Labels match exactly; analyzer angles (numbers or their strings) match
    modulo 180 degrees within 1e-6, so "202.5" matches 22.5. A pair listed
    n times in ``settings`` takes n records, in file order. A table with too
    many or too few records, and a record of the wrong setting kind or that
    matches no pair still open, raise ``CountDataError``.
    """
    if len(records) != len(settings):
        raise CountDataError(f"expected {len(settings)} records, got {len(records)}")
    angles: tuple[list[float], list[float]] = ([], [])  # expected, per side

    def key(setting, side: int, expected: bool = False):
        """A label itself; an angle as the first expected angle it matches."""
        if setting in PROJECTOR_LABELS:
            return setting
        try:
            angle = float(setting) % 180.0
        except ValueError:
            return None
        for k in angles[side]:
            if abs((angle - k + 90.0) % 180.0 - 90.0) < _ANGLE_TOL:
                return k
        if expected:
            angles[side].append(angle)
            return angle
        return None

    slots: dict[tuple, list[int]] = {}
    for n, (a, b) in enumerate(settings):
        slots.setdefault((key(a, 0, True), key(b, 1, True)), []).append(n)
    order = [0] * len(settings)
    for i, r in enumerate(records):
        open_slots = slots.get((r.setting_a, r.setting_b))  # a label pair is its own key
        if open_slots is None:
            open_slots = slots.get((key(r.setting_a, 0), key(r.setting_b, 1)))
        if not open_slots:
            fault = "duplicate setting pair" if open_slots is not None else \
                f"no such pair among the {'angle' if angles[0] else 'label'} settings"
            raise CountDataError(f"record {i + 1} ({r.setting_a}, {r.setting_b}): {fault}")
        order[open_slots.pop(0)] = i
    return np.array(order)


def setting_projector(setting: str) -> np.ndarray:
    """2x2 projector for a polarization label or an analyzer angle in degrees."""
    s = str(setting).strip()
    if s in PROJECTOR_LABELS:
        return projector(s)
    try:
        t = np.radians(float(s))
    except ValueError:
        raise ValueError(f"setting must be one of {PROJECTOR_LABELS} or an angle, "
                         f"got {setting!r}") from None
    v = np.array([np.cos(t), np.sin(t)], dtype=complex)
    return np.outer(v, v.conj())


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


def _poisson_rows(means: np.ndarray, seed: int) -> list[list[int]]:
    """Poisson draws of each row i of ``means``, in column order, from its own
    stream keyed (seed, i, 0), one scalar draw per element: the same draws as
    one array draw per row, without its per-call argument checks."""
    return [[rng.poisson(x) for x in row] for rng, row
            in zip(_streams(seed, [(i, 0) for i in range(len(means))]), means.tolist())]


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
                    seed: int) -> list[CountRecord]:
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
            in zip(first, second, _poisson_rows(means, seed))]


def expected_process_counts(channel, settings: list[tuple[str, str]], rate: float,
                            duration: float, accidental_rate: float = 0.0) -> list[CountRecord]:
    """Noise-free process-tomography records (input label, measurement label)."""
    first, second, p = _probabilities(settings, channel=channel)
    acc = accidental_rate * duration
    return [CountRecord(k, m, duration, mean, int(round(mean)), int(round(mean)),
                        accidental_estimate=acc)
            for k, m, mean in zip(first, second, (rate * p * duration + acc).tolist())]


def simulate_process_counts(channel, settings: list[tuple[str, str]], rate: float,
                            duration: float, seed: int,
                            accidental_rate: float = 0.0) -> list[CountRecord]:
    """Poisson-sampled process-tomography records.

    Single-arm detection: the singles fields mirror the coincidence counts.
    """
    first, second, p = _probabilities(settings, channel=channel)
    draws = _poisson_rows(((rate * p + accidental_rate) * duration)[:, None], seed)
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
