"""CHSH Bell-parameter analysis from states and from coincidence counts.

The measured combination is S = E(a,b) - E(a,b') + E(a',b) + E(a',b') with
polarization correlations E along analyzer angles in degrees. From count
data each correlation uses the four orthogonal-outcome settings
(a,b), (a,b+90), (a+90,b), (a+90,b+90) and first-order Poisson error
propagation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import CountDataError, CountRecord, parse_setting, poisson_resamples
from .states import SIGMA_X, SIGMA_Z, check_density_matrix


@dataclass
class ChshSettings:
    """The four analyzer angles, degrees in [0, 180)."""

    alpha: float = 0.0
    alpha_prime: float = 45.0
    beta: float = 22.5
    beta_prime: float = 67.5

    def __post_init__(self):
        for name in ("alpha", "alpha_prime", "beta", "beta_prime"):
            v = getattr(self, name)
            if not 0.0 <= v < 180.0:
                raise ValueError(f"{name} = {v} outside [0, 180)")

    def correlation_pairs(self) -> list[tuple[float, float]]:
        """Angle pairs in the order (a,b), (a,b'), (a',b), (a',b')."""
        return [(self.alpha, self.beta), (self.alpha, self.beta_prime),
                (self.alpha_prime, self.beta), (self.alpha_prime, self.beta_prime)]

    def measurement_angles(self) -> list[tuple[float, float]]:
        """The 16 angle combinations covering every orthogonal outcome."""
        out = []
        for a, b in self.correlation_pairs():
            for da in (0.0, 90.0):
                for db in (0.0, 90.0):
                    out.append(((a + da) % 180.0, (b + db) % 180.0))
        return out


@dataclass
class ChshResult:
    """CHSH parameter with its standard deviation and the four correlations."""

    correlations: tuple[float, float, float, float]
    s_value: float
    s_sigma: float

    def __post_init__(self):
        if self.s_sigma < 0.0:
            raise ValueError("s_sigma must be >= 0")
        for e in self.correlations:
            if abs(e) > 1.0 + 1e-9:
                raise ValueError(f"correlation {e} outside [-1, 1]")


def analyzer_observable(angle_deg: float) -> np.ndarray:
    """+-1-valued polarization observable cos(2t) Z + sin(2t) X."""
    t = np.radians(angle_deg)
    return np.cos(2 * t) * SIGMA_Z + np.sin(2 * t) * SIGMA_X


def correlation_from_state(rho: np.ndarray, a_deg: float, b_deg: float) -> float:
    """E(a, b) = Tr[rho (A(a) x A(b))]."""
    rho = check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("correlation requires a two-qubit state")
    obs = np.kron(analyzer_observable(a_deg), analyzer_observable(b_deg))
    e = float(np.real(np.trace(rho @ obs)))
    return min(max(e, -1.0), 1.0)


def _angles_match(x: float, y: float, tol: float = 1e-6) -> bool:
    d = abs((x - y) % 180.0)
    return min(d, 180.0 - d) < tol


def _record_angle(setting: str) -> float:
    kind, value = parse_setting(setting)
    if kind != "angle":
        raise ValueError(f"CHSH records need angle settings, got {setting!r}")
    return float(value)


def _outcome_signs(records: list[CountRecord], a0: float, b0: float) -> np.ndarray:
    """+-1 per record: outcomes on the settings rotated by 90 degrees count -1."""
    def outcome_sign(angle: float, ref: float) -> float:
        if _angles_match(angle, ref):
            return 1.0
        if _angles_match(angle, ref + 90.0):
            return -1.0
        raise ValueError(f"angle {angle} matches neither {ref} nor {ref}+90")

    return np.array([outcome_sign(_record_angle(r.setting_a), a0) *
                     outcome_sign(_record_angle(r.setting_b), b0) for r in records])


def correlation_from_counts(records: list[CountRecord],
                            reference: tuple[float, float] | None = None) -> tuple[float, float]:
    """Correlation and its Poisson standard deviation from four records.

    The records must hold the settings (a,b), (a,b+90), (a+90,b), (a+90,b+90)
    in any order; outcomes on the rotated settings count with sign -1.
    E = (N_ab + N_a'b' - N_ab' - N_a'b) / N_total. ``reference`` fixes which
    pair is (a, b); by default the smallest angles on each side are taken.
    """
    if len(records) != 4:
        raise ValueError("a correlation needs exactly 4 records")
    if reference is None:
        a0 = min(_record_angle(r.setting_a) for r in records)
        b0 = min(_record_angle(r.setting_b) for r in records)
    else:
        a0, b0 = reference
    signs = _outcome_signs(records, a0, b0)
    counts = np.array([r.coincidences for r in records], dtype=float)
    total = counts.sum()
    if total <= 0:
        raise CountDataError("zero total counts in correlation group")
    e = float(np.dot(signs, counts) / total)
    var = float(np.sum(counts * (signs - e) ** 2) / total ** 2)
    return e, np.sqrt(max(var, 0.0))


def _correlation_groups(settings: ChshSettings, records: list[CountRecord]) -> np.ndarray:
    """Indices of the four records of each correlation, (4, 4) in the order
    of ``correlation_pairs``, found by matching the records' angles against
    each correlation's four orthogonal combinations."""
    if len(records) != 16:
        raise ValueError(f"CHSH needs 16 records, got {len(records)}")
    groups = []
    used = [False] * 16
    for a, b in settings.correlation_pairs():
        group = []
        for i, r in enumerate(records):
            if used[i]:
                continue
            ra, rb = _record_angle(r.setting_a), _record_angle(r.setting_b)
            if (_angles_match(ra, a) or _angles_match(ra, a + 90.0)) and \
                    (_angles_match(rb, b) or _angles_match(rb, b + 90.0)):
                group.append(i)
                used[i] = True
        if len(group) != 4:
            raise ValueError(f"missing records for correlation at ({a}, {b})")
        groups.append(group)
    return np.array(groups)


def chsh_s(settings: ChshSettings,
           source: np.ndarray | list[CountRecord]) -> ChshResult:
    """CHSH S from a two-qubit state (exact) or from 16 count records.

    For count input the 16 records are grouped by matching their angles
    against each correlation's four orthogonal combinations; the S error is
    the root-sum-square of the four correlation sigmas.
    """
    pairs = settings.correlation_pairs()
    if isinstance(source, np.ndarray):
        corr = [correlation_from_state(source, a, b) for a, b in pairs]
        sig = [0.0] * 4
    else:
        corr, sig = [], []
        for (a, b), group in zip(pairs, _correlation_groups(settings, source)):
            e, s = correlation_from_counts([source[i] for i in group], reference=(a, b))
            corr.append(e)
            sig.append(s)
    s_value = corr[0] - corr[1] + corr[2] + corr[3]
    s_sigma = float(np.sqrt(sum(s * s for s in sig)))
    return ChshResult(correlations=tuple(corr), s_value=s_value, s_sigma=s_sigma)


def chsh_sigma_resampled(settings: ChshSettings, records: list[CountRecord],
                         n_samples: int = 200, seed: int = 0) -> float:
    """Monte-Carlo alternative to the first-order S error.

    Redraws every coincidence count from a Poisson law with mean equal to the
    observed count (``poisson_resamples``) and returns the sample standard
    deviation of S over the resamples; a cross-check on the delta-method
    ``s_sigma``.
    """
    groups = _correlation_groups(settings, records)
    signs = np.array([_outcome_signs([records[i] for i in group], a, b)
                      for group, (a, b) in zip(groups, settings.correlation_pairs())])
    counts = poisson_resamples([r.coincidences for r in records], n_samples, seed)[:, groups]
    total = counts.sum(axis=2)
    if np.any(total <= 0):
        raise CountDataError("zero total counts in correlation group")
    e = np.einsum("bkr,kr->bk", counts, signs) / total
    s_values = e[:, 0] - e[:, 1] + e[:, 2] + e[:, 3]
    return float(np.std(s_values, ddof=1))
