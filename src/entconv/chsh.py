"""CHSH Bell-parameter analysis from states and from coincidence counts.

The measured combination is S = E(a,b) - E(a,b') + E(a',b) + E(a',b') with
polarization correlations E along analyzer angles in degrees. Each uses the
four orthogonal-outcome settings (a,b), (a,b+90), (a+90,b), (a+90,b+90) with
outcome signs (+1, -1, -1, +1): count data with first-order Poisson errors, a
state by its detection probabilities, the noiseless limit of the counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import (CountDataError, CountRecord, _probabilities, poisson_resamples,
                     table_order)
from .states import check_density_matrix


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
        """The 16 angle combinations covering every orthogonal outcome, four
        per correlation: (a,b), (a,b+90), (a+90,b), (a+90,b+90)."""
        return [((a + da) % 180.0, (b + db) % 180.0) for a, b in self.correlation_pairs()
                for da in (0.0, 90.0) for db in (0.0, 90.0)]


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


#: Outcome sign of a correlation's four settings in ``measurement_angles``
#: order: (a,b), (a,b+90), (a+90,b), (a+90,b+90).
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _correlations(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = (N_ab - N_ab' - N_a'b + N_a'b') / N_total and its first-order
    Poisson sigma of each correlation of (..., 4, 4) counts in settings order."""
    total = counts.sum(axis=-1)
    if np.any(total <= 0):
        raise CountDataError("zero total counts in correlation group")
    e = (counts * _SIGNS).sum(axis=-1) / total
    var = (counts * (_SIGNS - e[..., None]) ** 2).sum(axis=-1) / total ** 2
    return e, np.sqrt(np.maximum(var, 0.0))


def _table_counts(settings: ChshSettings, records: list[CountRecord]) -> np.ndarray:
    """The records' coincidences in ``measurement_angles`` order."""
    order = table_order(records, settings.measurement_angles())
    return np.array([records[i].coincidences for i in order], dtype=float)


def chsh_s(settings: ChshSettings,
           source: np.ndarray | list[CountRecord]) -> ChshResult:
    """CHSH S from a two-qubit state (exact) or from 16 count records.

    Count records are matched to ``measurement_angles`` by ``table_order``,
    so their order in the file does not matter; the S error is the
    root-sum-square of the four correlation sigmas, and zero for a state.
    """
    if isinstance(source, np.ndarray):
        rho = check_density_matrix(source)
        if rho.shape != (4, 4):
            raise ValueError("correlation requires a two-qubit state")
        p = _probabilities(settings.measurement_angles(), rho)[2]
        corr, sig = _correlations(p.reshape(4, 4))[0], np.zeros(4)
    else:
        corr, sig = _correlations(_table_counts(settings, source).reshape(4, 4))
    s_value = corr[0] - corr[1] + corr[2] + corr[3]
    return ChshResult(correlations=tuple(corr.tolist()), s_value=float(s_value),
                      s_sigma=float(np.sqrt(np.sum(sig * sig))))


def chsh_sigma_resampled(settings: ChshSettings, records: list[CountRecord],
                         n_samples: int = 200, seed: int = 0) -> float:
    """Monte-Carlo alternative to the first-order S error.

    Redraws every coincidence count, in ``measurement_angles`` order, from a
    Poisson law with mean equal to the observed count (``poisson_resamples``)
    and returns the sample standard deviation of S over the resamples; a
    cross-check on the delta-method ``s_sigma``.
    """
    counts = poisson_resamples(_table_counts(settings, records), n_samples, seed)
    e, _ = _correlations(counts.reshape(-1, 4, 4))
    s_values = e[:, 0] - e[:, 1] + e[:, 2] + e[:, 3]
    return float(np.std(s_values, ddof=1))
