"""Polarization-coherent up-conversion channel and efficiency modeling.

The conversion acts on the second photon of a pair: the H and V components
are converted with (amplitude) efficiencies eta_h, eta_v and relative phase
theta, and residual temporal walk-off is modeled as a single scalar damping
of the converted photon's H/V coherences. The channel is trace non-increasing;
``convert`` returns the renormalized post-selected state together with the
success probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.constants import c as _C_LIGHT, epsilon_0 as _EPS_0

from .states import check_density_matrix, werner_state


class ConversionError(ValueError):
    """Raised when the conversion channel annihilates the input state."""


@dataclass
class ConversionParams:
    """Knobs of the conversion channel acting on the second qubit."""

    eta_h: float = 1.0
    eta_v: float = 1.0
    theta: float = 0.0          # relative phase, radians
    dephase: float = 1.0        # coherence retention in [0, 1]

    def __post_init__(self):
        for name in ("eta_h", "eta_v"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.eta_h ** 2 + self.eta_v ** 2 <= 0.0:
            raise ValueError("at least one conversion efficiency must be nonzero")
        if not 0.0 <= self.dephase <= 1.0:
            raise ValueError("dephase must be in [0, 1]")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    def kraus(self) -> np.ndarray:
        """Single-qubit conversion operator K = diag(eta_h, eta_v e^{-i theta})."""
        return np.diag([self.eta_h, self.eta_v * np.exp(-1j * self.theta)]).astype(complex)


@dataclass
class SourceModel:
    """Photon-pair source: Werner mixture or an explicit density matrix."""

    kind: str = "werner"
    p: float = 1.0
    state: np.ndarray | None = None
    pair_rate: float = 1.0      # detected pairs per second at the source stage

    def __post_init__(self):
        if self.kind not in ("werner", "custom"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not 0.0 <= self.pair_rate < math.inf:
            raise ValueError("pair_rate must be finite and >= 0")


@dataclass
class DetectionModel:
    """Efficiencies and background of one acquisition stage."""

    det_eff_810: float = 1.0
    det_eff_532: float = 1.0
    conversion_eff: float = 1.0
    coinc_window: float = 3e-9  # seconds
    singles_rate_a: float = 0.0
    singles_rate_b: float = 0.0

    def __post_init__(self):
        for name in ("det_eff_810", "det_eff_532", "conversion_eff"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 < self.coinc_window < math.inf:
            raise ValueError("coinc_window must be finite and > 0")
        for name in ("singles_rate_a", "singles_rate_b"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")

    @property
    def accidental_rate(self) -> float:
        """Uniform accidental coincidence rate singles_a * singles_b * window."""
        return self.singles_rate_a * self.singles_rate_b * self.coinc_window


@dataclass
class EfficiencyParams:
    """Physical parameters of the sum-frequency stage (SI units)."""

    pump_power: float = 1.0             # W
    lambda_1: float = 810e-9            # input wavelength, m
    lambda_2: float = 532e-9            # output wavelength, m
    lambda_p: float = 1550e-9           # pump wavelength, m
    n_1: float = 1.84
    n_2: float = 1.89
    d_eff: float = 7.790758620343992e-12  # m/V
    crystal_length: float = 4.3e-3      # m
    h_m: float = 0.6                    # focusing factor

    def __post_init__(self):
        for name in ("pump_power", "lambda_1", "lambda_2", "lambda_p",
                     "n_1", "n_2", "d_eff", "crystal_length", "h_m"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")


def source_state(model: SourceModel) -> np.ndarray:
    """Density matrix produced by a SourceModel."""
    if model.kind == "werner":
        return werner_state(model.p)
    if model.state is None:
        raise ValueError("custom source requires an explicit state")
    return check_density_matrix(model.state)


def convert(rho_in: np.ndarray, params: ConversionParams) -> tuple[np.ndarray, float]:
    """Apply the conversion channel to the second qubit of a two-qubit state.

    ``convert_qubit`` maps each of the four 2x2 blocks of rho_in. Returns the
    renormalized output state and the success probability Tr[(I x K^dag K)
    rho_in]. Raises ConversionError when the input has no support on the
    converted subspace.
    """
    rho_in = check_density_matrix(np.asarray(rho_in, dtype=complex))
    if rho_in.shape != (4, 4):
        raise ValueError("convert expects a two-qubit state")
    raw = convert_qubit(rho_in.reshape(2, 2, 2, 2).swapaxes(1, 2), params)
    raw = raw.swapaxes(1, 2).reshape(4, 4)
    success = float(np.real(np.trace(raw)))
    if success <= 1e-15:
        raise ConversionError("conversion channel has zero success probability on this input")
    return raw / success, success


def convert_qubit(rho: np.ndarray, params: ConversionParams) -> np.ndarray:
    """Un-normalized single-qubit conversion map K rho K^dag with dephasing, per 2x2 matrix.

    The trace of the output is the conversion probability; callers that need
    a normalized state divide by it.
    """
    rho = np.asarray(rho, dtype=complex)
    k = params.kraus()
    out = k @ rho @ k.conj().T
    out[..., 0, 1] *= params.dephase
    out[..., 1, 0] *= params.dephase
    return out


def sfg_efficiency(pump_power: float, p_max: float) -> float:
    """Single-photon conversion efficiency sin^2(pi/2 sqrt(P_p / P_max))."""
    if pump_power < 0.0:
        raise ValueError("pump power must be >= 0")
    if p_max <= 0.0:
        raise ValueError("P_max must be > 0")
    return float(np.sin(np.pi / 2 * np.sqrt(pump_power / p_max)) ** 2)


def p_max(params: EfficiencyParams) -> float:
    """Pump power for unit conversion efficiency, in watts.

    P_max = c eps0 n1 n2 l1 l2 lp / (128 d_eff^2 L h_m) with exact SI constants.
    """
    num = _C_LIGHT * _EPS_0 * params.n_1 * params.n_2 * \
        params.lambda_1 * params.lambda_2 * params.lambda_p
    den = 128.0 * params.d_eff ** 2 * params.crystal_length * params.h_m
    return num / den


def p_max_from_efficiency(eta: float, pump_power: float) -> float:
    """Invert the efficiency curve: P_max such that sfg_efficiency(P_p) = eta."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    if pump_power <= 0.0:
        raise ValueError("pump power must be > 0")
    return pump_power / ((2.0 / np.pi) * np.arcsin(np.sqrt(eta))) ** 2


#: Gauss-Legendre rule on [-1, 1], applied on every panel of the focusing integral.
_GL_RULE = np.polynomial.legendre.leggauss(20)

#: Panel length times max(1, |sigma|). A 20-point panel this long integrates
#: the integrand to about 1e-15 of asinh(xi) for xi <= 50 and |sigma| <= 8.
_PANEL_PHASE = 3.0


def _focus_overlap(xi: float, sigma_max: float):
    """h(sigma) = |int_{-xi}^{xi} e^{i sigma t} / (1 + i t) dt|^2 / (4 xi).

    Returns h as a function vectorised over sigma, for |sigma| <= sigma_max.
    The imaginary part of the integrand is odd, so the integral is
    2 Re int_0^xi e^{i sigma t} (1 - i t) / (1 + t^2) dt, taken by a composite
    Gauss-Legendre rule whose panel count grows with xi * max(1, sigma_max).
    A node t = c + u of the panel centred at c has e^{i sigma t} =
    e^{i sigma c} e^{i sigma u}, so exponentials are taken per panel and per
    node offset only. Every evaluation is checked against the rule on twice
    the panels; a gap above 1e-12 asinh(xi), a bound on the integral of the
    integrand's modulus, raises RuntimeError.
    """
    nodes, weights = _GL_RULE
    n_panels = math.ceil(xi * max(1.0, sigma_max) / _PANEL_PHASE)
    rules = []
    for n in (n_panels, 2 * n_panels):
        half = 0.5 * xi / n
        centres = half * (2 * np.arange(n) + 1)
        t = centres[:, None] + half * nodes
        rules.append((half * nodes, centres, (half * weights * (1.0 - 1j * t) / (1.0 + t * t)).T))

    def overlap(sigma):
        sigma = np.asarray(sigma, dtype=float)
        coarse, val = (
            np.real(np.sum(np.exp(1j * np.multiply.outer(sigma, centres))
                           * (np.exp(1j * np.multiply.outer(sigma, offsets)) @ w), axis=-1))
            for offsets, centres, w in rules)
        err = float(np.max(np.abs(val - coarse)))
        if not err <= 1e-12 * math.asinh(xi):
            raise RuntimeError(f"focusing integral failed to converge (err={err:.2e})")
        h = 2.0 * val
        return h * h / (4.0 * xi)

    return overlap


def focusing_factor(xi: float) -> float:
    """Gaussian-beam focusing factor h_m(xi), maximized over phase mismatch.

    xi = L / (2 z_R) is the focusing parameter. The weak-focus limit is
    h_m -> xi; the global optimum is h_m(2.84) ~ 1.068.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi!r}")
    if xi <= 0.0:
        raise ValueError("xi must be > 0")
    grid = np.linspace(-1.0, 8.0, 181)
    vals = _focus_overlap(xi, 8.0)(grid)
    i = int(np.argmax(vals))
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    overlap = _focus_overlap(xi, max(abs(lo), abs(hi)))
    res = optimize.minimize_scalar(lambda s: -overlap(s), bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10})
    if not res.success:
        raise RuntimeError("phase-mismatch maximization failed")
    return float(-res.fun)


@dataclass
class BudgetInputs:
    """Measured quantities entering the conversion efficiency budget."""

    power_in: float = 28e-6         # W at the input wavelength
    power_out: float = 270e-9       # W measured at the output wavelength
    lambda_in: float = 810e-9
    lambda_out: float = 532e-9
    optical_loss: float = 0.16      # fractional loss on the measured output
    pair_rate_in: float = 7.3e4     # detected input pairs, cps
    pair_rate_converted: float = 15.0  # detected converted pairs, cps
    fiber_coupling: float = 0.5
    per_crystal_pump_factor: float = 0.5
    focus_position_factor: float = 0.82
    efficiency: EfficiencyParams = field(default_factory=EfficiencyParams)

    def __post_init__(self):
        for name in ("power_in", "power_out", "lambda_in", "lambda_out",
                     "pair_rate_in", "pair_rate_converted"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 <= self.optical_loss < 1.0:
            raise ValueError("optical_loss must be in [0, 1)")
        if not 0.0 < self.fiber_coupling <= 1.0:
            raise ValueError("fiber_coupling must be in (0, 1]")


def efficiency_budget(inputs: BudgetInputs) -> dict[str, float]:
    """Conversion-efficiency budget from calibration and pair-rate data.

    The observed photon-number conversion is the measured power ratio with
    the wavelength correction lambda_out/lambda_in; dividing out the known
    optical loss gives the value directly after the crystals. The pair-rate
    chain divides the effective pair conversion by the fiber coupling, and
    the theoretical chain scales the single-crystal efficiency by the
    half-pump and focus-position factors.
    """
    photon_conversion_observed = (inputs.power_out / inputs.power_in) * \
        (inputs.lambda_out / inputs.lambda_in)
    loss_corrected = photon_conversion_observed / (1.0 - inputs.optical_loss)
    effective_pair = inputs.pair_rate_converted / inputs.pair_rate_in
    intrinsic_pair = effective_pair / inputs.fiber_coupling
    pmax = p_max(inputs.efficiency)
    theory_single = sfg_efficiency(inputs.efficiency.pump_power, pmax)
    theory_setup = theory_single * inputs.per_crystal_pump_factor * \
        inputs.focus_position_factor
    return {
        "photon_conversion_observed": photon_conversion_observed,
        "photon_conversion_loss_corrected": loss_corrected,
        "pair_conversion_effective": effective_pair,
        "pair_conversion_intrinsic": intrinsic_pair,
        "p_max_w": pmax,
        "theory_single_crystal": theory_single,
        "theory_two_crystal_setup": theory_setup,
    }
