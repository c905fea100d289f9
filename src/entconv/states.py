"""Exact linear algebra for one- and two-qubit polarization states.

Everything here is plain numpy: state vectors are 1-D complex arrays,
density matrices are square complex arrays. The two-qubit computational
basis is ordered (HH, HV, VH, VV) throughout the package.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Pauli basis in the fixed order (I, X, Y, Z) used for process matrices.
PAULIS = (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_LABELS = ("I", "X", "Y", "Z")

#: Single-qubit polarization kets. D/A/R/L are the +-45 degree linear and
#: circular states, R = (H + iV)/sqrt(2), L = (H - iV)/sqrt(2).
KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "R": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "L": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}

PROJECTOR_LABELS = ("H", "V", "D", "A", "R", "L")

_BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}

_YY = np.kron(SIGMA_Y, SIGMA_Y)


def ket(label: str) -> np.ndarray:
    """Return the normalized single-qubit ket for one of H, V, D, A, R, L."""
    try:
        return KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None


def projector(label: str) -> np.ndarray:
    """Rank-1 projector |l><l| onto one of the six analysis states."""
    v = ket(label)
    return np.outer(v, v.conj())


def bell_state(kind: str) -> np.ndarray:
    """Return a two-qubit Bell state vector; kind is one of phi+/phi-/psi+/psi-."""
    try:
        return _BELL[kind].copy()
    except KeyError:
        raise ValueError(f"unknown Bell state {kind!r}") from None


def ket2dm(psi: np.ndarray) -> np.ndarray:
    """Outer product |psi><psi| of a state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def werner_state(p: float) -> np.ndarray:
    """Werner mixture p |phi+><phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner weight must be in [0, 1], got {p}")
    return p * ket2dm(_BELL["phi+"]) + (1.0 - p) * np.eye(4) / 4.0


def check_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                         eig_tol: float = 1e-10, trace_tol: float = 1e-10) -> np.ndarray:
    """Validate finite entries, Hermiticity, positivity and unit trace of a density matrix.

    Returns the matrix as a complex array; raises ValueError with the failed
    property otherwise. Dimensions 2 and 4 are accepted.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] not in (2, 4):
        raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has a non-finite entry")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > herm_tol:
        raise ValueError(f"matrix not Hermitian: max asymmetry {herm:.3e}")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace = {tr}, not 1 within {trace_tol}")
    lam_min = float(np.min(np.linalg.eigvalsh(rho)))
    if lam_min < -eig_tol:
        raise ValueError(f"negative eigenvalue {lam_min:.3e} below -{eig_tol}")
    return rho


def _clamp01(x, tol: float = 1e-10):
    """Clamp numerical noise just outside [0, 1] back onto the interval.

    One value comes back as a float; an array is clamped elementwise.
    """
    x = np.where((-tol <= x) & (x < 0.0), 0.0, np.where((1.0 < x) & (x <= 1.0 + tol), 1.0, x))
    return float(x) if x.ndim == 0 else x


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix (or a stack) via eigendecomposition."""
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Overlap fidelity between a state and a target.

    For a pure target ket this is <psi|rho|psi>. For a density-matrix target
    it is the squared Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,
    which reduces to the pure-state expression for rank-1 targets. A stack of
    states (leading axis) gives an array with one fidelity per state.
    """
    rho = np.asarray(rho, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if target.ndim == 1:
        if target.size != rho.shape[-1]:
            raise ValueError("state and target dimensions differ")
        return _clamp01(np.real(target.conj() @ rho @ target))
    if target.shape != rho.shape[-2:]:
        raise ValueError("state and target dimensions differ")
    sr = _sqrtm_psd(rho)
    inner = _sqrtm_psd(sr @ target @ sr)
    return _clamp01(np.real(np.trace(inner, axis1=-2, axis2=-1)) ** 2)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2), between 1/d (maximally mixed) and 1 (pure); per state for a stack."""
    rho = np.asarray(rho, dtype=complex)
    return _clamp01(np.real(np.trace(rho @ rho, axis1=-2, axis2=-1)))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix; per state for a stack.

    Computed from the singular values of sqrt(rho) (Y x Y) conj(sqrt(rho)),
    whose squares are the eigenvalues of rho (YxY) rho* (YxY); the singular
    value route avoids the sqrt-of-noise blowup for rank-deficient states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    sr = _sqrtm_psd(rho)
    lam = np.linalg.svd(sr @ _YY @ sr.conj(), compute_uv=False)
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return float(max(0.0, c)) if c.ndim == 0 else np.maximum(c, 0.0)


def tangle(rho: np.ndarray) -> float:
    """Squared Wootters concurrence; per state for a stack."""
    return _clamp01(concurrence(rho) ** 2)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of (a - b) for Hermitian matrices."""
    w = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.sum(np.abs(w)))


@dataclass
class MetricReport:
    """Fidelity / purity / tangle summary with standard errors.

    ``tangle`` is None for process reconstructions, where it is undefined.
    """

    fidelity: float
    purity: float
    tangle: float | None = None
    fidelity_err: float = 0.0
    purity_err: float = 0.0
    tangle_err: float = 0.0

    def __post_init__(self):
        self.fidelity = _clamp01(self.fidelity)
        self.purity = _clamp01(self.purity)
        if self.tangle is not None:
            self.tangle = _clamp01(self.tangle)
        for name in ("fidelity", "purity", "tangle"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
            e = getattr(self, name + "_err")
            if e < 0.0:
                raise ValueError(f"{name}_err must be >= 0")
