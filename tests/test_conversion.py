"""Unit tests for the conversion channel and the efficiency model."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

import entconv
from entconv import conversion
from entconv.config import default_config

from entconv.conversion import (BudgetInputs, ConversionError, ConversionParams,
                                DetectionModel, EfficiencyParams, SourceModel,
                                convert, convert_qubit, efficiency_budget,
                                focusing_factor, p_max, p_max_from_efficiency,
                                sfg_efficiency, source_state)
from entconv.states import (bell_state, check_density_matrix, fidelity, ket2dm,
                            tangle, trace_distance, werner_state)

PHI_P = ket2dm(bell_state("phi+"))


def random_density_matrix(rng, dim=4, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestSourceModel:
    def test_werner_pure_limit(self):
        model = SourceModel(kind="werner", p=1.0)
        assert np.allclose(source_state(model), PHI_P)

    def test_werner_mixed_limit(self):
        model = SourceModel(kind="werner", p=0.0)
        assert np.allclose(source_state(model), np.eye(4) / 4)

    def test_werner_tuned_fidelity(self):
        rho = source_state(SourceModel(kind="werner", p=0.925))
        assert fidelity(rho, bell_state("phi+")) == pytest.approx(0.94375, abs=1e-12)

    def test_custom_passthrough(self):
        rho = werner_state(0.3)
        model = SourceModel(kind="custom", state=rho)
        assert np.allclose(source_state(model), rho)

    def test_custom_requires_state(self):
        with pytest.raises(ValueError, match="explicit state"):
            source_state(SourceModel(kind="custom"))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            source_state(SourceModel(kind="werner", p=1.5))

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SourceModel(kind="thermal")


class TestConvert:
    def test_identity_channel(self):
        rho_out, prob = convert(PHI_P, ConversionParams())
        assert trace_distance(rho_out, PHI_P) < 1e-12
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_pi_phase_gives_phi_minus(self):
        rho_out, _ = convert(PHI_P, ConversionParams(theta=np.pi))
        assert fidelity(rho_out, bell_state("phi-")) == pytest.approx(1.0, abs=1e-12)

    def test_single_branch_postselection(self):
        rho_out, prob = convert(PHI_P, ConversionParams(eta_h=1.0, eta_v=0.0))
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        assert trace_distance(rho_out, hh) < 1e-12
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_success_probability_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density_matrix(rng)
            params = ConversionParams(eta_h=rng.uniform(0.1, 1.0),
                                      eta_v=rng.uniform(0.1, 1.0),
                                      theta=rng.uniform(0, 2 * np.pi),
                                      dephase=rng.uniform(0, 1))
            k = params.kraus()
            expected = float(np.real(np.trace(
                np.kron(np.eye(2), k.conj().T @ k) @ rho)))
            _, prob = convert(rho, params)
            assert prob == pytest.approx(expected, abs=1e-12)

    def test_output_always_physical(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            params = ConversionParams(eta_h=rng.uniform(0.05, 1.0),
                                      eta_v=rng.uniform(0.05, 1.0),
                                      theta=rng.uniform(0, 2 * np.pi),
                                      dephase=rng.uniform(0, 1))
            rho_out, prob = convert(rho, params)
            check_density_matrix(rho_out, herm_tol=1e-10)
            assert 0.0 < prob <= 1.0 + 1e-12

    def test_tangle_non_increasing_for_balanced_conversion(self):
        # With eta_h = eta_v the channel is a local unitary plus dephasing,
        # so it cannot create entanglement.
        rng = np.random.default_rng(13)
        for _ in range(300):
            rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            eta = rng.uniform(0.1, 1.0)
            params = ConversionParams(eta_h=eta, eta_v=eta,
                                      theta=rng.uniform(0, 2 * np.pi),
                                      dephase=rng.uniform(0, 1))
            rho_out, _ = convert(rho, params)
            assert tangle(rho_out) <= tangle(rho) + 1e-9

    def test_unbalanced_filtering_can_concentrate_entanglement(self):
        # Post-selected filtering is a known entanglement concentration
        # primitive; this pins down why the monotonicity property above is
        # stated for balanced conversion only.
        amp = np.array([0.99, 0.0, 0.0, np.sqrt(1 - 0.99 ** 2)], dtype=complex)
        rho = ket2dm(amp)
        rho_out, _ = convert(rho, ConversionParams(eta_h=0.2, eta_v=1.0))
        assert tangle(rho_out) > tangle(rho) + 0.1

    def test_zero_success_raises(self):
        hv = np.zeros((4, 4), dtype=complex)
        hv[1, 1] = 1.0  # |HV><HV|: second qubit V only
        with pytest.raises(ConversionError):
            convert(hv, ConversionParams(eta_h=1.0, eta_v=0.0))

    def test_rejects_single_qubit_input(self):
        with pytest.raises(ValueError):
            convert(np.eye(2) / 2, ConversionParams())

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ConversionParams(eta_h=0.0, eta_v=0.0)
        with pytest.raises(ValueError):
            ConversionParams(dephase=1.5)


def kron_convert(rho, params):
    """Reference: (I x K) rho (I x K)^dag with every H/V coherence of the second
    qubit damped, renormalized, and its success probability."""
    k2 = np.kron(np.eye(2, dtype=complex), params.kraus())
    raw = k2 @ rho @ k2.conj().T
    success = float(np.real(np.trace(raw)))
    idx = np.arange(4)
    raw[(idx[:, None] % 2) != (idx[None, :] % 2)] *= params.dephase
    return raw / success, success


@st.composite
def states_and_channels(draw):
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    a = (x[:16] + 1j * x[16:]).reshape(4, 4)
    rho = a @ a.conj().T + 1e-3 * np.eye(4)
    params = ConversionParams(eta_h=draw(st.floats(0.05, 1.0)), eta_v=draw(st.floats(0.05, 1.0)),
                              theta=draw(st.floats(0.0, 2 * np.pi)),
                              dephase=draw(st.floats(0.0, 1.0)))
    return rho / np.trace(rho).real, params


class TestConvertBlocks:
    """``convert`` applies ``convert_qubit`` to the four 2x2 blocks of the state."""

    def test_default_config_bitwise(self):
        config = default_config()
        rho_out, success = convert(config.source.state, config.conversion)
        ref_out, ref_success = kron_convert(config.source.state, config.conversion)
        assert success == ref_success
        np.testing.assert_array_equal(rho_out, ref_out)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(states_and_channels())
    def test_matches_the_kron_formula(self, case):
        rho, params = case
        rho_out, success = convert(rho, params)
        ref_out, ref_success = kron_convert(rho, params)
        assert success == pytest.approx(ref_success, rel=1e-15)
        assert np.max(np.abs(rho_out - ref_out)) <= 1e-15 * np.max(np.abs(ref_out))

    def test_convert_qubit_on_a_stack(self):
        rng = np.random.default_rng(14)
        params = ConversionParams(eta_h=0.7, eta_v=0.4, theta=1.1, dephase=0.8)
        stack = rng.normal(size=(3, 5, 2, 2)) + 1j * rng.normal(size=(3, 5, 2, 2))
        out = convert_qubit(stack, params)
        assert out.shape == stack.shape
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(out[idx], convert_qubit(stack[idx], params))


class TestConvertQubit:
    def test_trace_is_conversion_probability(self):
        params = ConversionParams(eta_h=0.5, eta_v=0.3)
        out = convert_qubit(np.eye(2, dtype=complex) / 2, params)
        assert np.trace(out).real == pytest.approx((0.25 + 0.09) / 2, abs=1e-12)

    def test_dephasing_damps_coherence(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = convert_qubit(rho, ConversionParams(dephase=0.4))
        assert out[0, 1] == pytest.approx(0.2, abs=1e-12)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)


class TestSfgEfficiency:
    def test_unit_at_p_max(self):
        assert sfg_efficiency(307.6, 307.6) == 1.0

    def test_quarter_power(self):
        assert sfg_efficiency(25.0, 100.0) == pytest.approx(0.5, abs=1e-12)

    def test_reference_power_point(self):
        # 1 W at the P_max implied by the 0.8% single-crystal anchor
        pmax = p_max_from_efficiency(0.008, 1.0)
        assert pmax == pytest.approx(307.6, abs=0.1)
        assert sfg_efficiency(1.0, pmax) == pytest.approx(0.008, abs=1e-12)

    def test_monotone_below_p_max(self):
        pmax = 308.0
        powers = np.linspace(0.0, pmax, 200)
        vals = [sfg_efficiency(p, pmax) for p in powers]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_small_power_limit(self):
        # eta/P -> (pi/2)^2 / P_max within 0.1% relative
        pmax = 308.0
        p = 1e-6
        slope = sfg_efficiency(p, pmax) / p
        assert slope == pytest.approx((np.pi / 2) ** 2 / pmax, rel=1e-3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sfg_efficiency(-1.0, 10.0)
        with pytest.raises(ValueError):
            sfg_efficiency(1.0, 0.0)


class TestPMax:
    def test_length_scaling(self):
        base = EfficiencyParams()
        doubled = EfficiencyParams(crystal_length=2 * base.crystal_length)
        assert p_max(doubled) == pytest.approx(p_max(base) / 2, rel=1e-12)

    def test_nonlinearity_scaling(self):
        base = EfficiencyParams()
        doubled = EfficiencyParams(d_eff=2 * base.d_eff)
        assert p_max(doubled) == pytest.approx(p_max(base) / 4, rel=1e-12)

    def test_reference_crystal_closure(self):
        # default KTP-like parameters close the loop with the efficiency anchor
        assert p_max(EfficiencyParams()) == pytest.approx(
            p_max_from_efficiency(0.008, 1.0), rel=1e-9)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            EfficiencyParams(crystal_length=0.0)


def oracle_focusing_factor(xi, n_tau=20001, sigmas=np.linspace(-0.5, 3.0, 1401)):
    """Independent dense-grid route: trapezoid integral, grid max over sigma."""
    tau = np.linspace(-xi, xi, n_tau)
    best = 0.0
    for s in sigmas:
        f = np.exp(1j * s * tau) / (1 + 1j * tau)
        h = abs(np.trapezoid(f, tau)) ** 2 / (4 * xi)
        best = max(best, h)
    return best


def quad_focusing_factor(xi):
    """The adaptive-quadrature route the Gauss-Legendre rule replaced:
    scipy.integrate.quad on each sigma of the same grid, then the same
    bounded refinement."""
    def overlap(sigma):
        val, _ = integrate.quad(
            lambda t: (np.cos(sigma * t) + t * np.sin(sigma * t)) / (1.0 + t * t),
            0.0, xi, limit=200)
        return (2.0 * val) ** 2 / (4.0 * xi)

    grid = np.linspace(-1.0, 8.0, 181)
    i = int(np.argmax([overlap(s) for s in grid]))
    res = optimize.minimize_scalar(lambda s: -overlap(s),
                                   bounds=(grid[max(0, i - 1)], grid[min(180, i + 1)]),
                                   method="bounded", options={"xatol": 1e-10})
    return -res.fun


class TestFocusingFactor:
    def test_weak_focus_limit(self):
        assert focusing_factor(0.001) == pytest.approx(0.001, rel=0.01)

    def test_reference_spot_size(self):
        assert 0.55 <= focusing_factor(0.8) <= 0.70

    def test_global_optimum(self):
        assert focusing_factor(2.84) == pytest.approx(1.068, abs=5e-3)

    def test_against_grid_oracle(self):
        for xi in (0.8, 2.84):
            assert focusing_factor(xi) == pytest.approx(oracle_focusing_factor(xi), abs=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            focusing_factor(0.0)

    @pytest.mark.parametrize("xi", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, xi):
        with pytest.raises(ValueError, match="xi must be finite"):
            focusing_factor(xi)

    @pytest.mark.parametrize("xi", [0.001, 0.25, 0.8, 2.84, 5.0, 20.0, 50.0])
    def test_matches_adaptive_quadrature(self, xi):
        assert focusing_factor(xi) == pytest.approx(quad_focusing_factor(xi), rel=1e-12)

    def test_starved_rule_raises(self, monkeypatch):
        monkeypatch.setattr(conversion, "_GL_RULE", np.polynomial.legendre.leggauss(2))
        with pytest.raises(RuntimeError, match="failed to converge"):
            focusing_factor(0.8)

    def test_package_import_leaves_scipy_integrate_unloaded(self):
        src = str(Path(entconv.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, entconv; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"


class TestEfficiencyBudget:
    def test_reference_calibration_chain(self):
        budget = efficiency_budget(BudgetInputs())
        # 270 nW from 28 uW with the 810 -> 532 wavelength correction
        assert budget["photon_conversion_observed"] == pytest.approx(0.00633, abs=5e-5)
        assert budget["photon_conversion_loss_corrected"] == pytest.approx(0.00754, abs=5e-5)
        # 15 cps from 7.3e4 cps, then the 50% fiber coupling
        assert budget["pair_conversion_effective"] == pytest.approx(2.05e-4, abs=2e-6)
        assert budget["pair_conversion_intrinsic"] == pytest.approx(4.1e-4, abs=5e-6)
        assert budget["theory_single_crystal"] == pytest.approx(0.008, abs=1e-5)
        assert budget["theory_two_crystal_setup"] == pytest.approx(0.00328, abs=1e-5)

    def test_trivial_chain_is_unity(self):
        inputs = BudgetInputs(power_in=1e-6, power_out=1e-6, lambda_in=810e-9,
                              lambda_out=810e-9, optical_loss=0.0)
        budget = efficiency_budget(inputs)
        assert budget["photon_conversion_observed"] == pytest.approx(1.0, abs=1e-12)
        assert budget["photon_conversion_loss_corrected"] == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetInputs(optical_loss=1.0)
        with pytest.raises(ValueError):
            BudgetInputs(power_in=0.0)


class TestDetectionModel:
    def test_accidental_rate(self):
        det = DetectionModel(singles_rate_a=1000.0, singles_rate_b=2000.0,
                             coinc_window=3e-9)
        assert det.accidental_rate == pytest.approx(6e-3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionModel(det_eff_810=1.2)
        with pytest.raises(ValueError):
            DetectionModel(coinc_window=0.0)
