"""Unit tests for state/process reconstruction and Monte-Carlo errors."""
import numpy as np
import pytest

from entconv.conversion import ConversionParams, DetectionModel, SourceModel, convert_qubit
from entconv.counts import (CountDataError, CountRecord, expected_counts,
                            expected_process_counts, poisson_resamples, simulate_counts,
                            simulate_process_counts)
from entconv.states import (PAULIS, bell_state, check_density_matrix, fidelity,
                            ket2dm, projector, purity, trace_distance, werner_state)
from entconv.tomography import (_DESIGN, METRICS, ReconstructionError, _chi_of_choi,
                                _params_to_t, _retraction, _t_to_params,
                                _choi_of_chi, chi_to_transfer, TomographyOptions, channel_chi,
                                check_chi_matrix, identity_chi, linear_inversion_state,
                                mle_process, mle_state, mle_tables, monte_carlo_errors,
                                subtract_accidentals, tomography_settings, tp_violation)

SETTINGS = tomography_settings()
SRC = SourceModel(kind="werner", p=1.0, pair_rate=100.0)
DET = DetectionModel()
TIGHT = TomographyOptions(rel_tol=1e-14)


def noiseless_records(rho, rate=100.0, duration=30.0):
    src = SourceModel(kind="werner", p=1.0, pair_rate=rate)
    return expected_counts(rho, SETTINGS, src, DET, duration)


def random_density_matrix(rng, dim=4, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestSettings:
    def test_grid_shape(self):
        assert len(SETTINGS) == 36
        assert SETTINGS[0] == ("H", "H")
        assert len(set(SETTINGS)) == 36

    def test_process_grid(self):
        s = tomography_settings()
        assert len(s) == 36
        assert {a for a, _ in s} == set("HVDARL")
        assert {b for _, b in s} == set("HVDARL")


class TestSubtractAccidentals:
    def test_basic_subtraction(self):
        r = CountRecord("H", "H", 1.0, 100.0, 200, 200, accidental_estimate=20.0)
        out = subtract_accidentals([r])[0]
        assert out.coincidences == 80.0
        assert out.accidental_estimate == 20.0  # other fields unchanged

    def test_clamped_at_zero(self):
        r = CountRecord("H", "V", 1.0, 5.0, 10, 10, accidental_estimate=9.0)
        assert subtract_accidentals([r])[0].coincidences == 0.0

    def test_identity_without_accidentals(self):
        recs = [CountRecord("H", "H", 1.0, 50.0, 60, 60)]
        assert subtract_accidentals(recs) == recs

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        recs = [CountRecord("H", "H", 1.0, float(rng.integers(0, 30)), 100, 100,
                            accidental_estimate=float(rng.uniform(0, 40)))
                for _ in range(50)]
        assert all(r.coincidences >= 0 for r in subtract_accidentals(recs))


class TestLinearInversion:
    def test_design_matrix_has_full_rank(self):
        # the 36 settings determine all 16 Hermitian basis coefficients
        assert _DESIGN.shape == (36, 16)
        assert np.linalg.matrix_rank(_DESIGN) == 16

    def test_exact_on_noiseless_bell_data(self):
        rho = ket2dm(bell_state("phi+"))
        est = linear_inversion_state(noiseless_records(rho))
        assert np.max(np.abs(est - rho)) < 1e-10

    def test_exact_on_maximally_mixed(self):
        est = linear_inversion_state(noiseless_records(np.eye(4) / 4))
        assert np.max(np.abs(est - np.eye(4) / 4)) < 1e-10

    def test_noisy_bell_data_stays_close(self):
        # Poisson noise at ~750 mean counts per basis: inversion within 0.05
        rho = ket2dm(bell_state("phi+"))
        recs = simulate_counts(rho, SETTINGS, SourceModel(kind="werner", p=1.0, pair_rate=30.0),
                               DET, duration=100.0, seed=21)
        est = linear_inversion_state(recs)
        est = (est + est.conj().T) / 2
        assert trace_distance(est, rho) < 0.05

    def test_matches_per_record_least_squares(self):
        # reference: the design matrix built from the records as given, in
        # any order, and the basis expansion summed term by term
        rng = np.random.default_rng(27)
        recs = simulate_counts(random_density_matrix(rng), SETTINGS, SRC, DET, 5.0, seed=4)
        recs = [recs[i] for i in rng.permutation(len(recs))]
        basis = [np.kron(p1, p2) / 2.0 for p1 in PAULIS for p2 in PAULIS]
        family = {"H": 0, "V": 0, "D": 1, "A": 1, "R": 2, "L": 2}
        group = {}
        for r in recs:
            key = (family[r.setting_a], family[r.setting_b])
            group[key] = group.get(key, 0.0) + r.coincidences / r.duration
        design, probs = [], []
        for r in recs:
            key = (family[r.setting_a], family[r.setting_b])
            p = np.kron(projector(r.setting_a), projector(r.setting_b))
            design.append([float(np.real(np.trace(p @ b))) for b in basis])
            probs.append(r.coincidences / r.duration / group[key])
        x, *_ = np.linalg.lstsq(np.array(design), np.array(probs), rcond=None)
        ref = sum(xk * bk for xk, bk in zip(x, basis))
        ref = ref / np.trace(ref).real
        assert np.max(np.abs(linear_inversion_state(recs) - ref)) < 1e-12

    def test_incomplete_data_rejected(self):
        recs = noiseless_records(np.eye(4) / 4)[:-1]
        with pytest.raises(CountDataError, match="36"):
            linear_inversion_state(recs)

    def test_duplicate_setting_rejected(self):
        recs = noiseless_records(np.eye(4) / 4)
        recs[1] = CountRecord("H", "H", recs[1].duration, 1.0, 1, 1)
        with pytest.raises(CountDataError, match="duplicate"):
            linear_inversion_state(recs)


class TestMleState:
    def test_noiseless_bell_recovery(self):
        rho = ket2dm(bell_state("phi+"))
        result = mle_state(noiseless_records(rho), TIGHT)
        assert result.converged
        assert fidelity(result.estimate, bell_state("phi+")) > 1 - 1e-6

    def test_agrees_with_linear_inversion_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            rho = random_density_matrix(rng)
            recs = noiseless_records(rho)
            mle = mle_state(recs, TIGHT).estimate
            lin = linear_inversion_state(recs)
            assert trace_distance(mle, rho) < 1e-6
            assert trace_distance(mle, lin) < 1e-6

    def test_output_satisfies_state_invariants(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(rng)
        recs = simulate_counts(rho, SETTINGS, SRC, DET, 10.0, seed=1)
        est = mle_state(recs).estimate
        check_density_matrix(est)

    def test_likelihood_history_monotone(self):
        rng = np.random.default_rng(24)
        for seed in range(5):
            rho = random_density_matrix(rng)
            recs = simulate_counts(rho, SETTINGS, SRC, DET, 10.0, seed=seed)
            result = mle_state(recs)
            hist = result.history
            assert all(b >= a - 1e-9 * max(1.0, abs(a))
                       for a, b in zip(hist, hist[1:]))

    def test_count_rescaling_invariance(self):
        rng = np.random.default_rng(25)
        rho = random_density_matrix(rng)
        recs = simulate_counts(rho, SETTINGS, SRC, DET, 10.0, seed=7)
        base = mle_state(recs, TIGHT).estimate
        scaled = [CountRecord(r.setting_a, r.setting_b, r.duration,
                              r.coincidences * 1000.0, r.singles_a, r.singles_b,
                              r.accidental_estimate) for r in recs]
        est = mle_state(scaled, TIGHT).estimate
        assert trace_distance(base, est) < 1e-8

    def test_duration_scaling_uses_rates(self):
        # halving every duration at fixed counts doubles the inferred flux
        # but leaves the state estimate unchanged
        rng = np.random.default_rng(26)
        rho = random_density_matrix(rng)
        recs = simulate_counts(rho, SETTINGS, SRC, DET, 10.0, seed=8)
        fast = [CountRecord(r.setting_a, r.setting_b, r.duration / 2,
                            r.coincidences, r.singles_a, r.singles_b,
                            r.accidental_estimate) for r in recs]
        assert trace_distance(mle_state(recs, TIGHT).estimate,
                              mle_state(fast, TIGHT).estimate) < 1e-8

    def test_all_zero_counts_rejected(self):
        recs = [CountRecord(a, b, 1.0, 0.0, 0, 0) for a, b in SETTINGS]
        with pytest.raises(ReconstructionError, match="zero"):
            mle_state(recs)

    def test_angle_settings_rejected(self):
        recs = [CountRecord("22.5", "0.0", 1.0, 1.0, 1, 1)] * 36
        with pytest.raises(CountDataError, match="label"):
            mle_state(recs)


class TestChannelChi:
    def test_identity(self):
        chi = identity_chi()
        assert chi[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(chi - np.diag([1, 0, 0, 0]))) < 1e-12

    def test_pauli_unitaries_diagonal(self):
        for i in range(4):
            chi = channel_chi(lambda r, s=PAULIS[i]: s @ r @ s.conj().T)
            assert chi[i, i] == pytest.approx(1.0)
            assert np.trace(chi).real == pytest.approx(1.0)

    def test_depolarizing(self):
        chi = channel_chi(lambda r: sum(s @ r @ s for s in PAULIS) / 4)
        assert np.allclose(chi, np.eye(4) / 4)

    def test_transfer_round_trip(self):
        params = ConversionParams(eta_h=0.8, eta_v=0.6, theta=0.3, dephase=0.9)
        chi = channel_chi(lambda r: convert_qubit(r, params))
        apply = chi_to_transfer(chi)
        rng = np.random.default_rng(33)
        for _ in range(10):
            rho = random_density_matrix(rng, dim=2)
            assert np.allclose(apply(rho), convert_qubit(rho, params), atol=1e-12)


def random_chi(rng, n):
    """n random Hermitian chi matrices, neither PSD nor trace preserving."""
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2


class TestChoiChi:
    """The one Choi <-> chi map against the Pauli-sum formulas it replaced."""

    def test_round_trip(self):
        chi = random_chi(np.random.default_rng(40), 50)
        np.testing.assert_allclose(_chi_of_choi(_choi_of_chi(chi)), chi, rtol=0, atol=1e-14)
        choi = _choi_of_chi(chi)
        np.testing.assert_allclose(_choi_of_chi(_chi_of_choi(choi)), choi, rtol=0, atol=1e-14)

    def test_tp_violation_is_the_pauli_sum_deviation(self):
        for chi in random_chi(np.random.default_rng(41), 50):
            acc = sum(chi[m, n] * PAULIS[n] @ PAULIS[m] for m in range(4) for n in range(4))
            assert tp_violation(chi) == pytest.approx(np.max(np.abs(acc - np.eye(2))),
                                                      rel=1e-13, abs=1e-14)

    def test_transfer_is_the_pauli_sum(self):
        rng = np.random.default_rng(42)
        for chi in random_chi(rng, 50):
            rho = random_density_matrix(rng, dim=2)
            ref = sum(chi[m, n] * PAULIS[m] @ rho @ PAULIS[n]
                      for m in range(4) for n in range(4))
            np.testing.assert_allclose(chi_to_transfer(chi)(rho), ref, rtol=0, atol=1e-13)

    def test_channel_chi_is_the_choi_vec_formula(self):
        """channel_chi against the former loop over the images of |i><j|."""
        params = ConversionParams(eta_h=0.8, eta_v=0.6, theta=0.3, dephase=0.9)
        smat = np.zeros((4, 4), dtype=complex)
        for j in range(2):
            for i in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                smat[:, 2 * j + i] = convert_qubit(e, params).reshape(-1, order="F")
        basis = np.array([np.kron(PAULIS[n].T, PAULIS[m]).reshape(-1, order="F")
                          for m in range(4) for n in range(4)]).T
        ref = np.linalg.solve(basis, smat.reshape(-1, order="F")).reshape(4, 4)
        np.testing.assert_allclose(channel_chi(lambda r: convert_qubit(r, params)), ref,
                                   rtol=0, atol=1e-15)


def eigh_inverse_sqrt(g):
    """G^{-1/2} of a (B, 2, 2) stack from its eigendecomposition, eigenvalues
    clipped at 1e-14."""
    lam, v = np.linalg.eigh(g)
    return (v / np.sqrt(np.clip(lam, 1e-14, None))[:, None, :]) @ v.conj().swapaxes(1, 2)


def relative_error(a, b):
    return np.linalg.norm(a - b, axis=(1, 2)) / np.linalg.norm(b, axis=(1, 2))


def tr_out(j):
    return j[:, :2, :2] + j[:, 2:, 2:]


_D = 2.0 ** -40
#: Gram matrices with an eigenvalue near 1e-12 and exact determinants (the
#: products of their entries are exact in doubles), where eigh's G^{-1/2} is
#: accurate to 1e-13; for a generic such G both ways round differently by 1e-4.
NEAR_SINGULAR = np.array([
    [[1 + _D, 1j * (1 - _D)], [-1j * (1 - _D), 1 + _D]],  # eigenvalues 2^-40 and 1
    [[1 + _D, -1j * (1 - _D)], [1j * (1 - _D), 1 + _D]],
    np.array([[2 ** 26, 2 ** 14 - 1], [2 ** 14 - 1, 4]]) / 2 ** 25,  # 7.3e-12 and 1
    np.array([[2 ** 26, 12000 + 11145j], [12000 - 11145j, 4]]) / 2 ** 25,  # 5.0e-11 and 1
]) / 2.0
#: Singular, indefinite and tiny Gram matrices, whose low eigenvalue takes the 1e-14 floor
SINGULAR = np.array([[[1, 1], [1, 1]], [[4, 2j], [-2j, 1]], [[1, 0], [0, 0]], np.zeros((2, 2)),
                     [[1e-15, 0], [0, 3e-15]], [[2e-14, 0], [0, 5e-15]], [[1, 0], [0, 5e-15]],
                     [[1, 1], [1, 1 - 2.0 ** -50]],
                     [[0.5 + 2.0 ** -48, 0.5], [0.5, 0.5 + 2.0 ** -48]]], dtype=complex)
#: unit-trace 2x2 matrices with few-bit entries, so that Tr_out kron(A, G) is G exactly
DYADIC = np.array([[[0.5, 0.25 + 0.25j], [0.25 - 0.25j, 0.5]],
                   [[0.75, 0.125j], [-0.125j, 0.25]], [[1.0, 0.0], [0.0, 0.0]]])


def same_bits(a, b):
    """Equal dtype, shape and bytes: values and zero signs alike, in any layout."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCholeskyParameters:
    """The index fill of T and its read against the constant 16x16 matrix maps
    T = t M and t = Re(T M^dag) they replaced, whose row k of M is the
    row-major T that parameter k alone builds."""

    rows, cols = np.triu_indices(4, 1)
    triu = 4 * rows + cols
    M = np.zeros((16, 16), dtype=complex)
    M[range(4), (0, 5, 10, 15)] = 1.0
    M[range(4, 10), triu] = 1.0
    M[range(10, 16), triu] = 1j

    def read(self, T):
        return np.real(T.reshape(T.shape[:-2] + (16,)) @ self.M.conj().T)

    @pytest.mark.parametrize("shape", [(16,), (1, 16), (404, 16)])
    def test_fill_and_read_equal_the_matrix_maps(self, shape):
        rng = np.random.default_rng(shape[0])
        t = rng.normal(size=shape)
        T = _params_to_t(t)
        assert same_bits(T, (t @ self.M).reshape(shape[:-1] + (4, 4)))
        assert same_bits(_t_to_params(T), t) and same_bits(_t_to_params(T), self.read(T))
        # a gradient's T is full and complex; a start's is a transposed view, real
        # for a real rho
        full = rng.normal(size=shape[:-1] + (4, 4)) + 1j * rng.normal(size=shape[:-1] + (4, 4))
        for other in (full, full.swapaxes(-1, -2), full.real.swapaxes(-1, -2)):
            assert same_bits(_t_to_params(other), self.read(other))


class TestRetraction:
    """The closed-form G^{-1/2} of the process retraction against ``eigh``."""

    @staticmethod
    def retract_with_g(g):
        """``_retraction`` of the Choi matrices kron(A, G), A in DYADIC, and
        eigh's G^{-1/2} of each."""
        j = np.einsum("aik,bjl->abijkl", DYADIC, g).reshape(-1, 4, 4)
        assert np.array_equal(tr_out(j), np.tile(g, (len(DYADIC), 1, 1)))
        return _retraction(j), np.tile(eigh_inverse_sqrt(g), (len(DYADIC), 1, 1))

    def test_random_positive_g(self):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(1000, 4, 4)) + 1j * rng.normal(size=(1000, 4, 4))
        j = m.conj().swapaxes(1, 2) @ m
        choi, x, s, _, _ = _retraction(j)
        assert np.max(relative_error(s, eigh_inverse_sqrt(tr_out(j)))) <= 1e-12
        assert np.array_equal(x, np.einsum("ik,bjl->bijkl", np.eye(2), s).reshape(-1, 4, 4))
        assert np.max(np.abs(tr_out(choi) - np.eye(2))) <= 1e-12

    def test_g_with_an_eigenvalue_near_1e_12(self):
        lam = np.linalg.eigvalsh(NEAR_SINGULAR)[:, 0]
        assert np.all((lam > 1e-13) & (lam < 1e-10))
        (choi, _, s, _, _), reference = self.retract_with_g(NEAR_SINGULAR)
        assert np.max(relative_error(s, reference)) <= 1e-12
        assert np.max(np.abs(tr_out(choi) - np.eye(2))) <= 1e-12

    def test_singular_g_takes_the_eigenvalue_floor(self):
        (_, _, s, _, _), reference = self.retract_with_g(SINGULAR)
        assert np.max(relative_error(s, reference)) <= 1e-12
        # entry by entry where G is diagonal: a wrong floor that keeps the
        # norm moves the entry of the large eigenvalue
        diagonal = np.tile(~SINGULAR[:, 0, 1].astype(bool), len(DYADIC))
        np.testing.assert_allclose(s[diagonal], reference[diagonal], rtol=1e-12, atol=0.0)


class TestMleProcess:
    def test_identity_channel_noiseless(self):
        recs = expected_process_counts(lambda r: r, tomography_settings(),
                                       rate=1e4, duration=1.0)
        result = mle_process(recs, TIGHT)
        assert result.converged
        assert result.estimate[0, 0].real > 1 - 1e-6
        assert tp_violation(result.estimate) < 1e-6

    def test_pauli_z_channel(self):
        recs = expected_process_counts(lambda r: PAULIS[3] @ r @ PAULIS[3],
                                       tomography_settings(),
                                       rate=1e4, duration=1.0)
        chi = mle_process(recs, TIGHT).estimate
        assert chi[3, 3].real > 1 - 1e-6

    def test_all_pauli_unitaries_recovered(self):
        for i in range(4):
            recs = expected_process_counts(lambda r, s=PAULIS[i]: s @ r @ s,
                                           tomography_settings(),
                                           rate=1e4, duration=1.0)
            chi = mle_process(recs, TIGHT).estimate
            assert chi[i, i].real > 1 - 1e-6

    def test_output_is_valid_chi(self):
        params = ConversionParams(theta=0.1, dephase=0.95)
        recs = simulate_process_counts(lambda r: convert_qubit(r, params),
                                       tomography_settings(),
                                       rate=1e4, duration=10.0, seed=31)
        chi = mle_process(recs).estimate
        check_chi_matrix(chi, require_tp=True)

    def test_lossy_balanced_channel_normalizes_out(self):
        # a trace non-increasing channel with a uniform loss reconstructs to
        # the same TP process as its lossless version
        params = ConversionParams(eta_h=0.02, eta_v=0.02, theta=0.05, dephase=0.98)
        recs = expected_process_counts(lambda r: convert_qubit(r, params),
                                       tomography_settings(),
                                       rate=1e7, duration=1.0)
        chi = mle_process(recs, TIGHT).estimate
        ref = ConversionParams(eta_h=1.0, eta_v=1.0, theta=0.05, dephase=0.98)
        chi_ref = channel_chi(lambda r: convert_qubit(r, ref))
        assert np.max(np.abs(chi - chi_ref)) < 1e-5

    def test_zero_input_flux_rejected(self):
        recs = expected_process_counts(lambda r: r, tomography_settings(),
                                       rate=1e4, duration=1.0)
        recs = [CountRecord(r.setting_a, r.setting_b, r.duration,
                            0.0 if r.setting_a == "D" else r.coincidences,
                            r.singles_a, r.singles_b) for r in recs]
        with pytest.raises(ReconstructionError, match="zero counts"):
            mle_process(recs)


class TestProcessMetrics:
    """The reported process metrics: the fidelity to the identity channel,
    whose chi is |e0><e0|, and Tr(chi^2)."""

    chi_fidelity = staticmethod(METRICS["process"]["fidelity"])

    def test_identity_fidelity(self):
        assert self.chi_fidelity(identity_chi()) == pytest.approx(1.0)

    def test_orthogonal_pauli_channels(self):
        chi_z = channel_chi(lambda r: PAULIS[3] @ r @ PAULIS[3])
        assert self.chi_fidelity(chi_z) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_purity(self):
        chi = channel_chi(lambda r: PAULIS[1] @ r @ PAULIS[1])
        assert purity(chi) == pytest.approx(1.0)

    def test_depolarizing_purity(self):
        chi = channel_chi(lambda r: sum(s @ r @ s for s in PAULIS) / 4)
        assert purity(chi) == pytest.approx(0.25)

    def test_chi_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_chi_matrix(np.diag([1, 0, 0, 0]) + np.array([[0, 0.1, 0, 0]] + [[0] * 4] * 3))
        with pytest.raises(ValueError, match="trace"):
            check_chi_matrix(np.diag([2.0, 0, 0, 0]).astype(complex))


class TestMonteCarloErrors:
    @staticmethod
    def _errors(records, metrics, n_samples, seed, accidentals=0.0):
        """``monte_carlo_errors`` of the state fits of ``n_samples`` resamples."""
        counts = poisson_resamples([r.coincidences for r in records], n_samples, seed)
        fit = mle_tables("state", [(records, counts - accidentals)])[0]
        return monte_carlo_errors(fit, metrics, "state")

    def test_huge_counts_give_tiny_errors(self):
        rho = werner_state(0.9)
        recs = noiseless_records(rho, rate=1e7, duration=1.0)
        mc = self._errors(recs, {"fidelity": lambda m: fidelity(m, bell_state("phi+"))},
                          n_samples=2, seed=0)
        assert mc.std_errors["fidelity"] < 1e-3
        assert mc.n_failed == 0

    def test_inverse_sqrt_count_scaling(self):
        rho = werner_state(0.9)
        low = noiseless_records(rho, rate=20.0, duration=10.0)
        high = noiseless_records(rho, rate=80.0, duration=10.0)
        metric = {"fidelity": lambda m: fidelity(m, bell_state("phi+"))}
        mc_low = self._errors(low, metric, n_samples=60, seed=1)
        mc_high = self._errors(high, metric, n_samples=60, seed=2)
        ratio = mc_low.std_errors["fidelity"] / mc_high.std_errors["fidelity"]
        assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3

    def test_failure_fraction_enforced(self):
        # about 1e-3 expected counts per table: nearly every resample is all
        # zeros, which no fit can normalize
        recs = noiseless_records(werner_state(0.9), rate=1e-3, duration=1.0)
        with pytest.raises(ReconstructionError, match="^state: .* resamples failed"):
            self._errors(recs, {"one": lambda m: 1.0}, n_samples=10, seed=3)

    def test_minimum_samples(self):
        recs = noiseless_records(werner_state(0.9))
        with pytest.raises(ValueError):
            self._errors(recs, {}, n_samples=1, seed=0)

    def test_deterministic(self):
        recs = noiseless_records(werner_state(0.9), rate=50.0, duration=10.0)
        metric = {"purity": lambda m: np.real(np.trace(m @ m, axis1=-2, axis2=-1))}
        a = self._errors(recs, metric, n_samples=8, seed=5)
        b = self._errors(recs, metric, n_samples=8, seed=5)
        assert a == b

    def test_fidelity_error_magnitude_at_reference_counts(self):
        # ~15 cps for 100 s: the fidelity error bar lands in the few-per-mille
        # range of the published +-0.2%
        from entconv.config import default_config
        from entconv.conversion import convert, source_state

        config = default_config()
        rho_out, _ = convert(source_state(config.source), config.conversion)
        recs = simulate_counts(rho_out, SETTINGS, config.source,
                               config.detection["output"], 100.0, seed=41)
        accidentals = np.array([r.accidental_estimate for r in recs])
        mc = self._errors(recs, {"fidelity": lambda m: fidelity(m, bell_state("phi+"))},
                          n_samples=40, seed=42, accidentals=accidentals)
        assert 0.002 / 3 <= mc.std_errors["fidelity"] <= 0.002 * 3
