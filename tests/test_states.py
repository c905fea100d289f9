"""Unit tests for the state/metric layer."""
import numpy as np
import pytest

from entconv.states import (MetricReport, PAULIS, SIGMA_Y, bell_state, check_density_matrix,
                            concurrence, fidelity, ket, ket2dm, projector, purity, tangle,
                            trace_distance, werner_state)


def random_density_matrix(rng, dim=4, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestPauliBasis:
    def test_hermitian_and_unitary(self):
        for s in PAULIS:
            assert np.allclose(s, s.conj().T)
            assert np.allclose(s @ s.conj().T, np.eye(2))

    def test_orthogonality(self):
        for i, a in enumerate(PAULIS):
            for j, b in enumerate(PAULIS):
                expected = 2.0 if i == j else 0.0
                assert np.trace(a @ b) == pytest.approx(expected, abs=1e-14)


class TestBellStates:
    def test_phi_plus(self):
        assert np.allclose(bell_state("phi+"), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_psi_minus(self):
        assert np.allclose(bell_state("psi-"), np.array([0, 1, -1, 0]) / np.sqrt(2))

    def test_orthogonal_pair(self):
        assert fidelity(ket2dm(bell_state("phi+")), bell_state("phi-")) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("chi+")

    def test_all_normalized(self):
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            assert np.linalg.norm(bell_state(kind)) == pytest.approx(1.0, abs=1e-12)


class TestProjectors:
    def test_diagonal(self):
        assert np.allclose(projector("D"), [[0.5, 0.5], [0.5, 0.5]])

    def test_right_circular(self):
        assert np.allclose(projector("R"), [[0.5, -0.5j], [0.5j, 0.5]])

    def test_unit_trace_all_labels(self):
        for label in "HVDARL":
            assert np.trace(projector(label)) == pytest.approx(1.0)
            # rank 1: P^2 = P
            p = projector(label)
            assert np.allclose(p @ p, p)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown polarization label"):
            projector("X")


class TestFidelity:
    def test_pure_with_itself(self):
        rho = ket2dm(bell_state("phi+"))
        assert fidelity(rho, bell_state("phi+")) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_vs_pure(self):
        assert fidelity(np.eye(4) / 4, bell_state("phi+")) == pytest.approx(0.25, abs=1e-12)

    def test_werner_analytic(self):
        # (1 + 3p)/4 for the phi+ overlap of a Werner state
        assert fidelity(werner_state(0.925), bell_state("phi+")) == pytest.approx(0.94375, abs=1e-12)

    def test_mixed_pair_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_density_matrix(rng)
            b = random_density_matrix(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_unity_only_for_equal_states(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_density_matrix(rng)
            b = random_density_matrix(rng)
            assert fidelity(a, a) == pytest.approx(1.0, abs=1e-8)
            assert fidelity(a, b) < 1.0 - 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            fidelity(np.eye(4) / 4, ket("H"))


class TestPurity:
    def test_pure_state(self):
        assert purity(ket2dm(bell_state("psi+"))) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert purity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)

    def test_werner_analytic(self):
        # p^2 + (1 - p^2)/4 at p = 0.925
        assert purity(werner_state(0.925)) == pytest.approx(0.89171875, abs=1e-12)

    def test_lower_bound(self):
        rng = np.random.default_rng(5)
        for dim in (2, 4):
            for _ in range(20):
                rho = random_density_matrix(rng, dim=dim)
                assert purity(rho) >= 1.0 / dim - 1e-12


def oracle_tangle(rho):
    """Independent route: eigenvalues of rho (YxY) rho* (YxY)."""
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy)
    lam = np.sqrt(np.clip(np.sort(np.abs(np.real(ev)))[::-1], 0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3]) ** 2


class TestTangle:
    def test_bell_state(self):
        assert tangle(ket2dm(bell_state("phi+"))) == pytest.approx(1.0, abs=1e-7)

    def test_werner_separability_threshold(self):
        assert tangle(werner_state(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-8)

    def test_werner_analytic(self):
        # ((3p - 1)/2)^2 at p = 0.925
        assert tangle(werner_state(0.925)) == pytest.approx(0.78765625, abs=1e-10)

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            rho = random_density_matrix(rng)
            assert tangle(rho) == pytest.approx(oracle_tangle(rho), abs=1e-7)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(rng)
        t0 = tangle(rho)
        for _ in range(100):
            u1, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u2, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(u1, u2)
            assert abs(tangle(u @ rho @ u.conj().T) - t0) < 1e-9

    def test_concurrence_wrong_dimension(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(2) / 2)


class TestValidators:
    def test_accepts_valid_states(self):
        check_density_matrix(werner_state(0.5))
        check_density_matrix(np.eye(2, dtype=complex) / 2)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            check_density_matrix(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entry(self, value):
        # every comparison with NaN is false, so the later checks would pass it
        bad = np.eye(4, dtype=complex) / 4
        bad[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            check_density_matrix(bad)


class TestTraceDistance:
    def test_identical(self):
        rho = werner_state(0.7)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        a = ket2dm(bell_state("phi+"))
        b = ket2dm(bell_state("psi-"))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


class TestMetricReport:
    def test_clamps_small_noise(self):
        m = MetricReport(fidelity=1.0 + 5e-11, purity=-5e-11, tangle=0.5)
        assert m.fidelity == 1.0
        assert m.purity == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MetricReport(fidelity=1.2, purity=0.5, tangle=0.5)

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            MetricReport(fidelity=0.9, purity=0.9, tangle=0.5, tangle_err=-0.1)

    def test_tangle_optional(self):
        m = MetricReport(fidelity=0.9, purity=0.9)
        assert m.tangle is None
