import numpy as np
import pytest

from qabcert import (
    ChoiMatrix,
    choi_from_kraus,
    dephasing_choi,
    depolarizing_choi,
    eigh,
    hermitize,
    kron,
    maximally_entangled,
    partial_trace,
    random_density,
    relative_entropy,
    sandwich,
)
from qabcert.quantum import BELL_STATES, PAULI_X, PAULI_Y, PAULI_Z

from conftest import isometry_kraus_2to3, random_state


def bell_diag(choi):
    basis = np.stack(BELL_STATES, axis=1)
    return np.real(np.diag(np.conj(basis.T) @ choi.mat @ basis)) / choi.dim_a


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_state(rng, 3)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_classical_two_point(self):
        assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) == pytest.approx(
            np.log(2), abs=1e-12
        )

    def test_disjoint_support_infinite(self):
        assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == np.inf

    def test_klein_inequality(self, rng):
        for _ in range(20):
            rho, sigma = random_state(rng, 3), random_state(rng, 3)
            d = relative_entropy(rho, sigma)
            assert d >= -1e-12
            if np.linalg.norm(rho - sigma) > 1e-6:
                assert d > 0

    def test_data_processing_sanity(self, rng):
        for _ in range(10):
            x, y = random_state(rng, 6), random_state(rng, 6)
            local = relative_entropy(
                partial_trace(x, 2, 3, "B"), partial_trace(y, 2, 3, "B")
            )
            assert local <= relative_entropy(x, y) + 1e-9

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            relative_entropy(np.diag([1.5, -0.5]), np.eye(2) / 2)

    def test_batched(self, rng):
        rho = random_state(rng, 2)
        sigmas = np.stack([random_state(rng, 2) for _ in range(4)])
        out = relative_entropy(rho, sigmas)
        assert out.shape == (4,)
        for i in range(4):
            assert out[i] == pytest.approx(relative_entropy(rho, sigmas[i]), abs=1e-12)

    def test_spectrum_arguments_match_matrices(self, rng):
        rho = random_state(rng, 3)
        sigmas = np.stack([random_state(rng, 3) for _ in range(4)])
        pure = np.diag([1.0, 0.0, 0.0])
        for r, s in ((rho, sigmas), (sigmas, rho), (pure, sigmas[0]), (sigmas[1], pure)):
            expected = relative_entropy(r, s)
            for got in (
                relative_entropy(eigh(r), s),
                relative_entropy(r, eigh(s)),
                relative_entropy(eigh(r), eigh(s)),
            ):
                assert np.allclose(got, expected, atol=1e-12, rtol=0)
        assert relative_entropy(eigh(sigmas[1]), eigh(pure)) == np.inf


class TestChoiConstructors:
    def test_depolarizing_identity_limit(self):
        choi = depolarizing_choi(0.0)
        w = np.linalg.eigvalsh(choi.mat)
        assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)  # rank one on Phi+
        phi = BELL_STATES[0]
        assert np.vdot(phi, choi.mat @ phi).real == pytest.approx(2.0)

    def test_depolarizing_full_noise(self):
        assert np.allclose(depolarizing_choi(1.0).mat, np.eye(4) / 2, atol=1e-12)

    def test_depolarizing_bell_weights(self):
        p = 0.3
        assert np.allclose(
            sorted(bell_diag(depolarizing_choi(p))),
            sorted([1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p]),
        )

    def test_dephasing_identity_limit(self):
        assert np.allclose(dephasing_choi(1.0).mat, depolarizing_choi(0.0).mat, atol=1e-12)

    def test_dephasing_half_is_computational_diagonal(self):
        mat = dephasing_choi(0.5).mat
        assert np.allclose(mat, np.diag(np.diag(mat)), atol=1e-12)

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 50))
    def test_trace_preservation_grid(self, p):
        for choi in (depolarizing_choi(p), dephasing_choi(p)):
            marg = partial_trace(choi.mat, 2, 2, "A")
            assert np.max(np.abs(marg - np.eye(2))) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            depolarizing_choi(1.2)
        with pytest.raises(ValueError):
            dephasing_choi(-0.1)

    def test_choi_validation(self):
        with pytest.raises(ValueError):
            ChoiMatrix(mat=np.diag([1.0, 1.0, 1.0, -0.2]), dim_a=2, dim_b=2)
        with pytest.raises(ValueError):
            ChoiMatrix(mat=np.eye(4), dim_a=2, dim_b=2)  # Tr_B = 2 I != I


class TestChoiFromKraus:
    def test_identity_channel(self):
        choi = choi_from_kraus([np.eye(2)])
        assert np.allclose(choi.mat, depolarizing_choi(0.0).mat, atol=1e-12)

    def test_pauli_kraus_matches_depolarizing(self):
        # (1-q) rho + (q/3)(X rho X + Y rho Y + Z rho Z) is depolarizing with
        # p = 4q/3: matching Bell weights gives q/3 = p/4.
        p = 0.3
        q = 0.75 * p
        kraus = [
            np.sqrt(1 - q) * np.eye(2),
            np.sqrt(q / 3) * PAULI_X,
            np.sqrt(q / 3) * PAULI_Y,
            np.sqrt(q / 3) * PAULI_Z,
        ]
        assert np.allclose(choi_from_kraus(kraus).mat, depolarizing_choi(p).mat, atol=1e-12)

    def test_dephasing_kraus(self):
        p = 0.4
        kraus = [np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * PAULI_Z]
        assert np.allclose(choi_from_kraus(kraus).mat, dephasing_choi(p).mat, atol=1e-12)

    def test_rectangular_kraus_is_trace_preserving(self):
        choi = choi_from_kraus(isometry_kraus_2to3())
        assert (choi.dim_a, choi.dim_b) == (2, 3)
        marg = partial_trace(choi.mat, 2, 3, keep="A")
        assert np.max(np.abs(marg - np.eye(2))) < 1e-12

    def test_completeness_check(self):
        with pytest.raises(ValueError):
            choi_from_kraus([0.5 * np.eye(2)])


class TestSandwich:
    def test_uniform_input_identity_channel(self):
        out = sandwich(np.eye(2) / 2, depolarizing_choi(0.0))
        assert np.allclose(out, maximally_entangled(2), atol=1e-12)

    def test_unit_trace(self, rng):
        for _ in range(5):
            rho = random_state(rng, 2)
            for choi in (depolarizing_choi(0.3), dephasing_choi(0.7)):
                assert np.trace(sandwich(rho, choi)).real == pytest.approx(1.0, abs=1e-10)

    def test_pure_input_dephasing_support(self):
        # (|0><0| x I) Gamma_deph (|0><0| x I) = |00><00| by direct expansion.
        rho = np.diag([1.0, 0.0])
        out = sandwich(rho, dephasing_choi(0.4))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(out, expected, atol=1e-12)
        assert np.linalg.matrix_rank(out, tol=1e-10) <= 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sandwich(np.eye(3) / 3, depolarizing_choi(0.1))


class TestMaximallyEntangled:
    def test_marginals(self):
        me = maximally_entangled(3)
        assert np.allclose(partial_trace(me, 3, 3, "A"), np.eye(3) / 3, atol=1e-12)

    def test_purity(self):
        me = maximally_entangled(2)
        assert np.trace(me @ me).real == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_to_phi_minus(self):
        me = maximally_entangled(2)
        phi_m = BELL_STATES[1]
        assert abs(np.vdot(phi_m, me @ phi_m)) < 1e-14


class TestRandomDensity:
    def test_unit_trace(self):
        assert np.trace(random_density(3, 5)).real == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(random_density(2, 7), random_density(2, 7))

    def test_full_rank_over_seeds(self):
        mins = [np.linalg.eigvalsh(random_density(2, s)).min() for s in range(1000)]
        assert min(mins) >= 1e-8
