import numpy as np
import pytest

from qabcert import (
    EProjectionError,
    InfeasibleFamilyError,
    MixtureFamily,
    e_project,
    free_energy_gradient,
    hermitize,
    matrix_log,
    relative_entropy,
)
from qabcert.mixture import _evaluate
from qabcert.quantum import PAULI_X, PAULI_Z

from conftest import free_energy, random_state

EMPTY = MixtureFamily(observables=(), targets=())


def random_observable(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(m)


def random_family(rng, dim, k):
    # Feasible by construction: targets realized by a random interior state.
    obs = tuple(random_observable(rng, dim) for _ in range(k))
    witness = random_state(rng, dim)
    targets = tuple(float(np.trace(witness @ h).real) for h in obs)
    return MixtureFamily(observables=obs, targets=targets)


class TestMixtureFamily:
    def test_rejects_linear_dependence(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            MixtureFamily(observables=(PAULI_Z, 2 * PAULI_Z), targets=(0.0, 0.0))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            MixtureFamily(observables=(np.array([[0, 1], [0, 0]]),), targets=(0.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_observables_and_targets(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MixtureFamily(observables=(PAULI_Z,), targets=(bad,))
        with pytest.raises(ValueError, match="finite"):
            MixtureFamily(observables=(np.diag([bad, -1.0]),), targets=(0.0,))

    def test_stores_observables_hermitized(self):
        h = PAULI_Z + np.array([[0, 4e-11], [0, 0]])
        fam = MixtureFamily(observables=(h,), targets=(0.0,))
        assert np.array_equal(fam.observables[0], hermitize(h))
        assert np.array_equal(MixtureFamily((PAULI_Z,), (0.0,)).observables[0], PAULI_Z)

    def test_compares_by_value(self):
        fam = MixtureFamily((np.eye(2),), (1.0,))
        assert fam == MixtureFamily((np.eye(2),), (1.0,))
        assert MixtureFamily((PAULI_Z,), (0.5,)) != MixtureFamily((PAULI_Z,), (1.0,))
        assert fam != MixtureFamily((PAULI_Z,), (1.0,))
        assert fam != MixtureFamily() and MixtureFamily() == EMPTY
        assert fam != (np.eye(2),)

    def test_residuals(self, rng):
        fam = random_family(rng, 2, 2)
        witnessed = e_project(matrix_log(random_state(rng, 2)), fam)[0].matrix()
        assert np.max(np.abs(fam.residuals(witnessed))) < 1e-8


class TestFreeEnergy:
    def test_empty_family_uniform(self):
        base = matrix_log(np.eye(3) / 3)
        assert free_energy(base, EMPTY, np.zeros(0)) == pytest.approx(0.0, abs=1e-12)

    def test_identity_constraint_degenerate_gradient(self):
        # H = I with c = 1: the gradient Tr(G) - 1 vanishes for every tau.
        fam = MixtureFamily(observables=(np.eye(2),), targets=(1.0,))
        base = matrix_log(np.diag([0.3, 0.7]))
        for tau in (-2.0, 0.0, 5.0):
            g = free_energy_gradient(base, fam, [tau])
            assert abs(g[0]) < 1e-12

    def test_qubit_closed_form_minimizer(self):
        # F(tau) = log(2 cosh tau) - tau/2 has minimizer artanh(0.5).
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(0.5,))
        base = np.zeros((2, 2), dtype=complex)
        tau_star = np.arctanh(0.5)
        assert np.linalg.norm(free_energy_gradient(base, fam, [tau_star])) < 1e-10
        _, sol = e_project(base, fam)
        assert sol.tau[0] == pytest.approx(tau_star, abs=1e-8)

    def test_gradient_matches_finite_differences(self, rng):
        # Central differences of the free energy as the independent oracle.
        for _ in range(20):
            dim = rng.choice([2, 3])
            k = rng.choice([1, 2])
            fam = random_family(rng, dim, k)
            base = matrix_log(random_state(rng, dim))
            tau = rng.standard_normal(k)
            grad = free_energy_gradient(base, fam, tau)
            h = 1e-6
            for j in range(k):
                step = np.zeros(k)
                step[j] = h
                fd = (free_energy(base, fam, tau + step) - free_energy(base, fam, tau - step)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_hessian_qubit_closed_form(self):
        # F(tau) = log(2 cosh tau) - c tau has second derivative sech^2 tau.
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(0.3,))
        base = np.zeros((2, 2), dtype=complex)
        for tau in (-3.0, -0.5, 0.0, 0.7, 4.0):
            hess = _evaluate(base, fam, np.array([tau]))[2]()
            assert hess[0, 0] == pytest.approx(1 / np.cosh(tau) ** 2, rel=1e-12)

    def test_hessian_matches_gradient_differences(self, rng):
        # Random cases, and a base spread over +-400 where p_a expm1(gap) / gap
        # would underflow to 0 times an overflow to inf.
        spread = np.diag([-400.0, -399.7, 400.0, 400.4]).astype(complex)
        cases = [(spread, random_family(rng, 4, 2))]
        for _ in range(20):
            dim, k = int(rng.choice([2, 3, 4])), int(rng.choice([1, 2, 3]))
            cases.append((matrix_log(random_state(rng, dim)), random_family(rng, dim, k)))
        for base, fam in cases:
            tau = rng.standard_normal(fam.size)
            hess = _evaluate(base, fam, tau)[2]()
            assert np.all(np.isfinite(hess))
            h = 1e-5
            for j in range(fam.size):
                step = np.zeros(fam.size)
                step[j] = h
                fd = (
                    free_energy_gradient(base, fam, tau + step)
                    - free_energy_gradient(base, fam, tau - step)
                ) / (2 * h)
                assert np.allclose(hess[:, j], fd, rtol=1e-5, atol=1e-8)

    def test_gradient_empty(self):
        assert free_energy_gradient(np.zeros((2, 2)), EMPTY, np.zeros(0)).size == 0

    def test_convex_in_tau(self, rng):
        # Midpoint convexity on random tau pairs.
        fam = random_family(rng, 3, 2)
        base = matrix_log(random_state(rng, 3))
        for _ in range(20):
            t1, t2 = rng.standard_normal(2), rng.standard_normal(2)
            mid = free_energy(base, fam, (t1 + t2) / 2)
            assert mid <= (free_energy(base, fam, t1) + free_energy(base, fam, t2)) / 2 + 1e-10


class TestEProject:
    def test_empty_family_normalizes(self, rng):
        rho = random_state(rng, 3)
        out, sol = e_project(matrix_log(rho), EMPTY)
        assert np.allclose(out.matrix(), rho, atol=1e-10)
        assert sol.tau.size == 0

    def test_idempotent_on_members(self, rng):
        rho = random_state(rng, 2)
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(float(np.trace(rho @ PAULI_Z).real),))
        out, sol = e_project(matrix_log(rho), fam)
        assert np.allclose(out.matrix(), rho, atol=1e-8)
        assert abs(sol.tau[0]) < 1e-8

    def test_gibbs_closed_form(self):
        # Uniform base, Tr(rho sigma_z) = -0.25 projects to diag(0.375, 0.625).
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        out, _ = e_project(matrix_log(np.eye(2) / 2), fam)
        assert np.allclose(out.matrix(), np.diag([0.375, 0.625]), atol=1e-10)

    def test_constraint_residuals(self, rng):
        for _ in range(5):
            fam = random_family(rng, 3, 2)
            out, sol = e_project(matrix_log(random_state(rng, 3)), fam)
            assert np.max(np.abs(fam.residuals(out.matrix()))) <= 1e-8
            assert sol.gradient_norm <= 1e-10

    def test_pythagorean_identity(self, rng):
        # D(sigma||rho) = D(sigma||proj) + D(proj||rho) for sigma in the family.
        for _ in range(20):
            dim = int(rng.choice([2, 3]))
            fam = random_family(rng, dim, int(rng.choice([1, 2])))
            sigma = e_project(matrix_log(random_state(rng, dim)), fam)[0].matrix()
            rho = random_state(rng, dim)
            proj = e_project(matrix_log(rho), fam)[0].matrix()
            lhs = relative_entropy(sigma, rho)
            rhs = relative_entropy(sigma, proj) + relative_entropy(proj, rho)
            assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_warm_start_agrees(self, rng):
        fam = random_family(rng, 2, 1)
        base = matrix_log(random_state(rng, 2))
        cold, _ = e_project(base, fam)
        warm, sol = e_project(base, fam, tau0=[10.0])
        assert np.allclose(cold.matrix(), warm.matrix(), atol=1e-8)

    def test_infeasible_spectral_bound(self):
        # Judged where the family is built, before any e-projection.
        with pytest.raises(InfeasibleFamilyError, match="spectral range"):
            MixtureFamily(observables=(PAULI_Z,), targets=(2.0,))
        MixtureFamily(observables=(PAULI_Z,), targets=(1.0 + 1e-13,))

    def test_jointly_infeasible_family_diverges_in_tau(self):
        # Each target lies in its observable's spectral range, but no state
        # has <Z>^2 + <X>^2 = 0.81 + 0.81 > 1.
        fam = MixtureFamily(observables=(PAULI_Z, PAULI_X), targets=(0.9, 0.9))
        with pytest.raises(InfeasibleFamilyError, match="tau diverged"):
            e_project(matrix_log(np.eye(2) / 2), fam)

    def test_non_convergence_carries_gradient_norm(self, monkeypatch):
        monkeypatch.setattr("qabcert.mixture.MAX_NEWTON_STEPS", 1)
        fam = MixtureFamily(observables=(PAULI_X,), targets=(0.9,))
        with pytest.raises(EProjectionError) as err:
            e_project(matrix_log(np.diag([0.999, 0.001])), fam)
        assert err.value.gradient_norm > 0
        assert err.value.iterations == 1

    def test_rejects_non_finite_base(self):
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(0.0,))
        with pytest.raises(ValueError):
            e_project(np.array([[np.inf, 0], [0, 1.0]]), fam)
