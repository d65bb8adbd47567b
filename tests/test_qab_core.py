import numpy as np
import pytest

from qabcert import (
    ChannelObjective,
    ChannelPair,
    MixtureFamily,
    QabOptions,
    d_omega,
    dephasing_choi,
    depolarizing_choi,
    f3_map,
    floor_state,
    j_function,
    qab_run,
    relative_entropy,
)
from qabcert.quantum import PAULI_X, PAULI_Z, random_density

from conftest import ConstantObjective, LinearTraceObjective, random_state


def paper_pair(p=0.05):
    return ChannelPair(dephasing_choi(0.4), depolarizing_choi(p))


@pytest.fixture
def eig_calls(monkeypatch):
    """List that gains one entry per np.linalg.eigh / eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestF3Map:
    def test_null_objective_fixed_point(self, rng):
        rho = random_state(rng, 3)
        obj = ConstantObjective(np.zeros((3, 3)))
        assert np.allclose(f3_map(rho, obj, 1.0), rho, atol=1e-10)

    def test_gauge_invariance(self, rng):
        rho = random_state(rng, 2)
        obj = ConstantObjective(PAULI_Z)
        for c in rng.standard_normal(5):
            shifted = ConstantObjective(PAULI_Z + c * np.eye(2))
            assert np.allclose(f3_map(rho, obj, 1.0), f3_map(rho, shifted, 1.0), atol=1e-12)

    def test_commuting_closed_form(self):
        # exp(log(I/2) - sigma_z) normalizes to diag(e^-1, e) / (e + 1/e).
        out = f3_map(np.eye(2) / 2, ConstantObjective(PAULI_Z), 1.0)
        z = np.exp(-1) + np.exp(1)
        assert np.allclose(out, np.diag([np.exp(-1) / z, np.exp(1) / z]), atol=1e-12)

    def test_trace_one_full_rank(self, rng):
        out = f3_map(random_state(rng, 2), ConstantObjective(PAULI_Z), 0.7)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            f3_map(np.diag([1.0, 0.0]), ConstantObjective(PAULI_Z), 1.0)


class TestDOmega:
    def test_self_zero(self, rng):
        rho = random_state(rng, 2)
        assert d_omega(rho, rho, ConstantObjective(PAULI_Z)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_omega_zero_for_all_pairs(self, rng):
        obj = ConstantObjective(PAULI_Z)
        assert d_omega(random_state(rng, 2), random_state(rng, 2), obj) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_linear_trace_omega_zero_on_unit_trace(self, rng):
        obj = LinearTraceObjective(PAULI_Z + np.eye(2))
        assert d_omega(random_state(rng, 2), random_state(rng, 2), obj) == pytest.approx(
            0.0, abs=1e-12
        )


class TestJFunction:
    def test_diagonal_equals_value(self, rng):
        rho = random_state(rng, 2)
        obj = ConstantObjective(PAULI_Z)
        assert j_function(rho, rho, obj, 1.3) == pytest.approx(obj.value(rho), abs=1e-10)

    def test_gamma_zero_is_cross_term(self, rng):
        rho, sigma = random_state(rng, 2), random_state(rng, 2)
        obj = ConstantObjective(PAULI_Z)
        expected = np.trace(rho @ obj.omega(sigma)).real
        assert j_function(rho, sigma, obj, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_update_minimizes_j(self, rng):
        # J(rho_{t+1}, rho_t) <= J(rho_t, rho_t) along a channel trajectory.
        obj = ChannelObjective(paper_pair())
        opts = QabOptions(initial=random_density(2, 3), max_iters=30)
        traj = qab_run(obj, opts)
        for t in range(len(traj.states) - 1):
            j_next = j_function(traj.states[t + 1], traj.states[t], obj, 1.0)
            assert j_next <= j_function(traj.states[t], traj.states[t], obj, 1.0) + 1e-9


class TestQabRun:
    def test_null_objective_constant_trajectory(self, rng):
        obj = ConstantObjective(np.zeros((2, 2)))
        traj = qab_run(obj, QabOptions(initial=random_state(rng, 2), max_iters=5))
        for state in traj.states[1:]:
            assert np.allclose(state, traj.states[0], atol=1e-10)

    def test_lengths_consistent(self, rng):
        obj = ConstantObjective(PAULI_Z)
        traj = qab_run(obj, QabOptions(initial=random_state(rng, 2), max_iters=7))
        assert len(traj.states) == 8
        assert len(traj.values) == 8
        assert len(traj.step_kl) == 7
        assert len(traj.step_domega) == 7

    def test_state_independent_omega_descends_to_scan_minimum(self, rng):
        # Brute-force 1-D oracle: min of Tr(rho sigma_z) over the Bloch axis.
        zs = np.linspace(-1, 1, 1_000_001)
        scan_min = min(zs)  # Tr(rho sigma_z) = z
        obj = ConstantObjective(PAULI_Z)
        traj = qab_run(obj, QabOptions(initial=np.eye(2) / 2, max_iters=100))
        diffs = np.diff(traj.values)
        assert np.all(diffs <= 1e-9)
        assert traj.values[-1] == pytest.approx(scan_min, abs=1e-6)

    def test_channel_run_reaches_bell_value(self):
        from qabcert import bell_diagonal_oracle

        pair = paper_pair()
        obj = ChannelObjective(pair)
        traj = qab_run(obj, QabOptions(initial=random_density(2, 11), max_iters=100))
        assert obj.divergence(traj) == pytest.approx(bell_diagonal_oracle(pair), abs=1e-3)

    def test_divergence_stop(self, rng):
        obj = ChannelObjective(paper_pair())
        opts = QabOptions(initial=random_density(2, 5), max_iters=100, divergence_stop=1e-10)
        traj = qab_run(obj, opts)
        assert len(traj.states) < 101
        assert traj.step_kl[-1] < 1e-10

    def test_family_membership_enforced(self, rng):
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        obj = ConstantObjective(PAULI_Z)
        with pytest.raises(ValueError, match="violates"):
            qab_run(obj, QabOptions(initial=np.eye(2) / 2, family=fam, max_iters=3))

    def test_constrained_run_stays_in_family(self):
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        obj = ChannelObjective(paper_pair())
        initial = np.diag([0.375, 0.625])
        traj = qab_run(obj, QabOptions(initial=initial, family=fam, max_iters=20))
        for state in traj.states:
            assert np.max(np.abs(fam.residuals(state))) <= 1e-8
        assert len(traj.tau_history) == len(traj.states) - 1

    def test_steps_match_floored_f3_map(self):
        obj = ChannelObjective(paper_pair())
        traj = qab_run(obj, QabOptions(initial=random_density(2, 7), max_iters=30))
        for cur, nxt in zip(traj.states, traj.states[1:]):
            assert np.max(np.abs(nxt - floor_state(f3_map(cur, obj, 1.0)))) <= 1e-12

    def test_unconstrained_step_decomposes_at_most_four_matrices(self, eig_calls):
        # log rho_t and D(rho_{t+1} || rho_t) reuse known spectra; omega takes
        # three decompositions (rho, S_N, S_M) and the Gibbs update one.
        obj = ChannelObjective(paper_pair())
        opts = {n: QabOptions(initial=random_density(2, 9), max_iters=n) for n in (10, 30)}
        counts = {}
        for n, o in opts.items():
            eig_calls.clear()
            traj = qab_run(obj, o)
            assert len(traj.states) == n + 1
            counts[n] = len(eig_calls)
        assert counts[30] - counts[10] <= 4 * 20
        assert counts[10] <= 4 * 10 + 5

    @pytest.mark.parametrize("k", [1, 2])
    def test_constrained_step_decomposes_at_most_four_plus_k_matrices(self, eig_calls, k):
        # omega takes three decompositions and the spectral feasibility check
        # k; the e-projection takes one per tau it visits (the warm start and
        # one per Newton step), and its spectrum is floored as it is.
        initial = random_density(2, 11)
        observables = (PAULI_Z, PAULI_X)[:k]
        fam = MixtureFamily(
            observables=observables,
            targets=tuple(float(np.trace(initial @ h).real) for h in observables),
        )
        obj = ChannelObjective(paper_pair())
        counts, newton = {}, {}
        for n in (10, 30):
            opts = QabOptions(initial=initial, family=fam, max_iters=n)
            eig_calls.clear()
            traj = qab_run(obj, opts)
            assert len(traj.states) == n + 1
            counts[n] = len(eig_calls)
            newton[n] = sum(sol.iterations for sol in traj.tau_history)
        assert counts[30] - counts[10] <= (4 + k) * 20 + newton[30] - newton[10]

    def test_invalid_options(self, rng):
        with pytest.raises(ValueError):
            QabOptions(initial=random_state(rng, 2), gamma=0.0)
        with pytest.raises(ValueError):
            QabOptions(initial=np.diag([1.0, 0.0]))


@pytest.fixture(scope="module")
def channel_traj():
    obj = ChannelObjective(paper_pair())
    traj = qab_run(obj, QabOptions(initial=random_density(2, 21), max_iters=40))
    return obj, traj


class TestAppendixIdentities:
    """Per-step identities tying the J function to the recorded divergences."""

    def test_step_gap_identity(self, channel_traj):
        # gamma*D - D_Omega = J(next, cur) - G(next) for every step.
        obj, traj = channel_traj
        for t in range(len(traj.states) - 1):
            lhs = 1.0 * traj.step_kl[t] - traj.step_domega[t]
            rhs = j_function(traj.states[t + 1], traj.states[t], obj, 1.0) - traj.values[t + 1]
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_descent_where_ratio_holds(self, channel_traj):
        obj, traj = channel_traj
        for t in range(len(traj.states) - 1):
            if traj.step_domega[t] <= 1.0 * traj.step_kl[t] + 1e-12:
                assert traj.values[t + 1] <= traj.values[t] + 1e-9

    def test_telescoping_identity_any_reference(self, channel_traj, rng):
        # gamma(D(s||cur) - D(s||next)) - (G(next) - G(s))
        #   = gamma*D(next||cur) - D_Omega(next||cur) + D_Omega(s||cur)
        # for any unit-trace reference s, given the update's Gibbs form.
        obj, traj = channel_traj
        for _ in range(3):
            ref = random_state(rng, 2)
            g_ref = np.trace(ref @ obj.omega(ref)).real
            for t in (0, 3, 10):
                cur, nxt = traj.states[t], traj.states[t + 1]
                lhs = (
                    relative_entropy(ref, cur)
                    - relative_entropy(ref, nxt)
                    - (traj.values[t + 1] - g_ref)
                )
                rhs = traj.step_kl[t] - traj.step_domega[t] + d_omega(ref, cur, obj)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_fixed_point_stationarity(self):
        from qabcert import stationarity_residual

        obj = ChannelObjective(paper_pair())
        traj = qab_run(obj, QabOptions(initial=random_density(2, 33), max_iters=200))
        assert traj.step_kl[-1] <= 1e-14
        assert stationarity_residual(traj.states[-1], obj) <= 1e-6


class TestFloorState:
    def test_floors_and_renormalizes(self):
        out = floor_state(np.diag([1.0, 0.0]), 1e-14)
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 1e-15
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)

    def test_noop_on_full_rank(self, rng):
        rho = random_state(rng, 2)
        assert np.allclose(floor_state(rho), rho, atol=1e-14)
