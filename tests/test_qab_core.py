import numpy as np
import pytest

from qabcert import (
    ChannelObjective,
    ChannelPair,
    EProjectionError,
    IterationError,
    MixtureFamily,
    QabOptions,
    TauSolution,
    d_omega,
    dephasing_choi,
    depolarizing_choi,
    PairStack,
    qab_run,
    qab_run_many,
    relative_entropy,
)
from qabcert.linalg import STATE_FLOOR, eigh, floor_spectrum, gibbs_spectrum, matrix_fn
from qabcert.mixture import CONSTRAINT_TOL
from qabcert.quantum import PAULI_X, PAULI_Z, choi_from_kraus, random_density

from conftest import (
    ConstantObjective,
    CountingObjective,
    LinearTraceObjective,
    random_kraus,
    random_state,
)


def floor_state(rho: np.ndarray) -> np.ndarray:
    """Raise eigenvalues below ``STATE_FLOOR`` and renormalize, keeping log rho finite."""
    return floor_spectrum(rho, STATE_FLOOR).matrix()


def f3_map(rho: np.ndarray, obj, gamma: float) -> np.ndarray:
    """Trace-normalized exp(log rho - omega(rho)/gamma): one step of the iteration, unfloored."""
    spec = eigh(rho)
    w = spec.eigenvalues
    if w.min() <= 1e-15 * w.max():
        raise ValueError("rho is rank deficient beyond the support cutoff; floor it first")
    # Plain spectral log (no support cutoff): floored eigenvalues sit below
    # the relative support cutoff and must not be zeroed out.
    return gibbs_spectrum(matrix_fn(spec, np.log) - obj.omega(spec) / gamma).matrix()


def j_function(rho: np.ndarray, sigma: np.ndarray, obj, gamma: float) -> float:
    """gamma D(rho || sigma) + Tr rho omega(sigma); equals G(rho) at sigma = rho."""
    cross = float(np.einsum("ij,ji->", rho, obj.omega(sigma)).real)
    return gamma * relative_entropy(rho, sigma) + cross


def paper_pair(p=0.05):
    return ChannelPair(dephasing_choi(0.4), depolarizing_choi(p))


def constrained_setup(k):
    """A full-rank initial state and the family of its first k Pauli expectations."""
    initial = random_density(2, 11)
    observables = (PAULI_Z, PAULI_X)[:k]
    fam = MixtureFamily(
        observables=observables,
        targets=tuple(float(np.trace(initial @ h).real) for h in observables),
    )
    return initial, fam


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
        value = obj.channel_scale(traj.values[-1])
        assert value == pytest.approx(bell_diagonal_oracle(pair), abs=1e-3)

    def test_divergence_stop(self, rng):
        obj = ChannelObjective(paper_pair())
        opts = QabOptions(initial=random_density(2, 5), max_iters=100, divergence_stop=1e-10)
        traj = qab_run(obj, opts)
        assert len(traj.states) < 101
        assert traj.step_kl[-1] < 1e-10

    def test_infeasible_start_is_projected_onto_family(self):
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        obj = ConstantObjective(PAULI_Z)
        traj = qab_run(obj, QabOptions(initial=np.eye(2) / 2, family=fam, max_iters=3))
        assert abs(fam.residuals(traj.states[0])[0]) <= 1e-8
        assert len(traj.tau_history) == len(traj.step_kl)

    def test_start_projection_failure_is_iteration_zero(self, monkeypatch):
        monkeypatch.setattr("qabcert.mixture.MAX_NEWTON_STEPS", 0)
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        obj = ChannelObjective(paper_pair())
        opts = QabOptions(initial=np.eye(2) / 2, family=fam, max_iters=5)
        with pytest.raises(IterationError) as err:
            qab_run(obj, opts)
        assert err.value.iteration == 0
        assert isinstance(err.value.cause, EProjectionError)

    def test_e_projection_failure_names_its_iteration(self, monkeypatch):
        monkeypatch.setattr("qabcert.mixture.MAX_NEWTON_STEPS", 0)
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        obj = ChannelObjective(paper_pair())
        opts = QabOptions(initial=np.diag([0.375, 0.625]), family=fam, max_iters=5)
        with pytest.raises(IterationError) as err:
            qab_run(obj, opts)
        assert err.value.iteration == 1
        assert isinstance(err.value.cause, EProjectionError)

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
        # omega, log rho_t and D(rho_{t+1} || rho_t) reuse known spectra; omega
        # decomposes S_M (S_N's rank-2 Gram takes no LAPACK call) and the Gibbs
        # update one matrix: two LAPACK calls and two matrices per step.
        obj = ChannelObjective(paper_pair())
        opts = {n: QabOptions(initial=random_density(2, 9), max_iters=n) for n in (10, 30)}
        calls, matrices = {}, {}
        for n, o in opts.items():
            eig_calls.clear()
            traj = qab_run(obj, o)
            assert len(traj.states) == n + 1
            calls[n], matrices[n] = len(eig_calls), sum(eig_calls)
        assert calls[30] - calls[10] == 2 * 20
        assert matrices[30] - matrices[10] == 2 * 20
        assert calls[10] <= 2 * 10 + 2

    @pytest.mark.parametrize(
        "choi_n, per_step",
        [(choi_from_kraus([np.eye(2)]), 2), (dephasing_choi(0.4), 2), (depolarizing_choi(0.3), 3)],
        ids=["rank-1", "rank-2", "full-rank"],
    )
    def test_step_matrices_follow_the_kraus_rank_of_gamma_n(self, eig_calls, choi_n, per_step):
        # S'_M and the Gibbs update take one call each; up to rank 2, S_N's Gram
        # log takes none, and a larger Gram takes a third.
        obj = ChannelObjective(ChannelPair(choi_n, depolarizing_choi(0.05)))
        calls, matrices = {}, {}
        for n in (10, 30):
            eig_calls.clear()
            qab_run(obj, QabOptions(initial=random_density(2, 9), max_iters=n))
            calls[n], matrices[n] = len(eig_calls), sum(eig_calls)
        assert calls[30] - calls[10] == per_step * 20
        assert matrices[30] - matrices[10] == per_step * 20

    @pytest.mark.parametrize("k", [1, 2])
    def test_constrained_step_decomposes_at_most_four_plus_k_matrices(self, eig_calls, k):
        # omega takes two decompositions; the e-projection takes one per tau
        # it visits (the warm start and one per Newton step), and its
        # spectrum is floored as it is.  The bound leaves room for k more.
        initial, fam = constrained_setup(k)
        obj = ChannelObjective(paper_pair())
        counts, newton = {}, {}
        for n in (10, 30):
            opts = QabOptions(initial=initial, family=fam, max_iters=n)
            eig_calls.clear()
            traj = qab_run(obj, opts)
            assert len(traj.states) == n + 1
            counts[n] = len(eig_calls)
            newton[n] = sum(sol.iterations for sol in traj.tau_history)
        assert counts[30] - counts[10] <= (3 + k) * 20 + newton[30] - newton[10]

    @pytest.mark.parametrize("k", [1, 2])
    def test_feasibility_checked_once_per_constrained_run(self, monkeypatch, k):
        # MixtureFamily decomposes each observable once to check its target's
        # spectral range; the run's e-projections decompose none.
        checked = []
        original = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            if any(np.array_equal(m, h) for h in (PAULI_Z, PAULI_X)):
                checked.append(1)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        initial, fam = constrained_setup(k)
        assert len(checked) == k
        opts = QabOptions(initial=initial, family=fam, max_iters=20)
        traj = qab_run(ChannelObjective(paper_pair()), opts)
        assert len(traj.tau_history) == 20
        assert len(checked) == k

    def test_invalid_options(self, rng):
        with pytest.raises(ValueError):
            QabOptions(initial=random_state(rng, 2), gamma=0.0)
        with pytest.raises(ValueError):
            QabOptions(initial=np.diag([1.0, 0.0]))

    def test_nan_initial_state_rejected(self):
        # LAPACK may return a NaN spectrum here without raising.
        with pytest.raises(ValueError):
            QabOptions(initial=np.array([[0.5, np.nan], [np.nan, 0.5]]))

    @pytest.mark.parametrize("initial", [[[0.5, 0], [0, np.inf]], [[0.5, 0.3], [0, 0.5]]])
    def test_non_finite_or_non_hermitian_initial_state_rejected(self, initial):
        # hermitize would warn on the inf, and would halve the one-sided entry.
        with pytest.raises(ValueError, match="finite and Hermitian"):
            QabOptions(initial=np.array(initial))

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, rng, gamma):
        with pytest.raises(ValueError, match="gamma"):
            QabOptions(initial=random_state(rng, 2), gamma=gamma)

    def test_family_defaults_to_the_empty_family(self, rng):
        assert QabOptions(initial=random_state(rng, 2)).family.size == 0
        with pytest.raises(TypeError, match="MixtureFamily"):
            QabOptions(initial=random_state(rng, 2), family=None)


def lockstep_runs(n, max_iters, divergence_stop=1e-10):
    """``n`` paper pairs over p in [0.004, 0.1] with seeded starts, as ``sweep`` runs them."""
    pairs = [paper_pair(float(p)) for p in np.linspace(0.004, 0.1, n)]
    runs = [
        QabOptions(
            random_density(2, np.random.default_rng([7, i, 0])),
            max_iters=max_iters,
            divergence_stop=divergence_stop,
        )
        for i in range(n)
    ]
    return pairs, runs


def same_trajectory(a, b) -> bool:
    return (
        len(a.states) == len(b.states)
        and all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
        and (a.values, a.step_kl, a.step_domega, a.gamma)
        == (b.values, b.step_kl, b.step_domega, b.gamma)
    )


class TestQabRunMany:
    def test_each_run_is_its_qab_run_bit_for_bit(self):
        # Runs stop at different steps and one reaches max_iters; a stopped
        # run records nothing more while the rest go on.
        pairs, runs = lockstep_runs(7, max_iters=28)
        trajs = qab_run_many(ChannelObjective(PairStack(pairs)), runs)
        steps = [len(traj.states) - 1 for traj in trajs]
        assert 28 in steps and len(set(steps)) >= 3
        for pair, opts, traj in zip(pairs, runs, trajs):
            assert same_trajectory(traj, qab_run(ChannelObjective(pair), opts))
            if len(traj.states) <= 28:
                assert traj.step_kl[-1] < 1e-10

    def test_non_bell_qutrit_runs_without_a_stop(self):
        pairs = [
            ChannelPair(
                choi_from_kraus(random_kraus(seed, 3, 3, 2)),
                choi_from_kraus(random_kraus(seed + 1, 3, 3, 9)),
            )
            for seed in (21, 41, 61)
        ]
        runs = [QabOptions(random_density(3, i), max_iters=15) for i in range(3)]
        trajs = qab_run_many(ChannelObjective(PairStack(pairs)), runs)
        for pair, opts, traj in zip(pairs, runs, trajs):
            assert len(traj.states) == 16
            assert same_trajectory(traj, qab_run(ChannelObjective(pair), opts))

    def test_runs_must_share_settings_and_a_family_runs_alone(self):
        pairs, runs = lockstep_runs(2, max_iters=5)
        obj = ChannelObjective(PairStack(pairs))
        other = QabOptions(runs[1].initial, gamma=2.0, max_iters=5, divergence_stop=1e-10)
        with pytest.raises(ValueError, match="share"):
            qab_run_many(obj, [runs[0], other])
        _, fam = constrained_setup(1)
        constrained = [
            QabOptions(run.initial, max_iters=5, family=fam, divergence_stop=1e-10) for run in runs
        ]
        with pytest.raises(ValueError, match="family"):
            qab_run_many(obj, [runs[0], constrained[1]])
        with pytest.raises(ValueError, match="runs alone"):
            qab_run_many(obj, constrained)

    def test_an_empty_run_list_is_a_value_error(self):
        pairs, _ = lockstep_runs(2, max_iters=5)
        with pytest.raises(ValueError, match="non-empty run list"):
            qab_run_many(ChannelObjective(PairStack(pairs)), [])

    def test_a_lone_constrained_run_is_its_qab_run_bit_for_bit(self):
        # The start is off the family, so iteration 0 is its e-projection.
        pairs, runs = lockstep_runs(1, max_iters=6, divergence_stop=None)
        _, fam = constrained_setup(2)
        opts = QabOptions(runs[0].initial, max_iters=6, family=fam)
        assert np.max(np.abs(fam.residuals(opts.initial))) > CONSTRAINT_TOL
        obj = ChannelObjective(pairs[0])
        [traj] = qab_run_many(obj, [opts])
        alone = qab_run(obj, opts)
        assert same_trajectory(traj, alone)
        assert len(traj.tau_history) == len(alone.tau_history) == 6
        for a, b in zip(traj.tau_history, alone.tau_history):
            assert np.array_equal(a.tau, b.tau)
            assert (a.gradient_norm, a.iterations) == (b.gradient_norm, b.iterations)

    @pytest.mark.parametrize("n_runs", [1, 5])
    def test_a_step_is_two_lapack_calls_whatever_the_number_of_runs(self, eig_calls, n_runs):
        calls, matrices = {}, {}
        for n in (10, 30):
            pairs, runs = lockstep_runs(n_runs, max_iters=n, divergence_stop=None)
            obj = ChannelObjective(PairStack(pairs))
            eig_calls.clear()
            trajs = qab_run_many(obj, runs)
            assert [len(traj.states) for traj in trajs] == [n + 1] * n_runs
            calls[n], matrices[n] = len(eig_calls), sum(eig_calls)
        assert calls[30] - calls[10] == 2 * 20
        assert matrices[30] - matrices[10] == 2 * n_runs * 20


class TestCycleReplay:
    """A step is a function of the iterate's spectrum bits and the warm-start tau.

    Once that key repeats, the run replays the records since its first step, so
    the objective counts one omega call at the start and one per computed step.
    """

    @pytest.mark.parametrize(
        "make_pair",
        [lambda: ChannelPair(dephasing_choi(0.4), dephasing_choi(0.4)), paper_pair],
        ids=["equal", "paper"],
    )
    def test_a_run_from_its_optimum_replays_within_two_steps(self, make_pair):
        # Omega of an equal pair is exactly 0; the paper pair's optimum is I/2.
        obj = CountingObjective(ChannelObjective(make_pair()))
        traj = qab_run(obj, QabOptions(np.eye(2) / 2, max_iters=1000))
        assert obj.calls <= 3
        assert len(traj.states) == len(traj.values) == 1001
        assert len(traj.step_kl) == len(traj.step_domega) == 1000

    @pytest.mark.parametrize("tau_moves", [True, False], ids=["moving-tau", "fixed-tau"])
    def test_a_step_repeats_only_with_its_warm_start_tau(self, monkeypatch, tau_moves):
        fixed, projections = eigh(np.diag([0.3, 0.7])), []

        def project(base, family, tau0=None):
            projections.append(tau0)
            tau = float(len(projections)) if tau_moves else 1.0
            return fixed, TauSolution(np.array([tau]), 0.0, 1)

        monkeypatch.setattr("qabcert.qab_core.e_project", project)
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(0.0,))  # I/2 is on it
        obj = CountingObjective(ConstantObjective(np.zeros((2, 2))))
        traj = qab_run(obj, QabOptions(np.eye(2) / 2, max_iters=50, family=fam))
        assert len(traj.states) == 51 and len(traj.tau_history) == 50
        # Fixed tau: step 2 has step 1's key, so steps 2-49 replay step 1.
        assert (len(projections), obj.calls) == ((50, 51) if tau_moves else (2, 3))
        assert tau_moves or all(sol is traj.tau_history[1] for sol in traj.tau_history[1:])


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
        # At a full-rank, unconstrained final state every traceless Hermitian
        # direction is feasible, so stationarity is omega ∝ I.
        obj = ChannelObjective(paper_pair())
        traj = qab_run(obj, QabOptions(initial=random_density(2, 33), max_iters=200))
        assert traj.step_kl[-1] <= 1e-14
        om = obj.omega(traj.states[-1])
        assert np.linalg.norm(om - np.trace(om).real / 2 * np.eye(2)) <= 1e-6


class TestFloorState:
    def test_floors_and_renormalizes(self):
        out = floor_state(np.diag([1.0, 0.0]))
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 1e-15
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)

    def test_noop_on_full_rank(self, rng):
        rho = random_state(rng, 2)
        assert np.allclose(floor_state(rho), rho, atol=1e-14)
