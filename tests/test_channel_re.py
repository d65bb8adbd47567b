import dataclasses

import numpy as np
import pytest

import qabcert.channel_re as channel_re
from qabcert import (
    ChannelObjective,
    ChannelPair,
    ChoiMatrix,
    MixtureFamily,
    OracleInapplicableError,
    PairStack,
    QabOptions,
    SupportViolationError,
    bell_diagonal_oracle,
    bell_weights,
    brute_force_oracle,
    certify,
    choi_from_kraus,
    dephasing_choi,
    depolarizing_choi,
    objective_value,
    omega,
    omega1,
    qab_run,
    solve,
)
from qabcert.linalg import (
    OUTSIDE_MASS_TOL,
    STATE_FLOOR,
    Spectrum,
    floor_spectrum,
    hermitize,
    kron,
    matrix_inv_sqrt,
    matrix_log,
    matrix_sqrt,
    partial_trace,
)
from qabcert.quantum import (
    PAULI_Z,
    _bell_diagonal_choi,
    random_density,
    relative_entropy,
    sandwich,
)

from conftest import isometry_kraus_2to3, random_kraus, random_state


def paper_pair(p=0.05):
    return ChannelPair(dephasing_choi(0.4), depolarizing_choi(p))


def closed_form(p, p_deph=0.4):
    # Bell weights: dephasing (p_deph, 1-p_deph, 0, 0); depolarizing
    # (1-3p/4, p/4, p/4, p/4).
    return p_deph * np.log(p_deph / (1 - 0.75 * p)) + (1 - p_deph) * np.log(
        (1 - p_deph) / (0.25 * p)
    )


def amplitude_damping(g):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
    return choi_from_kraus([k0, k1])


def amplitude_damping_pair(g=0.3):
    return ChannelPair(amplitude_damping(g), depolarizing_choi(0.3))


class TestOmega:
    def test_equal_channels_zero(self, rng):
        pair = ChannelPair(dephasing_choi(0.4), dephasing_choi(0.4))
        assert np.max(np.abs(omega1(random_state(rng, 2), pair))) < 1e-12

    def test_weighted_trace_equals_objective(self, rng):
        # Tr[rho omega1(rho)] reproduces -D(S_N || S_M) on random states.
        pair = paper_pair()
        for _ in range(20):
            rho = random_state(rng, 2)
            lhs = np.trace(rho @ omega1(rho, pair)).real
            assert lhs == pytest.approx(objective_value(rho, pair), abs=1e-8)

    def test_uniform_input_gives_bell_value(self):
        pair = paper_pair(0.05)
        lhs = np.trace((np.eye(2) / 2) @ omega1(np.eye(2) / 2, pair)).real
        assert lhs == pytest.approx(-closed_form(0.05), abs=1e-10)

    def test_hermitized_form(self, rng):
        pair = paper_pair()
        rho = random_state(rng, 2)
        om = omega(rho, pair)
        assert np.max(np.abs(om - np.conj(om.T))) < 1e-14
        assert np.trace(rho @ om).real == pytest.approx(
            np.trace(rho @ omega1(rho, pair)).real, abs=1e-10
        )

    def test_support_violation_raises(self, rng):
        pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.0))
        with pytest.raises(SupportViolationError):
            omega1(random_state(rng, 2), pair)

    def test_batched_matches_loop(self, rng):
        pair = paper_pair()
        stack = np.stack([random_state(rng, 2) for _ in range(4)])
        batched = omega(stack, pair)
        for i in range(4):
            assert np.allclose(batched[i], omega(stack[i], pair), atol=1e-12)


def omega1_reference(rho, pair):
    """omega1 by its defining formula in the standard basis of A x B."""
    sq = kron(matrix_sqrt(rho), np.eye(pair.dim_b))
    s_n = hermitize(sq @ pair.choi_n.mat @ sq)
    s_m = hermitize(sq @ pair.choi_m.mat @ sq)
    inv_sq = kron(matrix_inv_sqrt(rho), np.eye(pair.dim_b))
    inner = pair.choi_n.mat @ sq @ (matrix_log(s_n) - matrix_log(s_m)) @ inv_sq
    return -partial_trace(inner, pair.dim_a, pair.dim_b, keep="A")


def random_kraus_pair(dim_a, dim_b, seed):
    """A rank-2 channel against a full-rank one (Kraus rank dim_a * dim_b)."""
    low = choi_from_kraus(random_kraus(seed, dim_a, dim_b, 2))
    full = choi_from_kraus(random_kraus(seed + 1, dim_a, dim_b, dim_a * dim_b))
    return ChannelPair(low, full)


def floored_iterate(dim, seed):
    """A state whose smallest eigenvalue sits at STATE_FLOOR, as qab_run leaves it."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(g)
    w = np.concatenate([[0.0], rng.uniform(0.2, 1.0, dim - 1)])
    return floor_spectrum(Spectrum(w / w.sum(), v), STATE_FLOOR)


REFERENCE_CASES = {
    "paper": (paper_pair, 2, 20),
    "ad-dep": (
        lambda: ChannelPair(amplitude_damping(0.2), depolarizing_choi(0.5)),
        2,
        20,
    ),
    "kraus-d2": (lambda: random_kraus_pair(2, 2, 11), 2, 20),
    "kraus-d3": (lambda: random_kraus_pair(3, 3, 21), 3, 20),
    "dim-b-3": (lambda: random_kraus_pair(2, 3, 31), 2, 20),
    "stack-1000": (paper_pair, 2, 1000),
}


class TestOmegaMatchesReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
    def test_random_states(self, case, rng):
        make_pair, dim, n = case
        pair = make_pair()
        states = np.stack([random_state(rng, dim) for _ in range(n)])
        ref = omega1_reference(states, pair)
        assert np.max(np.abs(omega1(states, pair) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim, case", [(2, "paper"), (3, "kraus-d3")])
    def test_iterate_floored_at_state_floor(self, dim, case):
        # The floored direction lies outside the support, so both evaluations
        # zero it, and S_M loses full support.
        pair, spec = REFERENCE_CASES[case][0](), floored_iterate(dim, 5)
        ref = omega1_reference(spec, pair)
        assert np.max(np.abs(omega1(spec, pair) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stacks_longer_than_a_chunk(self, rng):
        # 1300 qubit states span three chunks of OMEGA_CHUNK_ENTRIES // 32 = 512
        # states; a nested stack is flattened first.  Each state's omega is the
        # one it gets on its own.
        pair = paper_pair()
        states = np.stack([random_state(rng, 2) for _ in range(1300)])
        flat = omega1(states, pair)
        assert np.array_equal(omega1(states.reshape(13, 100, 2, 2), pair).reshape(flat.shape), flat)
        for i in (0, 511, 512, 1299):
            assert np.array_equal(omega1(states[i], pair), flat[i])

    def test_a_long_stack_enters_omega1_once(self, rng, monkeypatch):
        # The chunk loop walks the 1300 states of the test above in row slices
        # without calling omega1 again on each chunk.
        pair, calls, inner = paper_pair(), [], channel_re.omega1
        states = np.stack([random_state(rng, 2) for _ in range(1300)])
        expected = inner(states, pair)

        def counted(*args):
            calls.append(np.shape(args[0]))
            return inner(*args)

        monkeypatch.setattr(channel_re, "omega1", counted)
        assert np.array_equal(channel_re.omega1(states, pair), expected)
        assert len(calls) == 1

    def test_pair_stack_pairs_state_i_with_pair_i(self, rng, monkeypatch):
        # Seven qubit pairs in chunks of three states: the chunk loop slices
        # the Choi stack with the states, and each state gets the omega its
        # own pair gives it alone.
        monkeypatch.setattr("qabcert.channel_re.OMEGA_CHUNK_ENTRIES", 3 * 2 * 4 * 4)
        pairs = [paper_pair(p) for p in np.linspace(0.01, 0.3, 6)] + [random_kraus_pair(2, 2, 11)]
        states = np.stack([random_state(rng, 2) for _ in pairs])
        stacked = omega1(states, PairStack(pairs))
        for state, pair, om in zip(states, pairs, stacked):
            assert np.array_equal(omega1(state, pair), om)
        values = objective_value(states, PairStack(pairs))
        for state, pair, value in zip(states, pairs, values):
            assert objective_value(state, pair) == value

    def test_leaking_stack_raises(self, rng):
        pair = ChannelPair(amplitude_damping(0.3), amplitude_damping(0.5))
        stack = np.stack([random_state(rng, 2) for _ in range(3)])
        with pytest.raises(SupportViolationError, match="leaked mass"):
            omega1(stack, pair)


class TestObjectiveValue:
    def test_equal_channels_zero(self, rng):
        pair = ChannelPair(depolarizing_choi(0.2), depolarizing_choi(0.2))
        assert objective_value(random_state(rng, 2), pair) == pytest.approx(0.0, abs=1e-10)

    def test_two_route_agreement_pure_input(self):
        pair = paper_pair()
        rho = np.diag([1.0 - 1e-12, 1e-12])  # full rank for the omega route
        direct = objective_value(rho, pair)
        via_omega = np.trace(rho @ omega1(rho, pair)).real
        assert direct == pytest.approx(via_omega, abs=1e-6)

    def test_convexity_spot_check(self, rng):
        pair = paper_pair()
        for _ in range(10):
            r1, r2 = random_state(rng, 2), random_state(rng, 2)
            lam = rng.uniform()
            mix = objective_value(lam * r1 + (1 - lam) * r2, pair)
            assert mix <= lam * objective_value(r1, pair) + (1 - lam) * objective_value(
                r2, pair
            ) + 1e-9

    def test_support_violation_gives_minus_inf(self, rng):
        pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.0))
        assert objective_value(random_state(rng, 2), pair) == -np.inf

    def test_channel_objective_scale(self, rng):
        # The solver objective is the per-Choi-state divergence: 1/dim_a of
        # the full-scale objective, with the identity preserved.
        pair = paper_pair()
        obj = ChannelObjective(pair)
        rho = random_state(rng, 2)
        assert obj.value(rho) == pytest.approx(objective_value(rho, pair) / 2, abs=1e-12)
        assert np.allclose(obj.omega(rho), omega(rho, pair) / 2, atol=1e-12)
        assert obj.value(rho) == pytest.approx(
            np.trace(rho @ obj.omega(rho)).real, abs=1e-8
        )


class TestBellDiagonalOracle:
    def test_equal_channels_zero(self):
        assert bell_diagonal_oracle(ChannelPair(dephasing_choi(0.3), dephasing_choi(0.3))) == 0.0

    def test_closed_form(self):
        for p in (0.01, 0.05, 0.1):
            assert bell_diagonal_oracle(paper_pair(p)) == pytest.approx(
                closed_form(p), abs=1e-12
            )

    def test_identity_limit_infinite(self):
        assert bell_diagonal_oracle(paper_pair(0.0)) == np.inf

    def test_non_bell_diagonal_rejected(self):
        with pytest.raises(OracleInapplicableError):
            bell_diagonal_oracle(amplitude_damping_pair())
        infinite = ChannelPair(amplitude_damping(0.3), amplitude_damping(0.5))
        assert not infinite.finite
        with pytest.raises(OracleInapplicableError):
            bell_diagonal_oracle(infinite)

    def test_infinite_exactly_when_the_pair_is_not_finite(self):
        # depolarizing(1e-12) leaks 1e-12 of its mass outside supp
        # dephasing(0.4), below OUTSIDE_MASS_TOL: the pair is finite, and the
        # oracle sums over the weights both channels carry.
        edge = ChannelPair(depolarizing_choi(1e-12), dephasing_choi(0.4))
        assert 0 < edge.leaked_mass <= OUTSIDE_MASS_TOL and edge.finite
        p, q = bell_weights(edge.choi_n)[:2], bell_weights(edge.choi_m)[:2]
        assert bell_diagonal_oracle(edge) == float(np.sum(p * np.log(p / q)))
        assert bell_diagonal_oracle(edge) == pytest.approx(-np.log(0.4), abs=1e-9)
        for pair in (paper_pair(0.0), ChannelPair(depolarizing_choi(0.5), dephasing_choi(0.4))):
            assert not pair.finite
            assert bell_diagonal_oracle(pair) == np.inf

    def test_matches_the_weight_loop(self, rng):
        # The vector form keeps the loop's skip and +inf rules and its
        # left-to-right sum, so it agrees to the last bit.
        def loop(p, q):
            total = 0.0
            for pi, qi in zip(p, q):
                if pi <= 1e-15:
                    continue
                if qi <= 1e-15:
                    return np.inf
                total += pi * np.log(pi / qi)
            return float(total)

        def weights():
            w = rng.dirichlet(np.ones(4)) * (rng.random(4) > 0.3)
            return w / w.sum() if w.sum() > 0 else np.eye(4)[0]

        for _ in range(200):
            w_n, w_m = weights(), weights()
            choi_n, choi_m = _bell_diagonal_choi(w_n), _bell_diagonal_choi(w_m)
            assert bell_weights(choi_n) == pytest.approx(w_n, abs=1e-15)
            p, q = bell_weights(choi_n), bell_weights(choi_m)
            assert bell_diagonal_oracle(ChannelPair(choi_n, choi_m)) == loop(p, q)

    def test_equals_divergence_at_maximally_entangled_input(self):
        # The oracle value is the sandwich divergence at rho = I/2.
        pair = paper_pair(0.07)
        s_n = sandwich(np.eye(2) / 2, pair.choi_n)
        s_m = sandwich(np.eye(2) / 2, pair.choi_m)
        assert bell_diagonal_oracle(pair) == pytest.approx(
            relative_entropy(s_n, s_m), abs=1e-10
        )


class TestBruteForceOracle:
    def test_equal_channels_zero(self):
        pair = ChannelPair(depolarizing_choi(0.3), depolarizing_choi(0.3))
        value, argmin = brute_force_oracle(pair, 5)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_agrees_with_bell_oracle(self):
        pair = paper_pair(0.05)
        value, argmin = brute_force_oracle(pair, 41)
        # Grid restriction: minimum within O(grid spacing) of the true one.
        assert -value == pytest.approx(closed_form(0.05), abs=5e-2)
        assert -value <= closed_form(0.05) + 1e-12

    def test_never_beats_solver(self):
        pair = paper_pair(0.05)
        opts = QabOptions(initial=random_density(2, 3), divergence_stop=1e-10)
        result = solve(pair, opts, n_samples=50)
        value, _ = brute_force_oracle(pair, 31)
        assert -value <= result.value + 1e-6

    def test_non_qubit_rejected(self):
        qutrit = choi_from_kraus([np.eye(3)])
        with pytest.raises(OracleInapplicableError):
            brute_force_oracle(ChannelPair(qutrit, qutrit), 5)

    def test_scores_s_n_through_its_rank_2_gram(self, eig_shapes):
        # Gamma_N = dephasing(0.4) has rank 2: one 4x4 decomposition factors
        # it, and each of the 11 radii decomposes the 121 directions' S'_M at
        # 4x4 and their S_N Grams at 2x2.
        pair = paper_pair()
        eig_shapes.clear()
        brute_force_oracle(pair, 11)
        assert sorted(eig_shapes) == sorted(
            [(4, 4)] + [(121, 4, 4)] * 11 + [(121, 2, 2)] * 11
        )


def _bloch_states(r, theta, phi) -> np.ndarray:
    nx = r * np.sin(theta) * np.cos(phi)
    ny = r * np.sin(theta) * np.sin(phi)
    nz = r * np.cos(theta)
    out = np.zeros(np.shape(r) + (2, 2), dtype=complex)
    out[..., 0, 0] = 1 + nz
    out[..., 1, 1] = 1 - nz
    out[..., 0, 1] = nx - 1j * ny
    out[..., 1, 0] = nx + 1j * ny
    return out / 2


def grid_reference(pair, resolution):
    """The oracle by its definition: objective_value on every Bloch grid state."""
    rs = np.linspace(0.0, 1.0 - 1e-6, resolution)
    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    grid = [g.ravel() for g in np.meshgrid(rs, thetas, phis, indexing="ij")]
    rhos = _bloch_states(*grid)
    vals = objective_value(rhos, pair)
    i = int(np.argmin(vals))
    return float(vals[i]), rhos[i]


def qubit_to_qutrit_pair():
    iso = choi_from_kraus(isometry_kraus_2to3())
    noisy = ChoiMatrix(0.7 * iso.mat + 0.1 * np.eye(6), dim_a=2, dim_b=3)
    return ChannelPair(iso, noisy)


# Gamma_N has rank 2 except where the name says otherwise: the oracle scores
# every rank through one Kraus factor of Gamma_N.
GRID_PAIRS = {
    "bell": lambda: paper_pair(0.05),
    "ad-dep": amplitude_damping_pair,
    "random-kraus": lambda: ChannelPair(
        choi_from_kraus(random_kraus(3, 2, 2, 2)), choi_from_kraus(random_kraus(4, 2, 2, 4))
    ),
    "ad-ad-infinite": lambda: ChannelPair(amplitude_damping(0.3), amplitude_damping(0.5)),
    "qubit-to-qutrit": qubit_to_qutrit_pair,
    "rank-1": lambda: ChannelPair(choi_from_kraus([np.eye(2)]), depolarizing_choi(0.05)),
    "full-rank": lambda: ChannelPair(
        _bell_diagonal_choi((0.1, 0.2, 0.3, 0.4)), depolarizing_choi(0.3)
    ),
}


class TestBruteForceOracleMatchesGridStates:
    # An odd resolution puts no antipode -n on the grid, so a ray scored at
    # the wrong end of its eigenbasis changes the minimum.
    @pytest.mark.parametrize("resolution", [11, 12])
    @pytest.mark.parametrize("make_pair", GRID_PAIRS.values(), ids=GRID_PAIRS.keys())
    def test_value_and_argmin(self, make_pair, resolution):
        pair = make_pair()
        value, argmin = brute_force_oracle(pair, resolution)
        ref_value, ref_argmin = grid_reference(pair, resolution)
        if np.isinf(ref_value):
            assert value == ref_value == -np.inf
        else:
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
        assert np.max(np.abs(argmin - ref_argmin)) <= 1e-12
        assert np.max(np.abs(argmin - np.conj(argmin.T))) == 0.0


class TestSolveUnconstrained:
    def test_equal_channels_certified_zero(self, rng):
        pair = ChannelPair(dephasing_choi(0.4), dephasing_choi(0.4))
        opts = QabOptions(initial=random_state(rng, 2), divergence_stop=1e-10)
        result = solve(pair, opts, n_samples=50)
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert result.report.certified

    def test_paper_instance_value(self):
        opts = QabOptions(initial=random_density(2, 5), max_iters=100, divergence_stop=1e-10)
        result = solve(paper_pair(0.05), opts, n_samples=200)
        assert result.value == pytest.approx(1.9715, abs=1e-3)
        assert result.value == pytest.approx(closed_form(0.05), abs=1e-3)

    def test_sweep_monotone_decreasing_in_p(self):
        values = []
        for i, p in enumerate((0.02, 0.05, 0.08)):
            opts = QabOptions(initial=random_density(2, [9, i]), divergence_stop=1e-10)
            values.append(solve(paper_pair(p), opts, n_samples=50).value)
        assert values[0] > values[1] > values[2]


class TestSolveEnergyConstrained:
    def test_paper_energy_run(self):
        # Constraint Tr(rho sigma_z) = -0.25, dephasing(0.4) vs depolarizing(0.05).
        pair = paper_pair()
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        opts = QabOptions(initial=random_density(2, 12), max_iters=200, divergence_stop=1e-10)
        result = solve(pair, dataclasses.replace(opts, family=fam), n_samples=50)
        traj = result.trajectory
        for state in traj.states:
            assert abs(np.trace(state @ PAULI_Z).real + 0.25) <= 1e-8
        assert np.all(np.diff(traj.values) <= 1e-9)
        assert result.value < solve(pair, opts, n_samples=50).value

    def test_constraint_matching_unconstrained_optimum(self):
        # The unconstrained optimum I/2 has Bloch z = 0, so constraining
        # Tr(rho sigma_z) = 0 must not change the value.
        pair = paper_pair()
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(0.0,))
        opts = QabOptions(initial=random_density(2, 4), max_iters=150, divergence_stop=1e-10)
        res_c = solve(pair, dataclasses.replace(opts, family=fam), n_samples=50)
        res_u = solve(pair, opts, n_samples=50)
        assert res_c.value == pytest.approx(res_u.value, abs=1e-6)

    def test_infeasible_initial_gets_projected(self):
        pair = paper_pair()
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
        initial = np.diag([0.9, 0.1])  # violates the constraint
        opts = QabOptions(initial=initial, max_iters=100, divergence_stop=1e-10)
        result = solve(pair, dataclasses.replace(opts, family=fam), n_samples=50)
        assert abs(np.trace(result.trajectory.states[0] @ PAULI_Z).real + 0.25) <= 1e-8

    def test_feasible_solve_decomposes_only_what_run_and_certify_do(self, eig_calls):
        # The options were validated when built; solving under them
        # decomposes nothing more than the run and its certificate.
        pair = paper_pair()
        fam = MixtureFamily(observables=(PAULI_Z,), targets=(0.0,))
        run_opts = QabOptions(initial=np.eye(2) / 2, max_iters=20, family=fam)
        eig_calls.clear()
        result = solve(pair, run_opts, n_samples=50)
        solve_calls = list(eig_calls)
        eig_calls.clear()
        obj = ChannelObjective(pair)
        report = certify(qab_run(obj, run_opts), obj, n_samples=50)
        assert result.report == report
        assert solve_calls == eig_calls


def d4_pair():
    """Ququart rank 4 vs rank 16: Gamma_M is full rank, so the divergence is finite."""
    low = choi_from_kraus(random_kraus(31, 4, 4, 4))
    full = choi_from_kraus(random_kraus(32, 4, 4, 16))
    return ChannelPair(low, full)


class TestChannelPair:
    def test_leaked_mass_decides_finiteness(self):
        assert d4_pair().leaked_mass == 0.0
        assert paper_pair().leaked_mass == 0.0
        infinite = [
            ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.0)),
            ChannelPair(amplitude_damping(0.3), amplitude_damping(0.5)),
        ]
        for pair in infinite:
            assert pair.leaked_mass > OUTSIDE_MASS_TOL

    def test_finite_pair_runs_as_iterates_near_the_boundary(self):
        # The iterate's smallest eigenvalue drifts to ~1e-10, where S_M's
        # smallest eigenvalues fall under the relative support cutoff; a
        # per-state leak scan raised at about the 73rd omega call.  Each
        # iterate's value is the divergence objective_value scores there,
        # wherever that score is finite; at six of these 101 iterates, the
        # last one among them, its relative support cut reads S_N as leaking
        # out of S_M (+inf).
        pair = d4_pair()
        obj = ChannelObjective(pair)
        traj = qab_run(obj, QabOptions(np.eye(4) / 4, gamma=1, max_iters=100))
        assert len(traj.states) == 101
        assert np.isfinite(traj.values).all() and np.isfinite(traj.step_domega).all()
        scored = -objective_value(np.stack(traj.states), pair)
        finite = np.isfinite(scored)
        reported = np.array([obj.channel_scale(v) for v in traj.values])
        np.testing.assert_allclose(reported[finite], scored[finite], rtol=1e-12)
        assert finite.sum() > 90

    def test_chois_are_stacked_once(self):
        pair = paper_pair()
        assert pair.chois.shape == (2, 4, 4)
        assert np.array_equal(pair.chois[0], pair.choi_n.mat)
        assert np.array_equal(pair.chois[1], pair.choi_m.mat)
        assert "chois" not in repr(pair)

    def test_pair_stack(self):
        pairs = [paper_pair(), ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.0))]
        stack = PairStack(pairs)
        assert (stack.dim_a, stack.dim_b) == (2, 2)
        assert np.array_equal(stack.chois, np.stack([pair.chois for pair in pairs]))
        assert stack.leaked_mass == pairs[1].leaked_mass > OUTSIDE_MASS_TOL
        with pytest.raises(ValueError, match="share"):
            PairStack([paper_pair(), random_kraus_pair(2, 3, 31)])
        with pytest.raises(ValueError):
            PairStack([])

    def test_finite_is_the_leak_verdict(self):
        ad = ChannelPair(amplitude_damping(0.3), amplitude_damping(0.5))
        pairs = [paper_pair(), d4_pair(), amplitude_damping_pair(), paper_pair(0.0), ad]
        assert [pair.finite for pair in pairs] == [True, True, True, False, False]
        for pair in pairs:
            assert pair.finite == (pair.leaked_mass <= OUTSIDE_MASS_TOL)
        assert PairStack([paper_pair(0.05), paper_pair(0.1)]).finite
        assert not PairStack([paper_pair(0.05), paper_pair(0.0)]).finite

    def test_pairs_compare_by_value(self):
        # Equal but distinct Choi matrices; the generated __eq__ compared
        # their arrays with ==, which raised.
        assert paper_pair(0.05) is not paper_pair(0.05)
        assert paper_pair(0.05) == paper_pair(0.05)
        assert paper_pair(0.05) != paper_pair(0.06)
        assert paper_pair(0.05).choi_m == depolarizing_choi(0.05) != dephasing_choi(0.05)
        assert depolarizing_choi(0.05) != "depolarizing:0.05"
        assert PairStack([paper_pair(0.05), paper_pair(0.1)]) == PairStack(
            [paper_pair(0.05), paper_pair(0.1)]
        )
        assert PairStack([paper_pair(0.05)]) != PairStack([paper_pair(0.1)])

    def test_dimension_mismatch(self):
        qutrit = choi_from_kraus([np.eye(3)])
        with pytest.raises(ValueError):
            ChannelPair(dephasing_choi(0.4), qutrit)
