import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qabcert import (
    ChannelObjective,
    ChannelPair,
    Objective,
    QabOptions,
    Spectrum,
    Trajectory,
    certify,
    check_a1,
    check_a2,
    check_a3,
    dephasing_choi,
    depolarizing_choi,
    eigh,
    matrix_log,
    qab_run,
    relative_entropy,
    xme_bound,
)
from qabcert.linalg import _support, hermitize
from qabcert.quantum import PAULI_Z, random_density
from qabcert.certify import A1_MARGIN, _draw_perturbations, _repair_candidates, _scan
from qabcert.serialize import report_to_dict

from conftest import ConstantObjective, random_state


def constant_run(rng, k=None, iters=10):
    obj = ConstantObjective(PAULI_Z if k is None else k)
    traj = qab_run(obj, QabOptions(initial=random_state(rng, 2), max_iters=iters))
    return obj, traj


@pytest.fixture(scope="module")
def channel_run():
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    obj = ChannelObjective(pair)
    opts = QabOptions(initial=random_density(2, 17), max_iters=100, divergence_stop=1e-10)
    return obj, qab_run(obj, opts)


class TestCheckA3:
    def test_constant_trajectory_errors(self, rng):
        obj = ConstantObjective(np.zeros((2, 2)))
        traj = qab_run(obj, QabOptions(initial=random_state(rng, 2), max_iters=4))
        with pytest.raises(ValueError, match="converged"):
            check_a3(traj)

    def test_constant_omega_ratios_zero(self, rng):
        _, traj = constant_run(rng)
        stats = check_a3(traj)
        assert stats.min == pytest.approx(0.0, abs=1e-12)
        assert stats.max == pytest.approx(0.0, abs=1e-12)
        assert stats.count + stats.skipped == len(traj.step_kl)

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError):
            check_a3(Trajectory(states=[np.eye(2) / 2], values=[0.0]))


class TestCheckA2:
    def test_constant_omega_zero(self, rng):
        obj, traj = constant_run(rng)
        stats = check_a2(traj, obj)
        assert stats.min == pytest.approx(0.0, abs=1e-12)
        assert stats.max == pytest.approx(0.0, abs=1e-12)

    def test_two_state_trajectory_matches_a3(self, channel_run):
        obj, traj = channel_run
        short = Trajectory(
            states=traj.states[:2],
            values=traj.values[:2],
            step_kl=traj.step_kl[:1],
            step_domega=traj.step_domega[:1],
        )
        a2 = check_a2(short, obj)
        a3 = check_a3(short)
        assert a2.count == a3.count == 1
        assert a2.min == pytest.approx(a3.min, abs=1e-12)

    def test_decomposes_each_iterate_once(self, channel_run, eig_calls):
        # Each earlier iterate is decomposed once, for both divergences, and
        # omega reuses that spectrum, decomposing only S_N and S_M.
        obj, traj = channel_run
        steps = len(traj.states) - 1
        check_a2(traj, obj)
        assert sum(eig_calls) <= 3 * steps + 4


class TestCheckA1:
    def test_constant_omega_single_sample(self, rng):
        obj, traj = constant_run(rng)
        stats = check_a1(traj.states[-1], obj, 1, 0.1, seed=5)
        assert stats.count == 1
        assert stats.min == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self, channel_run):
        obj, traj = channel_run
        s1 = check_a1(traj.states[-1], obj, 200, 0.1, seed=9)
        s2 = check_a1(traj.states[-1], obj, 200, 0.1, seed=9)
        assert s1 == s2
        s3 = check_a1(traj.states[-1], obj, 200, 0.1, seed=10)
        assert s3 != s1

    def test_nested_sample_monotonicity(self, channel_run):
        obj, traj = channel_run
        small = check_a1(traj.states[-1], obj, 100, 0.1, seed=3)
        large = check_a1(traj.states[-1], obj, 400, 0.1, seed=3)
        assert large.min <= small.min
        assert large.max >= small.max

    @pytest.fixture
    def generators_built(self, monkeypatch):
        # qabcert.certify is shadowed by the certify function on the package.
        np_random = importlib.import_module("qabcert.certify").np.random
        default_rng, built = np_random.default_rng, []

        def counting(seed=None, *args, **kwargs):
            if not isinstance(seed, np.random.Generator):  # a Generator is returned, not built
                built.append(seed)
            return default_rng(seed, *args, **kwargs)

        monkeypatch.setattr(np_random, "default_rng", counting)
        return built

    @pytest.mark.parametrize("n_samples", [10, 1000])
    def test_generators_do_not_scale_with_samples(self, channel_run, generators_built, n_samples):
        obj, traj = channel_run
        stats = check_a1(traj.states[-1], obj, n_samples, 0.1, seed=3)
        assert stats.count == n_samples  # nothing rejected
        assert len(generators_built) == 2

    def test_rows_nest_in_n_samples(self, channel_run):
        final = channel_run[1].states[-1]

        def draw(n):
            streams = (np.random.default_rng([3, 0]), np.random.default_rng([3, 1]))
            return _draw_perturbations(final, *streams, 0.1, n)

        assert np.array_equal(draw(400)[:100], draw(100))

    def test_draws_of_a_hermitian_final_are_exactly_hermitian(self, channel_run):
        # check_a1 hermitizes final, and final + eps_i H_i of exactly Hermitian
        # operands is Hermitian bit for bit, so the draws need no hermitize.
        for final in (channel_run[1].states[-1], random_density(3, 4)):
            streams = (np.random.default_rng([3, 0]), np.random.default_rng([3, 1]))
            raw = _draw_perturbations(final, *streams, 0.1, 1000)
            assert np.array_equal(raw, hermitize(raw))

    def test_rejects_redraw_deterministically(self, channel_run, generators_built):
        # At a pure final state with eps_max 1, many first draws clip more
        # than 10% of trace mass; each re-draws from its own stream.
        obj = channel_run[0]
        near_pure = np.diag([1 - 1e-9, 1e-9]).astype(complex)
        first = check_a1(near_pure, obj, 200, 1.0, seed=4)
        redrawn = len(generators_built) - 2
        assert redrawn > 0 and first.skipped < redrawn
        assert first.count + first.skipped == 200
        assert check_a1(near_pure, obj, 200, 1.0, seed=4) == first
        assert len(generators_built) == 2 * (redrawn + 2)

    def test_every_sample_rejected_errors(self, channel_run):
        # At eps_max 1e-9 every draw has D ~ 1e-18, below the skip tolerance,
        # so each sample is rejected at all of its attempts.
        obj, traj = channel_run
        with pytest.raises(ValueError):
            check_a1(traj.states[-1], obj, 5, 1e-9, seed=3)

    def test_validation(self, channel_run):
        obj, traj = channel_run
        with pytest.raises(ValueError):
            check_a1(traj.states[-1], obj, 0, 0.1, seed=1)
        with pytest.raises(ValueError):
            check_a1(traj.states[-1], obj, 10, -1.0, seed=1)

    @pytest.mark.parametrize("eps_max", [math.nan, math.inf])
    def test_non_finite_eps_max_rejected(self, channel_run, eps_max):
        obj, traj = channel_run
        with pytest.raises(ValueError, match="eps_max"):
            check_a1(traj.states[-1], obj, 10, eps_max, seed=1)

    def test_decomposes_each_sample_once_after_repair(self, channel_run, eig_calls):
        # Omega reads the repaired spectra: per sample, one decomposition for
        # the repair and one for each of S_N and S_M.
        obj, traj = channel_run
        stats = check_a1(traj.states[-1], obj, 200, 0.1, seed=3)
        assert stats.count == 200  # nothing re-drawn
        assert sum(eig_calls) <= 3 * 200 + 4

    def test_repaired_samples_lie_inside_the_support(self):
        # The renormalized REPAIR_FLOOR of a near-pure final's repaired draws
        # lies strictly inside SUPPORT_CUTOFF, so D and omega score the same
        # sigma.  A floor of 1e-12 left 1019 of these 2000 draws at the cut.
        final = np.diag([1 - 1e-14, 1e-14]).astype(complex)
        streams = [np.random.default_rng([0, k]) for k in (0, 1)]
        repaired, _ = _repair_candidates(_draw_perturbations(final, *streams, 0.1, 2000))
        assert _support(repaired.eigenvalues, np.log)[1].all()


class ScaledLogObjective(Objective):
    """omega(rho) = c log rho + shift I: every (a1) ratio is c, and shift adds rounding."""

    dim = 2

    def __init__(self, c, shift=0.0):
        self.c, self.shift = c, shift

    def omega(self, rho):
        spec = rho if isinstance(rho, Spectrum) else eigh(rho)
        return self.c * matrix_log(spec) + self.shift * np.eye(2)


class TestA1Rounding:
    def test_sweep_sample_at_the_rounding_floor_is_resolved(self):
        # Point 15 (p = 0.064) of the acceptance sweep protocol.  Its sample
        # 9898 has D = 8.6e-14 and the sweep's (a1) max, near 0.95 (0.939 in
        # 40-digit arithmetic); its rounding estimate leaves it below the gate.
        seed, p = 20240801, np.linspace(0.004, 0.1, 25)[15]
        obj = ChannelObjective(ChannelPair(dephasing_choi(0.4), depolarizing_choi(float(p))))
        initial = random_density(2, np.random.default_rng([seed, 15, 0]))
        opts = QabOptions(initial=initial, max_iters=100, divergence_stop=1e-10)
        final = qab_run(obj, opts).states[-1]
        cert_seed = int(np.random.SeedSequence([seed, 15, 1]).generate_state(1, np.uint64)[0])
        stats = check_a1(final, obj, 10_000, 0.1, seed=cert_seed)

        streams = [np.random.default_rng([cert_seed & 0x7FFFFFFFFFFFFFFF, k]) for k in (0, 1)]
        raw = _draw_perturbations(final, *streams, 0.1, 10_000)[9898:9899]
        den = relative_entropy(final, _repair_candidates(raw)[0])
        assert den[0] < 1e-13
        assert (stats.count, stats.skipped, stats.arg_max) == (10_000, 0, 9898)
        assert stats.max + stats.max_rounding < A1_MARGIN

    def test_resolved_ratios_below_the_gate_are_kept(self, rng):
        final = random_state(rng, 2)
        stats = check_a1(final, ScaledLogObjective(0.9 * A1_MARGIN), 200, 0.1, seed=1)
        assert (stats.count, stats.skipped) == (200, 0)
        assert stats.max == pytest.approx(0.9 * A1_MARGIN, rel=1e-9)
        assert stats.max + stats.max_rounding < A1_MARGIN

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_rounding_above_the_gap_to_the_gate_never_passes(self, rng, gamma):
        # The shift's rounding exceeds every sample's gap below the gate, so
        # a sample is redrawn until its ratio reads at or above the gate.
        final = random_state(rng, 2)
        obj = ScaledLogObjective(0.9 * gamma * A1_MARGIN, shift=1e14)
        stats = check_a1(final, obj, 50, 0.1, seed=1, gamma=gamma)
        assert stats.min >= gamma * A1_MARGIN

    def test_report_records_the_a1_rounding(self, channel_run):
        obj, traj = channel_run
        doc = report_to_dict(certify(traj, obj, n_samples=50))
        assert 0 < doc["a1"]["max_rounding"] < 1e-6
        assert "max_rounding" not in doc["a2"] and "max_rounding" not in doc["a3"]


class TestXmeBound:
    def test_proxy_equals_initial_is_zero(self, rng):
        rho = random_state(rng, 2)
        assert xme_bound(1.0, rho, rho, 50) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_gamma(self, rng):
        a, b = random_state(rng, 2), random_state(rng, 2)
        assert xme_bound(2.0, a, b, 10) == pytest.approx(2 * xme_bound(1.0, a, b, 10))

    def test_t0_validation(self, rng):
        with pytest.raises(ValueError):
            xme_bound(1.0, random_state(rng, 2), random_state(rng, 2), 0)

    def test_bounds_observed_gap_against_grid_oracle(self, channel_run):
        # Independent check of the precision bound at one sweep instance.
        from qabcert import brute_force_oracle, relative_entropy

        obj, traj = channel_run
        pair = obj.pair
        g_star_full, rho_star = brute_force_oracle(pair, 60)
        g_star = g_star_full / pair.dim_a
        d1 = relative_entropy(rho_star, traj.states[0])
        for t0 in range(1, len(traj.states)):
            assert traj.values[t0] - g_star <= d1 / t0 + 1e-6


class TestCertify:
    def test_constant_objective_passes(self, rng):
        obj, traj = constant_run(rng)
        report = certify(traj, obj, n_samples=50, seed=2)
        assert report.a1_pass and report.a2_pass and report.a3_pass
        assert report.certified
        assert report.bound_certified

    def test_fixed_point_from_start_certifies(self, rng):
        obj = ConstantObjective(np.zeros((2, 2)))
        traj = qab_run(obj, QabOptions(initial=random_state(rng, 2), max_iters=3))
        report = certify(traj, obj, n_samples=50, seed=2)
        assert report.certified
        assert report.a3.count == 0 and report.a3.skipped == 3

    def test_deterministic_report_bytes(self, channel_run):
        obj, traj = channel_run
        r1 = json.dumps(report_to_dict(certify(traj, obj, n_samples=300, seed=8)))
        r2 = json.dumps(report_to_dict(certify(traj, obj, n_samples=300, seed=8)))
        assert r1 == r2

    def test_channel_run_certifies(self, channel_run):
        obj, traj = channel_run
        report = certify(traj, obj, n_samples=500, seed=4)
        assert report.certified
        assert report.a1.max < 1.0
        assert report.a2.min >= -1e-9
        assert report.a3.max <= 1.0

    def test_descent_soundness_link(self, channel_run):
        # a3 passing implies a non-increasing value sequence.
        obj, traj = channel_run
        report = certify(traj, obj, n_samples=50, seed=6)
        if report.a3_pass:
            assert np.all(np.diff(traj.values) <= 1e-9)

    def test_thresholds_recorded(self, channel_run):
        obj, traj = channel_run
        report = certify(traj, obj, n_samples=50, seed=7)
        assert report.a1_margin == 0.999
        assert report.a2_tolerance == 1e-9
        assert report.samples == 50
        assert report.seed == 7
        assert report.bound_t0 == len(traj.states) - 1


class TestCertifyGamma:
    @pytest.fixture(scope="class")
    def small_gamma_run(self):
        obj = ChannelObjective(ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05)))
        opts = QabOptions(
            initial=np.diag([0.3, 0.7]), gamma=0.2, max_iters=100, divergence_stop=1e-10
        )
        return obj, qab_run(obj, opts)

    def test_certifies_at_the_runs_own_gamma(self, small_gamma_run):
        # Certified at a caller-chosen gamma = inf, this run passed, although
        # at its own gamma 0.2 the (a1) max is about 2194 and the (a3) max 1.08.
        obj, traj = small_gamma_run
        with pytest.raises(TypeError):
            certify(traj, obj, math.inf, n_samples=500)
        report = certify(traj, obj, n_samples=500)
        assert report.gamma == traj.gamma == 0.2
        assert report.a1.max > 1000 and report.a3.max > 1.0
        assert not report.a1_pass and not report.a3_pass and not report.certified

    @pytest.mark.parametrize("gamma", [None, 0.0, -1.0, math.inf, math.nan])
    def test_trajectory_gamma_must_be_positive_and_finite(self, small_gamma_run, gamma):
        obj, traj = small_gamma_run
        with pytest.raises(ValueError, match="gamma"):
            certify(replace(traj, gamma=gamma), obj, n_samples=50)


class TestFailClosed:
    @pytest.fixture
    def moved_run(self):
        obj = ChannelObjective(ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05)))
        return obj, qab_run(obj, QabOptions(initial=random_density(2, 5), max_iters=30))

    def test_error_in_a_moved_trajectory_propagates(self, moved_run):
        # Only a scan with nothing to keep on a trajectory that never moved
        # is a fixed point; a broken iterate of a moved one must not read so.
        obj, traj = moved_run
        traj.states[3] = np.diag([1.2, -0.2])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            certify(traj, obj, n_samples=200)

    def test_non_finite_divergence_fails_its_check(self, moved_run):
        # A floored iterate gives D = inf; dom / inf must not pass as a ratio of 0.
        obj, traj = moved_run
        traj.step_kl[2] = np.inf
        traj.step_domega[2] = 5.0
        a3 = check_a3(traj)
        assert np.isnan(a3.min) and np.isnan(a3.max)
        assert (a3.arg_min, a3.arg_max) == (2, 2)
        report = certify(traj, obj, n_samples=200)
        assert not report.a3_pass and not report.certified
        assert report.a2_pass

    @pytest.mark.parametrize("num", [np.inf, -np.inf, np.nan])
    def test_non_finite_ratio_fails_its_check(self, moved_run, num):
        obj, traj = moved_run
        traj.step_domega[4] = num
        a3 = check_a3(traj)
        assert np.isnan(a3.max) and a3.arg_max == 4
        assert not certify(traj, obj, n_samples=50).a3_pass
        # (a2) passes on its minimum, which a +inf ratio would leave untouched.
        scan = _scan([0.5, num, 0.2], [1.0, 1.0, 1.0])
        assert np.isnan(scan.min) and scan.arg_min == 1

