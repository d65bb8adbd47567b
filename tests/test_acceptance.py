"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success).  The sweep protocol fixture is shared by criteria 1-3, matching
the experimental setup: gamma = 1, 100 iterations with the 1e-10 step-KL
early stop, seeded random initial states, 10,000 neighborhood samples with
perturbation sizes in (0, 0.1].
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qabcert import (
    ChannelObjective,
    ChannelPair,
    MixtureFamily,
    QabOptions,
    bell_diagonal_oracle,
    brute_force_oracle,
    choi_from_kraus,
    dephasing_choi,
    depolarizing_choi,
    e_project,
    free_energy,
    free_energy_gradient,
    hermitize,
    matrix_exp,
    matrix_log,
    matrix_sqrt,
    partial_trace,
    qab_run,
    relative_entropy,
    solve,
)
from qabcert.cli import main as cli_main
from qabcert.quantum import BELL_STATES, PAULI_Z, random_density

pytestmark = pytest.mark.acceptance

SEED = 20240801
GRID = np.linspace(0.004, 0.1, 25)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def bell_choi(weights):
    mat = 2 * sum(w * np.outer(k, np.conj(k)) for w, k in zip(weights, BELL_STATES))
    from qabcert import ChoiMatrix

    return ChoiMatrix(mat=mat, dim_a=2, dim_b=2)


@pytest.fixture(scope="module")
def sweep_protocol():
    """The 25-point dephasing(0.4) vs depolarizing(p) protocol with
    full certification, plus its wall-clock time."""
    choi_n = dephasing_choi(0.4)
    start = time.perf_counter()

    def solve_point(item):
        index, p = item
        pair = ChannelPair(choi_n, depolarizing_choi(float(p)))
        opts = QabOptions(
            initial=random_density(2, np.random.default_rng([SEED, index, 0])),
            gamma=1.0,
            max_iters=100,
            divergence_stop=1e-10,
        )
        cert_seed = int(
            np.random.SeedSequence([SEED, index, 1]).generate_state(1, np.uint64)[0]
        )
        result = solve(pair, opts, n_samples=10_000, eps_max=0.1, cert_seed=cert_seed)
        return float(p), result, bell_diagonal_oracle(pair)

    with ThreadPoolExecutor(max_workers=2) as pool:
        points = list(pool.map(solve_point, enumerate(GRID)))
    elapsed = time.perf_counter() - start
    return points, elapsed


def test_criterion_1_oracle_reproduction(sweep_protocol):
    points, elapsed = sweep_protocol
    gaps = [abs(result.value - oracle) for _, result, oracle in points]
    ok = max(gaps) <= 1e-3 and elapsed < 30.0
    report(
        1,
        ok,
        f"25-point sweep max |value - oracle| = {max(gaps):.3e} (tol 1e-3), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_certification_mechanism(sweep_protocol):
    points, _ = sweep_protocol
    a1_max = max(r.report.a1.max for _, r, _ in points)
    a2_min = min(r.report.a2.min for _, r, _ in points)
    a3_failures = [p for p, r, _ in points if not r.report.a3_pass]
    ok = a1_max < 1.0 and a2_min >= -1e-9 and len(a3_failures) <= 5
    report(
        2,
        ok,
        f"a1 max ratio {a1_max:.4f} < 1, a2 min ratio {a2_min:.3e} >= -1e-9, "
        f"a3 failures at {a3_failures or 'none'} (allowed: a small set)",
    )


def test_criterion_3_descent_where_a3_holds(sweep_protocol):
    points, _ = sweep_protocol
    worst = -np.inf
    for _, result, _ in points:
        traj = result.trajectory
        for j in range(len(traj.step_kl)):
            if traj.step_domega[j] <= 1.0 * traj.step_kl[j]:
                worst = max(worst, traj.values[j + 1] - traj.values[j])
    ok = worst <= 1e-9
    report(3, ok, f"max per-step increase where (a3) holds: {worst:.3e} (tol 1e-9)")


def test_criterion_4_bound_soundness():
    rng = np.random.default_rng(515)

    def one_pair(k):
        wn = rng_draws[k][0]
        wm = rng_draws[k][1]
        pair = ChannelPair(bell_choi(wn), bell_choi(wm))
        obj = ChannelObjective(pair)
        opts = QabOptions(
            initial=random_density(2, np.random.default_rng([SEED, 4, k])),
            gamma=1.0,
            max_iters=100,
        )
        traj = qab_run(obj, opts)
        g_star_full, rho_star = brute_force_oracle(pair, 100)
        g_star = g_star_full / pair.dim_a
        d1 = relative_entropy(rho_star, traj.states[0])
        worst = max(
            traj.values[t0] - g_star - d1 / t0 for t0 in range(1, len(traj.states))
        )
        return worst

    # Bell weights bounded away from zero for the reference channel.
    rng_draws = []
    for _ in range(10):
        wn = rng.uniform(0.0, 1.0, 4)
        wm = 0.05 + rng.uniform(0.0, 1.0, 4)
        rng_draws.append((wn / wn.sum(), wm / wm.sum()))
    with ThreadPoolExecutor(max_workers=2) as pool:
        worsts = list(pool.map(one_pair, range(10)))
    ok = max(worsts) <= 1e-6
    report(
        4,
        ok,
        f"10 random Bell-diagonal pairs, grid resolution 100: "
        f"max(G(rho_t0+1) - G* - gamma D(rho*||rho_1)/t0) = {max(worsts):.3e} (tol 1e-6)",
    )


def test_criterion_5_e_projection_correctness():
    rng = np.random.default_rng(77)

    def random_family(dim, k):
        obs, witness = [], random_density(dim, rng)
        for _ in range(k):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            obs.append(hermitize(m))
        targets = [float(np.trace(witness @ h).real) for h in obs]
        return MixtureFamily(observables=tuple(obs), targets=tuple(targets))

    worst_pyth = 0.0
    for _ in range(100):
        dim = int(rng.choice([2, 3]))
        fam = random_family(dim, int(rng.choice([1, 2])))
        sigma = e_project(matrix_log(random_density(dim, rng)), fam)[0].matrix()
        rho = random_density(dim, rng)
        proj = e_project(matrix_log(rho), fam)[0].matrix()
        gap = abs(
            relative_entropy(sigma, rho)
            - relative_entropy(sigma, proj)
            - relative_entropy(proj, rho)
        )
        worst_pyth = max(worst_pyth, gap)

    worst_grad = 0.0
    for _ in range(100):
        dim = int(rng.choice([2, 3]))
        k = int(rng.choice([1, 2]))
        fam = random_family(dim, k)
        base = matrix_log(random_density(dim, rng))
        tau = rng.standard_normal(k)
        grad = free_energy_gradient(base, fam, tau)
        h = 1e-6
        for j in range(k):
            step = np.zeros(k)
            step[j] = h
            fd = (free_energy(base, fam, tau + step) - free_energy(base, fam, tau - step)) / (
                2 * h
            )
            worst_grad = max(worst_grad, abs(grad[j] - fd) / max(abs(fd), 1e-8))

    ok = worst_pyth <= 1e-7 and worst_grad <= 1e-6
    report(
        5,
        ok,
        f"Pythagorean identity max gap {worst_pyth:.3e} (tol 1e-7); "
        f"gradient vs central differences max rel err {worst_grad:.3e} (tol 1e-6)",
    )


def test_criterion_6_energy_constrained_run():
    pair = ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05))
    fam = MixtureFamily(observables=(PAULI_Z,), targets=(-0.25,))
    opts = QabOptions(
        initial=random_density(2, np.random.default_rng([SEED, 6, 0])),
        gamma=1.0,
        max_iters=200,
        family=fam,
        divergence_stop=1e-10,
    )
    result = solve(pair, opts, n_samples=1000)
    traj = result.trajectory
    resid = max(abs(np.trace(s @ PAULI_Z).real + 0.25) for s in traj.states)
    increases = max(np.diff(traj.values), default=0.0)
    converged = len(traj.step_kl) <= 200 and traj.step_kl[-1] < 1e-10
    ok = resid <= 1e-8 and increases <= 1e-9 and converged
    report(
        6,
        ok,
        f"constraint residual max {resid:.3e} (tol 1e-8), max step increase "
        f"{increases:.3e} (tol 1e-9), converged in {len(traj.step_kl)} iterations "
        f"(step KL {traj.step_kl[-1]:.3e} < 1e-10 within 200)",
    )


def test_criterion_7_weighted_trace_identity():
    from qabcert import objective_value, omega1

    rng = np.random.default_rng(99)
    pairs = [
        ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05)),
        ChannelPair(dephasing_choi(0.7), depolarizing_choi(0.08)),
        ChannelPair(depolarizing_choi(0.3), depolarizing_choi(0.6)),
        ChannelPair(bell_choi([0.5, 0.2, 0.2, 0.1]), bell_choi([0.4, 0.3, 0.2, 0.1])),
        ChannelPair(
            choi_from_kraus(
                [
                    np.array([[1, 0], [0, np.sqrt(0.8)]], dtype=complex),
                    np.array([[0, np.sqrt(0.2)], [0, 0]], dtype=complex),
                ]
            ),
            depolarizing_choi(0.5),
        ),
    ]
    worst = 0.0
    for pair in pairs:
        states = np.stack([random_density(2, rng) for _ in range(100)])
        direct = objective_value(states, pair)
        via_omega = np.einsum("bij,bji->b", states, omega1(states, pair)).real
        worst = max(worst, float(np.max(np.abs(direct - via_omega))))
    ok = worst <= 1e-8
    report(
        7,
        ok,
        f"|objective - Tr[rho omega1(rho)]| max over 5 pairs x 100 states: "
        f"{worst:.3e} (tol 1e-8)",
    )


def test_criterion_8_numerical_core():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)

    ok = True
    # Matrix-function round trips.
    for _ in range(20):
        h = hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        h = 10.0 * h / np.linalg.norm(h)
        ok &= np.linalg.norm(matrix_log(matrix_exp(h)) - h) / np.linalg.norm(h) <= 1e-10
        m = matrix_exp(h)
        s = matrix_sqrt(m)
        ok &= np.linalg.norm(s @ s - m) / np.linalg.norm(m) <= 1e-10

    # Hermitization and partial-trace linearity.
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        hm = hermitize(m)
        ok &= np.max(np.abs(hm - np.conj(hm.T))) <= 1e-12
        x = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        y = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        lhs = partial_trace(1.5 * x - 2.0 * y, 2, 2, "B")
        rhs = 1.5 * partial_trace(x, 2, 2, "B") - 2.0 * partial_trace(y, 2, 2, "B")
        ok &= np.allclose(lhs, rhs, atol=1e-12)
        ok &= abs(np.trace(partial_trace(x, 2, 2, "A")) - np.trace(x)) <= 1e-12

    # Relative-entropy axioms.
    for _ in range(20):
        rho, sigma = random_density(3, rng), random_density(3, rng)
        ok &= relative_entropy(rho, sigma) >= -1e-12
        ok &= abs(relative_entropy(rho, rho)) <= 1e-10
    ok &= relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == np.inf

    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 10.0
    report(8, ok, f"numerical-core invariants hold; checks took {elapsed:.2f}s (< 10s)")


def test_criterion_9_deterministic_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    args = [
        "sweep",
        "--p-min", "0.02", "--p-max", "0.1", "--p-steps", "3",
        "--samples", "500", "--seed", "123",
        "--out", str(out),
    ]
    code1 = cli_main(list(args))
    first = out.read_bytes()
    code2 = cli_main(list(args))
    ok = code1 == 0 and code2 == 0 and out.read_bytes() == first
    report(9, ok, "two cmd_sweep runs with identical config are byte-identical")
