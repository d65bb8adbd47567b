"""Relative entropy of channels via the certified fixed-point iteration.

For channels given as Choi matrices ``Gamma_N``, ``Gamma_M`` (unnormalized,
``Tr_B Gamma = I_A``), the divergence is the supremum over input marginals
of ``D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M))``.  The module
provides the omega map realizing that objective, unconstrained and
energy-constrained solvers with a posteriori certification, and two
independent oracles (closed-form Bell-diagonal and brute-force Bloch grid).

The solver's working objective (:class:`ChannelObjective`) is the sandwich
divergence per Choi *state*, i.e. the full-scale objective divided by
``dim_a``.  The two scalings are mathematically equivalent up to
``gamma -> gamma * dim_a``, but only the per-state scale converges across
the full experimental parameter range at the protocol's ``gamma = 1``;
reported channel divergences are rescaled back, so ``SolveResult.value``
is the true channel relative entropy in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certify import CertificationReport, certify
from .linalg import (
    SUPPORT_CUTOFF,
    OUTSIDE_MASS_TOL,
    eigh,
    hermitize,
    kron,
    matrix_inv_sqrt,
    matrix_log,
    matrix_sqrt,
    partial_trace,
)
from .mixture import MixtureFamily, e_project
from .qab_core import Objective, QabOptions, Trajectory, qab_run
from .quantum import BELL_STATES, ChoiMatrix, relative_entropy, support_overlap

__all__ = [
    "ChannelObjective",
    "ChannelPair",
    "OracleInapplicableError",
    "SolveResult",
    "SupportViolationError",
    "bell_diagonal_oracle",
    "bell_weights",
    "brute_force_oracle",
    "objective_value",
    "omega",
    "omega1",
    "solve_energy_constrained",
    "solve_unconstrained",
]


class SupportViolationError(ValueError):
    """The first sandwich leaks outside the second's support: objective -inf."""


class OracleInapplicableError(ValueError):
    """The requested oracle's preconditions do not hold for this pair."""


@dataclass(frozen=True)
class ChannelPair:
    """Two channels A -> B as Choi matrices with matching dimensions."""

    choi_n: ChoiMatrix
    choi_m: ChoiMatrix

    def __post_init__(self):
        if (self.choi_n.dim_a, self.choi_n.dim_b) != (self.choi_m.dim_a, self.choi_m.dim_b):
            raise ValueError("Choi matrices must share dim_a and dim_b")

    @property
    def dim_a(self) -> int:
        return self.choi_n.dim_a

    @property
    def dim_b(self) -> int:
        return self.choi_n.dim_b


def _sandwiches(rho_a: np.ndarray, pair: ChannelPair, reg: float = SUPPORT_CUTOFF):
    """(sqrt(rho) x I, rho^(-1/2) x I, S_N, S_M) from one decomposition of rho."""
    spec = eigh(rho_a)
    eye_b = np.eye(pair.dim_b)
    sq = kron(matrix_sqrt(spec, reg), eye_b)
    isq = kron(matrix_inv_sqrt(spec, reg), eye_b)
    s_n = hermitize(sq @ pair.choi_n.mat @ sq)
    s_m = hermitize(sq @ pair.choi_m.mat @ sq)
    return sq, isq, s_n, s_m


def omega1(rho_a: np.ndarray, pair: ChannelPair, reg: float = SUPPORT_CUTOFF) -> np.ndarray:
    """-Tr_B(Gamma_N (sqrt(rho) x I) [log S_N - log S_M] (rho^(-1/2) x I)).

    Generally non-Hermitian; satisfies Tr[rho omega1(rho)] =
    -D(S_N || S_M).  Stack-aware in ``rho_a``.  Raises
    :class:`SupportViolationError` when S_N leaks outside the support of S_M.
    """
    sq, isq, s_n, s_m = _sandwiches(rho_a, pair, reg)
    spec_m = eigh(s_m)
    outside, _ = support_overlap(s_n, spec_m)
    if np.any(outside > OUTSIDE_MASS_TOL):
        raise SupportViolationError(
            "support of sandwich(rho, Gamma_N) is not contained in the "
            "support of sandwich(rho, Gamma_M); the objective is -inf "
            f"(leaked mass {float(np.max(outside)):.3e})"
        )
    log_diff = matrix_log(s_n) - matrix_log(spec_m)
    inner = pair.choi_n.mat @ sq @ log_diff @ isq
    return -partial_trace(inner, pair.dim_a, pair.dim_b, keep="A")


def omega(rho_a: np.ndarray, pair: ChannelPair, reg: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Hermitian part of :func:`omega1`; same weighted trace against rho."""
    return hermitize(omega1(rho_a, pair, reg))


def objective_value(rho_a: np.ndarray, pair: ChannelPair):
    """-D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M)); -inf on support loss."""
    _, _, s_n, s_m = _sandwiches(rho_a, pair)
    out = -relative_entropy(s_n, s_m)
    return float(out) if np.ndim(out) == 0 else out


class ChannelObjective(Objective):
    """The channel objective at the per-Choi-state scale (see module docs).

    ``omega``/``value`` equal the module-level :func:`omega` and
    :func:`objective_value` divided by ``dim_a``; multiply minimized values
    by ``dim_a`` to recover the channel divergence.
    """

    def __init__(self, pair: ChannelPair, reg: float = SUPPORT_CUTOFF):
        self.pair = pair
        self.reg = reg
        self.dim = pair.dim_a

    def omega(self, rho: np.ndarray) -> np.ndarray:
        return hermitize(omega1(rho, self.pair, self.reg)) / self.pair.dim_a

    def value(self, rho: np.ndarray):
        return objective_value(rho, self.pair) / self.pair.dim_a

    def divergence(self, traj: Trajectory) -> float:
        """Channel relative entropy estimate from a trajectory: -dim_a * min G."""
        return -self.pair.dim_a * min(traj.values)


@dataclass(frozen=True)
class SolveResult:
    """Channel divergence estimate (nats), the trajectory, and its certificate."""

    value: float
    trajectory: Trajectory
    report: CertificationReport


def solve_unconstrained(
    pair: ChannelPair,
    opts: QabOptions,
    n_samples: int = 10_000,
    eps_max: float = 0.1,
    cert_seed: int = 0,
) -> SolveResult:
    """Run the iteration under ``opts`` (unconstrained unless it sets a family) and certify."""
    obj = ChannelObjective(pair)
    traj = qab_run(obj, opts)
    report = certify(traj, obj, opts.gamma, n_samples=n_samples, eps_max=eps_max, seed=cert_seed)
    return SolveResult(value=obj.divergence(traj), trajectory=traj, report=report)


def solve_energy_constrained(
    pair: ChannelPair,
    constraints: MixtureFamily,
    opts: QabOptions,
    n_samples: int = 10_000,
    eps_max: float = 0.1,
    cert_seed: int = 0,
) -> SolveResult:
    """Constrained variant: every iterate satisfies Tr(rho H_j) = E_j.

    If the supplied initial state violates the constraints it is replaced
    by its e-projection onto the family before the run starts.
    """
    if constraints.size == 0:
        return solve_unconstrained(
            pair, opts, n_samples=n_samples, eps_max=eps_max, cert_seed=cert_seed
        )
    initial = opts.initial
    if np.max(np.abs(constraints.residuals(initial))) > 1e-8:
        initial = e_project(matrix_log(initial), constraints, tol=opts.tau_tol)[0].matrix()
    run_opts = replace(opts, initial=initial, family=constraints)
    return solve_unconstrained(
        pair, run_opts, n_samples=n_samples, eps_max=eps_max, cert_seed=cert_seed
    )


def bell_weights(choi: ChoiMatrix, atol: float = 1e-10) -> np.ndarray:
    """Diagonal of a two-qubit Choi matrix in the Bell basis, as weights.

    Raises :class:`OracleInapplicableError` when off-diagonal Bell-basis
    entries exceed ``atol`` (the matrix is not Bell diagonal) or the system
    is not two qubits.
    """
    if choi.dim_a != 2 or choi.dim_b != 2:
        raise OracleInapplicableError("Bell-basis oracle requires qubit channels")
    basis = np.stack(BELL_STATES, axis=1)
    in_bell = np.conj(basis.T) @ choi.mat @ basis
    off = in_bell - np.diag(np.diag(in_bell))
    if np.max(np.abs(off)) > atol:
        raise OracleInapplicableError(
            "Choi matrix is not Bell diagonal "
            f"(max off-diagonal {float(np.max(np.abs(off))):.3e})"
        )
    return np.real(np.diag(in_bell)) / choi.dim_a


def bell_diagonal_oracle(pair: ChannelPair, atol: float = 1e-10) -> float:
    """Closed-form divergence for Bell-diagonal pairs (teleportation covariant).

    Equals the classical relative entropy of the Bell weight vectors, which
    is the channel divergence attained at the maximally entangled input;
    ``+inf`` when the first channel's support exceeds the second's.
    """
    p = bell_weights(pair.choi_n, atol)
    q = bell_weights(pair.choi_m, atol)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 1e-15:
            continue
        if qi <= 1e-15:
            return np.inf
        total += pi * np.log(pi / qi)
    return float(total)


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


def brute_force_oracle(
    pair: ChannelPair, grid_resolution: int, chunk: int = 100_000
):
    """Minimize the full-scale objective over a Bloch-ball grid (qubits only).

    The grid has ``grid_resolution`` points per axis in radius [0, 1-1e-6],
    polar and azimuthal angle; returns ``(value, argmin_state)``.
    """
    if pair.dim_a != 2:
        raise OracleInapplicableError("brute-force oracle requires a qubit input space")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    rs = np.linspace(0.0, 1.0 - 1e-6, grid_resolution)
    thetas = np.linspace(0.0, np.pi, grid_resolution)
    phis = np.linspace(0.0, 2 * np.pi, grid_resolution, endpoint=False)
    grid_r, grid_t, grid_p = np.meshgrid(rs, thetas, phis, indexing="ij")
    grid_r, grid_t, grid_p = grid_r.ravel(), grid_t.ravel(), grid_p.ravel()

    best = np.inf
    best_state = None
    for lo in range(0, grid_r.size, chunk):
        hi = min(lo + chunk, grid_r.size)
        rhos = _bloch_states(grid_r[lo:hi], grid_t[lo:hi], grid_p[lo:hi])
        vals = objective_value(rhos, pair)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_state = rhos[i]
    return best, hermitize(best_state)
