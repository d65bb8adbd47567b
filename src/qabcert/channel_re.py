"""Relative entropy of channels via the certified fixed-point iteration.

For channels given as Choi matrices ``Gamma_N``, ``Gamma_M`` (unnormalized,
``Tr_B Gamma = I_A``), the divergence is the supremum over input marginals
of ``D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M))``.  The module
provides the omega map realizing that objective, unconstrained and
energy-constrained solvers with a posteriori certification, and two
independent oracles (closed-form Bell-diagonal, and a brute-force Bloch grid
scored ray by ray without decomposing any grid state).

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
    OUTSIDE_MASS_TOL,
    SUPPORT_CUTOFF,
    Spectrum,
    _spectrum,
    _support,
    eigh,
    hermitize,
    kron,
    matrix_inv_sqrt,
    matrix_log,
    matrix_sqrt,
    partial_trace,
)
from .mixture import CONSTRAINT_TOL, MixtureFamily, e_project
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

BELL_TOL = 1e-10


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


def _sandwiches(rho_a: np.ndarray | Spectrum, pair: ChannelPair):
    """(spectrum of rho, sqrt(rho) x I, S_N, S_M); decomposes rho unless given its spectrum."""
    spec = _spectrum(rho_a)
    sq = kron(matrix_sqrt(spec), np.eye(pair.dim_b))
    s_n = hermitize(sq @ pair.choi_n.mat @ sq)
    s_m = hermitize(sq @ pair.choi_m.mat @ sq)
    return spec, sq, s_n, s_m


def omega1(rho_a: np.ndarray | Spectrum, pair: ChannelPair) -> np.ndarray:
    """-Tr_B(Gamma_N (sqrt(rho) x I) [log S_N - log S_M] (rho^(-1/2) x I)).

    Generally non-Hermitian; satisfies Tr[rho omega1(rho)] =
    -D(S_N || S_M).  Stack-aware in ``rho_a``.  Raises
    :class:`SupportViolationError` when S_N leaks outside the support of S_M.
    """
    spec, sq, s_n, s_m = _sandwiches(rho_a, pair)
    spec_m = eigh(s_m)
    outside, _ = support_overlap(s_n, spec_m)
    if np.any(outside > OUTSIDE_MASS_TOL):
        raise SupportViolationError(
            "support of sandwich(rho, Gamma_N) is not contained in the "
            "support of sandwich(rho, Gamma_M); the objective is -inf "
            f"(leaked mass {float(np.max(outside)):.3e})"
        )
    log_diff = matrix_log(s_n) - matrix_log(spec_m)
    inner = pair.choi_n.mat @ sq @ log_diff @ kron(matrix_inv_sqrt(spec), np.eye(pair.dim_b))
    return -partial_trace(inner, pair.dim_a, pair.dim_b, keep="A")


def omega(rho_a: np.ndarray | Spectrum, pair: ChannelPair) -> np.ndarray:
    """Hermitian part of :func:`omega1`; same weighted trace against rho."""
    return hermitize(omega1(rho_a, pair))


def objective_value(rho_a: np.ndarray | Spectrum, pair: ChannelPair):
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

    def __init__(self, pair: ChannelPair):
        self.pair = pair
        self.dim = pair.dim_a

    def omega(self, rho: np.ndarray | Spectrum) -> np.ndarray:
        return omega(rho, self.pair) / self.pair.dim_a

    def value(self, rho: np.ndarray):
        return objective_value(rho, self.pair) / self.pair.dim_a

    def channel_scale(self, value: float) -> float:
        """-dim_a * value, the channel divergence of an objective value; +0.0 for 0."""
        return 0.0 - self.pair.dim_a * value

    def divergence(self, traj: Trajectory) -> float:
        """Channel relative entropy estimate from a trajectory: -dim_a * min G."""
        return self.channel_scale(min(traj.values))


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
    report = certify(traj, obj, n_samples=n_samples, eps_max=eps_max, seed=cert_seed)
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
    initial = opts.initial
    if np.max(np.abs(constraints.residuals(initial)), initial=0.0) > CONSTRAINT_TOL:
        initial = e_project(matrix_log(initial), constraints)[0].matrix()
    run_opts = replace(opts, initial=initial, family=constraints)
    return solve_unconstrained(
        pair, run_opts, n_samples=n_samples, eps_max=eps_max, cert_seed=cert_seed
    )


def bell_weights(choi: ChoiMatrix) -> np.ndarray:
    """Diagonal of a two-qubit Choi matrix in the Bell basis, as weights.

    Raises :class:`OracleInapplicableError` when off-diagonal Bell-basis
    entries exceed ``BELL_TOL`` (the matrix is not Bell diagonal) or the system
    is not two qubits.
    """
    if choi.dim_a != 2 or choi.dim_b != 2:
        raise OracleInapplicableError("Bell-basis oracle requires qubit channels")
    basis = np.stack(BELL_STATES, axis=1)
    in_bell = np.conj(basis.T) @ choi.mat @ basis
    off = in_bell - np.diag(np.diag(in_bell))
    if np.max(np.abs(off)) > BELL_TOL:
        raise OracleInapplicableError(
            "Choi matrix is not Bell diagonal "
            f"(max off-diagonal {float(np.max(np.abs(off))):.3e})"
        )
    return np.real(np.diag(in_bell)) / choi.dim_a


def bell_diagonal_oracle(pair: ChannelPair) -> float:
    """Closed-form divergence for Bell-diagonal pairs (teleportation covariant).

    Equals the classical relative entropy of the Bell weight vectors, which
    is the channel divergence attained at the maximally entangled input;
    ``+inf`` when the first channel's support exceeds the second's.
    """
    p = bell_weights(pair.choi_n)
    q = bell_weights(pair.choi_m)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 1e-15:
            continue
        if qi <= 1e-15:
            return np.inf
        total += pi * np.log(pi / qi)
    return float(total)


def _bloch_eigenvectors(theta, phi) -> np.ndarray:
    """Columns (|-n>, |+n>) for the Bloch direction n(theta, phi): ascending eigenvalues."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    phase = np.exp(1j * phi)
    out = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 0] = s, -phase * c
    out[..., 0, 1], out[..., 1, 1] = c, phase * s
    return out


def brute_force_oracle(pair: ChannelPair, grid_resolution: int):
    """Minimize the full-scale objective over a Bloch-ball grid (qubits only).

    The grid has ``grid_resolution`` points per axis in radius [0, 1-1e-6],
    polar and azimuthal angle; returns ``(value, argmin_state)``, the first
    minimizer with radius outermost.  Every state on the ray through
    n(theta, phi) has the eigenvectors U = (|-n>, |+n>) and eigenvalues
    lambda(r) = ((1-r)/2, (1+r)/2), and D(S_N || S_M) is invariant under the
    joint rotation by U x I.  So each Choi matrix is rotated once per
    direction, Gamma' = (U^dag x I) Gamma (U x I), and each radius scores one
    batch D(Gamma'_N o dd^T || Gamma'_M o dd^T) with d = sqrt(lambda) x 1_B:
    no grid state is built or decomposed.
    """
    if pair.dim_a != 2:
        raise OracleInapplicableError("brute-force oracle requires a qubit input space")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    rs = np.linspace(0.0, 1.0 - 1e-6, grid_resolution)
    thetas = np.linspace(0.0, np.pi, grid_resolution)
    phis = np.linspace(0.0, 2 * np.pi, grid_resolution, endpoint=False)
    grid_t, grid_p = np.meshgrid(thetas, phis, indexing="ij")
    u = _bloch_eigenvectors(grid_t.ravel(), grid_p.ravel())
    ux = kron(u, np.eye(pair.dim_b))
    uxh = np.conj(np.swapaxes(ux, -1, -2))
    rot_n, rot_m = (uxh @ choi.mat @ ux for choi in (pair.choi_n, pair.choi_m))

    best = np.inf
    best_state = None
    for r in rs:
        lam = np.array([(1 - r) / 2, (1 + r) / 2])
        d = np.repeat(_support(lam, SUPPORT_CUTOFF, np.sqrt)[2], pair.dim_b)
        scale = np.outer(d, d)
        vals = -relative_entropy(rot_n * scale, rot_m * scale)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_state = Spectrum(lam, u[i]).matrix()
    return best, best_state
