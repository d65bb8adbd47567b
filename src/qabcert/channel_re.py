"""Relative entropy of channels via the certified fixed-point iteration.

For channels given as Choi matrices ``Gamma_N``, ``Gamma_M`` (unnormalized,
``Tr_B Gamma = I_A``), the divergence is the supremum over input marginals
of ``D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M))``.  The module
provides the omega map realizing that objective, one solver with a
posteriori certification (:func:`solve`; constraints reach a run only
through its ``QabOptions.family``), and two independent oracles
(closed-form Bell-diagonal, and a brute-force Bloch grid scored ray by ray).
Finiteness is one verdict of the pair's, ``ChannelPair.finite``.  Of a pair,
omega reads only Gamma_M and Gamma_N's Kraus factor K; a :class:`PairStack`
stacks those so that lockstep runs over several pairs take one omega call per step.

Every evaluation works in the eigenbasis V of rho, where S_M is
S'_M = Gamma'_M o dd^T with d = sqrt(lambda) x 1_B, and S_N is scored through
the pair's Kraus factor K of Gamma_N = K K^dag: its nonzero spectrum is that
of the r_N x r_N Gram A^dag A, A = diag(d) (V^dag x I) K (r_N = rank Gamma_N).
So the oracle and omega decompose one n x n matrix per state, S'_M.

The solver's working objective (:class:`ChannelObjective`) is the sandwich
divergence per Choi *state*, i.e. the full-scale objective divided by
``dim_a``.  The two scalings are mathematically equivalent up to
``gamma -> gamma * dim_a``, but only the per-state scale converges across
the full experimental parameter range at the protocol's ``gamma = 1``;
reported channel divergences are rescaled back, so ``SolveResult.value``,
the final iterate's, and ``SolveResult.bound`` are in the channel's nats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import CertificationReport, certify
from .linalg import (
    OUTSIDE_MASS_TOL,
    Spectrum,
    _eigvalsh,
    _log_psd,
    _on_support,
    _spectrum,
    _support,
    eigh,
    hermitize,
    matrix_log,
)
from .qab_core import Objective, QabOptions, Trajectory, qab_run
from .quantum import BELL_STATES, ChoiMatrix, _divergence, relative_entropy, support_overlap

__all__ = [
    "ChannelObjective",
    "ChannelPair",
    "OracleInapplicableError",
    "PairStack",
    "SolveResult",
    "SupportViolationError",
    "bell_diagonal_oracle",
    "bell_weights",
    "brute_force_oracle",
    "objective_value",
    "omega",
    "omega1",
    "solve",
]

BELL_TOL = 1e-10
# omega1 takes a stack of states in chunks of OMEGA_CHUNK_ENTRIES // (2 n^2)
# states (n = dim_a dim_b), so its temporaries stay small on the long stacks
# that (a1) and (a2) pass.
OMEGA_CHUNK_ENTRIES = 2**14


class SupportViolationError(ValueError):
    """Gamma_N leaks outside the support of Gamma_M: the objective is -inf at every state."""


class OracleInapplicableError(ValueError):
    """The requested oracle's preconditions do not hold for this pair."""


@dataclass(frozen=True)
class ChannelPair:
    """Two channels A -> B as Choi matrices with matching dimensions.

    ``leaked_mass`` is Gamma_N's mass outside supp Gamma_M.  At full-rank rho,
    S_X is a congruence of Gamma_X, so the divergence is +inf at every state
    exactly when ``finite`` is false (``leaked_mass > OUTSIDE_MASS_TOL``).
    ``kraus`` is the n x r_N factor K of Gamma_N = K K^dag (``linalg._on_support``, so a
    Gamma_N outside the log's domain raises ``MatrixDomainError``); ``equal``: N == M.
    """

    choi_n: ChoiMatrix
    choi_m: ChoiMatrix
    leaked_mass: float = field(init=False, compare=False)
    kraus: np.ndarray = field(init=False, compare=False, repr=False)
    equal: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.choi_n.dim_a, self.choi_n.dim_b) != (self.choi_m.dim_a, self.choi_m.dim_b):
            raise ValueError("Choi matrices must share dim_a and dim_b")
        gamma_n = eigh(self.choi_n.mat)
        root = _on_support(gamma_n.eigenvalues, np.sqrt, gamma_n.verdict)
        leaked = support_overlap(self.choi_n.mat, eigh(self.choi_m.mat))[0]
        object.__setattr__(self, "leaked_mass", float(leaked))
        object.__setattr__(self, "kraus", (gamma_n.eigenvectors * root)[:, root > 0])
        object.__setattr__(self, "equal", np.array_equal(self.choi_n.mat, self.choi_m.mat))

    gamma_m = property(lambda self: self.choi_m.mat)  # Gamma_M itself, not a copy
    dim_a = property(lambda self: self.choi_n.dim_a)
    dim_b = property(lambda self: self.choi_n.dim_b)
    finite = property(lambda self: self.leaked_mass <= OUTSIDE_MASS_TOL)


@dataclass(frozen=True)
class PairStack:
    """Pairs of one shape and one r_N: omega pairs state i of a (P, d, d) stack with pair i."""

    pairs: tuple
    leaked_mass: float = field(init=False, compare=False)  # the largest pair's
    gamma_m: np.ndarray = field(init=False, compare=False, repr=False)  # (P, n, n)
    kraus: np.ndarray = field(init=False, compare=False, repr=False)  # (P, n, r_N)
    equal: np.ndarray = field(init=False, compare=False, repr=False)  # (P,) bool
    dim_a = property(lambda self: self.pairs[0].dim_a)
    dim_b = property(lambda self: self.pairs[0].dim_b)
    finite = property(lambda self: all(pair.finite for pair in self.pairs))

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if len({(pair.dim_a, pair.dim_b, pair.kraus.shape[1]) for pair in pairs}) != 1:
            raise ValueError("a PairStack needs pairs that share dim_a, dim_b and Kraus rank")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "leaked_mass", max(pair.leaked_mass for pair in pairs))
        for name in ("gamma_m", "kraus", "equal"):  # stacked along a new first axis
            object.__setattr__(self, name, np.array([getattr(pair, name) for pair in pairs]))


def _rotation(v: np.ndarray, dim_b: int) -> np.ndarray:
    """W x I_B, W = ``v`` (a ``Spectrum``'s, ascending) with its columns reversed.

    The large block of the graded S' (``_eigenbasis_sandwiches``) then comes first,
    where LAPACK's tridiagonal reduction keeps its small eigenvalues accurate;
    ascending order loses an order of magnitude on states with a 1e-4 eigenvalue.
    """
    out = np.zeros(v.shape[:-2] + (v.shape[-2] * dim_b, v.shape[-1] * dim_b), dtype=complex)
    for b in range(dim_b):  # (W x I)[a dim_b + b, c dim_b + b] = W[a, c]
        out[..., b::dim_b, b::dim_b] = v[..., ::-1]
    return out


def _eigenbasis_sandwiches(rotated: np.ndarray, lam: np.ndarray, dim_b: int, verdict=None):
    """``(S', d)``: S' = Gamma' o dd^T, d = sqrt(lam) x 1_B (descending, 0 off lam's support).

    ``lam`` is rho's ascending spectrum and ``rotated`` Gamma' = (W^dag x I) Gamma (W x I)
    (``_rotation``), so S' = (W^dag x I) S (W x I).  Raises ``MatrixDomainError`` on lam < 0.
    """
    d = _on_support(lam, np.sqrt, verdict)[..., ::-1].repeat(dim_b, axis=-1)
    return rotated * (d[..., :, None] * d[..., None, :]), d


def omega1(rho_a: np.ndarray | Spectrum, pair: ChannelPair | PairStack) -> np.ndarray:
    """-Tr_B(Gamma_N (sqrt(rho) x I) [log S_N - log S_M] (rho^(-1/2) x I)).

    Generally non-Hermitian; Tr[rho omega1(rho)] = -D(S_N || S_M), and exactly 0
    where the pair is ``equal``.  Stack-aware in ``rho_a`` and, as a :class:`PairStack`,
    ``pair``.  Raises :class:`SupportViolationError` before any work when the pair
    is infinite (``ChannelPair.finite``); no state is scanned for a leak.

    In rho's eigenbasis W (descending, ``_rotation``), with S', d from ``_eigenbasis_sandwiches``
    and D^+ = diag(d)^+, omega1 = -W Tr_B[(Gamma'_N o 1d^T)(log S'_N - log S'_M) D^+] W^dag.
    As A^dag log(A A^dag) = log(A^dag A) A^dag, that is Tr_B[K (A^dag log S'_M - log G A^dag)
    D^+ (W^dag x I)], A^dag = K^dag (W x I) diag(d), G = A^dag A (log by ``linalg._log_psd``).
    One loop walks the flat stack (a :class:`PairStack`'s rows with it) in row slices.
    """
    if not pair.finite:
        raise SupportViolationError(
            "support of Gamma_N is not contained in the support of Gamma_M; "
            f"the objective is -inf (leaked mass {pair.leaked_mass:.3e})"
        )
    spec = _spectrum(rho_a)
    dim = spec.eigenvectors.shape[-1]
    w, v = spec.eigenvalues.reshape(-1, dim), spec.eigenvectors.reshape(-1, dim, dim)
    verdict = spec.verdict if spec.verdict[2] else None  # a full one holds for every row
    n, rank = pair.kraus.shape[-2:]
    gamma_m, kraus = pair.gamma_m.reshape(-1, n, n), pair.kraus.reshape(-1, n, rank)
    chunk = max(1, OMEGA_CHUNK_ENTRIES // (2 * n * n))
    out = np.empty(v.shape, dtype=complex)
    for start in range(0, len(v), chunk):
        rows = slice(start, start + chunk)
        per_pair = (gamma_m[rows], kraus[rows]) if len(gamma_m) > 1 else (gamma_m, kraus)
        out[rows] = _omega1_rows(w[rows], v[rows], *per_pair, pair.dim_b, verdict)
    out.reshape(len(gamma_m), -1, dim, dim)[pair.equal] = 0.0  # per pair; a bool is all or none
    return out.reshape(spec.eigenvectors.shape)


def _omega1_rows(w, v, gamma_m: np.ndarray, kraus: np.ndarray, dim_b: int, verdict) -> np.ndarray:
    """:func:`omega1` of a row slice (w, v) and its full verdict or None; Gamma_M, K rows or one."""
    wx = _rotation(v, dim_b)
    wx_dag = wx.swapaxes(-1, -2).conj()
    s_m, d = _eigenbasis_sandwiches(wx_dag @ gamma_m @ wx, w, dim_b, verdict)
    a_dag = (kraus.swapaxes(-1, -2).conj() @ wx) * d[:, None, :]
    gram = a_dag @ a_dag.swapaxes(-1, -2).conj()
    inner = kraus @ (a_dag @ matrix_log(s_m) - _log_psd(gram) @ a_dag)
    d_inv = 1.0 / np.where(d > 0, d, np.inf)  # D^+
    traced = ((inner * d_inv[:, None, :]) @ wx_dag).reshape(len(w), -1, dim_b, w.shape[-1], dim_b)
    return sum(traced[:, :, b, :, b] for b in range(dim_b))  # Tr_B, summed from b = 0 on


def omega(rho_a: np.ndarray | Spectrum, pair: ChannelPair | PairStack) -> np.ndarray:
    """Hermitian part of :func:`omega1`; same weighted trace against rho."""
    return hermitize(omega1(rho_a, pair))


def objective_value(rho_a: np.ndarray | Spectrum, pair: ChannelPair):
    """-D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M)); -inf on support loss.

    ``relative_entropy`` of S'_N and S'_M at full size, the independent reference
    for omega's Kraus route (one pair, a stack of states); the solver's objective is
    Tr rho omega instead.
    """
    spec = _spectrum(rho_a)
    wx = _rotation(spec.eigenvectors, pair.dim_b)[..., None, :, :]
    rotated = wx.swapaxes(-1, -2).conj() @ np.stack([pair.choi_n.mat, pair.choi_m.mat]) @ wx
    sand = _eigenbasis_sandwiches(rotated, spec.eigenvalues[..., None, :], pair.dim_b)[0]
    out = -relative_entropy(sand[..., 0, :, :], sand[..., 1, :, :])
    return float(out) if np.ndim(out) == 0 else out


class ChannelObjective(Objective):
    """The channel objective at the per-Choi-state scale (see module docs).

    ``omega`` is :func:`omega` over ``dim_a`` and ``value`` the inherited
    Tr rho omega, :func:`objective_value` over ``dim_a``; ``channel_scale``
    turns a value back into a channel divergence.  Takes a :class:`PairStack`.
    """

    def __init__(self, pair: ChannelPair | PairStack):
        self.pair = pair

    def omega(self, rho: np.ndarray | Spectrum) -> np.ndarray:
        return omega(rho, self.pair) / self.pair.dim_a

    def channel_scale(self, value: float) -> float:
        """-dim_a * value, the channel divergence of an objective value; +0.0 for 0."""
        return 0.0 - self.pair.dim_a * value


@dataclass(frozen=True)
class SolveResult:
    """Divergence and bound (channel nats) at the final state, the trajectory, its certificate."""

    value: float
    bound: float
    trajectory: Trajectory
    report: CertificationReport


def solve(
    pair: ChannelPair,
    run: QabOptions | Trajectory,
    n_samples: int = 10_000,
    eps_max: float = 0.1,
    cert_seed: int = 0,
) -> SolveResult:
    """Certify a run and pair its value with the report.

    ``run`` is a :class:`QabOptions`, iterated first (constrained to its
    ``family``), or a stored :class:`Trajectory`, certified as it is.
    """
    obj = ChannelObjective(pair)
    traj = qab_run(obj, run) if isinstance(run, QabOptions) else run
    report = certify(traj, obj, n_samples=n_samples, eps_max=eps_max, seed=cert_seed)
    value = obj.channel_scale(traj.values[-1])
    return SolveResult(value, pair.dim_a * report.bound_value, trajectory=traj, report=report)


def bell_weights(choi: ChoiMatrix) -> np.ndarray:
    """Bell-basis diagonal of a two-qubit Choi matrix, as weights (inverts ``_bell_diagonal_choi``).

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

    ``+inf`` exactly when the pair is not ``finite``; otherwise sum_i p_i log(p_i / q_i)
    over the Bell weights both channels carry (each on its own ``linalg._support``), the
    channel divergence attained at the maximally entangled input.
    """
    p, q = bell_weights(pair.choi_n), bell_weights(pair.choi_m)
    if not pair.finite:
        return np.inf
    kept = (p > _support(np.sort(p), np.log)[0]) & (q > _support(np.sort(q), np.log)[0])
    return float(np.sum(p[kept] * np.log(p[kept] / q[kept])))


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
    joint rotation by U x I, so no grid state is built or decomposed.

    Each direction rotates Gamma_M and the Kraus factor, K' = (U^dag x I) K; the
    Gram of A = diag(d) K' (module docs) is sum_j lambda_j G_j over row blocks
    K'_j, G_j = K'_j^dag K'_j, and Tr S_N log S_M weighs log mu_k by
    ||u_k^dag A||^2 over the spectrum (mu_k, u_k) of S'_M.
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
    wx = _rotation(u, pair.dim_b)
    rotated_m = wx.swapaxes(-1, -2).conj() @ pair.choi_m.mat @ wx
    k_dag = np.conj(pair.kraus).T @ wx  # K'^dag, (dirs, r_N, n)
    blocks = k_dag.reshape(len(u), -1, pair.dim_a, pair.dim_b)
    grams = np.einsum("...kjb,...ljb->j...kl", blocks, np.conj(blocks))  # G_j, j first

    best = np.inf
    best_state = None
    for r in rs:
        lam = np.array([(1 - r) / 2, (1 + r) / 2])
        s_m, d = _eigenbasis_sandwiches(rotated_m, lam, pair.dim_b)
        spec_m = eigh(s_m)
        gram = sum(lam_j * gram_j for lam_j, gram_j in zip(lam[::-1], grams))
        weights = np.sum(np.abs((k_dag * d) @ spec_m.eigenvectors) ** 2, axis=-2)
        vals = -_divergence(_eigvalsh(gram), weights, spec_m)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_state = Spectrum(lam, u[i]).matrix()
    return best, best_state
