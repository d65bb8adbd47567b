"""Relative entropy of channels via the certified fixed-point iteration.

For channels given as Choi matrices ``Gamma_N``, ``Gamma_M`` (unnormalized,
``Tr_B Gamma = I_A``), the divergence is the supremum over input marginals
of ``D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M))``.  The module
provides the omega map realizing that objective, one solver with a
posteriori certification (:func:`solve`; constraints reach a run only
through its ``QabOptions.family``), and two independent oracles
(closed-form Bell-diagonal, and a brute-force Bloch grid scored ray by ray
through a Kraus factor of Gamma_N).  Finiteness is one verdict of the pair's,
``ChannelPair.finite``: omega raises on an infinite pair before any work, the
Bell oracle reads +inf exactly there, and no state is scanned for a leak.
A :class:`PairStack` stands in for a pair so that lockstep runs over several
pairs take one omega call per step.

Every evaluation works in the eigenbasis of rho: both Choi matrices are
rotated there as one stack, Gamma' = (V^dag x I) [Gamma_N; Gamma_M] (V x I),
and scaled elementwise, S' = Gamma' o dd^T with d = sqrt(lambda) x 1_B, which
is S_X rotated by V x I.  S'_N and S'_M are decomposed by one stacked
``eigh`` call, and omega is rotated back by V at the end; a stack of states
goes through one loop of ``OMEGA_CHUNK_ENTRIES`` chunks.  The oracle rotates
Gamma_M and the factor K of Gamma_N = K K^dag once per Bloch direction and
scales once per radius with the same helpers; per grid state it decomposes
S'_M and, in place of S'_N, an r_N x r_N Gram (r_N = rank Gamma_N).

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
    _on_support,
    _spectrum,
    _support,
    eigh,
    hermitize,
    kron,
    partial_trace,
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
# omega1 takes a stack of states in chunks whose stacked S'_N and S'_M hold
# at most this many entries (256 KiB), so its temporaries stay small on the
# long stacks that (a1) and (a2) pass.
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
    """

    choi_n: ChoiMatrix
    choi_m: ChoiMatrix
    leaked_mass: float = field(init=False, compare=False)
    chois: np.ndarray = field(init=False, compare=False, repr=False)  # [Gamma_N; Gamma_M]

    def __post_init__(self):
        if (self.choi_n.dim_a, self.choi_n.dim_b) != (self.choi_m.dim_a, self.choi_m.dim_b):
            raise ValueError("Choi matrices must share dim_a and dim_b")
        leaked = support_overlap(self.choi_n.mat, eigh(self.choi_m.mat))[0]
        object.__setattr__(self, "leaked_mass", float(leaked))
        object.__setattr__(self, "chois", np.stack([self.choi_n.mat, self.choi_m.mat]))

    dim_a = property(lambda self: self.choi_n.dim_a)
    dim_b = property(lambda self: self.choi_n.dim_b)
    finite = property(lambda self: self.leaked_mass <= OUTSIDE_MASS_TOL)


@dataclass(frozen=True)
class PairStack:
    """Pairs of one shape: omega pairs state i of a (P, d, d) stack with pair i."""

    pairs: tuple
    leaked_mass: float = field(init=False, compare=False)  # the largest pair's
    chois: np.ndarray = field(init=False, compare=False, repr=False)  # (P, 2, n, n)
    dim_a = property(lambda self: self.pairs[0].dim_a)
    dim_b = property(lambda self: self.pairs[0].dim_b)
    finite = property(lambda self: all(pair.finite for pair in self.pairs))

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if len({(pair.dim_a, pair.dim_b) for pair in pairs}) != 1:
            raise ValueError("a PairStack needs pairs that share dim_a and dim_b")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "leaked_mass", max(pair.leaked_mass for pair in pairs))
        object.__setattr__(self, "chois", np.stack([pair.chois for pair in pairs]))


def _rotation(v: np.ndarray, dim_b: int) -> np.ndarray:
    """W x I_B, where W is ``v`` with its columns reversed.

    ``v`` holds eigenvectors of states on A in ascending eigenvalue order
    (a ``Spectrum``'s), so the largest eigenvalue comes first in W.  That
    puts the large block of the graded S' of ``_eigenbasis_sandwiches``
    where LAPACK's tridiagonal reduction keeps its small eigenvalues
    accurate: ascending order loses an order of magnitude on states with a
    1e-4 eigenvalue.
    """
    return kron(v[..., ::-1], np.eye(dim_b))


def _rotated_chois(chois: np.ndarray, v: np.ndarray, dim_b: int) -> np.ndarray:
    """Gamma' = (W^dag x I) chois (W x I) for chois = [Gamma_N; Gamma_M] (``_rotation``)."""
    wx = _rotation(v, dim_b)[..., None, :, :]
    return np.conj(np.swapaxes(wx, -1, -2)) @ chois @ wx


def _eigenbasis_sandwiches(rotated: np.ndarray, lam: np.ndarray, dim_b: int):
    """``(S', d)``: S' = Gamma' o dd^T with d = sqrt(lam) x 1_B, zero off lam's support.

    ``lam`` holds ascending eigenvalues of rho and ``rotated`` comes from
    ``_rotated_chois`` at its eigenvectors (or is one of its two Choi
    matrices); d follows the rotated (descending)
    order.  Then S'_X = (W^dag x I) S_X (W x I) for both sandwiches
    S_X = (sqrt(rho) x I) Gamma_X (sqrt(rho) x I).  Raises
    :class:`~qabcert.linalg.MatrixDomainError` on negative ``lam``.
    """
    d = np.repeat(_on_support(lam, np.sqrt)[..., ::-1], dim_b, axis=-1)
    return rotated * (d[..., None, :, None] * d[..., None, None, :]), d


def omega1(rho_a: np.ndarray | Spectrum, pair: ChannelPair | PairStack) -> np.ndarray:
    """-Tr_B(Gamma_N (sqrt(rho) x I) [log S_N - log S_M] (rho^(-1/2) x I)).

    Generally non-Hermitian; satisfies Tr[rho omega1(rho)] =
    -D(S_N || S_M).  Stack-aware in ``rho_a`` and, as a :class:`PairStack`, ``pair``.  Raises
    :class:`SupportViolationError` before any work when the pair is
    infinite (``ChannelPair.finite``); no state is scanned for a leak.

    Evaluated in rho's eigenbasis W (descending, see ``_rotated_chois``): with
    S' and d from ``_eigenbasis_sandwiches``, omega1 = -W Tr_B[(Gamma'_N o
    1d^T) (log S'_N - log S'_M) o 1d^-T] W^dag, where d^- inverts d on its
    support.  One stacked decomposition gives both S'_N and S'_M, and one loop
    walks the flat stack (a :class:`PairStack`'s ``chois`` with it) in row slices.
    """
    if not pair.finite:
        raise SupportViolationError(
            "support of Gamma_N is not contained in the support of Gamma_M; "
            f"the objective is -inf (leaked mass {pair.leaked_mass:.3e})"
        )
    spec = _spectrum(rho_a)
    dim = spec.eigenvectors.shape[-1]
    w, v = spec.eigenvalues.reshape(-1, dim), spec.eigenvectors.reshape(-1, dim, dim)
    chois = pair.chois.reshape(-1, *pair.chois.shape[-3:])  # a row per pair; one row is shared
    chunk = max(1, OMEGA_CHUNK_ENTRIES // chois[0].size)
    out = np.empty(v.shape, dtype=complex)
    for start in range(0, len(v), chunk):
        rows = slice(start, start + chunk)
        out[rows] = _omega1_rows(w[rows], v[rows], chois[rows] if len(chois) > 1 else chois, pair)
    return out.reshape(spec.eigenvectors.shape)


def _omega1_rows(w, v, chois: np.ndarray, pair: ChannelPair | PairStack) -> np.ndarray:
    """:func:`omega1` of a row slice of states (w, v), paired with ``chois`` (its rows or one)."""
    rotated = _rotated_chois(chois, v, pair.dim_b)
    sand, d = _eigenbasis_sandwiches(rotated, w, pair.dim_b)
    both = eigh(sand)
    logs = Spectrum(_on_support(both.eigenvalues, np.log), both.eigenvectors).matrix()
    d_inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    inner = rotated[:, 0] * d[:, None, :] @ (logs[:, 0] - logs[:, 1]) * d_inv[:, None, :]
    traced = partial_trace(inner, pair.dim_a, pair.dim_b, keep="A")
    basis = v[..., ::-1]
    return -(basis @ traced @ np.conj(np.swapaxes(basis, -1, -2)))


def omega(rho_a: np.ndarray | Spectrum, pair: ChannelPair | PairStack) -> np.ndarray:
    """Hermitian part of :func:`omega1`; same weighted trace against rho."""
    return hermitize(omega1(rho_a, pair))


def objective_value(rho_a: np.ndarray | Spectrum, pair: ChannelPair | PairStack):
    """-D(sandwich(rho, Gamma_N) || sandwich(rho, Gamma_M)); -inf on support loss.

    Scored in rho's eigenbasis, as :func:`omega1` is, by ``relative_entropy``;
    the solver's objective is Tr rho omega instead (:class:`ChannelObjective`).
    """
    spec = _spectrum(rho_a)
    rotated = _rotated_chois(pair.chois, spec.eigenvectors, pair.dim_b)
    sand = _eigenbasis_sandwiches(rotated, spec.eigenvalues, pair.dim_b)[0]
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

    ``+inf`` exactly when the pair is not ``finite``; otherwise sum_i p_i
    log(p_i / q_i) over the Bell weights both channels carry (p_i and q_i
    > 1e-15), the channel divergence attained at the maximally entangled input.
    """
    p = bell_weights(pair.choi_n)
    q = bell_weights(pair.choi_m)
    if not pair.finite:
        return np.inf
    kept = (p > 1e-15) & (q > 1e-15)
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

    Gamma_N is factored once per call, Gamma_N = K K^dag with K of shape
    n x r_N (its spectrum cut by ``linalg._support``), and each direction
    rotates K' = (U^dag x I) K and Gamma'_M = (U^dag x I) Gamma_M (U x I).
    At a radius, with d = sqrt(lambda) x 1_B, S'_N = A A^dag for
    A = diag(d) K', so the nonzero spectrum of S'_N is that of the
    r_N x r_N Gram A^dag A = sum_j lambda_j G_j, where G_j = K'_j^dag K'_j
    over row block j of K' is formed once per direction.  Tr S_N log S_M
    weighs log mu_k by ||u_k^dag A||^2, with (mu_k, u_k) from the one n x n
    decomposition per grid state, of S'_M = Gamma'_M o dd^T.
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
    rotated_m = np.conj(np.swapaxes(wx, -1, -2)) @ pair.choi_m.mat @ wx
    gamma_n = eigh(pair.choi_n.mat)
    _, inside, root = _support(gamma_n.eigenvalues, np.sqrt)
    k_dag = np.conj(gamma_n.eigenvectors * root)[:, inside].T @ wx  # K'^dag, (dirs, r_N, n)
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
        vals = -_divergence(np.linalg.eigvalsh(gram), weights, spec_m.eigenvalues)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_state = Spectrum(lam, u[i]).matrix()
    return best, best_state
