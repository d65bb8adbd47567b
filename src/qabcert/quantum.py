"""Quantum states, channels as Choi matrices, and the relative entropy.

Choi matrices follow the unnormalized convention ``Tr_B Gamma = I_A``
(so ``Tr Gamma = dim_a``), and every :class:`ChoiMatrix` is a channel, so
``sandwich(rho, Gamma)`` has unit trace for every density matrix ``rho``.

Relative entropies are natural-log (nats) throughout; divide by ``ln 2``
for bits.  ``+inf`` is returned as the IEEE infinity, never a large float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    OUTSIDE_MASS_TOL,
    PSD_TOL,
    Spectrum,
    _finite_hermitian,
    _spectrum,
    _support,
    hermitize,
    kron,
    matrix_sqrt,
    partial_trace,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "BELL_STATES",
    "ChoiMatrix",
    "choi_from_kraus",
    "dephasing_choi",
    "depolarizing_choi",
    "maximally_entangled",
    "random_density",
    "relative_entropy",
    "sandwich",
    "support_overlap",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KRAUS_TOL = 1e-8

_B00, _B01, _B10, _B11 = np.eye(4, dtype=complex)

#: Phi+, Phi-, Psi+, Psi- as kets.
BELL_STATES = (
    (_B00 + _B11) / np.sqrt(2),
    (_B00 - _B11) / np.sqrt(2),
    (_B01 + _B10) / np.sqrt(2),
    (_B01 - _B10) / np.sqrt(2),
)


def _projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, np.conj(ket))


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a channel A -> B, with ``Tr_B mat = I_A``.

    Construction checks that ``mat`` is finite, Hermitian and PSD to
    ``PSD_TOL`` and trace preserving to ``KRAUS_TOL``, so every instance is
    a channel.  Equality is by value (dims and ``mat``).
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (self.dim_a * self.dim_b,) * 2:
            raise ValueError(
                f"Choi matrix shape {mat.shape} does not match dims "
                f"({self.dim_a}, {self.dim_b})"
            )
        if not _finite_hermitian(mat):
            raise ValueError(f"Choi matrix must be finite and Hermitian to {PSD_TOL}")
        mat = hermitize(mat)
        w = np.linalg.eigvalsh(mat)
        if not w.min() >= -PSD_TOL:  # each test written so that NaN fails
            raise ValueError(f"Choi matrix has negative eigenvalue {w.min():.3e}")
        marg = partial_trace(mat, self.dim_a, self.dim_b, keep="A")
        if not np.max(np.abs(marg - np.eye(self.dim_a))) <= KRAUS_TOL:
            raise ValueError("channel is not trace-preserving: Tr_B Gamma != I_A")
        object.__setattr__(self, "mat", mat)

    def __eq__(self, other):
        if not isinstance(other, ChoiMatrix):
            return NotImplemented
        dims = (self.dim_a, self.dim_b) == (other.dim_a, other.dim_b)
        return dims and np.array_equal(self.mat, other.mat)


def _bell_diagonal_choi(weights) -> ChoiMatrix:
    """2 sum_i w_i |B_i><B_i| over ``BELL_STATES``; the inverse of ``channel_re.bell_weights``."""
    mat = 2 * sum(w * _projector(k) for w, k in zip(weights, BELL_STATES))
    return ChoiMatrix(mat=mat, dim_a=2, dim_b=2)


def depolarizing_choi(p: float) -> ChoiMatrix:
    """Choi matrix of rho -> (1-p) rho + p I/2 (Bell weights (1 - 3p/4, p/4, p/4, p/4))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {p}")
    return _bell_diagonal_choi((1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p))


def dephasing_choi(p_deph: float) -> ChoiMatrix:
    """Choi matrix of rho -> p rho + (1-p) Z rho Z (Bell weights (p, 1-p, 0, 0))."""
    if not 0.0 <= p_deph <= 1.0:
        raise ValueError(f"dephasing parameter must be in [0, 1], got {p_deph}")
    return _bell_diagonal_choi((p_deph, 1 - p_deph, 0.0, 0.0))


def choi_from_kraus(kraus) -> ChoiMatrix:
    """Choi matrix from Kraus operators (each of shape dim_b x dim_a).

    Tr_B Gamma = (sum K^dag K)^T, so ``ChoiMatrix``'s trace-preservation
    check is the completeness check sum K^dag K = I_A (ValueError if not).
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ValueError("at least one Kraus operator is required")
    dim_b, dim_a = ops[0].shape
    me = maximally_entangled(dim_a)
    mat = dim_a * sum(
        kron(np.eye(dim_a), k) @ me @ np.conj(kron(np.eye(dim_a), k).T) for k in ops
    )
    return ChoiMatrix(mat=mat, dim_a=dim_a, dim_b=dim_b)


def maximally_entangled(d: int) -> np.ndarray:
    """Density matrix of the maximally entangled ket d^(-1/2) sum_i |ii>."""
    if d < 2:
        raise ValueError("d must be >= 2")
    ket = np.zeros(d * d, dtype=complex)
    ket[:: d + 1] = 1 / np.sqrt(d)
    return _projector(ket)


def sandwich(rho_a: np.ndarray, gamma: ChoiMatrix) -> np.ndarray:
    """(sqrt(rho_A) x I_B) Gamma (sqrt(rho_A) x I_B); unit trace for a state rho_A.

    ``rho_a`` may be a stack of states with shape (..., dim_a, dim_a).
    """
    rho_a = np.asarray(rho_a, dtype=complex)
    if rho_a.shape[-1] != gamma.dim_a:
        raise ValueError(
            f"state dimension {rho_a.shape[-1]} does not match Choi dim_a {gamma.dim_a}"
        )
    sq = kron(matrix_sqrt(rho_a), np.eye(gamma.dim_b))
    return hermitize(sq @ gamma.mat @ sq)


def random_density(dim: int, seed) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr, mixed with 1e-6 I/dim.

    ``seed`` may be an int, a sequence of ints, or a Generator.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ np.conj(g.T)
    rho = rho / np.trace(rho).real
    rho = (rho + 1e-6 * np.eye(dim) / dim) / (1 + 1e-6)
    return hermitize(rho)


def _weights(rho: np.ndarray | Spectrum, u: np.ndarray) -> np.ndarray:
    """The weights <u_k| rho |u_k> of ``rho`` on the columns u_k of ``u``."""
    udag = np.conj(np.swapaxes(u, -1, -2))
    if isinstance(rho, Spectrum):
        overlap = np.abs(udag @ rho.eigenvectors) ** 2
        return np.einsum("...kj,...j->...k", overlap, rho.eigenvalues)
    return np.einsum("...ki,...ij,...jk->...k", udag, rho, u).real


def _split_weights(weights: np.ndarray, sigma_w: np.ndarray):
    """``(outside_mass, Tr rho log sigma)`` from rho's weights on sigma's eigenvectors.

    Eigenvectors outside sigma's support (``linalg._support``) carry the
    outside mass.
    """
    _, inside, log_s = _support(sigma_w, np.log)
    return np.where(inside, 0.0, weights).sum(axis=-1), (weights * log_s).sum(axis=-1)


def support_overlap(rho: np.ndarray | Spectrum, sigma: Spectrum):
    """``(outside_mass, Tr rho log sigma)`` from the weights <u_k| rho |u_k>.

    The u_k are the eigenvectors of ``sigma``; those outside its support
    (``linalg._support``) carry the outside mass.
    ``rho`` need not be a state: ``ChannelPair`` passes Gamma_N.
    """
    return _split_weights(_weights(rho, sigma.eigenvectors), sigma.eigenvalues)


def _divergence(wr: np.ndarray, weights: np.ndarray, sigma_w: np.ndarray):
    """Tr rho (log rho - log sigma) from spectra and weights (rules of :func:`relative_entropy`).

    ``wr`` is rho's spectrum (its nonzero part suffices: x log x vanishes at
    0), ``weights`` are rho's weights on sigma's eigenvectors (``_weights``)
    and ``sigma_w`` is sigma's spectrum.  Stack-aware.
    """
    for name, w in (("rho", wr), ("sigma", sigma_w)):
        if w.min() < -PSD_TOL:
            raise ValueError(f"{name} has negative eigenvalue {float(w.min()):.3e}")
    tr_rlogr = _support(wr, lambda x: x * np.log(x))[2].sum(axis=-1)
    outside_mass, tr_rlogs = _split_weights(weights, sigma_w)
    out = np.where(outside_mass > OUTSIDE_MASS_TOL, np.inf, tr_rlogr - tr_rlogs)
    return float(out) if np.ndim(out) == 0 else out


def relative_entropy(rho: np.ndarray | Spectrum, sigma: np.ndarray | Spectrum):
    """Umegaki relative entropy Tr rho (log rho - log sigma) in nats.

    Inputs must be PSD to ``PSD_TOL`` but need not have unit trace.  When
    the eigenvalue mass of ``rho`` outside the support of ``sigma`` exceeds
    ``OUTSIDE_MASS_TOL`` the result is ``+inf``.  Either argument may be a
    :class:`~qabcert.linalg.Spectrum` already computed by the caller.
    Accepts stacks on either argument (broadcasting) and then returns an
    array.
    """
    if isinstance(rho, Spectrum):
        wr = rho.eigenvalues
    else:
        rho = hermitize(rho)
        wr = np.linalg.eigvalsh(rho)
    spec_s = _spectrum(sigma)
    return _divergence(wr, _weights(rho, spec_s.eigenvectors), spec_s.eigenvalues)
