"""Dense Hermitian linear algebra built on numpy.

Matrices are plain complex ``numpy`` arrays.  Every operation accepts stacked
operands: an array of shape ``(..., d, d)`` is treated as a batch of ``d x d``
matrices and results broadcast accordingly.  Outputs of spectral operations
are always re-symmetrized, so ``||M - M^dag||_F <= 1e-12`` holds for every
returned matrix.

A :class:`Spectrum` is what layers pass to each other, so each state is
decomposed once: :func:`matrix_fn` (hence :func:`matrix_log`, :func:`matrix_exp`,
:func:`matrix_sqrt`, :func:`matrix_inv_sqrt`), :func:`floor_spectrum`,
``quantum.relative_entropy``, ``quantum.support_overlap`` (its sigma) and
``qab_core.Objective.omega`` (so ``d_omega``'s sigma, ``channel_re.omega``,
``omega1`` and ``objective_value``) accept one in place of a matrix, and
:func:`gibbs_spectrum` returns one; log, sqrt and x^(-1/2) act on the support
only (``_on_support``), plain :func:`matrix_fn` on all of it.

Support, floor and tolerance constants, each named once so no caller can
override it (the relative support rule itself is ``_verdict``, kept by ``Spectrum``):

===============================  =====  ==============================================
``SUPPORT_CUTOFF``               1e-12  the one support rule: log, sqrt, x^(-1/2) (so ``omega``),
                                        ``relative_entropy``, ``support_overlap``, the Bell oracle's
                                        weights, ``ChannelPair.kraus`` (Gamma_N's Kraus factor)
``OUTSIDE_MASS_TOL``             1e-10  leaked mass making D ``+inf``; the pair's one verdict
                                        (``ChannelPair.finite``), on which ``omega`` raises
``PSD_TOL``                      1e-10  largest |negative eigenvalue| ``relative_entropy`` and
                                        ``quantum.ChoiMatrix`` admit; |m - m^dag| of every input
``STATE_FLOOR``                  1e-14  eigenvalue floor of iterates (``qab_run``)
``REPAIR_FLOOR``                 1e-11  floor of repaired (a1) samples, inside the support
``mixture.TAU_TOL``              1e-10  gradient norm at which ``e_project`` stops
``mixture.MAX_NEWTON_STEPS``     200    Newton steps before ``e_project`` raises
``mixture.CONSTRAINT_TOL``       1e-8   constraint residual of an initial state
``quantum.KRAUS_TOL``            1e-8   TP of every ``quantum.ChoiMatrix`` (so Kraus completeness)
``channel_re.BELL_TOL``          1e-10  off-diagonal entry of a Bell-diagonal Choi matrix
``certify.DIVERGENCE_SKIP_TOL``  1e-14  ``certify._kept`` skips (a1)-(a3) divergences at or below it;
                                        the report records it
``certify.A2_TOLERANCE``         1e-9   most negative (a2) ratio that passes; the report records it
===============================  =====  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MatrixDomainError",
    "Spectrum",
    "eigh",
    "floor_spectrum",
    "gibbs_spectrum",
    "hermitize",
    "kron",
    "matrix_exp",
    "matrix_fn",
    "matrix_inv_sqrt",
    "matrix_log",
    "matrix_sqrt",
    "partial_trace",
    "random_hermitian",
]

SUPPORT_CUTOFF = 1e-12
OUTSIDE_MASS_TOL = 1e-10
PSD_TOL = 1e-10
STATE_FLOOR = 1e-14
REPAIR_FLOOR = 1e-11


class MatrixDomainError(ValueError):
    """A spectral function was requested outside its domain."""


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dag) / 2."""
    m = np.asarray(m, dtype=complex)
    out = np.conjugate(m.swapaxes(-1, -2), order="C")  # one new array; the rest is in place
    out += m
    out *= 0.5
    return out


def _finite_hermitian(m: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: finite, and Hermitian to ``PSD_TOL`` (NaN and inf fail)."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or huge entries
        asymmetry = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))), axis=(-2, -1))
    return np.isfinite(m).all(axis=(-2, -1)) & (asymmetry <= PSD_TOL)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so ``V diag(w) V^dag`` reconstructs
    the input.  ``verdict`` is their support verdict (``_verdict``), judged on first use.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    verdict = cached_property(lambda self: _verdict(self.eigenvalues))

    def take(self, index) -> Spectrum:
        """The spectra ``index`` of a stack, with their rows of its verdict, not a new one."""
        cut, inside, full = self.verdict
        out = Spectrum(self.eigenvalues[index], self.eigenvectors[index])
        out.__dict__["verdict"] = cut[index], inside[index], full or bool(inside[index].all())
        return out

    @property
    def shape(self) -> tuple:
        """The shape of the matrix (stack) it stands for, which ``np.shape`` reads."""
        return self.eigenvectors.shape

    def matrix(self) -> np.ndarray:
        """The matrix V diag(w) V^dag, re-symmetrized."""
        v = self.eigenvectors
        return hermitize(np.einsum("...ik,...k,...jk->...ij", v, self.eigenvalues, np.conj(v)))


def eigh(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (or stack of them).

    Raises numpy's ``LinAlgError``, a ``ValueError``, when LAPACK does not
    converge.  LAPACK need not raise on NaN, and this hot path does not check:
    ``_finite_hermitian`` gates each input matrix, ``e_project`` its log domain.
    """
    w, v = np.linalg.eigh(hermitize(m))
    return Spectrum(eigenvalues=w, eigenvectors=v)


def _roots2(m: np.ndarray):
    """``(mu, gap)`` of a 2x2 Hermitian stack, read from its lower triangle.

    mu = [det / big, big] holds the roots, ascending for PSD input (zeros for m = 0):
    big = (a + c)/2 +- gap/2, gap = hypot(a - c, 2|b|) = |mu_2 - mu_1|, is the root of
    larger magnitude, so neither sum cancels, and |ac|, |b|^2 <= big^2 give
    det / big = (ac - |b|^2) / big an absolute error of order eps * |big|, as LAPACK's.
    """
    a, c, b = m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 1, 0])
    total, gap = a + c, np.hypot(a - c, 2.0 * b)
    mu = np.empty(total.shape + (2,))
    mu[..., 1] = 0.5 * (total + np.copysign(gap, total))
    mu[..., 0] = (a * c - b * b) / (mu[..., 1] + (mu[..., 1] == 0.0))  # 0 / 1 at m = 0
    return mu, gap


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian stack: 2x2 by ``_roots2``, others by LAPACK."""
    return np.sort(_roots2(m)[0], axis=-1) if m.shape[-1] == 2 else np.linalg.eigvalsh(m)


def _log_psd(m: np.ndarray) -> np.ndarray:
    """:func:`matrix_log` of a PSD stack; 1x1 and 2x2 in closed form, without LAPACK.

    A 2x2 log is f_1 I + q (m - mu_1 I), f = log on the support (``_support``) of the
    roots mu (``_roots2``).  q = log1p(gap / mu_1) / gap stays accurate at near-equal
    roots; q = f_2 / gap with mu_1 off the support, and 0 at gap = 0.
    """
    if m.shape[-1] == 1:
        return _support(m.real, np.log)[2]
    if m.shape[-1] != 2:
        return matrix_log(m)
    m = hermitize(m)  # as ``eigh`` does
    mu, gap = _roots2(m)
    _, inside, f = _support(mu, np.log)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(inside[..., 0], np.log1p(gap / mu[..., 0]), f[..., 1]) / gap
    q = np.where(gap > 0.0, q, 0.0)
    return q[..., None, None] * m + (f[..., 0] - q * mu[..., 0])[..., None, None] * np.eye(2)


def _spectrum(m: np.ndarray | Spectrum) -> Spectrum:
    return m if isinstance(m, Spectrum) else eigh(m)


def _verdict(w: np.ndarray) -> tuple:
    """The support rule: ascending ``w_i`` is in when ``w_i > SUPPORT_CUTOFF * max(w_max, 0)``.

    Returns ``(cut, inside, full)``: that threshold, the mask and whether all are in.  Stack-aware.
    """
    cut = SUPPORT_CUTOFF * np.maximum(w[..., -1:], 0.0)
    inside = w > cut
    return cut, inside, bool(inside.all())


def _support(w: np.ndarray, f: Callable, verdict: tuple | None = None):
    """``(cut, inside, fw)``: ``w``'s ``verdict``, ``f`` on its support, 0 off it.  Stack-aware.

    ``verdict`` is a ``Spectrum``'s (None judges ``w``); a full one applies ``f`` to all of ``w``.
    """
    cut, inside, full = _verdict(w) if verdict is None else verdict
    return cut, inside, f(w) if full else np.where(inside, f(np.where(inside, w, 1.0)), 0.0)


def _on_support(w: np.ndarray, f: Callable, verdict: tuple | None = None) -> np.ndarray:
    """``f`` on the support of ``w`` (``_support``), exact zeros off it.

    Raises :class:`MatrixDomainError` for eigenvalues below the negated
    threshold; a full verdict (every w_i > cut >= 0) rules them out.  Stack-aware.
    """
    cut, _, full = verdict = _verdict(w) if verdict is None else verdict
    if not full and (w < -cut).any():
        raise MatrixDomainError(
            "matrix has negative eigenvalues beyond the support cutoff "
            f"(min={float(w.min()):.3e})"
        )
    return _support(w, f, verdict)[2]


def matrix_fn(m: np.ndarray | Spectrum, f: Callable) -> np.ndarray:
    """Apply a scalar function to the whole spectrum: V f(lambda) V^dag.

    ``m`` is a matrix or its already computed :class:`Spectrum`.
    """
    spec = _spectrum(m)
    return Spectrum(f(spec.eigenvalues), spec.eigenvectors).matrix()


def matrix_log(m: np.ndarray | Spectrum) -> np.ndarray:
    return matrix_fn(m, lambda w: _on_support(w, np.log))


def matrix_exp(m: np.ndarray | Spectrum) -> np.ndarray:
    return matrix_fn(m, np.exp)


def matrix_sqrt(m: np.ndarray | Spectrum) -> np.ndarray:
    return matrix_fn(m, lambda w: _on_support(w, np.sqrt))


def matrix_inv_sqrt(m: np.ndarray | Spectrum) -> np.ndarray:
    return matrix_fn(m, lambda w: _on_support(w, lambda x: 1.0 / np.sqrt(x)))


def gibbs_spectrum(m: np.ndarray) -> Spectrum:
    """Spectrum of exp(m) / Tr exp(m), evaluated stably via an eigenvalue shift."""
    spec = eigh(m)
    w = spec.eigenvalues
    e = np.exp(w - w[..., -1:])
    return Spectrum(e / e.sum(axis=-1, keepdims=True), spec.eigenvectors)


def floor_spectrum(m: np.ndarray | Spectrum, floor: float) -> Spectrum:
    """Raise eigenvalues below ``floor`` to it and renormalize to unit trace."""
    spec = _spectrum(m)
    w = np.maximum(spec.eigenvalues, floor)
    return Spectrum(w / w.sum(axis=-1, keepdims=True), spec.eigenvectors)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of (possibly rectangular) matrices, broadcasting over leading (batch) axes."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str = "A") -> np.ndarray:
    """Partial trace of an operator on A tensor B.

    ``keep`` selects the surviving subsystem ("A" or "B"); the index
    convention matches :func:`kron` (row index = a * dim_b + b).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-1] != dim_a * dim_b or m.shape[-2] != dim_a * dim_b:
        raise ValueError(
            f"matrix dimension {m.shape[-1]} does not factor as {dim_a}x{dim_b}"
        )
    resh = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if keep == "A":
        return np.einsum("...ijkj->...ik", resh)
    if keep == "B":
        return np.einsum("...ijil->...jl", resh)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def random_hermitian(dim: int, seed, size: int | None = None) -> np.ndarray:
    """Gaussian-ensemble Hermitian matrix with unit Frobenius norm.

    H = (A + A^dag) / 2 with A = G_0 + i G_1 and G_0, G_1 standard normal,
    scaled to unit Frobenius norm; before scaling, diagonal entries are
    standard normal and off-diagonal entries have independent N(0, 1/2)
    real and imaginary parts.  With ``size``, a ``(size, dim, dim)`` stack
    drawn as one row-major block, so matrix i depends only on the stream and
    i.  ``seed`` may be an integer, a sequence of integers, or a
    ``numpy.random.Generator`` (a generator is consumed in place).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((1 if size is None else size, 2, dim, dim))
    h = hermitize(g[:, 0] + 1j * g[:, 1])
    h /= np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)))[:, None, None]
    return h[0] if size is None else h
