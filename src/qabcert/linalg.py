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
only (``_on_support``), plain :func:`matrix_fn` on all of it.  ``channel_re``
works in that spectrum's eigenbasis: it rotates both Choi matrices there as
one stack, scales them by sqrt(lambda) elementwise instead of building
sqrt(rho), and decomposes the sandwiches S_N and S_M with one stacked
:func:`eigh` call, so an omega evaluation costs one LAPACK call beyond the
state's own spectrum (one per chunk of a long stack).  The brute-force oracle
shares the rotation and scaling, but scores S_N from a Kraus factor of Gamma_N
cut by ``_support``: per grid state it decomposes S_M at full size and takes
an r_N x r_N Gram's spectrum (r_N = rank Gamma_N) from ``_eigvalsh``: in
closed form for r_N = 2 (nothing else uses that form), by LAPACK otherwise.

Support, floor and tolerance constants, each named once so no caller can
override it (the relative support rule itself is ``_support``):

===============================  =====  ==============================================
``SUPPORT_CUTOFF``               1e-12  the one support rule: log, sqrt, x^(-1/2) (so
                                        ``omega``), ``relative_entropy``, ``support_overlap``,
                                        the brute-force oracle's Kraus factor of Gamma_N
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
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian stack, read from its lower triangle.

    2x2 stacks are taken in closed form, all others by ``np.linalg.eigvalsh``.
    The root of larger magnitude is (a + c)/2 +- hypot(a - c, 2|b|)/2, and the
    other root is LAPACK ``dlaev2``'s (acmx / big) acmn - (|b| / big) |b|, so
    small eigenvalues keep an absolute error of order eps * max |eigenvalue|,
    as LAPACK's do.
    """
    if m.shape[-1] != 2:
        return np.linalg.eigvalsh(m)
    a, c, b = m[..., 0, 0].real, m[..., 1, 1].real, np.abs(m[..., 1, 0])
    total = a + c
    big = 0.5 * (total + np.copysign(np.hypot(a - c, 2.0 * b), total))
    a_big = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(a_big, a, c), np.where(a_big, c, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.where(big == 0.0, 0.0, (acmx / big) * acmn - (b / big) * b)
    return np.stack([np.minimum(big, small), np.maximum(big, small)], axis=-1)


def _spectrum(m: np.ndarray | Spectrum) -> Spectrum:
    return m if isinstance(m, Spectrum) else eigh(m)


def _support(w: np.ndarray, f: Callable):
    """The support rule: ascending ``w_i`` is in when ``w_i > SUPPORT_CUTOFF * max(w_max, 0)``.

    Returns ``(cut, inside, fw)``: that threshold, the mask and ``f`` on the
    support with zeros off it.  Stack-aware.  A full support (most iterates)
    applies ``f`` to ``w`` directly: the same values without masked copies.
    """
    cut = SUPPORT_CUTOFF * np.maximum(w[..., -1:], 0.0)
    inside = w > cut
    if inside.all():
        fw = f(w)
    else:
        fw = np.where(inside, f(np.where(inside, w, 1.0)), 0.0)
    return cut, inside, fw


def _on_support(w: np.ndarray, f: Callable) -> np.ndarray:
    """``f`` on the support of ``w`` (``_support``), exact zeros off it.

    Raises :class:`MatrixDomainError` for eigenvalues below the negated
    threshold.  Stack-aware.
    """
    cut, _, fw = _support(w, f)
    if (w < -cut).any():
        raise MatrixDomainError(
            "matrix has negative eigenvalues beyond the support cutoff "
            f"(min={float(w.min()):.3e})"
        )
    return fw


def matrix_fn(m: np.ndarray | Spectrum, f: Callable) -> np.ndarray:
    """Apply a scalar function to the whole spectrum: V f(lambda) V^dag.

    ``m`` is a matrix or its already computed :class:`Spectrum`.
    """
    spec = _spectrum(m)
    return Spectrum(f(spec.eigenvalues), spec.eigenvectors).matrix()


def _matrix_fn_on_support(m: np.ndarray | Spectrum, f: Callable) -> np.ndarray:
    """:func:`matrix_fn` with ``f`` on the support only (``_on_support``)."""
    return matrix_fn(m, lambda w: _on_support(w, f))


def matrix_log(m: np.ndarray | Spectrum) -> np.ndarray:
    return _matrix_fn_on_support(m, np.log)


def matrix_exp(m: np.ndarray | Spectrum) -> np.ndarray:
    return matrix_fn(m, np.exp)


def matrix_sqrt(m: np.ndarray | Spectrum) -> np.ndarray:
    return _matrix_fn_on_support(m, np.sqrt)


def matrix_inv_sqrt(m: np.ndarray | Spectrum) -> np.ndarray:
    return _matrix_fn_on_support(m, lambda x: 1.0 / np.sqrt(x))


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
