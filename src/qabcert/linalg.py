"""Dense Hermitian linear algebra built on numpy.

Matrices are plain complex ``numpy`` arrays.  Every operation accepts stacked
operands: an array of shape ``(..., d, d)`` is treated as a batch of ``d x d``
matrices and results broadcast accordingly.  Outputs of spectral operations
are always re-symmetrized, so ``||M - M^dag||_F <= 1e-12`` holds for every
returned matrix.

A :class:`Spectrum` is what layers pass to each other, so each state is
decomposed once: :func:`matrix_fn` (hence :func:`matrix_log`,
:func:`matrix_exp`, :func:`matrix_sqrt`, :func:`matrix_inv_sqrt`),
:func:`floor_spectrum` and ``quantum.relative_entropy`` accept one in place
of a matrix, and :func:`gibbs_spectrum` returns one.

Support and floor constants: ``SUPPORT_CUTOFF`` (1e-12, relative eigenvalue
cutoff of supports), ``OUTSIDE_MASS_TOL`` (1e-10, leaked mass that makes a
relative entropy ``+inf``), ``STATE_FLOOR`` (1e-14, eigenvalue floor of
iterates) and ``REPAIR_FLOOR`` (1e-12, floor of repaired (a1) samples).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DecompositionError",
    "MatrixDomainError",
    "Spectrum",
    "eigh",
    "floor_spectrum",
    "frobenius_norm",
    "gibbs_spectrum",
    "gibbs_state",
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

# Relative eigenvalue threshold below which a matrix is treated as living on
# the orthogonal complement (support convention for log / x^(-1/2) / sqrt).
SUPPORT_CUTOFF = 1e-12
OUTSIDE_MASS_TOL = 1e-10
STATE_FLOOR = 1e-14
REPAIR_FLOOR = 1e-12


class DecompositionError(RuntimeError):
    """Eigendecomposition did not converge."""

    def __init__(self, dim: int):
        super().__init__(f"eigendecomposition failed to converge (dim={dim})")
        self.dim = dim


class MatrixDomainError(ValueError):
    """A spectral function was requested outside its domain."""


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m^dag) / 2."""
    m = np.asarray(m, dtype=complex)
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2


def frobenius_norm(m: np.ndarray) -> np.ndarray | float:
    return np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    orthonormal eigenvectors as columns, so ``V diag(w) V^dag`` reconstructs
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def matrix(self) -> np.ndarray:
        """The matrix V diag(w) V^dag, re-symmetrized."""
        v = self.eigenvectors
        return hermitize(np.einsum("...ik,...k,...jk->...ij", v, self.eigenvalues, np.conj(v)))


def eigh(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix (or stack of them)."""
    m = hermitize(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(m.shape[-1]) from exc
    return Spectrum(eigenvalues=w, eigenvectors=v)


def _spectrum(m: np.ndarray | Spectrum) -> Spectrum:
    return m if isinstance(m, Spectrum) else eigh(m)


def matrix_fn(
    m: np.ndarray | Spectrum,
    f: Callable[[np.ndarray], np.ndarray],
    support_cutoff: float = 0.0,
) -> np.ndarray:
    """Apply a scalar function to the spectrum: V f(lambda) V^dag.

    ``m`` is a matrix or its already computed :class:`Spectrum`.

    With ``support_cutoff > 0`` the function is evaluated on the support
    only: eigenvalues at or below ``support_cutoff * max(eigenvalue, 0)``
    are mapped to exact zeros instead of through ``f``, and eigenvalues
    below the negated cutoff raise :class:`MatrixDomainError`.  Use this
    mode for log, sqrt and x^(-1/2); plain functions such as exp take
    ``support_cutoff = 0``.
    """
    spec = _spectrum(m)
    w = spec.eigenvalues
    if support_cutoff > 0:
        cut = support_cutoff * np.maximum(w[..., -1], 0.0)
        cut = cut[..., None]
        if np.any(w < -cut):
            raise MatrixDomainError(
                "matrix has negative eigenvalues beyond the support cutoff "
                f"(min={float(np.min(w)):.3e})"
            )
        inside = w > cut
        fw = np.where(inside, f(np.where(inside, w, 1.0)), 0.0)
    else:
        fw = f(w)
    return Spectrum(fw, spec.eigenvectors).matrix()


def matrix_log(m: np.ndarray | Spectrum, support_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    return matrix_fn(m, np.log, support_cutoff)


def matrix_exp(m: np.ndarray | Spectrum) -> np.ndarray:
    return matrix_fn(m, np.exp)


def matrix_sqrt(m: np.ndarray | Spectrum, support_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    return matrix_fn(m, np.sqrt, support_cutoff)


def matrix_inv_sqrt(m: np.ndarray | Spectrum, support_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    return matrix_fn(m, lambda x: 1.0 / np.sqrt(x), support_cutoff)


def gibbs_spectrum(m: np.ndarray) -> Spectrum:
    """Spectrum of exp(m) / Tr exp(m), evaluated stably via an eigenvalue shift."""
    spec = eigh(m)
    w = spec.eigenvalues
    e = np.exp(w - w[..., -1:])
    return Spectrum(e / np.sum(e, axis=-1, keepdims=True), spec.eigenvectors)


def gibbs_state(m: np.ndarray) -> np.ndarray:
    """exp(m) / Tr exp(m), evaluated stably via an eigenvalue shift."""
    return gibbs_spectrum(m).matrix()


def floor_spectrum(m: np.ndarray | Spectrum, floor: float) -> Spectrum:
    """Raise eigenvalues below ``floor`` to it and renormalize to unit trace."""
    spec = _spectrum(m)
    w = np.maximum(spec.eigenvalues, floor)
    return Spectrum(w / np.sum(w, axis=-1, keepdims=True), spec.eigenvectors)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, broadcasting over leading (batch) axes."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    da, db = a.shape[-1], b.shape[-1]
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (da * db, da * db))


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


@functools.cache
def _triu(dim: int):
    return np.triu_indices(dim, k=1)


def random_hermitian(dim: int, seed) -> np.ndarray:
    """Gaussian-ensemble Hermitian matrix with unit Frobenius norm.

    Diagonal entries are standard normal; off-diagonal entries have
    independent N(0, 1/2) real and imaginary parts.  ``seed`` may be an
    integer, a sequence of integers, or a ``numpy.random.Generator``
    (a generator is consumed in place, which callers use to derive
    per-sample streams).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h = np.zeros((dim, dim), dtype=complex)
    diag = rng.standard_normal(dim)
    h[np.arange(dim), np.arange(dim)] = diag
    iu = _triu(dim)
    re = rng.standard_normal(iu[0].size)
    im = rng.standard_normal(iu[0].size)
    off = (re + 1j * im) / np.sqrt(2)
    h[iu] = off
    h[(iu[1], iu[0])] = np.conj(off)
    return h / frobenius_norm(h)
