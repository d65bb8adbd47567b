import math

import numpy as np
import pytest

from qabcert import Objective, Spectrum


def as_matrix(rho):
    """A state passed to ``omega`` as a matrix or as its Spectrum, as a matrix."""
    return rho.matrix() if isinstance(rho, Spectrum) else np.asarray(rho)


class ConstantObjective(Objective):
    """omega(rho) = K for a fixed Hermitian K (state independent)."""

    def __init__(self, k):
        self.k = np.asarray(k, dtype=complex)

    def omega(self, rho):
        return np.broadcast_to(self.k, as_matrix(rho).shape).copy()


class LinearTraceObjective(Objective):
    """omega(rho) = Tr(rho) * K; constant on unit-trace states."""

    def __init__(self, k):
        self.k = np.asarray(k, dtype=complex)

    def omega(self, rho):
        tr = np.trace(as_matrix(rho), axis1=-2, axis2=-1).real
        return np.asarray(tr)[..., None, None] * self.k


def _record_eig(monkeypatch, record):
    """List that gains ``record(shape)`` per np.linalg.eigh / eigvalsh call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append(record(np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eig_calls(monkeypatch):
    """List that gains one entry per np.linalg.eigh / eigvalsh call: its batch size.

    ``len`` counts calls and ``sum`` counts the matrices decomposed.
    """
    return _record_eig(monkeypatch, lambda shape: math.prod(shape[:-2]))


@pytest.fixture
def eig_shapes(monkeypatch):
    """List that gains one entry per np.linalg.eigh / eigvalsh call: the shape decomposed."""
    return _record_eig(monkeypatch, tuple)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ np.conj(g.T)
    rho = rho / np.trace(rho).real
    return (rho + 1e-9 * np.eye(dim) / dim) / (1 + 1e-9)


def random_kraus(seed, dim_a, dim_b, n_ops):
    """``n_ops`` Kraus operators (dim_b x dim_a): the blocks of a random isometry."""
    rng = np.random.default_rng(seed)
    shape = (n_ops * dim_b, dim_a)
    w, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return np.split(w, n_ops)


def isometry_kraus_2to3():
    """Two 3x2 Kraus operators of a channel from a qubit to a qutrit."""
    return random_kraus(7, 2, 3, 2)
