import functools
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qabcert import MixtureFamily, Objective, Spectrum, matrix_fn
from qabcert.cli import main
from qabcert.mixture import _evaluate
from qabcert.serialize import complex_matrix_to_pairs, pairs_to_complex_matrix


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


class CountingObjective(Objective):
    """Another objective's omega, counting its calls: a step computed, not replayed, makes one."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def omega(self, rho):
        self.calls += 1
        return self.inner.omega(rho)


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


def matrix_exp(m: np.ndarray | Spectrum) -> np.ndarray:
    """exp of a Hermitian matrix (stack), as ``matrix_fn`` gives it; the library has no caller."""
    return matrix_fn(m, np.exp)


def free_energy(base: np.ndarray, fam: MixtureFamily, tau) -> float:
    """log Tr exp(base + sum_j tau_j H_j) - sum_j tau_j c_j, the function ``e_project`` minimizes.

    ``base`` is the log-domain matrix (log rho, possibly shifted by an
    objective term); the value is finite for every finite tau.
    """
    return _evaluate(np.asarray(base, dtype=complex), fam, np.asarray(tau, dtype=float))[0]


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


@functools.cache
def _solve_trajectory_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.json"
        argv = ["solve", "--channel-m", "depolarizing:0.05", "--samples", "20", "--iters", "20"]
        assert main([*argv, "--save-trajectory", str(path), "--out", os.devnull]) == 0
        return path.read_text()


# Edits of one state of a solve's trajectory file, each leaving that state no
# density matrix: (state index, edit).
BAD_STATE_EDITS = {
    "one-sided-off-diagonal": (-1, lambda s: s + np.array([[0, 0.3], [0, 0]])),
    "trace-1.8": (-1, lambda s: np.diag([0.9, 0.9])),
    "complex-symmetric": (2, lambda s: s + np.array([[0, 0.05j], [0.05j, 0]])),
    "negative-eigenvalue": (3, lambda s: np.diag([2.0, -1.0])),
    "nan-entry": (1, lambda s: s + np.array([[math.nan, 0], [0, 0]])),
}


def solve_trajectory(edit: str | None = None) -> str:
    """A solve's trajectory file, with the state edit ``BAD_STATE_EDITS[edit]`` when given.

    The file is the one ``qabcert solve --channel-m depolarizing:0.05 --samples 20
    --iters 20 --save-trajectory`` writes.
    """
    text = _solve_trajectory_text()
    if edit is None:
        return text
    doc, (i, change) = json.loads(text), BAD_STATE_EDITS[edit]
    doc["states"][i] = complex_matrix_to_pairs(change(pairs_to_complex_matrix(doc["states"][i])))
    return json.dumps(doc)
