"""Omega keeps its bits through the leaner single-state step.

The helpers ending in ``_before`` are the omega route as it stood before the
step was trimmed to fewer numpy calls, kept verbatim: ``linalg.kron``,
``linalg._log_psd``, ``channel_re._omega1_rows`` (with ``_rotation`` as
``kron`` of the reversed eigenvectors) and the chunk loop of ``omega1``.  The
trim claims the same floating-point work, so every result must equal theirs
exactly.  The first change that alters omega's arithmetic on purpose deletes
this file.
"""

import numpy as np
import pytest

from qabcert import ChannelObjective, ChannelPair, dephasing_choi, depolarizing_choi, omega1
from qabcert.channel_re import OMEGA_CHUNK_ENTRIES, _eigenbasis_sandwiches, _rotation
from qabcert.linalg import (
    _log_psd,
    _roots2,
    _spectrum,
    _support,
    eigh,
    hermitize,
    matrix_log,
    partial_trace,
)

from conftest import random_state
from test_channel_re import REFERENCE_CASES, floored_iterate


def kron_before(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.einsum("...ij,...kl->...ikjl", a, b)
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def log_psd_before(m: np.ndarray) -> np.ndarray:
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


def omega1_rows_before(w, v, chois: np.ndarray, kraus: np.ndarray, dim_b: int) -> np.ndarray:
    wx = kron_before(v[..., ::-1], np.eye(dim_b))
    wx_dag = np.conj(np.swapaxes(wx, -1, -2))
    s_m, d = _eigenbasis_sandwiches(wx_dag @ chois[:, 1] @ wx, w, dim_b)
    a_dag = (np.conj(np.swapaxes(kraus, -1, -2)) @ wx) * d[:, None, :]
    gram = a_dag @ np.conj(np.swapaxes(a_dag, -1, -2))
    inner = kraus @ (a_dag @ matrix_log(s_m) - log_psd_before(gram) @ a_dag)
    d_inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0).reshape(len(w), 1, -1)
    return partial_trace(inner * d_inv @ wx_dag, w.shape[-1], dim_b, keep="A")


def omega1_before(rho_a, pair) -> np.ndarray:
    spec = _spectrum(rho_a)
    dim = spec.eigenvectors.shape[-1]
    w, v = spec.eigenvalues.reshape(-1, dim), spec.eigenvectors.reshape(-1, dim, dim)
    n, rank = pair.kraus.shape[-2:]
    chois = np.stack([pair.choi_n.mat, pair.choi_m.mat]).reshape(-1, 2, n, n)
    kraus = pair.kraus.reshape(-1, n, rank)
    chunk = max(1, OMEGA_CHUNK_ENTRIES // (2 * n * n))
    out = np.empty(v.shape, dtype=complex)
    for start in range(0, len(v), chunk):
        rows = slice(start, start + chunk)
        per_pair = (chois[rows], kraus[rows]) if len(chois) > 1 else (chois, kraus)  # or broadcast
        out[rows] = omega1_rows_before(w[rows], v[rows], *per_pair, pair.dim_b)
    if np.any(pair.equal):
        out[np.broadcast_to(pair.equal, len(v))] = 0.0
    return out.reshape(spec.eigenvectors.shape)


# Dephasing(1/2) has two equal Kraus weights, so at I/2 the Gram's roots are exactly equal.
CASES = {
    **{name: (make_pair, dim) for name, (make_pair, dim, _) in REFERENCE_CASES.items()},
    "equal-roots": (lambda: ChannelPair(dephasing_choi(0.5), depolarizing_choi(0.3)), 2),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
class TestOmegaKeepsItsBits:
    def test_single_states(self, case, rng):
        make_pair, dim = case
        pair = make_pair()
        for _ in range(5):
            state = random_state(rng, dim)
            expected = omega1_before(state, pair)
            assert np.array_equal(omega1(state, pair), expected)
            scaled = hermitize(expected) / pair.dim_a
            assert np.array_equal(ChannelObjective(pair).omega(eigh(state)), scaled)

    def test_a_stack_over_three_chunks(self, case, rng):
        make_pair, dim = case
        pair = make_pair()
        states = np.stack([random_state(rng, dim) for _ in range(1300)])
        assert np.array_equal(omega1(states, pair), omega1_before(states, pair))

    def test_the_maximally_mixed_state(self, case):
        make_pair, dim = case
        pair = make_pair()
        state = np.eye(dim) / dim
        assert np.array_equal(omega1(state, pair), omega1_before(state, pair))

    def test_an_iterate_at_the_state_floor(self, case):
        make_pair, dim = case
        pair, spec = make_pair(), floored_iterate(dim, 5)
        assert np.array_equal(omega1(spec, pair), omega1_before(spec, pair))


def test_gram_logs_keep_their_bits(rng):
    g = rng.standard_normal((200, 2, 3)) + 1j * rng.standard_normal((200, 2, 3))
    grams = g @ np.conj(np.swapaxes(g, -1, -2))
    rank_one = g[:, :, :1] @ np.conj(np.swapaxes(g[:, :, :1], -1, -2))
    stacks = [
        grams,
        rank_one,
        0.3 * np.stack([np.eye(2, dtype=complex)] * 3),  # exactly equal roots: gap 0
        np.zeros((2, 2, 2), dtype=complex),
        np.array([[[0.5]], [[0.0]], [[-1e-20]]], dtype=complex),
        grams[:4, :1, :1] + np.zeros((4, 1, 1)),
        g[:5].swapaxes(-1, -2) @ np.conj(g[:5]),  # 3x3, LAPACK's log
    ]
    for m in stacks:
        assert np.array_equal(_log_psd(m), log_psd_before(m))
        for i in range(len(m)):
            assert np.array_equal(_log_psd(m[i : i + 1]), log_psd_before(m[i : i + 1]))


@pytest.mark.parametrize("dim_b", [1, 2, 3])
def test_rotation_is_the_kron_of_the_reversed_eigenvectors(rng, dim_b):
    v = eigh(np.stack([random_state(rng, 3) for _ in range(4)])).eigenvectors
    assert np.array_equal(_rotation(v, dim_b), kron_before(v[..., ::-1], np.eye(dim_b)))
    assert np.array_equal(_rotation(v[0], dim_b), kron_before(v[0, :, ::-1], np.eye(dim_b)))
