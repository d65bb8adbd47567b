"""Omega keeps its bits through the leaner single-state step.

The helpers ending in ``_before`` are the omega route as it stood before the
step was trimmed to fewer numpy calls, kept verbatim: ``linalg.kron``,
``linalg._log_psd``, ``channel_re._omega1_rows`` (with ``_rotation`` as
``kron`` of the reversed eigenvectors) and the chunk loop of ``omega1``.  The
trim claims the same floating-point work, so every result must equal theirs
exactly.  The first change that alters omega's arithmetic on purpose deletes
this file.

The helpers ``support_before``, ``on_support_before``, ``split_weights_before``
and ``divergence_before`` are the support rule's paths as they stood before
each spectrum kept its support verdict (``Spectrum.verdict``), kept verbatim
but for their names.  A full verdict skips only tests that it proves pass, so
values and exceptions must equal theirs on every input, full or not.
"""

from typing import Callable

import numpy as np
import pytest

from qabcert import (
    ChannelObjective,
    ChannelPair,
    MixtureFamily,
    QabOptions,
    dephasing_choi,
    depolarizing_choi,
    omega1,
    qab_run,
)
from qabcert.certify import _draw_perturbations, _repair_candidates
from qabcert.channel_re import OMEGA_CHUNK_ENTRIES, _eigenbasis_sandwiches, _rotation
from qabcert.linalg import (
    OUTSIDE_MASS_TOL,
    PSD_TOL,
    SUPPORT_CUTOFF,
    MatrixDomainError,
    Spectrum,
    _log_psd,
    _on_support,
    _roots2,
    _spectrum,
    _support,
    eigh,
    hermitize,
    matrix_log,
    partial_trace,
)
from qabcert.quantum import (
    PAULI_X,
    PAULI_Z,
    _divergence,
    _split_weights,
    _weights,
    random_density,
    relative_entropy,
    support_overlap,
)

from conftest import random_state
from test_channel_re import REFERENCE_CASES, amplitude_damping, floored_iterate, random_kraus_pair


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


def support_before(w: np.ndarray, f: Callable):
    cut = SUPPORT_CUTOFF * np.maximum(w[..., -1:], 0.0)
    inside = w > cut
    if inside.all():
        fw = f(w)
    else:
        fw = np.where(inside, f(np.where(inside, w, 1.0)), 0.0)
    return cut, inside, fw


def on_support_before(w: np.ndarray, f: Callable) -> np.ndarray:
    cut, _, fw = support_before(w, f)
    if (w < -cut).any():
        raise MatrixDomainError(
            "matrix has negative eigenvalues beyond the support cutoff "
            f"(min={float(w.min()):.3e})"
        )
    return fw


def split_weights_before(weights: np.ndarray, sigma_w: np.ndarray):
    _, inside, log_s = support_before(sigma_w, np.log)
    return np.where(inside, 0.0, weights).sum(axis=-1), (weights * log_s).sum(axis=-1)


def divergence_before(wr: np.ndarray, weights: np.ndarray, sigma_w: np.ndarray):
    for name, w in (("rho", wr), ("sigma", sigma_w)):
        if w.min() < -PSD_TOL:
            raise ValueError(f"{name} has negative eigenvalue {float(w.min()):.3e}")
    tr_rlogr = support_before(wr, lambda x: x * np.log(x))[2].sum(axis=-1)
    outside_mass, tr_rlogs = split_weights_before(weights, sigma_w)
    out = np.where(outside_mass > OUTSIDE_MASS_TOL, np.inf, tr_rlogr - tr_rlogs)
    return float(out) if out.ndim == 0 else out


def outcome(call):
    """``("value", result)`` of ``call()``, or ``("raised", type, message)``."""
    try:
        return "value", call()
    except ValueError as exc:
        return "raised", type(exc), str(exc)


def assert_same(new, old):
    """Equal outcomes: the same exception, or values of one type and shape equal bit for bit.

    NaN equals NaN.  The outside mass of a full support is 0.0 of the masked sum's type and
    shape: a numpy float for one spectrum, an array for a stack.
    """
    assert new[0] == old[0]
    if new[0] == "raised":
        assert new == old
        return
    new, old = new[1], old[1]
    if not isinstance(old, tuple):
        new, old = (new,), (old,)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        assert np.array_equal(a, b, equal_nan=True)


def sm_spectra(pair, states) -> Spectrum:
    """Spectra of S'_M, as omega decomposes them, at a stack of states."""
    spec = eigh(states)
    wx = _rotation(spec.eigenvectors, pair.dim_b)
    rotated = wx.swapaxes(-1, -2).conj() @ pair.gamma_m @ wx
    return eigh(_eigenbasis_sandwiches(rotated, spec.eigenvalues, pair.dim_b)[0])


def support_inputs() -> dict:
    """Spectra, each with its eigenvectors, on which the support paths are compared."""
    rng = np.random.default_rng(2028)
    bell = ChannelPair(dephasing_choi(0.4), dephasing_choi(0.3))  # Gamma_M has rank 2
    states = np.stack([random_state(rng, 2) for _ in range(6)] + [np.eye(2) / 2])
    final = random_density(2, 7)
    raw = _draw_perturbations(final, np.random.default_rng(1), np.random.default_rng(2), 0.1, 1000)
    cases = {
        "full-iterates": eigh(np.stack([random_state(rng, 3) for _ in range(5)])),
        "one-full-iterate": eigh(random_state(rng, 2)),
        "floored-iterate": floored_iterate(2, 5),
        "floored-qutrit": floored_iterate(3, 6),
        "sm-with-zeros": sm_spectra(bell, states),
        "all-zero": Spectrum(np.zeros((2, 3)), np.broadcast_to(np.eye(3), (2, 3, 3))),
        "below-minus-cut": Spectrum(np.array([-2 * SUPPORT_CUTOFF, 1.0]), np.eye(2)),
        "below-minus-psd-tol": Spectrum(np.array([-2 * PSD_TOL, 0.5, 0.5]), np.eye(3)),
        "repaired-a1": _repair_candidates(raw)[0],
        "wide-a1": _repair_candidates(final + 3 * (raw - final))[0],  # clipped, then floored
    }
    assert not cases["sm-with-zeros"].verdict[2] and cases["full-iterates"].verdict[2]
    return cases


SUPPORT_INPUTS = support_inputs()
FUNCTIONS = {"log": np.log, "sqrt": np.sqrt, "xlogx": lambda x: x * np.log(x)}


@pytest.mark.parametrize("spec", SUPPORT_INPUTS.values(), ids=SUPPORT_INPUTS.keys())
class TestSupportPathsKeepTheirBits:
    def test_support_and_on_support(self, spec):
        w = spec.eigenvalues
        for f in FUNCTIONS.values():
            for verdict in (None, spec.verdict):
                old = outcome(lambda: support_before(w, f))
                assert_same(outcome(lambda: _support(w, f, verdict)), old)
                old = outcome(lambda: on_support_before(w, f))
                assert_same(outcome(lambda: _on_support(w, f, verdict)), old)

    def test_split_weights_and_divergence(self, spec):
        w, v = spec.eigenvalues, spec.eigenvectors
        rhos = [spec, eigh(np.eye(v.shape[-1]) / v.shape[-1]), floored_iterate(v.shape[-1], 3)]
        for rho in rhos:
            weights = _weights(rho, v)
            old = outcome(lambda: split_weights_before(weights, w))
            assert_same(outcome(lambda: _split_weights(weights, w, spec.verdict)), old)
            for wr, v_r in ((rho.eigenvalues, rho.verdict), (w, spec.verdict)):
                old = outcome(lambda: divergence_before(wr, weights, w))
                assert_same(outcome(lambda: _divergence(wr, weights, spec, v_r)), old)
                assert_same(outcome(lambda: _divergence(wr, weights, spec)), old)

    def test_relative_entropy(self, spec, monkeypatch):
        others = [spec, eigh(np.eye(spec.eigenvectors.shape[-1]) / spec.eigenvectors.shape[-1])]
        pairs = [(spec, other) for other in others] + [(other, spec) for other in others]
        new = [outcome(lambda: relative_entropy(a, b)) for a, b in pairs]
        patch_before(monkeypatch)
        old = [outcome(lambda: relative_entropy(a, b)) for a, b in pairs]
        for a, b in zip(new, old):
            assert_same(a, b)


def test_outside_mass_above_the_tolerance_is_infinite():
    sigma = Spectrum(np.array([0.0, 1.0]), np.eye(2))  # full mass 1e-6 leaks past sigma
    rho = Spectrum(np.array([1e-6, 1.0 - 1e-6]), np.eye(2))
    weights = _weights(rho, sigma.eigenvectors)
    assert divergence_before(rho.eigenvalues, weights, sigma.eigenvalues) == np.inf
    assert _divergence(rho.eigenvalues, weights, sigma, rho.verdict) == np.inf
    assert relative_entropy(rho, sigma) == np.inf


def test_outside_mass_of_a_full_support_keeps_the_masked_shape():
    """support_overlap's outside mass: a numpy float for one sigma, an array of a stack's."""
    for sigma in (SUPPORT_INPUTS["full-iterates"], SUPPORT_INPUTS["one-full-iterate"]):
        rho = np.eye(sigma.eigenvectors.shape[-1]) / 2
        mass = support_overlap(rho, sigma)[0]
        old = split_weights_before(_weights(rho, sigma.eigenvectors), sigma.eigenvalues)[0]
        assert sigma.verdict[2] and type(mass) is type(old) and mass.shape == old.shape
        assert np.array_equal(mass, np.zeros(sigma.eigenvalues.shape[:-1]))
    assert type(mass) is np.float64 and mass.shape == ()


def patch_before(monkeypatch):
    """Route every support path through its ``_before`` copy; verdicts are ignored."""

    def support(w, f, verdict=None):
        return support_before(w, f)

    def on_support(w, f, verdict=None):
        return on_support_before(w, f)

    def split(weights, sigma_w, verdict=None):
        return split_weights_before(weights, sigma_w)

    def divergence(wr, weights, sigma, v_r=None):
        return divergence_before(wr, weights, sigma.eigenvalues)

    for module, name, helper in (
        ("linalg", "_support", support),
        ("linalg", "_on_support", on_support),
        ("quantum", "_support", support),
        ("quantum", "_split_weights", split),
        ("quantum", "_divergence", divergence),
        ("channel_re", "_support", support),
        ("channel_re", "_on_support", on_support),
        ("channel_re", "_divergence", divergence),
    ):
        monkeypatch.setattr(f"qabcert.{module}.{name}", helper)


RUNS = {
    "ad-dep": (lambda: ChannelPair(amplitude_damping(0.2), depolarizing_choi(0.5)), 2, ()),
    "qubit-rank-2-vs-4": (lambda: random_kraus_pair(2, 2, 11), 2, ()),
    "qutrit-rank-2-vs-9": (lambda: random_kraus_pair(3, 3, 21), 3, ()),
    "energy-2-constraints": (
        lambda: ChannelPair(dephasing_choi(0.4), depolarizing_choi(0.05)),
        2,
        ((PAULI_Z, -0.25), (PAULI_X, 0.1)),
    ),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_600_step_runs_keep_their_bits(run, monkeypatch):
    make_pair, dim, constraints = run
    pair = make_pair()
    family = MixtureFamily(tuple(h for h, _ in constraints), tuple(c for _, c in constraints))
    opts = QabOptions(
        random_density(dim, [20240801, 0, 0]), max_iters=600, family=family
    )
    new = qab_run(ChannelObjective(pair), opts)
    patch_before(monkeypatch)
    old = qab_run(ChannelObjective(pair), opts)
    assert len(new.states) == len(old.states) == 601
    assert np.array_equal(np.stack(new.states), np.stack(old.states))
    for field in ("values", "step_kl", "step_domega"):
        assert getattr(new, field) == getattr(old, field)


def test_repaired_a1_stacks_keep_their_bits(monkeypatch):
    """A (a1) attempt's divergence and omega on a 1000-state repaired stack, and its scored rows."""
    pair = ChannelPair(amplitude_damping(0.2), depolarizing_choi(0.5))
    final = random_density(2, [20240801, 0, 0])
    raw = _draw_perturbations(final, np.random.default_rng(3), np.random.default_rng(4), 0.1, 1000)
    obj = ChannelObjective(pair)

    def attempt():
        repaired = _repair_candidates(raw)[0]
        den = relative_entropy(final, repaired)
        return den, obj.omega(repaired.take(np.nonzero(den > 1e-3)[0]))

    new = attempt()
    patch_before(monkeypatch)
    old = attempt()
    assert all(np.array_equal(a, b) for a, b in zip(new, old))


def test_a_stack_that_is_not_full_over_three_chunks(rng):
    """omega judges each chunk of a stack that is not full, as it did before verdicts were kept.

    Only the first of the three chunks holds floored states, so the other two are full
    although the stack is not.
    """
    pair = CASES["paper"][0]()
    states = np.stack([random_state(rng, 2) for _ in range(1300)])
    states[:512:97] = floored_iterate(2, 5).matrix()
    spec = eigh(states)
    assert not spec.verdict[2] and spec.verdict[1][512:].all()
    assert np.array_equal(omega1(spec, pair), omega1_before(states, pair))
