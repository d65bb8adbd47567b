import numpy as np
import pytest

from qabcert import (
    MatrixDomainError,
    eigh,
    hermitize,
    kron,
    matrix_exp,
    matrix_fn,
    matrix_inv_sqrt,
    matrix_log,
    matrix_sqrt,
    partial_trace,
    random_hermitian,
)
from qabcert.linalg import (
    PSD_TOL,
    SUPPORT_CUTOFF,
    Spectrum,
    _eigvalsh,
    _finite_hermitian,
    _log_psd,
    _support,
    _verdict,
    floor_spectrum,
    gibbs_spectrum,
)
from qabcert.quantum import PAULI_X, maximally_entangled, support_overlap


def random_hermitian_scaled(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = hermitize(m)
    return scale * h / np.max(np.abs(np.linalg.eigvalsh(h)))


class TestEigh:
    def test_identity(self):
        spec = eigh(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        spec = eigh(np.diag([3.0, -1.0]))
        assert np.allclose(spec.eigenvalues, [-1.0, 3.0])

    def test_pauli_x_hand_decomposition(self):
        # By hand: X = |+><+| - |-><-| with |+-> = (|0> +- |1>)/sqrt(2).
        spec = eigh(PAULI_X)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(np.vdot(minus, spec.eigenvectors[:, 0])) == pytest.approx(1.0)
        assert abs(np.vdot(plus, spec.eigenvectors[:, 1])) == pytest.approx(1.0)

    def test_spectrum_invariants(self, rng):
        for dim in (2, 3, 5):
            m = random_hermitian_scaled(rng, dim, 3.0)
            spec = eigh(m)
            v, w = spec.eigenvectors, spec.eigenvalues
            recon = (v * w) @ np.conj(v.T)
            assert np.linalg.norm(recon - m) / np.linalg.norm(m) < 1e-10
            assert np.max(np.abs(np.conj(v.T) @ v - np.eye(dim))) < 1e-10

    def test_nan_entries_raise_a_value_error(self, rng):
        # numpy's LinAlgError is a ValueError, which callers already report.
        m = random_hermitian_scaled(rng, 4, 1.0)
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ValueError):
            eigh(m)


def adversarial_2x2(rng, n):
    """Hermitian 2x2 stacks of ``n`` each at scales 1e-16 to 1e3, with complex off-diagonals."""
    scale = 10.0 ** rng.uniform(-16, 3, (n, 1, 1))
    u = np.linalg.qr(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)))[0]
    v = u[..., :1]
    a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    tiny = 10.0 ** rng.uniform(-20, -16, n)  # eigenvalue ratios of the fourth stack
    stacks = [
        np.broadcast_to(np.eye(2), (n, 2, 2)),  # exactly degenerate
        rng.standard_normal((n, 2, 1)) * np.eye(2),  # diagonal, either sign
        v @ np.conj(np.swapaxes(v, -1, -2)),  # rank 1
        (u * np.stack([tiny, np.ones(n)], axis=-1)[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2)),
        a @ np.conj(np.swapaxes(a, -1, -2)),  # PSD Grams
        hermitize(a),  # indefinite
    ]
    return np.concatenate([scale * m for m in stacks])


class TestEigvalsh:
    def test_matches_lapack_on_adversarial_2x2_stacks(self, rng):
        m = adversarial_2x2(rng, 20_000)
        ref = np.linalg.eigvalsh(m)
        got = _eigvalsh(m)
        assert got.shape == ref.shape
        assert np.all(got[:, 0] <= got[:, 1])
        assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref).max(axis=-1, keepdims=True))

    def test_zero_matrices(self):
        assert np.array_equal(_eigvalsh(np.zeros((3, 2, 2))), np.zeros((3, 2)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_other_sizes_are_lapacks(self, rng, n):
        m = np.stack([random_hermitian_scaled(rng, n) for _ in range(4)])
        assert np.array_equal(_eigvalsh(m), np.linalg.eigvalsh(m))


def log_on_support_by_eigh(m):
    w, v = np.linalg.eigh(m)
    return (v * _support(w, np.log)[2][..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def rotated_2x2(rng, roots):
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return hermitize((u * np.asarray(roots, dtype=float)) @ np.conj(u.T))


class TestLogPsd:
    # The closed-form 2x2 log against an eigh-based log on the support.
    @pytest.mark.parametrize(
        "roots",
        [(0.3, 0.3), (0.3, 0.3 + 1e-14), (1e-15, 0.5), (0.0, 0.5), (1e-4, 0.7)],
        ids=["equal", "1e-14-apart", "one-off-support", "one-zero", "distinct"],
    )
    def test_matches_eigh_on_the_support(self, rng, roots):
        m = rotated_2x2(rng, roots)[None]
        ref = log_on_support_by_eigh(m)
        assert np.max(np.abs(_log_psd(m) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_exactly_equal_roots_give_a_multiple_of_the_identity(self):
        out = _log_psd(0.3 * np.eye(2, dtype=complex)[None])
        assert out[0, 0, 1] == out[0, 1, 0] == 0
        assert out[0, 0, 0] == out[0, 1, 1] == pytest.approx(np.log(0.3), rel=1e-15)

    def test_zero_matrix_logs_to_zero(self):
        assert np.array_equal(_log_psd(np.zeros((2, 2, 2), dtype=complex)), np.zeros((2, 2, 2)))

    def test_1x1_is_the_log_on_the_support(self):
        out = _log_psd(np.array([[[0.5]], [[0.0]], [[-1e-20]]], dtype=complex))
        assert np.array_equal(out, np.array([[[np.log(0.5)]], [[0.0]], [[0.0]]]))

    def test_each_row_of_a_mixed_stack_is_its_own_log(self, rng):
        # Rows with an equal pair of roots or a root off the support sit in a
        # stack with ordinary rows; every row keeps the bits it gets alone.
        rows = [(0.3, 0.3), (1e-15, 0.5), (1e-4, 0.7), (0.2, 0.6)]
        m = np.stack([rotated_2x2(rng, r) for r in rows])
        stacked = _log_psd(m)
        for i in range(len(rows)):
            assert np.array_equal(_log_psd(m[i : i + 1]), stacked[i : i + 1])

    def test_other_sizes_take_eigh(self, rng):
        m = np.stack([hermitize(random_hermitian_scaled(rng, 3) + 2 * np.eye(3)) for _ in range(3)])
        assert np.allclose(_log_psd(m), log_on_support_by_eigh(m), atol=1e-14)


class TestMatrixFn:
    @pytest.mark.parametrize("dim, n", [(2, 1), (3, 4)])
    def test_stacked_functions_of_one_spectrum_keep_their_bits(self, rng, dim, n):
        # qab_run_many rebuilds rho and log rho from one spectrum in one call;
        # each equals, byte for byte, the matrix rebuilt alone.
        spec = floor_spectrum(eigh(random_hermitian(dim, rng, size=n)), 1e-3)
        rho, log_rho = matrix_fn(spec, lambda w: np.array([w, np.log(w)]))
        assert rho.tobytes() == spec.matrix().tobytes()
        assert log_rho.tobytes() == matrix_fn(spec, np.log).tobytes()

    def test_diagonal_log(self):
        out = matrix_log(np.diag([1.0, np.e]))
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-14)

    def test_plain_fn_applies_to_every_eigenvalue(self):
        # No support rule: a floored iterate's log keeps its sub-cutoff direction.
        spec = Spectrum(np.array([1e-14, 1.0]), np.eye(2))
        assert np.allclose(matrix_fn(spec, np.log), np.diag([np.log(1e-14), 0.0]), atol=1e-13)
        assert np.array_equal(matrix_log(spec), np.diag([0.0, 0.0]))

    def test_exp_log_round_trip(self, rng):
        # ||H||_F <= 10
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = hermitize(m)
            h = 10.0 * h / np.linalg.norm(h)
            back = matrix_log(matrix_exp(h))
            assert np.linalg.norm(back - h) / np.linalg.norm(h) < 1e-10

    def test_log_exp_round_trip_wide_spectrum(self, rng):
        # Spectra within [1e-6, 1e3].
        for _ in range(10):
            w = 10.0 ** rng.uniform(-6, 3, size=4)
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            v = np.linalg.qr(g)[0]
            m = hermitize((v * w) @ np.conj(v.T))
            back = matrix_exp(matrix_log(m))
            assert np.linalg.norm(back - m) / np.linalg.norm(m) < 1e-10

    def test_inv_sqrt_support_convention(self):
        out = matrix_inv_sqrt(np.diag([4.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_sqrt_squares_to_input(self, rng):
        for _ in range(5):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = g @ np.conj(g.T)
            s = matrix_sqrt(m)
            assert np.linalg.norm(s @ s - m) / np.linalg.norm(m) < 1e-10

    def test_log_domain_error_on_negative(self):
        with pytest.raises(MatrixDomainError):
            matrix_log(np.diag([1.0, -0.5]))

    def test_outputs_hermitian(self, rng):
        m = random_hermitian_scaled(rng, 4, 2.0)
        for out in (matrix_exp(m), matrix_sqrt(matrix_exp(m)), matrix_log(matrix_exp(m))):
            assert np.max(np.abs(out - np.conj(out.T))) <= 1e-12

    def test_batched_matches_loop(self, rng):
        stack = np.stack([matrix_exp(random_hermitian_scaled(rng, 2)) for _ in range(5)])
        batched = matrix_log(stack)
        for i in range(5):
            assert np.allclose(batched[i], matrix_log(stack[i]), atol=1e-12)

    def test_spectrum_input_matches_matrix_input(self, rng):
        m = matrix_exp(random_hermitian_scaled(rng, 3))
        stack = np.stack([m, matrix_exp(random_hermitian_scaled(rng, 3))])
        for x in (m, stack):
            for fn in (matrix_log, matrix_exp, matrix_sqrt, matrix_inv_sqrt):
                assert np.array_equal(fn(eigh(x)), fn(x))


class TestSpectrumHelpers:
    def test_shape_is_the_shape_of_the_matrix_stack(self, rng):
        stack = np.stack([matrix_exp(random_hermitian_scaled(rng, 3)) for _ in range(4)])
        for m in (stack[0], stack, stack.reshape(2, 2, 3, 3)):
            spec = eigh(m)
            assert spec.shape == np.shape(spec) == m.shape
            assert np.shape(spec.matrix()) == m.shape

    def test_gibbs_spectrum_reconstructs_gibbs_state(self, rng):
        h = random_hermitian_scaled(rng, 3, 5.0)
        spec = gibbs_spectrum(h)
        assert np.sum(spec.eigenvalues) == pytest.approx(1.0, abs=1e-15)
        expected = matrix_exp(h) / np.trace(matrix_exp(h)).real
        assert np.allclose(spec.matrix(), expected, atol=1e-12)

    def test_floor_spectrum_floors_and_renormalizes(self):
        spec = floor_spectrum(np.diag([2.0, 0.0, -1e-17]), 1e-3)
        assert np.allclose(spec.eigenvalues, np.array([1e-3, 1e-3, 2.0]) / 2.002)
        kept = floor_spectrum(eigh(np.diag([0.75, 0.25])), 1e-3)
        assert np.array_equal(kept.eigenvalues, [0.25, 0.75])


class TestPartialTrace:
    def test_maximally_mixed(self):
        assert np.allclose(partial_trace(np.eye(4) / 4, 2, 2, "A"), np.eye(2) / 2)

    def test_maximally_entangled_marginal(self):
        me = maximally_entangled(2)
        assert np.allclose(partial_trace(me, 2, 2, "A"), np.eye(2) / 2, atol=1e-12)
        assert np.allclose(partial_trace(me, 2, 2, "B"), np.eye(2) / 2, atol=1e-12)

    def test_product_state(self, rng):
        a = matrix_exp(random_hermitian_scaled(rng, 2))
        b = matrix_exp(random_hermitian_scaled(rng, 3))
        prod = kron(a, b)
        assert np.allclose(partial_trace(prod, 2, 3, "A"), a * np.trace(b).real, atol=1e-10)
        assert np.allclose(partial_trace(prod, 2, 3, "B"), b * np.trace(a).real, atol=1e-10)

    def test_trace_preserving_and_linear(self, rng):
        for _ in range(5):
            x = hermitize(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            y = hermitize(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            assert np.trace(partial_trace(x, 2, 3, "A")) == pytest.approx(np.trace(x).real, abs=1e-12)
            lhs = partial_trace(2.5 * x - 0.5 * y, 2, 3, "B")
            rhs = 2.5 * partial_trace(x, 2, 3, "B") - 0.5 * partial_trace(y, 2, 3, "B")
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 2, "A")


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_matches_numpy(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(kron(a, b), np.kron(a, b))

    def test_rectangular_matches_numpy(self, rng):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.allclose(kron(a, b), np.kron(a, b))
        assert kron(np.eye(2), b).shape == (6, 4)

    def test_trace_multiplicativity(self, rng):
        a = hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        b = hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert np.trace(kron(a, b)) == pytest.approx(np.trace(a).real * np.trace(b).real)


class TestHermitize:
    def test_fixed_point(self, rng):
        h = random_hermitian_scaled(rng, 3)
        assert np.allclose(hermitize(h), h)

    def test_anti_hermitian_kernel(self, rng):
        h = random_hermitian_scaled(rng, 3)
        assert np.max(np.abs(hermitize(1j * h))) < 1e-14

    def test_weighted_trace_is_real_part(self, rng):
        # Tr(rho hermitize(m)) = Re Tr(rho m) for Hermitian rho.
        for _ in range(10):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = g @ np.conj(g.T)
            rho = rho / np.trace(rho).real
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = np.trace(rho @ hermitize(m))
            rhs = np.trace(rho @ m).real
            assert abs(lhs.imag) < 1e-12
            assert lhs.real == pytest.approx(rhs, abs=1e-12)


class TestFiniteHermitian:
    def test_stack_entries_finite_and_hermitian_to_psd_tol(self):
        stack = np.stack([np.eye(2)] * 5).astype(complex)
        stack[1, 0, 1] = np.nan
        stack[2, 1, 1] = np.inf
        stack[3, 0, 1] = 2 * PSD_TOL
        stack[4, 0, 1] = 0.5 * PSD_TOL
        assert _finite_hermitian(stack).tolist() == [True, False, False, False, True]
        assert _finite_hermitian([[1.0, 0.0], [0.0, 1.0]])


class TestRandomHermitian:
    def test_unit_frobenius_norm(self):
        for seed in range(20):
            assert np.linalg.norm(random_hermitian(3, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert np.array_equal(random_hermitian(4, 99), random_hermitian(4, 99))
        assert not np.array_equal(random_hermitian(4, 99), random_hermitian(4, 100))

    def test_hermitian(self):
        h = random_hermitian(5, 3)
        assert np.max(np.abs(h - np.conj(h.T))) < 1e-15

    def test_ensemble_mean_within_monte_carlo_error(self):
        n = 10_000
        samples = np.stack([random_hermitian(2, seed) for seed in range(n)])
        mean = samples.mean(axis=0)
        sigma = samples.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(mean.real) <= 3 * sigma.real + 1e-12)

    def test_stack_rows_nest_and_match_single_draws(self):
        stack = random_hermitian(3, 7, 50)
        assert stack.shape == (50, 3, 3)
        assert np.array_equal(random_hermitian(3, 7, 20), stack[:20])
        assert np.array_equal(random_hermitian(3, 7), stack[0])
        assert np.allclose(np.linalg.norm(stack, axis=(-2, -1)), 1.0, rtol=0, atol=1e-12)
        assert np.max(np.abs(stack - np.conj(np.swapaxes(stack, -1, -2)))) < 1e-15

    def test_stack_second_moments_match_the_ensemble(self):
        # For d = 2 the coordinates (H00, H11, sqrt2 Re H01, sqrt2 Im H01) are
        # iid N(0, 1) before scaling, so each of E[H00^2] and E[|H01|^2] is 1/4
        # after it; Monte Carlo error at n = 10k is about 0.0025.
        h = random_hermitian(2, 11, 10_000)
        assert np.mean(h[:, 0, 0].real ** 2) == pytest.approx(0.25, abs=0.01)
        assert np.mean(np.abs(h[:, 0, 1]) ** 2) == pytest.approx(0.25, abs=0.01)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            random_hermitian(0, 1)


class TestSupportRule:
    """The one relative support rule: w_i > SUPPORT_CUTOFF * max(w_max, 0)."""

    def test_eigenvalue_at_the_cutoff_lies_outside(self):
        w = np.array([SUPPORT_CUTOFF, 1.0])
        assert _support(w, np.log)[1].tolist() == [False, True]
        at_cutoff = Spectrum(w, np.eye(2))
        assert np.array_equal(matrix_sqrt(at_cutoff), np.diag([0.0, 1.0]))
        outside, _ = support_overlap(np.eye(2) / 2, at_cutoff)
        assert outside == 0.5
        above = Spectrum(np.array([2 * SUPPORT_CUTOFF, 1.0]), np.eye(2))
        assert support_overlap(np.eye(2) / 2, above)[0] == 0.0

    def test_non_positive_largest_eigenvalue_gives_empty_support(self):
        for w in ([-1e-30, 0.0], [0.0, 0.0], [-2.0, -1.0]):
            cut, inside, fw = _support(np.array(w), np.log)
            assert not inside.any()
            assert np.array_equal(fw, [0.0, 0.0])
        assert np.array_equal(matrix_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_negative_eigenvalue_beyond_the_cutoff_raises(self):
        vecs = np.eye(2)
        with pytest.raises(MatrixDomainError):
            matrix_sqrt(Spectrum(np.array([-2 * SUPPORT_CUTOFF, 1.0]), vecs))
        with pytest.raises(MatrixDomainError):
            matrix_log(Spectrum(np.array([-2.0, -1.0]), vecs))
        at_cutoff = Spectrum(np.array([-SUPPORT_CUTOFF, 1.0]), vecs)
        assert np.array_equal(matrix_sqrt(at_cutoff), np.diag([0.0, 1.0]))

    def test_stacked_spectra_use_their_own_largest_eigenvalue(self):
        w = np.array([[1e-13, 1.0], [1e-13, 1e-2]])
        assert _support(w, np.log)[1].tolist() == [[False, True], [True, True]]


class TestSupportVerdict:
    """A spectrum's verdict is the support rule's, judged once and kept."""

    def test_the_verdict_is_the_rule_of_its_eigenvalues(self):
        w = np.array([[1e-13, 1.0], [1e-13, 1e-2], [0.3, 0.7]])
        spec = Spectrum(w, np.broadcast_to(np.eye(2), (3, 2, 2)))
        cut, inside, full = spec.verdict
        assert np.array_equal(cut, SUPPORT_CUTOFF * w[:, -1:]) and not full
        assert inside.tolist() == [[False, True], [True, True], [True, True]]
        assert spec.verdict is spec.verdict  # judged once
        assert _support(w, np.log)[1].tolist() == inside.tolist()
        assert _verdict(w[1:])[2]

    def test_rows_taken_keep_their_rows_of_the_verdict(self):
        w = np.array([[1e-13, 1.0], [1e-13, 1e-2], [0.3, 0.7]])
        spec = Spectrum(w, np.broadcast_to(np.eye(2), (3, 2, 2)))
        for index in ([1, 2], [0, 2], np.array([2]), slice(1, None)):
            rows = spec.take(index)
            assert np.array_equal(rows.eigenvalues, w[index])
            assert np.array_equal(rows.eigenvectors, spec.eigenvectors[index])
            expected = _verdict(w[index])
            for got, want in zip(rows.verdict, expected):
                assert np.array_equal(got, want)
