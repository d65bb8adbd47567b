"""Mixture families of density matrices and the e-projection onto them.

A mixture family is the set of states satisfying ``Tr rho H_j = c_j`` for
linearly independent Hermitian observables ``H_j``.  The e-projection of a
state onto the family is the minimizer of ``D(sigma || rho)``; it has Gibbs
form ``C exp(log rho + sum_j tau_j H_j)`` where ``tau`` solves a small
convex minimization, handled here by a damped Newton method with the exact
(Kubo-Mori) Hessian; the Gibbs state is returned as a ``linalg.Spectrum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, _finite_hermitian, eigh, gibbs_spectrum, hermitize

__all__ = [
    "EProjectionError",
    "InfeasibleFamilyError",
    "MixtureFamily",
    "TauSolution",
    "e_project",
    "free_energy",
    "free_energy_gradient",
]

TAU_TOL = 1e-10
CONSTRAINT_TOL = 1e-8
MAX_NEWTON_STEPS = 200


class InfeasibleFamilyError(ValueError):
    """No density matrix satisfies the requested constraints."""


class EProjectionError(RuntimeError):
    """The tau-solver did not reach its gradient tolerance."""

    def __init__(self, gradient_norm: float, iterations: int):
        super().__init__(
            f"e-projection did not converge after {iterations} iterations "
            f"(gradient norm {gradient_norm:.3e})"
        )
        self.gradient_norm = gradient_norm
        self.iterations = iterations


@dataclass(frozen=True)
class MixtureFamily:
    """Linear expectation constraints Tr(rho H_j) = c_j; ``MixtureFamily()`` has none.

    The one gate for constraint inputs: finite observables, Hermitian to ``PSD_TOL`` (stored
    hermitized), of one dimension and linearly independent; finite targets, each in its
    observable's spectral range (else :class:`InfeasibleFamilyError`; a family can still be
    jointly infeasible, which ``e_project`` finds).
    """

    observables: tuple = ()
    targets: tuple = ()

    def __post_init__(self):
        obs = tuple(np.asarray(h, dtype=complex) for h in self.observables)
        targets = tuple(float(c) for c in self.targets)
        if len(obs) != len(targets):
            raise ValueError("observables and targets must have equal length")
        if not np.isfinite(targets).all():
            raise ValueError("constraint targets must be finite")
        if obs:
            dim = obs[0].shape[-1]
            for h in obs:
                if h.shape != (dim, dim):
                    raise ValueError("all constraint observables must share one dimension")
                if not _finite_hermitian(h):
                    raise ValueError("constraint observables must be finite and Hermitian")
            obs = tuple(hermitize(h) for h in obs)
            gram = np.array(
                [[np.trace(a @ b).real for b in obs] for a in obs]
            )
            if np.linalg.eigvalsh(gram).min() <= 1e-10:
                raise ValueError("constraint observables are linearly dependent")
            for h, c in zip(obs, targets):
                w = np.linalg.eigvalsh(h)
                if c < w[0] - 1e-12 or c > w[-1] + 1e-12:
                    raise InfeasibleFamilyError(
                        f"target {c} lies outside the spectral range "
                        f"[{w[0]:.6g}, {w[-1]:.6g}] of its observable"
                    )
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "targets", targets)

    def __eq__(self, other):
        if not isinstance(other, MixtureFamily):
            return NotImplemented
        same = zip(self.observables, other.observables)
        return self.targets == other.targets and all(np.array_equal(a, b) for a, b in same)

    @property
    def size(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        if not self.observables:
            raise ValueError("empty family has no dimension")
        return self.observables[0].shape[-1]

    def residuals(self, rho: np.ndarray) -> np.ndarray:
        """Tr(rho H_j) - c_j for each constraint."""
        return np.array(
            [np.trace(rho @ h).real - c for h, c in zip(self.observables, self.targets)]
        )


@dataclass(frozen=True)
class TauSolution:
    tau: np.ndarray
    gradient_norm: float
    iterations: int


_NO_TAU = TauSolution(np.zeros(0), 0.0, 0)


def _evaluate(base: np.ndarray, fam: MixtureFamily, tau: np.ndarray):
    """Free energy, gradient, exact Hessian and Gibbs spectrum at ``tau``.

    One eigendecomposition ``w, V`` of ``base + sum_j tau_j H_j`` gives all
    four.  The Hessian comes as a zero-argument callable (:func:`_hessian`),
    so it is built only when a Newton step needs it.
    """
    m = base
    for t, h in zip(tau, fam.observables):
        m = m + t * h
    spec = eigh(m)
    w, v = spec.eigenvalues, spec.eigenvectors
    e = np.exp(w - w[-1])
    total = e.sum()
    p = e / total
    value = float(w[-1] + np.log(total) - np.dot(tau, fam.targets))
    rotated = np.array([np.conj(v.T) @ h @ v for h in fam.observables]).reshape(-1, *v.shape)
    mean = np.einsum("jaa,a->j", rotated, p).real
    gradient = mean - np.asarray(fam.targets)
    return value, gradient, lambda: _hessian(rotated, w, p, mean), Spectrum(p, v)


def _hessian(rotated: np.ndarray, w: np.ndarray, p: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Kubo-Mori covariance ``sum_ab (H_j)_ab (H_k)_ba K_ab - m_j m_k`` in the eigenbasis.

    ``m_j = Tr(G H_j)``, ``K_ab = (p_b - p_a) / (w_b - w_a)``, ``K_aa = p_a``.
    """
    # K_ab = p_a expm1(gap) / gap for |gap| <= 1, where p_b - p_a cancels;
    # beyond, the plain quotient is exact and p_a expm1(gap) can be 0 * inf.
    gap = w[None, :] - w[:, None]
    far = np.abs(gap) > 1.0
    near = ~far & (gap != 0)
    ratio = np.ones_like(gap)
    ratio[near] = np.expm1(gap[near]) / gap[near]
    kernel = p[:, None] * ratio
    kernel[far] = (p[None, :] - p[:, None])[far] / gap[far]
    return np.einsum("jab,kba,ab->jk", rotated, rotated, kernel).real - np.outer(mean, mean)


def free_energy(base: np.ndarray, fam: MixtureFamily, tau) -> float:
    """log Tr exp(base + sum_j tau_j H_j) - sum_j tau_j c_j.

    ``base`` is the log-domain matrix (log rho, possibly shifted by an
    objective term); the value is finite for every finite tau.
    """
    return _evaluate(np.asarray(base, dtype=complex), fam, np.asarray(tau, dtype=float))[0]


def free_energy_gradient(base: np.ndarray, fam: MixtureFamily, tau) -> np.ndarray:
    """Exact gradient: component j is Tr(G H_j) - c_j with G the Gibbs state.

    Uses d/dt Tr exp(A + t H) = Tr(exp(A + t H) H), so no finite
    differences are involved.
    """
    return _evaluate(np.asarray(base, dtype=complex), fam, np.asarray(tau, dtype=float))[1]


def e_project(rho_log_domain: np.ndarray, fam: MixtureFamily, tau0=None):
    """e-projection onto ``fam`` of the state with log-domain matrix ``base``.

    Returns ``(Spectrum, TauSolution)``, the spectrum of
    ``rho = C exp(base + sum tau_j H_j)``, which satisfies every constraint
    within ``TAU_TOL``.  ``tau0`` warm starts the solver from an earlier
    solve on the same family; each target is already in its observable's
    spectral range (``MixtureFamily``).  The empty family returns
    ``gibbs_spectrum(base)`` and one shared empty ``TauSolution``.  Damped
    Newton with the exact Hessian, Armijo backtracking (its accepted trial is
    the next iterate's evaluation), and a gradient-descent fallback when the
    Hessian is near-singular.  Raises :class:`EProjectionError` after
    ``MAX_NEWTON_STEPS`` steps, :class:`InfeasibleFamilyError` if tau diverges.
    """
    base = np.asarray(rho_log_domain, dtype=complex)
    if not np.isfinite(base).all():
        raise ValueError("log-domain matrix has non-finite entries")
    k = fam.size
    if k == 0:
        return gibbs_spectrum(base), _NO_TAU
    tau = np.zeros(k) if tau0 is None else np.array(tau0, dtype=float)
    f0, g, hess, gibbs = _evaluate(base, fam, tau)
    for it in range(MAX_NEWTON_STEPS + 1):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= TAU_TOL:
            return gibbs, TauSolution(tau, grad_norm, it)
        if it == MAX_NEWTON_STEPS:
            break

        try:
            direction = np.linalg.solve(hess(), -g)
            if not np.isfinite(direction).all() or float(np.dot(direction, g)) >= 0:
                direction = -g
        except np.linalg.LinAlgError:
            direction = -g

        slope = float(np.dot(g, direction))
        step_size = 1.0
        trial = _evaluate(base, fam, tau + direction)
        if abs(slope) > 1e-14 * max(1.0, abs(f0)):
            # Armijo backtracking; skipped when the predicted decrease is
            # below float resolution (full Newton step is safe there).
            while trial[0] > f0 + 1e-4 * step_size * slope and step_size > 1e-12:
                step_size *= 0.5
                trial = _evaluate(base, fam, tau + step_size * direction)
        tau = tau + step_size * direction
        f0, g, hess, gibbs = trial

        if np.linalg.norm(tau) > 1e6:
            raise InfeasibleFamilyError(
                "tau diverged while the constraint gradient stayed "
                f"{grad_norm:.3e} away from zero; the family appears infeasible"
            )
    raise EProjectionError(grad_norm, MAX_NEWTON_STEPS)
