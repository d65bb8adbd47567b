"""Mixture families of density matrices and the e-projection onto them.

A mixture family is the set of states satisfying ``Tr rho H_j = c_j`` for
linearly independent Hermitian observables ``H_j``.  The e-projection of a
state onto the family is the minimizer of ``D(sigma || rho)``; it has Gibbs
form ``C exp(log rho + sum_j tau_j H_j)`` where ``tau`` solves a small
convex minimization, handled here by a damped Newton method with a
finite-difference Hessian of the exact gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import gibbs_state, hermitize, log_trace_exp

__all__ = [
    "EProjectionError",
    "InfeasibleFamilyError",
    "MixtureFamily",
    "TauSolution",
    "e_project",
    "free_energy",
    "free_energy_gradient",
]


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
    """Linear expectation constraints Tr(rho H_j) = c_j on one system."""

    observables: tuple
    targets: tuple

    def __post_init__(self):
        obs = tuple(np.asarray(h, dtype=complex) for h in self.observables)
        targets = tuple(float(c) for c in self.targets)
        if len(obs) != len(targets):
            raise ValueError("observables and targets must have equal length")
        if obs:
            dim = obs[0].shape[-1]
            for h in obs:
                if h.shape != (dim, dim):
                    raise ValueError("all constraint observables must share one dimension")
                if np.max(np.abs(h - np.conj(h.T))) > 1e-10:
                    raise ValueError("constraint observables must be Hermitian")
            gram = np.array(
                [[np.trace(a @ b).real for b in obs] for a in obs]
            )
            if np.linalg.eigvalsh(gram).min() <= 1e-10:
                raise ValueError("constraint observables are linearly dependent")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "targets", targets)

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


def _shifted(base: np.ndarray, fam: MixtureFamily, tau: np.ndarray) -> np.ndarray:
    m = np.asarray(base, dtype=complex)
    for t, h in zip(tau, fam.observables):
        m = m + t * h
    return m


def free_energy(base: np.ndarray, fam: MixtureFamily, tau) -> float:
    """log Tr exp(base + sum_j tau_j H_j) - sum_j tau_j c_j.

    ``base`` is the log-domain matrix (log rho, possibly shifted by an
    objective term); the value is finite for every finite tau.
    """
    tau = np.asarray(tau, dtype=float)
    return float(log_trace_exp(_shifted(base, fam, tau))) - float(
        np.dot(tau, fam.targets) if tau.size else 0.0
    )


def free_energy_gradient(base: np.ndarray, fam: MixtureFamily, tau) -> np.ndarray:
    """Exact gradient: component j is Tr(G H_j) - c_j with G the Gibbs state.

    Uses d/dt Tr exp(A + t H) = Tr(exp(A + t H) H), so no finite
    differences are involved.
    """
    tau = np.asarray(tau, dtype=float)
    if fam.size == 0:
        return np.zeros(0)
    g = gibbs_state(_shifted(base, fam, tau))
    return np.array(
        [np.trace(g @ h).real - c for h, c in zip(fam.observables, fam.targets)]
    )


def _spectral_feasibility(fam: MixtureFamily) -> None:
    # Necessary condition: each target must lie within the spectral range of
    # its observable, since Tr(rho H) is a convex combination of eigenvalues.
    for h, c in zip(fam.observables, fam.targets):
        w = np.linalg.eigvalsh(hermitize(h))
        if c < w[0] - 1e-12 or c > w[-1] + 1e-12:
            raise InfeasibleFamilyError(
                f"target {c} lies outside the spectral range "
                f"[{w[0]:.6g}, {w[-1]:.6g}] of its observable"
            )


def e_project(
    rho_log_domain: np.ndarray,
    fam: MixtureFamily,
    tol: float = 1e-10,
    max_iters: int = 200,
    tau0=None,
):
    """e-projection onto ``fam`` of the state with log-domain matrix ``base``.

    Returns ``(rho, TauSolution)`` where ``rho = C exp(base + sum tau_j H_j)``
    satisfies every constraint within the gradient tolerance.  ``tau0`` warm
    starts the solver.  Damped Newton with central-difference Hessian of the
    exact gradient, Armijo backtracking, and a gradient-descent fallback when
    the Hessian is near-singular.
    """
    base = np.asarray(rho_log_domain, dtype=complex)
    if not np.all(np.isfinite(base)):
        raise ValueError("log-domain matrix has non-finite entries")
    k = fam.size
    if k == 0:
        return gibbs_state(base), TauSolution(np.zeros(0), 0.0, 0)
    _spectral_feasibility(fam)

    tau = np.zeros(k) if tau0 is None else np.array(tau0, dtype=float)
    grad_norm = np.inf
    for it in range(max_iters + 1):
        g = free_energy_gradient(base, fam, tau)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= tol:
            return gibbs_state(_shifted(base, fam, tau)), TauSolution(tau, grad_norm, it)
        if it == max_iters:
            break

        # Hessian of the free energy by central differences of the gradient.
        hess = np.zeros((k, k))
        for j in range(k):
            h = 1e-5 * max(1.0, abs(tau[j]))
            step = np.zeros(k)
            step[j] = h
            hess[:, j] = (
                free_energy_gradient(base, fam, tau + step)
                - free_energy_gradient(base, fam, tau - step)
            ) / (2 * h)
        hess = (hess + hess.T) / 2
        try:
            direction = np.linalg.solve(hess, -g)
            if not np.all(np.isfinite(direction)) or float(np.dot(direction, g)) >= 0:
                direction = -g
        except np.linalg.LinAlgError:
            direction = -g

        f0 = free_energy(base, fam, tau)
        slope = float(np.dot(g, direction))
        step_size = 1.0
        if abs(slope) > 1e-14 * max(1.0, abs(f0)):
            # Armijo backtracking; skipped when the predicted decrease is
            # below float resolution (full Newton step is safe there).
            while (
                free_energy(base, fam, tau + step_size * direction)
                > f0 + 1e-4 * step_size * slope
                and step_size > 1e-12
            ):
                step_size *= 0.5
        tau = tau + step_size * direction

        if np.linalg.norm(tau) > 1e6:
            raise InfeasibleFamilyError(
                "tau diverged while the constraint gradient stayed "
                f"{grad_norm:.3e} away from zero; the family appears infeasible"
            )
    raise EProjectionError(grad_norm, max_iters)
