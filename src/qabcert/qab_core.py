"""The generalized quantum Arimoto-Blahut fixed-point iteration.

An :class:`Objective` supplies a map ``omega(rho)`` returning a Hermitian
matrix; the iteration minimizes ``G(rho) = Tr rho omega(rho)`` over density
matrices (optionally restricted to a :class:`~qabcert.mixture.MixtureFamily`)
by repeatedly applying ``rho -> exp(log rho - omega(rho)/gamma)``, trace
normalized, followed by the e-projection when constraints are present.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    STATE_FLOOR,
    eigh,
    floor_spectrum,
    gibbs_spectrum,
    gibbs_state,
    hermitize,
    matrix_fn,
)
from .mixture import EProjectionError, MixtureFamily, e_project
from .quantum import relative_entropy

__all__ = [
    "IterationError",
    "Objective",
    "QabOptions",
    "Trajectory",
    "d_omega",
    "f3_map",
    "floor_state",
    "j_function",
    "qab_run",
]


class IterationError(RuntimeError):
    """A step of the iteration failed; carries the iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        super().__init__(f"iteration {iteration} failed: {cause}")
        self.iteration = iteration
        self.cause = cause


class Objective(abc.ABC):
    """Objective G(rho) = Tr[rho omega(rho)] defined through its omega map.

    ``omega`` must accept stacked states of shape (..., dim, dim) and return
    Hermitian matrices of the same shape; certification sampling relies on
    the batched form.
    """

    dim: int

    @abc.abstractmethod
    def omega(self, rho: np.ndarray) -> np.ndarray:
        """The objective's omega evaluated at ``rho`` (stack-aware)."""

    def value(self, rho: np.ndarray):
        """G(rho) = Tr[rho omega(rho)], real part."""
        out = np.einsum("...ij,...ji->...", rho, self.omega(rho)).real
        return float(out) if np.ndim(out) == 0 else out


@dataclass
class QabOptions:
    """Options for :func:`qab_run`.

    ``max_iters`` counts update steps, so the trajectory holds up to
    ``max_iters + 1`` states.  ``divergence_stop`` stops early once the
    per-step divergence D(rho_next || rho) falls below it.
    """

    initial: np.ndarray
    gamma: float = 1.0
    max_iters: int = 100
    family: MixtureFamily | None = None
    divergence_stop: float | None = None
    tau_tol: float = 1e-10
    tau_max_iters: int = 200

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        self.initial = hermitize(self.initial)
        w = np.linalg.eigvalsh(self.initial)
        if w.min() < 1e-10:
            raise ValueError(
                f"initial state must be full rank (min eigenvalue {w.min():.3e})"
            )


@dataclass
class Trajectory:
    """Iterates and per-step records of one run.

    ``states`` has one more entry than the step sequences; ``step_kl[j]``
    is D(states[j+1] || states[j]) and ``step_domega[j]`` the matching
    objective-induced divergence.  ``tau_history`` is empty for
    unconstrained runs.
    """

    states: list = field(default_factory=list)
    values: list = field(default_factory=list)
    step_kl: list = field(default_factory=list)
    step_domega: list = field(default_factory=list)
    tau_history: list = field(default_factory=list)

    def check_consistent(self) -> None:
        n = len(self.states)
        if len(self.values) != n or len(self.step_kl) != n - 1 or len(self.step_domega) != n - 1:
            raise ValueError("trajectory sequences have inconsistent lengths")


def floor_state(rho: np.ndarray, floor: float = STATE_FLOOR) -> np.ndarray:
    """Raise eigenvalues below ``floor`` and renormalize, keeping log rho finite."""
    return floor_spectrum(rho, floor).matrix()


def f3_map(rho: np.ndarray, obj: Objective, gamma: float) -> np.ndarray:
    """Trace-normalized exp(log rho - omega(rho)/gamma)."""
    spec = eigh(rho)
    w = spec.eigenvalues
    if w.min() <= 1e-15 * w.max():
        raise ValueError(
            "rho is rank deficient beyond the support cutoff; floor its "
            "eigenvalues first (see floor_state)"
        )
    # Plain spectral log (no support cutoff): floored eigenvalues sit below
    # the relative support cutoff and must not be zeroed out.
    return gibbs_state(matrix_fn(spec, np.log) - obj.omega(rho) / gamma)


def d_omega(rho: np.ndarray, sigma: np.ndarray, obj: Objective):
    """D_Omega(rho || sigma) = Tr rho (omega(rho) - omega(sigma)).

    ``sigma`` may be a stack of states; the result then broadcasts.
    """
    diff = obj.omega(rho) - obj.omega(sigma)
    out = np.einsum("...ij,...ji->...", rho, diff).real
    return float(out) if np.ndim(out) == 0 else out


def j_function(rho: np.ndarray, sigma: np.ndarray, obj: Objective, gamma: float) -> float:
    """gamma D(rho || sigma) + Tr rho omega(sigma); equals G(rho) at sigma = rho."""
    cross = float(np.einsum("ij,ji->", rho, obj.omega(sigma)).real)
    return gamma * relative_entropy(rho, sigma) + cross


def qab_run(obj: Objective, opts: QabOptions) -> Trajectory:
    """Run the iteration and record the trajectory.

    With a family present each step e-projects the log-domain update onto
    the constraints (warm starting tau from the previous step); otherwise
    the bare trace-normalized update is used.  Iterate eigenvalues are
    floored at ``STATE_FLOOR`` so the next logarithm stays finite.  Each
    iterate is carried with its spectrum, so log rho and the per-step
    divergence need no further decomposition.
    """
    family = opts.family
    constrained = family is not None and family.size > 0
    spec = floor_spectrum(opts.initial, STATE_FLOOR)
    rho = spec.matrix()
    if constrained:
        resid = family.residuals(rho)
        if np.max(np.abs(resid)) > 1e-8:
            raise ValueError(
                "initial state violates the constraint family "
                f"(max residual {np.max(np.abs(resid)):.3e})"
            )

    traj = Trajectory()
    omega_cur = hermitize(obj.omega(rho))
    traj.states.append(rho)
    traj.values.append(float(np.einsum("ij,ji->", rho, omega_cur).real))
    tau_prev = None

    for t in range(opts.max_iters):
        log_domain = matrix_fn(spec, np.log) - omega_cur / opts.gamma
        try:
            if constrained:
                update, tau_sol = e_project(
                    log_domain,
                    family,
                    tol=opts.tau_tol,
                    max_iters=opts.tau_max_iters,
                    tau0=tau_prev,
                )
                tau_prev = tau_sol.tau
                traj.tau_history.append(tau_sol)
            else:
                update = gibbs_spectrum(log_domain)
        except EProjectionError as exc:
            raise IterationError(t + 1, exc) from exc
        spec_nxt = floor_spectrum(update, STATE_FLOOR)
        nxt = spec_nxt.matrix()

        omega_nxt = hermitize(obj.omega(nxt))
        kl = relative_entropy(spec_nxt, spec)
        dom = float(np.einsum("ij,ji->", nxt, omega_nxt - omega_cur).real)
        traj.states.append(nxt)
        traj.values.append(float(np.einsum("ij,ji->", nxt, omega_nxt).real))
        traj.step_kl.append(kl)
        traj.step_domega.append(dom)

        spec, omega_cur = spec_nxt, omega_nxt
        if opts.divergence_stop is not None and kl < opts.divergence_stop:
            break

    traj.check_consistent()
    return traj
