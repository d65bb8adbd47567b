"""The generalized quantum Arimoto-Blahut fixed-point iteration.

An :class:`Objective` supplies a map ``omega(rho)`` returning a Hermitian
matrix; the iteration minimizes ``G(rho) = Tr rho omega(rho)`` over density
matrices (restricted to a :class:`~qabcert.mixture.MixtureFamily`, empty by
default) by repeatedly applying ``rho -> exp(log rho - omega(rho)/gamma)``,
trace normalized, through the e-projection onto the family.
:func:`qab_run_many` is the one loop, over runs in lockstep (a constrained
run alone), and :func:`qab_run` is that loop with one run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import cycle, islice

import numpy as np

from .linalg import (
    STATE_FLOOR,
    Spectrum,
    _finite_hermitian,
    floor_spectrum,
    hermitize,
    matrix_fn,
)
from .mixture import CONSTRAINT_TOL, EProjectionError, MixtureFamily, TauSolution, e_project
from .quantum import relative_entropy

__all__ = [
    "IterationError",
    "Objective",
    "QabOptions",
    "Trajectory",
    "d_omega",
    "qab_run",
    "qab_run_many",
]


class IterationError(RuntimeError):
    """A step of the iteration failed; carries the iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        super().__init__(f"iteration {iteration} failed: {cause}")
        self.iteration = iteration
        self.cause = cause


class Objective(abc.ABC):
    """Objective G(rho) = Tr[rho omega(rho)] defined through its omega map.

    ``omega`` must accept states of shape (..., dim, dim), as matrices or as
    a :class:`~qabcert.linalg.Spectrum`, and return Hermitian matrices of
    that shape; certification sampling relies on the batched form.  It must be
    a deterministic function of its input's bits: :func:`qab_run_many` replays repeated steps.
    """

    @abc.abstractmethod
    def omega(self, rho: np.ndarray | Spectrum) -> np.ndarray:
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
    per-step divergence D(rho_next || rho) falls below it.  An ``initial``
    off ``family`` is e-projected onto it as iteration 0.
    """

    initial: np.ndarray
    gamma: float = 1.0
    max_iters: int = 100
    family: MixtureFamily = field(default_factory=MixtureFamily)
    divergence_stop: float | None = None

    def __post_init__(self):
        self.gamma = float(self.gamma)  # the trajectory document records it as a float
        if not 0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not isinstance(self.family, MixtureFamily):
            raise TypeError("family must be a MixtureFamily; MixtureFamily() has no constraints")
        if not _finite_hermitian(self.initial):
            raise ValueError("initial state must be finite and Hermitian")
        self.initial = hermitize(self.initial)
        w = np.linalg.eigvalsh(self.initial)
        if not w.min() >= 1e-10:  # written so that a NaN spectrum fails
            raise ValueError(
                f"initial state must be full rank (min eigenvalue {w.min():.3e})"
            )


@dataclass
class Trajectory:
    """Iterates and per-step records of one run.

    ``states`` has one more entry than the step sequences; ``step_kl[j]``
    is D(states[j+1] || states[j]) and ``step_domega[j]`` the matching
    objective-induced divergence.  ``tau_history`` is empty for
    unconstrained runs.  ``gamma`` is the step parameter of the run that
    made the trajectory (None when unknown).
    """

    states: list[np.ndarray] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    step_kl: list[float] = field(default_factory=list)
    step_domega: list[float] = field(default_factory=list)
    tau_history: list[TauSolution] = field(default_factory=list)
    gamma: float | None = None


def d_omega(rho: np.ndarray, sigma: np.ndarray | Spectrum, obj: Objective):
    """D_Omega(rho || sigma) = Tr rho (omega(rho) - omega(sigma)).

    ``sigma`` may be a stack of states or its :class:`Spectrum`; the result broadcasts.
    """
    diff = obj.omega(rho) - obj.omega(sigma)
    out = np.einsum("...ij,...ji->...", rho, diff).real
    return float(out) if np.ndim(out) == 0 else out


def qab_run(obj: Objective, opts: QabOptions) -> Trajectory:
    """Run the iteration and record the trajectory.

    A start off ``opts.family`` (a residual above ``CONSTRAINT_TOL``) is
    replaced by its e-projection, as iteration 0: no ``tau_history`` entry,
    and an :class:`EProjectionError` there raises ``IterationError(0, ...)``.
    Each step e-projects the log-domain update onto the family, warm
    starting tau from the previous step; for the empty family that is the
    bare trace-normalized update, and ``tau_history`` stays empty.  Iterate
    eigenvalues are floored at ``STATE_FLOOR`` so the next logarithm stays
    finite.  Each iterate is carried with its spectrum, so omega, log rho and
    the per-step divergence need no further decomposition of it.  A run that
    repeats a step replays its cycle (:func:`qab_run_many`): the replayed ``states``
    are the cycle's own array objects, so treat them as read-only.
    """
    return qab_run_many(obj, [opts])[0]


def qab_run_many(obj: Objective, runs: list[QabOptions]) -> list[Trajectory]:
    """Advance runs in lockstep, each to the trajectory :func:`qab_run` gives it.

    ``obj.omega`` pairs state i with run i (``ChannelObjective`` of a ``PairStack``).
    The runs share gamma, max_iters, divergence_stop and family, and a non-empty
    family runs alone.  A stopped run records no more steps, though its row is
    still computed; a failure in any run raises for all.  A step reads only its key, the
    stack's spectrum bits and the warm-start tau (zeros at first).  When a key repeats, each
    running trajectory cycles its records since the key's first step on to ``max_iters``, with no
    omega, e-projection or LAPACK call; each replayed divergence already passed the stop rule.
    """
    settings = [(o.gamma, o.max_iters, o.divergence_stop, o.family) for o in runs]
    if not runs or settings.count(settings[0]) < len(runs) or (runs[0].family.size and runs[1:]):
        raise ValueError("a non-empty run list shares its settings and family; a family runs alone")
    opts, family, stop = runs[0], runs[0].family, runs[0].divergence_stop
    start = np.stack([run.initial for run in runs])
    if np.max(np.abs(family.residuals(start[0])), initial=0.0) > CONSTRAINT_TOL:
        try:
            start = e_project(matrix_fn(start[0], np.log), family)[0].matrix()[None]
        except EProjectionError as exc:
            raise IterationError(0, exc) from exc
    spec = floor_spectrum(start, STATE_FLOOR)
    rho, log_rho = matrix_fn(spec, lambda w: np.array([w, np.log(w)]))  # one rebuild of both
    omega_cur = obj.omega(spec)
    values = np.einsum("...ij,...ji->...", rho, omega_cur).real
    trajs = [Trajectory([rho[i]], [float(v)], gamma=opts.gamma) for i, v in enumerate(values)]
    running, tau_prev, seen = list(range(len(runs))), np.zeros(family.size), {}

    for t in range(opts.max_iters):
        key = spec.eigenvalues.tobytes() + spec.eigenvectors.tobytes() + tau_prev.tobytes()
        if (first := seen.setdefault(key, t)) < t:  # replay the records of steps first..t-1
            for tr in (trajs[i] for i in running):
                for seq, lag in ((tr.states, 1), (tr.values, 1), (tr.step_kl, 0),
                                 (tr.step_domega, 0), (tr.tau_history, 0)):  # fmt: skip
                    seq.extend(islice(cycle(seq[first + lag : t + lag]), opts.max_iters - t))
            break
        log_domain = log_rho - omega_cur / opts.gamma
        try:
            base = log_domain[0] if family.size else log_domain
            update, tau_sol = e_project(base, family, tau0=tau_prev)
        except EProjectionError as exc:
            raise IterationError(t + 1, exc) from exc
        tau_prev = tau_sol.tau
        if family.size:
            trajs[0].tau_history.append(tau_sol)
            update = Spectrum(update.eigenvalues[None], update.eigenvectors[None])
        spec_nxt = floor_spectrum(update, STATE_FLOOR)
        nxt, log_nxt = matrix_fn(spec_nxt, lambda w: np.array([w, np.log(w)]))

        omega_nxt = obj.omega(spec_nxt)
        kl = relative_entropy(spec_nxt, spec)
        dom = np.einsum("...ij,...ji->...", nxt, omega_nxt - omega_cur).real
        values = np.einsum("...ij,...ji->...", nxt, omega_nxt).real
        for i in running:
            trajs[i].states.append(nxt[i])
            trajs[i].values.append(float(values[i]))
            trajs[i].step_kl.append(float(kl[i]))
            trajs[i].step_domega.append(float(dom[i]))
        running = [i for i in running if stop is None or not kl[i] < stop]
        if not running:
            break
        spec, omega_cur, log_rho = spec_nxt, omega_nxt, log_nxt
    return trajs
