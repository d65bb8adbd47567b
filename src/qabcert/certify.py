"""A posteriori certification of a computed trajectory.

Three ratio checks back the global-optimality and precision guarantees:

* (a1) neighborhood check at the convergent: D_Omega(rho_T || sigma) over
  D(rho_T || sigma) for randomly perturbed sigma must stay below gamma;
* (a2) D_Omega(rho_T || rho_j) / D(rho_T || rho_j) over the trajectory must
  stay nonnegative, with the final iterate standing in for the minimizer;
* (a3) the per-step ratio D_Omega(rho_{j+1} || rho_j) / D(rho_{j+1} || rho_j)
  must stay below gamma.

When (a2) and (a3) hold, the suboptimality after t0 steps is bounded by
``gamma * D(rho_star || rho_1) / t0`` (evaluated here with the final iterate
as a disclosed proxy for rho_star).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    REPAIR_FLOOR,
    Spectrum,
    eigh,
    floor_spectrum,
    frobenius_norm,
    hermitize,
    random_hermitian,
)
from .mixture import MixtureFamily
from .qab_core import Objective, Trajectory, d_omega
from .quantum import relative_entropy

__all__ = [
    "CertificationReport",
    "RatioStats",
    "certify",
    "check_a1",
    "check_a2",
    "check_a3",
    "stationarity_residual",
    "xme_bound",
]

DIVERGENCE_SKIP_TOL = 1e-14
A1_MARGIN = 0.999
A2_TOLERANCE = 1e-9
MAX_RESAMPLE_ATTEMPTS = 100
CLIP_MASS_FRACTION = 0.1


@dataclass(frozen=True)
class RatioStats:
    """Extrema of a ratio scan; arg_min / arg_max are step or sample indices."""

    min: float
    max: float
    count: int
    arg_min: int
    arg_max: int
    skipped: int = 0


@dataclass(frozen=True)
class CertificationReport:
    """Verdicts for (a1)/(a2)/(a3) plus the precision bound.

    ``bound_value`` is always computed from the final iterate as a proxy
    for the true minimizer; ``bound_certified`` marks whether (a2) and (a3)
    back it.  All thresholds are recorded so the report is re-derivable.
    """

    gamma: float
    samples: int
    seed: int
    eps_max: float
    a1: RatioStats
    a1_pass: bool
    a1_margin: float
    a2: RatioStats
    a2_pass: bool
    a2_tolerance: float
    a3: RatioStats
    a3_pass: bool
    bound_value: float
    bound_t0: int
    bound_certified: bool
    certified: bool
    proxy_note: str


def _ratio_stats(ratios, indices, skipped) -> RatioStats:
    if not ratios:
        raise ValueError(
            "all pairs were skipped (divergences at or below "
            f"{DIVERGENCE_SKIP_TOL}); the trajectory is already converged"
        )
    arr = np.asarray(ratios)
    i_min = int(np.argmin(arr))
    i_max = int(np.argmax(arr))
    return RatioStats(
        min=float(arr[i_min]),
        max=float(arr[i_max]),
        count=len(ratios),
        arg_min=int(indices[i_min]),
        arg_max=int(indices[i_max]),
        skipped=skipped,
    )


def _scan(nums, dens, skip_tol: float) -> RatioStats:
    """Stats of nums[j] / dens[j], skipping divergences at or below ``skip_tol``."""
    # Written as "not <=" so that a NaN divergence is kept and shows in the stats.
    kept = [j for j, den in enumerate(dens) if not den <= skip_tol]
    return _ratio_stats([float(nums[j] / dens[j]) for j in kept], kept, len(dens) - len(kept))


def check_a3(traj: Trajectory, gamma: float, skip_tol: float = DIVERGENCE_SKIP_TOL) -> RatioStats:
    """Per-step ratios D_Omega / D over consecutive iterates."""
    if len(traj.states) < 2:
        raise ValueError("trajectory must hold at least two states")
    return _scan(traj.step_domega, traj.step_kl, skip_tol)


def check_a2(traj: Trajectory, obj: Objective, skip_tol: float = DIVERGENCE_SKIP_TOL) -> RatioStats:
    """Ratios D_Omega(rho_T || rho_j) / D(rho_T || rho_j) for j < T."""
    if len(traj.states) < 2:
        raise ValueError("trajectory must hold at least two states")
    final = traj.states[-1]
    others = np.stack(traj.states[:-1])
    return _scan(d_omega(final, others, obj), relative_entropy(final, others), skip_tol)


def _draw_perturbation(final: np.ndarray, rng: np.random.Generator, eps_max: float):
    """One raw neighborhood draw final + eps * H (before PSD repair)."""
    h = random_hermitian(final.shape[-1], rng)
    eps = rng.uniform(0.0, eps_max)
    if eps == 0.0:  # uniform on (0, eps_max]
        eps = eps_max
    return hermitize(final + eps * h)


def _repair_candidates(raw: np.ndarray):
    """PSD repair of a stack: clip at 0, renormalize, floor to full rank.

    Returns the repaired spectra and a mask of draws whose clipping removed
    more than 10% of trace mass (those get resampled).
    """
    spec = eigh(raw)
    w = spec.eigenvalues
    removed = np.sum(np.maximum(-w, 0.0), axis=-1)
    kept = np.sum(np.maximum(w, 0.0), axis=-1)
    heavy = (kept <= 0) | (removed > CLIP_MASS_FRACTION * kept)
    clipped = np.maximum(w, 0.0) / np.where(kept > 0, kept, 1.0)[..., None]
    return floor_spectrum(Spectrum(clipped, spec.eigenvectors), REPAIR_FLOOR), heavy


def check_a1(
    final: np.ndarray,
    obj: Objective,
    gamma: float,
    n_samples: int,
    eps_max: float,
    seed: int,
    skip_tol: float = DIVERGENCE_SKIP_TOL,
) -> RatioStats:
    """Neighborhood ratios D_Omega(final || sigma) / D(final || sigma).

    Sample ``i`` draws from the stream keyed by ``(seed, i)``, so results
    are independent of evaluation order and nested in ``n_samples``.
    Candidates with divergence at or below ``skip_tol``, or whose PSD
    repair clips more than 10% of trace mass, are resampled up to 100
    times and then skipped.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    final = hermitize(final)
    base_seed = int(seed) & 0x7FFFFFFFFFFFFFFF

    # First attempt for every sample, repaired and divergence-tested in
    # batch; the (rare) rejects then re-enter their own stream sequentially.
    rngs = [np.random.default_rng([base_seed, i]) for i in range(n_samples)]
    raw = np.stack([_draw_perturbation(final, rng, eps_max) for rng in rngs])
    # Repaired candidates are full rank, but their renormalized REPAIR_FLOOR sits
    # just below SUPPORT_CUTOFF; cutoff 0 keeps that eigenvalue in the support.
    repaired, heavy = _repair_candidates(raw)
    dens = relative_entropy(final, repaired, support_cutoff=0.0)
    candidates = repaired.matrix()
    accepted = ~heavy & (dens > skip_tol)
    for i in np.nonzero(~accepted)[0]:
        for _ in range(MAX_RESAMPLE_ATTEMPTS - 1):
            cand, heavy_clip = _repair_candidates(_draw_perturbation(final, rngs[i], eps_max))
            if heavy_clip:
                continue
            den = relative_entropy(final, cand, support_cutoff=0.0)
            if not den <= skip_tol:
                candidates[i], dens[i], accepted[i] = cand.matrix(), den, True
                break

    indices = np.nonzero(accepted)[0]
    if indices.size == 0:
        raise ValueError("all neighborhood samples degenerated; nothing to certify")
    nums = d_omega(final, candidates[indices], obj)
    ratios = [float(n / dens[i]) for n, i in zip(nums, indices)]
    return _ratio_stats(ratios, indices, n_samples - indices.size)


def xme_bound(gamma: float, initial: np.ndarray, proxy_star: np.ndarray, t0: int) -> float:
    """gamma * D(proxy_star || initial) / t0 (proxy precision bound)."""
    if t0 < 1:
        raise ValueError("t0 must be >= 1")
    return gamma * relative_entropy(proxy_star, initial) / t0


def stationarity_residual(
    final: np.ndarray,
    obj: Objective,
    fam: MixtureFamily | None = None,
    support_cutoff: float = 1e-8,
) -> float:
    """Largest |Tr(T omega(final))| over unit feasible tangent directions.

    Directions are Hermitian matrices supported on the eigenspace of
    ``final`` above ``support_cutoff`` (relative), orthogonal to the
    support identity and to every constraint observable under the
    Frobenius inner product.  The supremum is the Frobenius norm of omega,
    compressed to the support, with those directions projected out.  A
    value near zero certifies first-order stationarity of the convergent.
    """
    spec = eigh(final)
    w, v = spec.eigenvalues, spec.eigenvectors
    vs = v[:, w > support_cutoff * w[-1]]
    if vs.shape[1] <= 1:
        return 0.0

    residual = np.conj(vs.T) @ hermitize(obj.omega(final)) @ vs
    excluded = [np.eye(len(w))] + list(fam.observables if fam is not None else ())
    basis = []  # orthonormal span of the excluded directions on the support
    for h in excluded:
        hs = np.conj(vs.T) @ h @ vs
        for q in basis:
            hs = hs - np.vdot(q, hs) * q
        norm = float(frobenius_norm(hs))
        if norm > 1e-12:
            basis.append(hs / norm)
            residual = residual - np.vdot(basis[-1], residual) * basis[-1]
    return float(frobenius_norm(residual))


def certify(
    traj: Trajectory,
    obj: Objective,
    gamma: float,
    n_samples: int = 10_000,
    eps_max: float = 0.1,
    seed: int = 0,
) -> CertificationReport:
    """Run all checks on a trajectory and assemble the report.

    Pass rules: (a1) max ratio <= 0.999 * gamma, (a2) min ratio >= -1e-9,
    (a3) max ratio <= gamma.  The precision bound is always evaluated but
    only marked certified when (a2) and (a3) pass.

    A trajectory that never moved (every per-step divergence at or below
    the skip tolerance) started at a fixed point; the step conditions then
    hold with equality and (a2)/(a3) are recorded as empty passing stats.
    """
    if len(traj.states) < 2:
        raise ValueError("trajectory must hold at least two states")
    a1 = check_a1(traj.states[-1], obj, gamma, n_samples, eps_max, seed)
    fixed_point = RatioStats(
        min=0.0, max=0.0, count=0, arg_min=-1, arg_max=-1, skipped=len(traj.step_kl)
    )
    try:
        a2 = check_a2(traj, obj)
    except ValueError:
        a2 = fixed_point
    try:
        a3 = check_a3(traj, gamma)
    except ValueError:
        a3 = fixed_point
    a1_pass = a1.max <= gamma * A1_MARGIN
    a2_pass = a2.min >= -A2_TOLERANCE
    a3_pass = a3.max <= gamma
    t0 = len(traj.states) - 1
    bound = xme_bound(gamma, traj.states[0], traj.states[-1], t0)
    return CertificationReport(
        gamma=gamma,
        samples=n_samples,
        seed=int(seed),
        eps_max=eps_max,
        a1=a1,
        a1_pass=a1_pass,
        a1_margin=A1_MARGIN,
        a2=a2,
        a2_pass=a2_pass,
        a2_tolerance=A2_TOLERANCE,
        a3=a3,
        a3_pass=a3_pass,
        bound_value=bound,
        bound_t0=t0,
        bound_certified=a2_pass and a3_pass,
        certified=a1_pass and a2_pass and a3_pass,
        proxy_note=(
            "rho_star is approximated by the final iterate; the bound is a "
            "proxy for the exact suboptimality guarantee"
        ),
    )
