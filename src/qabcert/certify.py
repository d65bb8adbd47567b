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

These scans are the whole certificate (no first-order residual is reported
beside them), and each fails closed: a non-finite ratio reads NaN and fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    REPAIR_FLOOR,
    Spectrum,
    eigh,
    floor_spectrum,
    hermitize,
    random_hermitian,
)
from .qab_core import Objective, Trajectory, d_omega
from .quantum import relative_entropy

__all__ = [
    "A1Stats",
    "CertificationReport",
    "NothingKeptError",
    "RatioStats",
    "certify",
    "check_a1",
    "check_a2",
    "check_a3",
    "xme_bound",
]

DIVERGENCE_SKIP_TOL = 1e-14
A1_MARGIN = 0.999
A2_TOLERANCE = 1e-9
MAX_RESAMPLE_ATTEMPTS = 100
CLIP_MASS_FRACTION = 0.1
PROXY_NOTE = (
    "rho_star is approximated by the final iterate; the bound is a "
    "proxy for the exact suboptimality guarantee"
)


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
class A1Stats(RatioStats):
    """(a1) extrema; ``max_rounding`` is the rounding estimate of ``max`` (see ``check_a1``)."""

    max_rounding: float = 0.0


@dataclass(frozen=True)
class CertificationReport:
    """Verdicts for (a1)/(a2)/(a3) plus the precision bound, derived from the stats.

    The caller gives what the checks measured; the report records its
    constants and sets its verdicts itself (none of them is an ``__init__``
    argument, so a loaded document cannot set or loosen them):
    (a1) passes when ``a1.max <= gamma * a1_margin``, (a2) when
    ``a2.min >= -a2_tolerance``, (a3) when ``a3.max <= gamma``; a NaN
    extremum fails.  ``bound_value`` is always computed from the final
    iterate as a proxy for the true minimizer; ``bound_certified`` marks
    whether (a2) and (a3) back it, and ``certified`` adds (a1).
    """

    gamma: float
    samples: int
    seed: int
    eps_max: float
    divergence_skip_tol: float = field(init=False, default=DIVERGENCE_SKIP_TOL)
    a1: A1Stats
    a1_pass: bool = field(init=False)
    a1_margin: float = field(init=False, default=A1_MARGIN)
    a2: RatioStats
    a2_pass: bool = field(init=False)
    a2_tolerance: float = field(init=False, default=A2_TOLERANCE)
    a3: RatioStats
    a3_pass: bool = field(init=False)
    bound_value: float
    bound_t0: int
    bound_certified: bool = field(init=False)
    certified: bool = field(init=False)
    proxy_note: str = field(init=False, default=PROXY_NOTE)

    def __post_init__(self):
        verdicts = {
            "a1_pass": self.a1.max <= self.gamma * self.a1_margin,
            "a2_pass": self.a2.min >= -self.a2_tolerance,
            "a3_pass": self.a3.max <= self.gamma,
        }
        verdicts["bound_certified"] = verdicts["a2_pass"] and verdicts["a3_pass"]
        verdicts["certified"] = verdicts["a1_pass"] and verdicts["bound_certified"]
        for name, value in verdicts.items():
            object.__setattr__(self, name, value)


class NothingKeptError(ValueError):
    """Every divergence of a scan was at or below ``DIVERGENCE_SKIP_TOL``."""


def _kept(dens) -> np.ndarray:
    """Mask of divergences above ``DIVERGENCE_SKIP_TOL``, or NaN (kept, so it fails closed)."""
    return ~(np.asarray(dens, dtype=float) <= DIVERGENCE_SKIP_TOL)


def _scan(nums, dens, kept=None) -> RatioStats:
    """Extrema of nums[k] / dens[k] over the step or sample indices k in ``kept``.

    ``kept`` defaults to ``_kept(dens)``; every other index is skipped.  A
    non-finite divergence or ratio reads NaN: it fails every pass rule, and
    arg_min / arg_max point at it.
    """
    nums, dens = np.asarray(nums, dtype=float), np.asarray(dens, dtype=float)
    indices = np.nonzero(_kept(dens) if kept is None else kept)[0]
    if indices.size == 0:
        raise NothingKeptError(
            f"all pairs skipped (every divergence <= {DIVERGENCE_SKIP_TOL}): already converged"
        )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = nums[indices] / dens[indices]
    arr = np.where(np.isfinite(dens[indices]) & np.isfinite(ratios), ratios, np.nan)
    i_min, i_max = int(np.argmin(arr)), int(np.argmax(arr))
    arg_min, arg_max = int(indices[i_min]), int(indices[i_max])
    skipped = dens.size - indices.size
    return RatioStats(float(arr[i_min]), float(arr[i_max]), indices.size, arg_min, arg_max, skipped)


def check_a3(traj: Trajectory) -> RatioStats:
    """Per-step ratios D_Omega / D over consecutive iterates."""
    return _scan(traj.step_domega, traj.step_kl)


def check_a2(traj: Trajectory, obj: Objective) -> RatioStats:
    """Ratios D_Omega(rho_T || rho_j) / D(rho_T || rho_j) for j < T."""
    final = traj.states[-1]
    others = eigh(np.stack(traj.states[:-1]))  # decomposed once for both divergences
    return _scan(d_omega(final, others, obj), relative_entropy(final, others))


def _draw_perturbations(final: np.ndarray, rng_h, rng_eps, eps_max: float, n: int):
    """``n`` raw neighborhood draws final + eps_i * H_i (before PSD repair).

    H_i is row i of ``random_hermitian``'s block from ``rng_h`` and eps_i,
    uniform on (0, eps_max], the i-th draw from ``rng_eps``, so draw i
    depends only on the streams and i.
    """
    h = random_hermitian(final.shape[-1], rng_h, n)
    eps = rng_eps.uniform(0.0, eps_max, n)
    eps[eps == 0.0] = eps_max
    return final + eps[:, None, None] * h


def _repair_candidates(raw: np.ndarray):
    """PSD repair of a stack: clip at 0, renormalize, floor to full rank.

    The renormalized ``REPAIR_FLOOR`` lies strictly inside the support
    (``SUPPORT_CUTOFF``), so D and omega score the same repaired sample.
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


def _a1_numerators(final: np.ndarray, omega_final: np.ndarray, sigmas: Spectrum, obj: Objective):
    """D_Omega(final || sigma_k) for a stack of spectra, and each one's rounding estimate.

    D_Omega = Tr final (omega(final) - omega(sigma_k)) is a sum of n^2
    products (n = dim) of final with a difference of omega's computed
    entries; the estimate is the usual bound on rounding in such a sum,
    (n^2 + 1) eps sum_ij |final_ij| (|omega(final)_ji| + |omega(sigma_k)_ji|).
    Rounding inside omega is not in it.
    """
    omegas = obj.omega(sigmas)
    nums = np.einsum("ij,kji->k", final, omega_final - omegas).real
    scale = np.einsum("ij,kji->k", np.abs(final), np.abs(omega_final) + np.abs(omegas))
    n = final.shape[-1]
    return nums, (n * n + 1) * np.finfo(float).eps * scale


def check_a1(
    final: np.ndarray,
    obj: Objective,
    n_samples: int,
    eps_max: float,
    seed: int,
    *,
    gamma: float = 1.0,
) -> A1Stats:
    """Neighborhood ratios D_Omega(final || sigma) / D(final || sigma).

    One loop draws, repairs and scores samples, at most ``MAX_RESAMPLE_ATTEMPTS``
    times.  Attempt 0 draws all ``n_samples`` rows as two blocks: directions
    from the stream keyed by ``(seed, 0)``, sizes from ``(seed, 1)``.  A sample
    is rejected if ``_kept`` skips its divergence, its PSD repair clips more
    than 10% of trace mass, or its rounding could carry its ratio across the
    pass gate ``gamma * A1_MARGIN``: the ratio lies below the gate by no more
    than the rounding estimate of ``_a1_numerators`` over the divergence.
    Each later attempt re-draws every rejected sample i from its own stream
    keyed by ``(seed, 2, i)``.  A sample rejected at every attempt is skipped.
    Sample i thus depends only on the seed and i, so results nest in
    ``n_samples``; omega reads the repaired spectra.  Every kept ratio is at
    or above the gate or below it by more than its rounding estimate;
    ``max_rounding`` records that estimate for the largest.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0 < eps_max < np.inf:
        raise ValueError("eps_max must be positive and finite")
    final = hermitize(final)
    omega_final = obj.omega(eigh(final))
    gate = gamma * A1_MARGIN
    base_seed = int(seed) & 0x7FFFFFFFFFFFFFFF
    blocks = [np.random.default_rng([base_seed, k]) for k in (0, 1)]
    nums, dens, errs = (np.full(n_samples, np.nan) for _ in range(3))
    accepted = np.zeros(n_samples, dtype=bool)
    for attempt in range(MAX_RESAMPLE_ATTEMPTS):
        rows = np.nonzero(~accepted)[0]
        if rows.size == 0:
            break
        if attempt == 0:
            raw = _draw_perturbations(final, *blocks, eps_max, n_samples)
        else:
            if attempt == 1:
                redraws = {i: np.random.default_rng([base_seed, 2, i]) for i in rows}
            raw = np.concatenate(
                [_draw_perturbations(final, redraws[i], redraws[i], eps_max, 1) for i in rows]
            )
        repaired, heavy = _repair_candidates(raw)
        den = relative_entropy(final, repaired)
        scored = np.nonzero(~heavy & _kept(den))[0]
        if scored.size == 0:
            continue
        sigmas = repaired.take(scored)  # the divergence's verdict, not a second one
        num, err = _a1_numerators(final, omega_final, sigmas, obj)
        below = gate * den[scored] - num
        ok = ~((below > 0) & (below <= err))  # NaN is kept, so it fails closed
        done = rows[scored[ok]]
        nums[done], dens[done], errs[done] = num[ok], den[scored[ok]], err[ok]
        accepted[done] = True

    stats = _scan(nums, dens, accepted)
    max_rounding = errs[stats.arg_max] / dens[stats.arg_max]
    return A1Stats(**vars(stats), max_rounding=float(max_rounding))


def xme_bound(gamma: float, initial: np.ndarray, proxy_star: np.ndarray, t0: int) -> float:
    """gamma * D(proxy_star || initial) / t0 (proxy precision bound); D rounded below 0 is 0."""
    if t0 < 1:
        raise ValueError("t0 must be >= 1")
    return gamma * float(np.maximum(relative_entropy(proxy_star, initial), 0.0)) / t0


def certify(
    traj: Trajectory,
    obj: Objective,
    n_samples: int = 10_000,
    eps_max: float = 0.1,
    seed: int = 0,
) -> CertificationReport:
    """Run all checks on a trajectory and assemble the report.

    gamma is the run's own, ``traj.gamma``, and must be positive and finite.
    The report derives its verdicts from the measured stats (the pass rules
    are in :class:`CertificationReport`).  The precision bound is always
    evaluated but only marked certified when (a2) and (a3) pass.

    A trajectory that never moved (every per-step divergence at or below
    the skip tolerance) started at a fixed point; the step conditions then
    hold with equality, and an (a2)/(a3) scan with nothing to keep is
    recorded as empty passing stats.  Every other error propagates.
    """
    if len(traj.states) < 2:
        raise ValueError("trajectory must hold at least two states")
    gamma = traj.gamma
    if gamma is None or not 0 < gamma < np.inf:
        raise ValueError(f"trajectory gamma must be positive and finite, got {gamma}")
    final = traj.states[-1]
    a1 = check_a1(final, obj, n_samples=n_samples, eps_max=eps_max, seed=seed, gamma=gamma)

    def scan_or_fixed_point(check, *args):
        try:
            return check(traj, *args)
        except NothingKeptError:
            if _kept(traj.step_kl).any():
                raise
            return RatioStats(0.0, 0.0, count=0, arg_min=-1, arg_max=-1, skipped=len(traj.step_kl))

    a2 = scan_or_fixed_point(check_a2, obj)
    a3 = scan_or_fixed_point(check_a3)
    t0 = len(traj.states) - 1
    bound = xme_bound(gamma, traj.states[0], final, t0)
    return CertificationReport(
        gamma=gamma, samples=n_samples, seed=int(seed), eps_max=eps_max,
        a1=a1, a2=a2, a3=a3, bound_value=bound, bound_t0=t0,
    )  # fmt: skip
