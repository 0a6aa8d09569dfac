"""Empirical orbit classification: limits, cycles, escape, and chaos.

The classifier runs the cheap, decisive checks first (singularity and
escape are recorded by the iterator itself), then looks for a finite
limit, then for a locked cycle, and finally estimates the largest
Lyapunov exponent of the surviving bounded, aperiodic orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (STATUS_COMPLETED, STATUS_ESCAPED, STATUS_SINGULAR, VERDICT_CHAOTIC,
                   VERDICT_CONVERGES, VERDICT_PERIODIC, VERDICT_SINGULAR, VERDICT_UNBOUNDED,
                   VERDICT_UNDETERMINED, GuardTripped, IterationSettings, Orbit, OrbitSeed,
                   Parameters, _jacobian, iterate, step)

__all__ = [
    "VERDICT_CONVERGES",
    "VERDICT_PERIODIC",
    "VERDICT_UNBOUNDED",
    "VERDICT_CHAOTIC",
    "VERDICT_SINGULAR",
    "VERDICT_UNDETERMINED",
    "AnalysisSettings",
    "CycleReport",
    "LyapunovEstimate",
    "OrbitClassification",
    "detect_convergence",
    "detect_cycle",
    "lyapunov_max",
    "lyapunov_divergence_oracle",
    "classify_orbit",
]

_GUARD_VERDICTS = {STATUS_SINGULAR: VERDICT_SINGULAR, STATUS_ESCAPED: VERDICT_UNBOUNDED}


@dataclass(frozen=True)
class AnalysisSettings:
    """Tolerances and budgets for orbit classification."""

    convergence_tol: float = 1e-9
    window: int = 32
    cycle_tol: float = 1e-6
    max_period: int = 128
    chaos_threshold: float = 0.01
    lyapunov_transient: int = 500
    lyapunov_sample: int = 5000


@dataclass(frozen=True)
class CycleReport:
    period: int
    cycle_points: tuple[complex, ...]
    onset: int
    residual: float


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_max: float
    n_transient: int
    n_sample: int
    converged: bool


@dataclass(frozen=True)
class OrbitClassification:
    verdict: str
    limit: complex | None = None
    cycle: CycleReport | None = None
    guard_step: int | None = None
    lyapunov: LyapunovEstimate | None = None


def detect_convergence(orbit: Orbit, tol: float = AnalysisSettings.convergence_tol,
                       window: int = AnalysisSettings.window) -> complex | None:
    """The limit of a settled orbit, or None.

    Reports the mean of the last `window` points when every one of them
    lies within tol of that mean.  Escaped and singular orbits never
    converge.
    """
    if orbit.status != STATUS_COMPLETED or len(orbit.points) < window:
        return None
    mean, settled = _settled(np.asarray(orbit.points[-window:], dtype=complex), tol)
    return complex(mean) if settled else None


def _settled(tails: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(mean, settled) along the last axis of tails: settled where every
    point lies within tol of the mean.

    The mean of each row of a C-contiguous array takes the same pairwise
    sum as the mean of that row alone, so its bits do not depend on the
    rows beside it.
    """
    mean = tails.mean(axis=-1)
    return mean, np.abs(tails - mean[..., None]).max(axis=-1) <= tol


def _transient_cut(n: int, max_period: int) -> tuple[int, int]:
    """detect_cycle's (cut, periods) for n points: it tries periods 1 to periods on
    points[cut:], where cut is n // 2, raised to 500 while the tail outlasts max_period."""
    cut = n // 2
    if 500 > cut and n - 500 > max_period:
        cut = 500
    return cut, min(max_period, n - cut - 1)


def _locked(z: np.ndarray, past: np.ndarray, tol: float) -> np.ndarray:
    """The cycle test, pair by pair: |z - past| <= tol*(1 + |past|)."""
    return np.abs(z - past) <= tol * (1 + np.abs(past))


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| as np.hypot of the parts: CPython abs's bits, which np.abs need not give."""
    return np.hypot(z.real, z.imag)


def detect_cycle(
    orbit: Orbit,
    tol: float = AnalysisSettings.cycle_tol,
    max_period: int = AnalysisSettings.max_period,
) -> CycleReport | None:
    """Minimal locked period of the orbit tail, or None.

    The smallest of _transient_cut's periods p for which every pair (z[n], z[n+p]) of the
    tail points[cut:] passes _locked is reported: p is scanned upward, over only the p whose
    first pair passes (tested as an array: np.abs of a numpy scalar can differ in the last
    bit).  The onset is the first point from which every pair passes, and the residual the
    largest |z[n+p] - z[n]| of the tail; both take their moduli from _modulus, whatever SIMD
    code numpy dispatches.
    """
    if orbit.status != STATUS_COMPLETED:
        return None
    pts = np.asarray(orbit.points, dtype=complex)
    cut, periods = _transient_cut(len(pts), max_period)
    tail = pts[cut:]
    for p in (np.flatnonzero(_locked(tail[1:periods + 1], tail[:1], tol)) + 1).tolist():
        if np.all(_locked(tail[p:], tail[:-p], tol)):
            # the pairs before the cut apart from the tail's, for the peak memory
            gap = _modulus(pts[p:cut + p] - pts[:cut])
            missed = np.flatnonzero(gap > tol * (1 + _modulus(pts[:cut])))
            onset = int(missed[-1]) + 1 if missed.size else 0
            residual = float(_modulus(tail[p:] - tail[:-p]).max())
            return CycleReport(p, tuple(complex(z) for z in tail[-p:]), onset, residual)
    return None


def _reference_orbit(params: Parameters, points: tuple[complex, ...], n_transient: int,
                     n_sample: int, settings: IterationSettings) -> tuple[complex, ...]:
    """The first n_transient + n_sample + 2 points of the orbit through points.

    The orbit is continued from its last two points under iterate's
    guards while it is shorter than that; GuardTripped if a guard trips.
    """
    if n_transient < 0 or n_sample < 1:
        raise ValueError("need n_transient >= 0 and n_sample >= 1")
    length = n_transient + n_sample + 2
    if len(points) < length:
        more = iterate(params, OrbitSeed(points[-2], points[-1]), IterationSettings(
            length - len(points), settings.escape_radius, settings.singular_tol))
        if more.status != STATUS_COMPLETED:
            raise more.guard_error(len(points) - 2, " while sampling")
        points += more.points[2:]
    return points[:length]


def _tangent_estimate(params: Parameters, points: tuple[complex, ...], n_transient: int,
                      n_sample: int) -> LyapunovEstimate:
    """lyapunov_max's estimate along the reference orbit, whose guards iterate already ran."""
    w1, w2 = 1 + 0j, 0j  # tangent components along (z[n], z[n-1])
    log_sum = 0.0
    tail_start = n_sample - max(1, n_sample // 4)
    tail: list[float] = []  # running means over the last quarter
    for k, z_prev, z_curr in zip(range(n_sample), points[n_transient:], points[n_transient + 1:]):
        a11, a12 = _jacobian(params.beta, z_prev, 1 + z_curr)
        w1, w2 = a11 * w1 + a12 * w2, w1
        growth = math.hypot(abs(w1), abs(w2))
        if growth == 0:
            return LyapunovEstimate(-math.inf, n_transient, n_sample, converged=True)
        log_sum += math.log(growth)
        w1 /= growth
        w2 /= growth
        if k >= tail_start:
            tail.append(log_sum / (k + 1))

    lam = tail[-1]
    drift = max(abs(v - lam) for v in tail)
    return LyapunovEstimate(
        lambda_max=lam,
        n_transient=n_transient,
        n_sample=n_sample,
        converged=(drift < 1e-3 and n_sample >= 1000),
    )


def lyapunov_max(
    params: Parameters,
    seed: OrbitSeed,
    n_transient: int = AnalysisSettings.lyapunov_transient,
    n_sample: int = AnalysisSettings.lyapunov_sample,
    settings: IterationSettings = IterationSettings(),
) -> LyapunovEstimate:
    """Largest Lyapunov exponent by tangent-vector renormalization.

    A unit tangent vector in C^2 is pushed through the Jacobian of the
    state map (z[n], z[n-1]) -> (z[n+1], z[n]) at every post-transient
    step and renormalized; lambda_max is the mean log growth per
    iteration.  The map is holomorphic, so the complex tangent flow
    carries the leading exponent of the realified system.  A tangent
    vector that collapses to zero (beta = 0 makes the tangent map
    nilpotent) gives lambda_max = -inf.

    Raises GuardTripped when a guard trips within the sampled orbit.
    """
    points = _reference_orbit(params, (seed.z_minus1, seed.z_0), n_transient, n_sample, settings)
    return _tangent_estimate(params, points, n_transient, n_sample)


def lyapunov_divergence_oracle(
    params: Parameters,
    seed: OrbitSeed,
    delta: float = 1e-8,
    n: int = AnalysisSettings.lyapunov_sample,
    n_transient: int = AnalysisSettings.lyapunov_transient,
    settings: IterationSettings = IterationSettings(),
) -> float:
    """Two-orbit divergence estimate of the largest Lyapunov exponent.

    A companion orbit offset by delta is iterated alongside the
    reference; whenever their state-space separation exceeds 1e-2 it is
    rescaled back to delta, and the mean log growth per step is
    returned.  Independent of the tangent-map route by construction.

    Raises GuardTripped when a guard trips on either orbit.
    """
    if not 1e-10 <= delta <= 1e-6:
        raise ValueError("delta must lie in [1e-10, 1e-6]")
    points = _reference_orbit(params, (seed.z_minus1, seed.z_0), n_transient, n, settings)
    esc, tol = settings.escape_radius, settings.singular_tol
    w_prev, w_curr = points[n_transient], points[n_transient + 1] + delta

    floor = delta * 1e-6  # keep contracting separations representable
    log_sum = 0.0
    for k, (z_prev, z_curr) in enumerate(zip(points[n_transient + 1:], points[n_transient + 2:]),
                                         n_transient + 2):
        w_prev, w_curr = w_curr, step(params, w_prev, w_curr, tol)
        if not abs(w_curr) <= esc:
            raise GuardTripped(STATUS_ESCAPED,
                               f"companion |z| = {abs(w_curr):.3e} left the escape radius",
                               k, w_curr)
        sep = math.hypot(abs(w_curr - z_curr), abs(w_prev - z_prev))
        if sep > 1e-2 or sep < floor:
            log_sum += math.log(max(sep, floor) / delta)
            if sep > 0:
                scale = delta / sep
                w_prev = z_prev + (w_prev - z_prev) * scale
                w_curr = z_curr + (w_curr - z_curr) * scale
            else:
                w_prev, w_curr = z_prev, z_curr + delta
    sep = math.hypot(abs(w_curr - z_curr), abs(w_prev - z_prev))
    if sep > 0:
        log_sum += math.log(sep / delta)
    return log_sum / n


def classify_orbit(
    params: Parameters,
    seed: OrbitSeed,
    settings: IterationSettings = IterationSettings(),
    analysis: AnalysisSettings = AnalysisSettings(),
) -> OrbitClassification:
    """One verdict per orbit, in fixed priority order.

    singular > unbounded > converges > periodic > chaotic > undetermined.
    The chaotic verdict requires a bounded, aperiodic orbit whose
    tangent-method exponent exceeds analysis.chaos_threshold.
    """
    orbit = iterate(params, seed, settings)
    if orbit.status != STATUS_COMPLETED:
        return OrbitClassification(_GUARD_VERDICTS[orbit.status], guard_step=orbit.stop_step)

    limit = detect_convergence(orbit, analysis.convergence_tol, analysis.window)
    if limit is not None:
        return OrbitClassification(VERDICT_CONVERGES, limit=limit)

    cycle = detect_cycle(orbit, analysis.cycle_tol, analysis.max_period)
    if cycle is not None:
        return OrbitClassification(VERDICT_PERIODIC, cycle=cycle)

    # the tangent estimate runs along this same orbit, continued only
    # where it is shorter than the reference orbit lyapunov_max uses
    lt, ls = analysis.lyapunov_transient, analysis.lyapunov_sample
    try:
        points = _reference_orbit(params, orbit.points, lt, ls, settings)
    except GuardTripped as exc:
        return OrbitClassification(_GUARD_VERDICTS[exc.status])
    estimate = _tangent_estimate(params, points, lt, ls)
    if estimate.lambda_max > analysis.chaos_threshold:
        return OrbitClassification(VERDICT_CHAOTIC, lyapunov=estimate)
    return OrbitClassification(VERDICT_UNDETERMINED, lyapunov=estimate)
