"""Empirical orbit classification: limits, cycles, escape, and chaos.

The classifier runs the cheap, decisive checks first (singularity and
escape are recorded by the iterator itself), then looks for a finite
limit, then for a locked cycle, and finally estimates the largest
Lyapunov exponent of the surviving bounded, aperiodic orbits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GuardTripped,
    IterationSettings,
    Orbit,
    OrbitSeed,
    Parameters,
    STATUS_COMPLETED,
    STATUS_ESCAPED,
    STATUS_SINGULAR,
    _lane_step,
    iterate,
    step,
    tangent,
)

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
    "classify_lanes",
]

VERDICT_CONVERGES = "converges"
VERDICT_PERIODIC = "periodic"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_CHAOTIC = "chaotic"
VERDICT_SINGULAR = "singular"
VERDICT_UNDETERMINED = "undetermined"

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


def detect_convergence(orbit: Orbit, tol: float = 1e-9, window: int = 32) -> complex | None:
    """The limit of a settled orbit, or None.

    Reports the mean of the last `window` points when every one of them
    lies within tol of that mean.  Escaped and singular orbits never
    converge.
    """
    if orbit.status != STATUS_COMPLETED or len(orbit.points) < window:
        return None
    return _settled_mean(np.asarray(orbit.points[-window:], dtype=complex), tol)


def _settled_mean(tail: np.ndarray, tol: float) -> complex | None:
    mean = tail.mean()
    if np.abs(tail - mean).max() <= tol:
        return complex(mean)
    return None


def _transient_cut(n: int, max_period: int) -> int:
    # first half, stretched to at least 500 when the tail stays usable
    cut = n // 2
    if 500 > cut and n - 500 > max_period:
        cut = 500
    return cut


def detect_cycle(
    orbit: Orbit,
    tol: float = 1e-6,
    max_period: int = 128,
    transient: int | None = None,
) -> CycleReport | None:
    """Minimal locked period of the orbit tail, or None.

    After discarding a transient prefix (default: the first half of the
    orbit, at least 500 points when affordable), the smallest p <=
    max_period with |z[n+p] - z[n]| <= tol*(1 + |z[n]|) across the whole
    tail is reported.  Scanning p upward makes the reported period
    minimal by construction.
    """
    if orbit.status != STATUS_COMPLETED:
        return None
    pts = np.asarray(orbit.points, dtype=complex)
    if transient is None:
        transient = _transient_cut(len(pts), max_period)
    tail = pts[transient:]
    if len(tail) < 2:
        return None
    scale = 1 + np.abs(tail)
    for p in range(1, min(max_period, len(tail) - 1) + 1):
        dist = np.abs(tail[p:] - tail[:-p])
        if np.all(dist <= tol * scale[:-p]):
            # walk the lock backwards into the transient for the onset
            onset = transient
            while onset > 0:
                a, b = pts[onset - 1], pts[onset - 1 + p]
                if abs(b - a) > tol * (1 + abs(a)):
                    break
                onset -= 1
            return CycleReport(
                period=p,
                cycle_points=tuple(complex(z) for z in tail[-p:]),
                onset=onset,
                residual=float(dist.max()),
            )
    return None


def _reference_orbit(params: Parameters, seed: OrbitSeed, n_transient: int,
                     n_sample: int, settings: IterationSettings) -> tuple[complex, ...]:
    """Points of a completed n_transient + n_sample step orbit, or GuardTripped."""
    if n_transient < 0 or n_sample < 1:
        raise ValueError("need n_transient >= 0 and n_sample >= 1")
    orbit = iterate(params, seed, IterationSettings(
        n_transient + n_sample, settings.escape_radius, settings.singular_tol))
    if orbit.status != STATUS_COMPLETED:
        raise GuardTripped(orbit.status,
                           f"orbit {orbit.status} at step {orbit.stop_step} while sampling")
    return orbit.points


def lyapunov_max(
    params: Parameters,
    seed: OrbitSeed,
    n_transient: int = 500,
    n_sample: int = 5000,
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
    points = _reference_orbit(params, seed, n_transient, n_sample, settings)
    tol = settings.singular_tol
    w1, w2 = 1 + 0j, 0j  # tangent components along (z[n], z[n-1])
    log_sum = 0.0
    tail_start = n_sample - max(1, n_sample // 4)
    tail: list[float] = []  # running means over the last quarter
    for k, z_prev, z_curr in zip(range(n_sample), points[n_transient:], points[n_transient + 1:]):
        a11, a12 = tangent(params, z_prev, z_curr, tol)
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


def lyapunov_divergence_oracle(
    params: Parameters,
    seed: OrbitSeed,
    delta: float = 1e-8,
    n: int = 5000,
    n_transient: int = 500,
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
    points = _reference_orbit(params, seed, n_transient, n, settings)
    esc, tol = settings.escape_radius, settings.singular_tol
    w_prev, w_curr = points[n_transient], points[n_transient + 1] + delta

    floor = delta * 1e-6  # keep contracting separations representable
    log_sum = 0.0
    for z_prev, z_curr in zip(points[n_transient + 1:], points[n_transient + 2:]):
        w_prev, w_curr = w_curr, step(params, w_prev, w_curr, tol)
        if not abs(w_curr) <= esc:
            raise GuardTripped(STATUS_ESCAPED,
                               f"companion |z| = {abs(w_curr):.3e} left the escape radius")
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

    try:
        estimate = lyapunov_max(
            params,
            seed,
            n_transient=analysis.lyapunov_transient,
            n_sample=analysis.lyapunov_sample,
            settings=settings,
        )
    except GuardTripped as exc:
        return OrbitClassification(_GUARD_VERDICTS[exc.status])
    if estimate.lambda_max > analysis.chaos_threshold:
        return OrbitClassification(VERDICT_CHAOTIC, lyapunov=estimate)
    return OrbitClassification(VERDICT_UNDETERMINED, lyapunov=estimate)


def _keep(lanes: dict, keep: np.ndarray) -> None:
    """Drop the lanes not in keep from every working array (lane axis last)."""
    for key, value in lanes.items():
        lanes[key] = value[..., keep]


def _decide(lanes: dict, verdicts: np.ndarray, masks: dict[str, np.ndarray],
            slack: float = 0.0) -> None:
    """Record the verdict of each open masked lane and close it.

    Closed lanes leave the working arrays once they make up more than
    `slack` of them.  The per-step guard checks allow a quarter: dropping
    a few lanes at every step reallocates every array each time and
    fragments the heap, which showed as peak memory.
    """
    is_open = lanes["open"]
    done = functools.reduce(np.logical_or, masks.values()) & is_open
    if done.any():
        for verdict, mask in masks.items():
            verdicts[lanes["id"][mask & is_open]] = verdict
        is_open &= ~done
    if np.count_nonzero(is_open) < (1 - slack) * is_open.size:
        _keep(lanes, is_open)


def _advance(lanes: dict, verdicts: np.ndarray, settings: IterationSettings) -> None:
    """Step every lane once, closing the lanes that trip a guard with its verdict."""
    z_next, singular, escaped = _lane_step(lanes["a"], lanes["b"], lanes["prev"], lanes["curr"],
                                           settings.singular_tol, settings.escape_radius)
    lanes["prev"], lanes["curr"] = lanes["curr"], z_next
    _decide(lanes, verdicts, {VERDICT_SINGULAR: singular, VERDICT_UNBOUNDED: escaped}, slack=0.25)


def _tangent_step(lanes: dict) -> None:
    """lyapunov_max's renormalized tangent step at (prev, curr), on every lane.

    numpy complex arithmetic rounds differently from CPython's, which is
    harmless here: lambda is only compared with chaos_threshold, never
    emitted.  The Jacobian's pole guard needs no check: the orbit guard
    already passed every point the tangent visits.
    """
    z_prev, z, beta = lanes["prev"], lanes["curr"], lanes["b"]
    denom = 1 + z
    # a11*w1 + a12*w2 with a11 = -beta*z_prev/denom**2, a12 = beta/denom
    w1 = beta / denom * (lanes["w2"] - z_prev / denom * lanes["w1"])
    w2 = lanes["w1"]
    growth = np.hypot(np.abs(w1), np.abs(w2))
    lanes["collapsed"] |= growth == 0
    lanes["log_sum"] += np.log(growth)
    lanes["w1"], lanes["w2"] = w1 / growth, w2 / growth


def _periodic_tails(lanes: dict, tail_length: int, periods: int,
                    settings: IterationSettings, analysis: AnalysisSettings) -> np.ndarray:
    """detect_cycle's answer for each lane, replaying its tail from the transient cut.

    lanes["cut_prev"], lanes["cut_curr"] hold (points[cut - 1], points[cut]).
    A ring keeps the last `periods` tail points; a (period, lane) pair
    stays listed while every pair of tail points that far apart has
    held.  Once every period has been tried, lanes with none listed
    stop replaying.
    """
    count = lanes["id"].size
    cyc = {"pos": np.arange(count), "a": lanes["a"], "b": lanes["b"],
           "prev": lanes.pop("cut_prev"), "curr": lanes.pop("cut_curr"),
           "ring": np.empty((periods, count), dtype=complex)}  # tail[i] in row i % periods
    period = lane = np.empty(0, dtype=np.intp)
    for j in range(tail_length):  # cyc["curr"] is tail[j]
        z, ring = cyc["curr"], cyc["ring"]
        if 1 <= j <= periods:  # period j meets its first pair
            period = np.concatenate((period, np.full(z.size, j)))
            lane = np.concatenate((lane, np.arange(z.size)))
        past = ring[(j - period) % periods, lane]
        held = np.abs(z[lane] - past) <= analysis.cycle_tol * (1 + np.abs(past))
        period, lane = period[held], lane[held]
        ring[j % periods] = z
        if j >= periods:
            keep = np.zeros(z.size, dtype=bool)
            keep[lane] = True
            if not keep.all():
                lane = (np.cumsum(keep) - 1)[lane]
                _keep(cyc, keep)
        if j == tail_length - 1 or not cyc["pos"].size:
            break
        cyc["prev"], cyc["curr"] = cyc["curr"], _lane_step(
            cyc["a"], cyc["b"], cyc["prev"], cyc["curr"],
            settings.singular_tol, settings.escape_radius)[0]
    periodic = np.zeros(count, dtype=bool)
    periodic[cyc["pos"][lane]] = True
    return periodic


def classify_lanes(
    alpha,
    beta,
    z_minus1,
    z_0,
    settings: IterationSettings = IterationSettings(),
    analysis: AnalysisSettings = AnalysisSettings(),
) -> list[str]:
    """classify_orbit's verdict for many orbits, advanced in lockstep.

    The four complex arrays (or scalars) broadcast to one flat axis of
    lanes; verdict i equals classify_orbit(Parameters(alpha[i], beta[i]),
    OrbitSeed(z_minus1[i], z_0[i]), settings, analysis).verdict.

    Each arithmetic step is one numpy operation over every undecided
    lane, and no lane's orbit is stored whole.  The first pass iterates
    settings.max_steps steps with the tangent estimate alongside, keeping
    the last analysis.window points and the state at the transient cut;
    lanes leave at a guard trip or a settled window.  The second replays
    the rest from the cut through the cycle test.  The third extends the
    orbit, guards included, while the Lyapunov sample reaches beyond it.
    """
    lanes = dict(zip(("a", "b", "prev", "curr"), (np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (alpha, beta, z_minus1, z_0))))))
    count = lanes["a"].size
    lanes["id"] = np.arange(count)
    lanes["open"] = np.ones(count, dtype=bool)
    lanes["w1"] = np.ones(count, dtype=complex)  # tangent along (z[n], z[n-1])
    lanes["w2"] = np.zeros(count, dtype=complex)
    lanes["log_sum"] = np.zeros(count)
    lanes["collapsed"] = np.zeros(count, dtype=bool)
    verdicts = np.full(count, VERDICT_UNDETERMINED, dtype=object)
    n = settings.max_steps + 2  # points of a completed orbit, seed included
    cut = _transient_cut(n, analysis.max_period)
    periods = min(analysis.max_period, n - cut - 1)  # detect_cycle tries 1..periods
    lt, ls = analysis.lyapunov_transient, analysis.lyapunov_sample
    tangent_ok = lt >= 0 and ls >= 1
    window = range(n)[-analysis.window:] if n >= analysis.window else None
    esc = settings.escape_radius

    with np.errstate(all="ignore"):
        outside = [~(np.hypot(z.real, z.imag) <= esc) for z in (lanes["prev"], lanes["curr"])]
        _decide(lanes, verdicts, {VERDICT_UNBOUNDED: outside[0] | outside[1]})
        for m in range(1, n):  # lanes["curr"] is points[m]
            if not lanes["id"].size:
                return verdicts.tolist()
            if m == cut:
                lanes["cut_prev"], lanes["cut_curr"] = lanes["prev"], lanes["curr"]
            if window and m >= window.start:
                if "tail" not in lanes:
                    lanes["tail"] = np.empty((len(window), lanes["id"].size), dtype=complex)
                    if window.start == 0:
                        lanes["tail"][0] = lanes["prev"]
                lanes["tail"][m - window.start] = lanes["curr"]
            if tangent_ok and lt < m <= lt + ls:
                _tangent_step(lanes)
            if m < n - 1:
                _advance(lanes, verdicts, settings)

        if window is not None:
            tail = lanes.pop("tail", np.empty((0, lanes["id"].size), dtype=complex))
            settled = [_settled_mean(np.ascontiguousarray(tail[:, i]), analysis.convergence_tol)
                       is not None for i in range(tail.shape[1])]
            del tail
            _decide(lanes, verdicts, {VERDICT_CONVERGES: np.array(settled, dtype=bool)})

        if periods >= 1:
            _decide(lanes, verdicts, {VERDICT_PERIODIC: _periodic_tails(
                lanes, n - cut, periods, settings, analysis)})
        lanes.pop("cut_prev", None)
        lanes.pop("cut_curr", None)
        if not tangent_ok and lanes["id"].size:
            raise ValueError("need n_transient >= 0 and n_sample >= 1")

        # lyapunov_max's reference orbit holds points[:lt + ls + 2]
        for m in range(n, lt + ls + 2):
            if not lanes["id"].size:
                break
            _advance(lanes, verdicts, settings)
            if lt < m <= lt + ls:
                _tangent_step(lanes)

        lam = np.where(lanes["collapsed"], -np.inf, lanes["log_sum"] / ls)
        _decide(lanes, verdicts, {VERDICT_CHAOTIC: lam > analysis.chaos_threshold})
    return verdicts.tolist()
