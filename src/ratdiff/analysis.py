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

# classify_lanes compares each lane's state with its last _HISTORY states
# every _CHECK steps (_retire)
_HISTORY = 24
_CHECK = 32


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
            raise GuardTripped(more.status, f"orbit {more.status} at step "
                                            f"{len(points) - 2 + more.stop_step} while sampling")
        points += more.points[2:]
    return points[:length]


def _tangent_estimate(params: Parameters, points: tuple[complex, ...], n_transient: int,
                      n_sample: int, singular_tol: float) -> LyapunovEstimate:
    """lyapunov_max's estimate along the reference orbit points."""
    w1, w2 = 1 + 0j, 0j  # tangent components along (z[n], z[n-1])
    log_sum = 0.0
    tail_start = n_sample - max(1, n_sample // 4)
    tail: list[float] = []  # running means over the last quarter
    for k, z_prev, z_curr in zip(range(n_sample), points[n_transient:], points[n_transient + 1:]):
        a11, a12 = tangent(params, z_prev, z_curr, singular_tol)
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
    points = _reference_orbit(params, (seed.z_minus1, seed.z_0), n_transient, n_sample, settings)
    return _tangent_estimate(params, points, n_transient, n_sample, settings.singular_tol)


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
    points = _reference_orbit(params, (seed.z_minus1, seed.z_0), n_transient, n, settings)
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

    # the tangent estimate runs along this same orbit, continued only
    # where it is shorter than the reference orbit lyapunov_max uses
    lt, ls = analysis.lyapunov_transient, analysis.lyapunov_sample
    try:
        points = _reference_orbit(params, orbit.points, lt, ls, settings)
    except GuardTripped as exc:
        return OrbitClassification(_GUARD_VERDICTS[exc.status])
    estimate = _tangent_estimate(params, points, lt, ls, settings.singular_tol)
    if estimate.lambda_max > analysis.chaos_threshold:
        return OrbitClassification(VERDICT_CHAOTIC, lyapunov=estimate)
    return OrbitClassification(VERDICT_UNDETERMINED, lyapunov=estimate)


def _keep(lanes: dict, keep: np.ndarray) -> None:
    """Drop the lanes not in keep from every working array (lane axis last).

    A nested dict holds a subset of the lanes, their positions in its
    "pos" array; it drops the subset's members that leave, and its own
    arrays run along the subset.
    """
    for key, value in lanes.items():
        if isinstance(value, dict):
            pos = value["pos"]
            value["pos"] = (np.cumsum(keep) - 1)[pos]
            _keep(value, keep[pos])
        else:
            lanes[key] = np.compress(keep, value, axis=-1)  # C-contiguous, as _bits' view needs


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


def _cycle_step(lanes: dict, m: int, cut: int, periods: int, tol: float) -> None:
    """detect_cycle's test at point m (lanes["curr"]) of the tail points[cut:].

    lanes["cycle"] holds the lanes still under test.  Its ring keeps
    their last `periods` points, point k in row k % periods, and a
    (period, lane) pair stays in its "pairs" while every pair of tail
    points that far apart has held.  Once every period has been tried, a
    lane leaves the test with its last pair or when it closes.
    """
    cycle = lanes["cycle"]
    z, ring, pairs = lanes["curr"][cycle["pos"]], cycle["ring"], cycle["pairs"]
    period, lane = pairs["period"], pairs["pos"]
    if 1 <= m - cut <= periods:  # period m - cut meets its first pair
        period = np.concatenate((period, np.full(z.size, m - cut)))
        lane = np.concatenate((lane, np.arange(z.size)))
    past = ring[(m - period) % periods, lane]
    held = np.abs(z[lane] - past) <= tol * (1 + np.abs(past))
    pairs["period"], pairs["pos"] = period[held], lane[held]
    ring[m % periods] = z
    if m - cut >= periods:
        keep = np.zeros(z.size, dtype=bool)
        keep[pairs["pos"]] = True
        keep &= lanes["open"][cycle["pos"]]
        if not keep.any():
            del lanes["cycle"]
        elif not keep.all():
            _keep(cycle, keep)


def _bits(ring: np.ndarray) -> np.ndarray:
    """The int64 (real, imag) bit patterns of a complex ring, last axis of 2.

    Comparing bits keeps 0.0 and -0.0 apart, as the map's arithmetic may.
    """
    return ring.view(np.int64).reshape(*ring.shape, 2)


def _history_repeats(hist: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, periods) of the lanes whose state at m repeats within hist.

    hist holds points[m - rows + 1 .. m], point k in row k % rows; a
    lane's period is the smallest P with (points[m - 1 - P], points[m - P])
    equal to (points[m - 1], points[m]).
    """
    rows = hist.shape[0]
    bits = _bits(hist)
    equal = []  # equal[i][r, lane]: row r holds points[m - i]
    for k in (m, m - 1):
        parts = bits == bits[k % rows]
        equal.append(parts[..., 0] & parts[..., 1])
    shift = np.arange(1, min(rows - 2, m - 1) + 1)
    same = equal[0][(m - shift) % rows] & equal[1][(m - 1 - shift) % rows]
    cols = np.flatnonzero(same.any(axis=0))
    return cols, same[:, cols].argmax(axis=0) + 1


def _pair_repeats(cycle: dict, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, periods) of the cycle lanes whose state at m repeats at
    the distance of a pair they still hold, the longest such pair each."""
    ring = cycle["ring"]
    rows = ring.shape[0]
    period, col = cycle["pairs"]["period"], cycle["pairs"]["pos"]
    fits = period <= rows - 2  # both states in the ring, as m - rows >= cut
    period, col = period[fits], col[fits]
    bits = _bits(ring)
    same = np.ones(period.size, dtype=bool)
    for k in (m, m - 1):
        parts = bits[(k - period) % rows, col] == bits[k % rows, col]
        same &= parts[:, 0] & parts[:, 1]
    longest = np.zeros(ring.shape[1], dtype=np.intp)
    np.maximum.at(longest, col[same], period[same])
    cols = np.flatnonzero(longest)
    return cols, longest[cols]


def _retire(lanes: dict, verdicts: np.ndarray, m: int, cut: int, periods: int,
            window: range | None, analysis: AnalysisSettings) -> None:
    """Close the lanes whose state at point m repeats bit for bit.

    When (points[m - 1], points[m]) equals (points[m - 1 - P],
    points[m - P]) bit for bit, every later point repeats with period P
    from s = m - P - 1 on, and no guard trips again.  The lane converges
    when classify_orbit's window lies at or after s and settles, rebuilt
    from the cycle.  Otherwise it is periodic when detect_cycle's test
    passes with distance 0 for the rest of the tail: before the cut (the
    repeat is found in lanes["hist"], the last _HISTORY + 2 points), when
    P is a period the test tries; after it, when the lane still holds the
    pair of period P (found in the cycle test's ring).  Any other lane
    stays.
    """
    if "hist" in lanes:  # m < cut, so the cycle starts within the cut
        ring = lanes["hist"]
        cols, period = _history_repeats(ring, m)
        pos = cols
        cycled = (period <= periods) & (0 <= analysis.cycle_tol)
    elif "cycle" in lanes and m - cut >= periods:
        # only now does the ring hold just the lanes with a pair, so that
        # dropping lanes copies little of it
        ring = lanes["cycle"]["ring"]
        cols, period = _pair_repeats(lanes["cycle"], m)
        pos = lanes["cycle"]["pos"][cols]
        cycled = np.ones(cols.size, dtype=bool)
    else:
        return
    is_open = lanes["open"][pos]  # closed lanes wait in the arrays until they are dropped
    cols, period, pos, cycled = cols[is_open], period[is_open], pos[is_open], cycled[is_open]
    onset = m - period - 1
    settled = np.zeros(cols.size, dtype=bool)
    if window is not None:
        known = np.flatnonzero(onset <= window.start)
        # window point k is points[s + (k - s) % P], rebuilt lane by lane
        s, p = onset[known, None], period[known, None]
        tails = ring[(s + (np.array(window) - s) % p) % ring.shape[0], cols[known, None]]
        settled[known] = [_settled_mean(tail, analysis.convergence_tol) is not None
                          for tail in tails]
        cycled &= onset <= window.start
    masks = {}
    for verdict, mask in ((VERDICT_CONVERGES, settled), (VERDICT_PERIODIC, cycled & ~settled)):
        masks[verdict] = np.zeros(lanes["id"].size, dtype=bool)
        masks[verdict][pos[mask]] = True
    _decide(lanes, verdicts, masks, slack=0.25)


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
    lane, and no lane's orbit is stored whole.  One loop steps every
    lane once per point: settings.max_steps steps, or on to the end of
    the Lyapunov reference orbit when that is longer, with the tangent
    estimate alongside and, from the transient cut on, detect_cycle's
    test.  Lanes leave at a guard trip, and every _CHECK steps those
    whose state repeats bit for bit leave with the verdict the repeat
    fixes (_retire).  Where classify_orbit's orbit ends, the settled
    windows and the locked cycles leave.
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
    last = max(n - 1, lt + ls + 1)  # lyapunov_max's reference orbit holds points[:lt + ls + 2]
    window = range(n)[-analysis.window:] if n >= analysis.window else None
    esc = settings.escape_radius

    with np.errstate(all="ignore"):
        outside = [~(np.hypot(z.real, z.imag) <= esc) for z in (lanes["prev"], lanes["curr"])]
        _decide(lanes, verdicts, {VERDICT_UNBOUNDED: outside[0] | outside[1]})
        lanes["hist"] = np.empty((_HISTORY + 2, lanes["id"].size), dtype=complex)
        lanes["hist"][0] = lanes["prev"]
        for m in range(1, last + 1):  # lanes["curr"] is points[m]
            if not lanes["id"].size:
                return verdicts.tolist()
            if m == cut:  # the cycle test's ring takes over from the history
                del lanes["hist"]
                if periods >= 1:
                    pos = np.flatnonzero(lanes["open"])
                    lanes["cycle"] = {"pos": pos,
                                      "ring": np.empty((periods, pos.size), dtype=complex),
                                      "pairs": {"pos": np.empty(0, dtype=np.intp),
                                                "period": np.empty(0, dtype=np.intp)}}
            if "hist" in lanes:
                lanes["hist"][m % (_HISTORY + 2)] = lanes["curr"]
            if "cycle" in lanes:
                _cycle_step(lanes, m, cut, periods, analysis.cycle_tol)
            if window and m in window:
                if "tail" not in lanes:
                    lanes["tail"] = np.empty((len(window), lanes["id"].size), dtype=complex)
                    if window.start == 0:
                        lanes["tail"][0] = lanes["prev"]
                lanes["tail"][m - window.start] = lanes["curr"]
            if lt < m <= lt + ls:
                _tangent_step(lanes)
            if m % _CHECK == 0 and m < n - 1:
                _retire(lanes, verdicts, m, cut, periods, window, analysis)
            if m == n - 1:  # the orbit classify_orbit iterates is complete
                if window is not None:
                    settled = [_settled_mean(np.ascontiguousarray(col), analysis.convergence_tol)
                               is not None for col in lanes.pop("tail").T]
                    _decide(lanes, verdicts, {VERDICT_CONVERGES: np.array(settled, dtype=bool)})
                if "cycle" in lanes:
                    cycle = lanes.pop("cycle")
                    periodic = np.zeros(lanes["id"].size, dtype=bool)
                    periodic[cycle["pos"][cycle["pairs"]["pos"]]] = True
                    _decide(lanes, verdicts, {VERDICT_PERIODIC: periodic})
                if (lt < 0 or ls < 1) and lanes["id"].size:
                    raise ValueError("need n_transient >= 0 and n_sample >= 1")
            if m < last:
                _advance(lanes, verdicts, settings)

        lam = np.where(lanes["collapsed"], -np.inf, lanes["log_sum"] / ls)
        _decide(lanes, verdicts, {VERDICT_CHAOTIC: lam > analysis.chaos_threshold})
    return verdicts.tolist()
