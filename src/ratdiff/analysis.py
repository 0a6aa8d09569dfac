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
    _guard_block,
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

# classify_lanes steps its lanes in blocks that end at every multiple of
# _CHECK, runs the guards and the tangent once per block, and at each
# multiple of _CHECK compares each lane's state with its last _HISTORY
# states (_retire)
_HISTORY = 24
_CHECK = 32

# _tangent_block renormalises before a step that could take the tangent's
# growth since the last renormalisation past this factor, up or down
_GROWTH_LIMIT = 2.0 ** 900


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
) -> CycleReport | None:
    """Minimal locked period of the orbit tail, or None.

    After discarding a transient prefix (the first half of the orbit, at
    least 500 points when affordable), the smallest p <=
    max_period with |z[n+p] - z[n]| <= tol*(1 + |z[n]|) across the whole
    tail is reported.  Scanning p upward makes the reported period
    minimal by construction.
    """
    if orbit.status != STATUS_COMPLETED:
        return None
    pts = np.asarray(orbit.points, dtype=complex)
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
            raise more.guard_error(len(points) - 2, " while sampling")
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
    estimate = _tangent_estimate(params, points, lt, ls, settings.singular_tol)
    if estimate.lambda_max > analysis.chaos_threshold:
        return OrbitClassification(VERDICT_CHAOTIC, lyapunov=estimate)
    return OrbitClassification(VERDICT_UNDETERMINED, lyapunov=estimate)


def _keep(lanes: dict, keep: np.ndarray) -> None:
    """Drop the lanes not in keep from every working array (lane axis last).

    A nested dict holds entries that name lanes by their positions, in
    its "pos" array: the entries of the lanes that leave go with them, and
    the positions of the rest follow their lanes.
    """
    for key, value in lanes.items():
        if isinstance(value, dict):
            pos = value["pos"]
            value["pos"] = (np.cumsum(keep) - 1)[pos]
            _keep(value, keep[pos])
        else:
            # C-contiguous, as the float view of w in _tangent_block needs
            lanes[key] = np.compress(keep, value, axis=-1)


def _decide(lanes: dict, verdicts: np.ndarray, masks: dict[str, np.ndarray]) -> None:
    """Record the verdict of each masked lane and drop it from the working arrays."""
    done = functools.reduce(np.logical_or, masks.values())
    if done.any():
        for verdict, mask in masks.items():
            verdicts[lanes["id"][mask]] = verdict
        _keep(lanes, ~done)


def _walk(lanes: dict, steps: int) -> None:
    """Step every lane `steps` times from the ring's rows 0 and 1, writing
    each new point once into the ring's next row."""
    re, im, ba_re, ba_im = (lanes[key] for key in ("re", "im", "ba_re", "ba_im"))
    for r in range(1, steps + 1):  # rows r - 1 and r hold (z[m-1], z[m])
        re[r + 1], im[r + 1] = _lane_step(ba_re, ba_im, re[r - 1:r + 1], im[r - 1:r + 1])


def _complex(re: np.ndarray, im: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The complex array with parts re and im, written into out if given."""
    if out is None:
        out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _renormalise_after(beta: np.ndarray, z_re: np.ndarray, z_im: np.ndarray) -> set[int]:
    """The steps after which _tangent_block renormalises the tangent.

    z_re, z_im hold the parts of the points z[j0 - 1], ..., z[j1] (rows)
    of every lane, for the steps j0, ..., j1.  In the max norm, step j
    multiplies w by at most max(1, |s|*(1 + |q|)) and, as its inverse maps
    (w1, w2) to (w2, w1/s + q*w2), divides it by at most
    max(1, 1/|s| + |q|).  Over the lanes, with d = 1 + z[j] and d_prev =
    1 + z[j-1], |s| <= max|beta| / min|d|, 1/|s| <= max|d| / min|beta| and
    |q| <= (1 + max|d_prev|) / min|d|.  The last step renormalises, and
    so does each step after which the product of these bounds since the
    last renormalisation would pass _GROWTH_LIMIT.  Lanes with beta = 0
    stay out of min|beta|: their tangent is 0 after two steps at any
    scale.  A square of |d| that overflows or underflows only makes a
    bound infinite, which renormalises at every step.
    """
    b_abs = np.abs(beta)
    b_max = np.maximum.reduce(b_abs, initial=0.0)
    b_min = np.minimum.reduce(b_abs, where=b_abs > 0, initial=np.inf)
    d_sq = 1.0 + z_re
    d_sq *= d_sq
    d_sq += z_im * z_im
    d_min = np.sqrt(np.minimum.reduce(d_sq[1:], axis=1, initial=np.inf))
    d_max = np.sqrt(np.maximum.reduce(d_sq, axis=1, initial=0.0))
    q = (1 + d_max[:-1]) / d_min
    bounds = np.maximum(b_max / d_min * (1 + q), d_max[1:] / b_min + q)
    after, growth = {bounds.size - 1}, 1.0
    for k, bound in enumerate(bounds.tolist()):
        if k and not growth * bound <= _GROWTH_LIMIT:  # a nan bound renormalises too
            after.add(k - 1)
            growth = 1.0
        growth *= max(bound, 1.0)
    return after


def _tangent_block(lanes: dict, z_re: np.ndarray, z_im: np.ndarray) -> None:
    """lyapunov_max's tangent steps along a block of points, on every lane.

    z_re, z_im hold the parts of the points z[j0 - 1], ..., z[j1] (rows)
    of each lane.  Step j takes the tangent w = (w1, w2) along (z[j],
    z[j-1]) to (s*(w2 - q*w1), w1), with d = 1 + z[j], q = z[j-1]/d and
    s = beta/d: the Jacobian's a11 = -s*q and a12 = s.  The log of w's
    growth is added to log_sum, and w renormalised, after the steps
    _renormalise_after picks.

    numpy complex arithmetic rounds differently from CPython's, which is
    harmless here: lambda is only compared with chaos_threshold, never
    emitted.  The Jacobian's pole guard needs no check: the orbit guard
    already passed every point the tangent visits.  numpy's complex
    multiply is not commutative bit for bit, so the operands keep their
    order.
    """
    after = _renormalise_after(lanes["b"], z_re, z_im)
    d = np.empty(z_re[1:].shape, dtype=complex)  # 1 + z[j], as numpy's complex sum rounds it
    np.add(1.0, z_re[1:], out=d.real)
    np.add(0.0, z_im[1:], out=d.imag)
    s = lanes["b"] / d  # numpy buffers the broadcast beta: before q, for the peak memory
    q = _complex(z_re[:-1], z_im[:-1])
    np.divide(q, d, out=q)
    del d
    w1, w2, log_sum = lanes["w1"], lanes["w2"], lanes["log_sum"]
    term = np.empty_like(w1)
    for k, (q_k, s_k) in enumerate(zip(q, s)):
        np.multiply(q_k, w1, out=term)
        np.subtract(w2, term, out=w2)
        np.multiply(s_k, w2, out=w2)
        w1, w2 = w2, w1
        if k in after:
            growth = np.hypot(np.abs(w1), np.abs(w2))
            log_sum += np.log(growth)
            for w in (w1, w2):  # real divisions of both parts
                parts = w.view(float).reshape(-1, 2)
                parts /= growth[:, None]
    lanes["w1"], lanes["w2"] = w1, w2


def _cycle_step(lanes: dict, z: np.ndarray, m: int, cut: int, periods: int, tol: float) -> None:
    """detect_cycle's test at point m (z, over every lane) of the tail points[cut:].

    lanes["ring"] keeps every lane's last `periods` points, point k in row
    k % periods, and a (period, lane) pair stays in lanes["pairs"] while
    every pair of tail points that far apart has held.  Once every period
    has been tried and no pair is left, the test ends.
    """
    ring, pairs = lanes["ring"], lanes["pairs"]
    period, lane = pairs["period"], pairs["pos"]
    if 1 <= m - cut <= periods:  # period m - cut meets its first pair
        period = np.concatenate((period, np.full(z.size, m - cut)))
        lane = np.concatenate((lane, np.arange(z.size)))
    past = ring[(m - period) % periods, lane]
    held = np.abs(z[lane] - past) <= tol * (1 + np.abs(past))
    pairs["period"], pairs["pos"] = period[held], lane[held]
    ring[m % periods] = z
    if m - cut >= periods and not pairs["pos"].size:
        del lanes["ring"], lanes["pairs"]


def _repeats(re: np.ndarray, im: np.ndarray,
             held: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(columns, periods) of the lanes whose last state repeats within re, im.

    re, im hold the parts of points[m - rows + 1 .. m] in their rows, in
    order; a lane's period is the smallest P with (points[m - 1 - P],
    points[m - P]) equal bit for bit to (points[m - 1], points[m]) and,
    when held is given, held[P, lane].  Comparing bits keeps 0.0 and -0.0
    apart, as the map's arithmetic may.
    """
    rows = re.shape[0]
    same = True  # same[P - 1, lane]
    for part in (re, im):
        bits = part.view(np.int64)
        # rows rows - 1 - P and rows - 2 - P hold points[m - P] and points[m - 1 - P]
        same = same & (bits[rows - 2:0:-1] == bits[-1]) & (bits[rows - 3::-1] == bits[-2])
    if held is not None:
        same &= held[1:rows - 1]
    cols = np.flatnonzero(same.any(axis=0))
    return cols, same[:, cols].argmax(axis=0) + 1


def _retire(lanes: dict, verdicts: np.ndarray, m: int, cut: int, periods: int,
            window: range | None, analysis: AnalysisSettings, row: int) -> None:
    """Decide the lanes whose state at point m repeats bit for bit.

    When (points[m - 1], points[m]) equals (points[m - 1 - P],
    points[m - P]) bit for bit, every later point repeats with period P
    from s = m - P - 1 on, and no guard trips again.  P is the smallest
    such period among the recent points: before the cut, the last
    _HISTORY + 2 points, in the ring's rows up to m + row; after it, the
    cycle test's ring, where P must also be a period whose pair the lane
    still holds.  The lane converges when classify_orbit's window lies at
    or after s and settles, rebuilt from the cycle with one index
    expression in either ring.  Otherwise it is periodic when
    detect_cycle's test passes with distance 0 for the rest of the tail,
    that is when P is a period the test tries.  Any other lane stays.
    """
    if m < cut:  # the cycle starts within the cut
        rows = slice(m - _HISTORY - 1 + row, m + 1 + row)
        re, im, held = lanes["re"][rows], lanes["im"][rows], None
        pos = np.arange(lanes["id"].size)
    elif "pairs" in lanes and m - cut >= periods >= 3:  # two states fit in the ring
        # the ring's columns of the lanes that hold a pair, rows in order
        pairs = lanes["pairs"]
        pos, lane = np.unique(pairs["pos"], return_inverse=True)
        ring = lanes["ring"][np.ix_(np.arange(m - periods + 1, m + 1) % periods, pos)]
        re, im = ring.real, ring.imag
        held = np.zeros((periods + 1, pos.size), dtype=bool)
        held[pairs["period"], lane] = True
    else:
        return
    cols, period = _repeats(re, im, held)
    onset = m - period - 1
    cycled = (period <= periods) & (0 <= analysis.cycle_tol)
    settled = np.zeros(cols.size, dtype=bool)
    if window is not None:
        known = np.flatnonzero(onset <= window.start)
        # window point k is points[s + (k - s) % P], in row k - m + rows - 1
        s, p, col = onset[known, None], period[known, None], cols[known, None]
        k = s + (np.array(window) - s) % p - (m - re.shape[0] + 1)
        _, settled[known] = _settled(_complex(re[k, col], im[k, col]), analysis.convergence_tol)
        cycled &= onset <= window.start
    masks = {}
    for verdict, mask in ((VERDICT_CONVERGES, settled), (VERDICT_PERIODIC, cycled & ~settled)):
        masks[verdict] = np.zeros(lanes["id"].size, dtype=bool)
        masks[verdict][pos[cols[mask]]] = True
    _decide(lanes, verdicts, masks)


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
    lane, settings.max_steps steps or on to the end of the Lyapunov
    reference orbit when that is longer, in blocks that end at every
    multiple of _CHECK, at the transient cut, where classify_orbit's
    orbit ends and at the last point.  Per point, the map step only
    writes the new point into a ring that holds the block and the two
    points before it.  A decided lane leaves the working arrays at once.
    At each block end, the lanes that tripped a guard within the block
    leave; the tangent estimate and, from the cut on, detect_cycle's test
    run along the block's points; and at a multiple of _CHECK the lanes
    whose state repeats bit for bit leave with the verdict the repeat
    fixes (_retire).  Where classify_orbit's orbit ends, the settled
    windows and the locked cycles leave.
    """
    values = [np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (alpha, beta, z_minus1, z_0)))]
    count = values[0].size
    # the working arrays are copies, lane axis last: the parts of (beta,
    # alpha) in rows, as _lane_step takes them, and the ring of points,
    # whose row i is point m0 - 1 + i while the block after point m0 runs
    lanes = {"ba_re": np.stack((values[1].real, values[0].real)),
             "ba_im": np.stack((values[1].imag, values[0].imag)),
             "re": np.zeros((_CHECK + 2, count)), "im": np.zeros((_CHECK + 2, count)),
             "b": values[1].copy(), "id": np.arange(count),
             "w1": np.ones(count, dtype=complex),  # tangent along (z[n], z[n-1])
             "w2": np.zeros(count, dtype=complex), "log_sum": np.zeros(count)}
    lanes["re"][:2] = values[2].real, values[3].real
    lanes["im"][:2] = values[2].imag, values[3].imag
    verdicts = np.full(count, VERDICT_UNDETERMINED, dtype=object)
    n = settings.max_steps + 2  # points of a completed orbit, seed included
    cut = _transient_cut(n, analysis.max_period)
    periods = min(analysis.max_period, n - cut - 1)  # detect_cycle tries 1..periods
    lt, ls = analysis.lyapunov_transient, analysis.lyapunov_sample
    last = max(n - 1, lt + ls + 1)  # lyapunov_max's reference orbit holds points[:lt + ls + 2]
    window = range(n)[-analysis.window:] if n >= analysis.window else None
    tol, esc = settings.singular_tol, settings.escape_radius

    with np.errstate(all="ignore"):
        outside = [~(np.hypot(z.real, z.imag) <= esc) for z in values[2:]]
        _decide(lanes, verdicts, {VERDICT_UNBOUNDED: outside[0] | outside[1]})
        m0, first = 1, 0  # the block steps on from point m0; its end reads from point first
        for m1 in sorted({*range(_CHECK, last + 1, _CHECK), cut, n - 1, last}):
            if not lanes["id"].size:
                return verdicts.tolist()
            size = m1 - m0
            _walk(lanes, size)
            singular, escaped = _guard_block(lanes["re"][1:size + 2], lanes["im"][1:size + 2],
                                             tol, esc)
            if singular is not None:
                _decide(lanes, verdicts, {VERDICT_SINGULAR: singular, VERDICT_UNBOUNDED: escaped})
            row = 1 - m0  # point j is in ring row j + row
            lo, hi = max(first, lt + 1, 1), min(m1, lt + ls)
            if lo <= hi:  # the tangent steps lo..hi read points lo - 1..hi
                _tangent_block(lanes, lanes["re"][lo - 1 + row:hi + 1 + row],
                               lanes["im"][lo - 1 + row:hi + 1 + row])
            if m1 == cut and periods >= 1:  # the cycle test starts at the cut
                lanes["ring"] = np.empty((periods, lanes["id"].size), dtype=complex)
                lanes["pairs"] = {"pos": np.empty(0, dtype=np.intp),
                                  "period": np.empty(0, dtype=np.intp)}
            for j in range(max(first, cut), m1 + 1):
                if "pairs" not in lanes:
                    break
                _cycle_step(lanes, _complex(lanes["re"][j + row], lanes["im"][j + row]), j, cut,
                            periods, analysis.cycle_tol)
            if window and window.start <= m1 < n:  # n - 1 ends a block
                lo = max(first, window.start)
                if "tail" not in lanes:
                    lanes["tail"] = np.empty((len(window), lanes["id"].size), dtype=complex)
                rows = slice(lo + row, m1 + row + 1)
                _complex(lanes["re"][rows], lanes["im"][rows],
                         lanes["tail"][lo - window.start:m1 - window.start + 1])
            if m1 % _CHECK == 0 and m1 < n - 1:
                _retire(lanes, verdicts, m1, cut, periods, window, analysis, row)
            if m1 == n - 1:  # the orbit classify_orbit iterates is complete
                if window is not None:
                    _, settled = _settled(np.ascontiguousarray(lanes.pop("tail").T),
                                          analysis.convergence_tol)
                    _decide(lanes, verdicts, {VERDICT_CONVERGES: settled})
                if "pairs" in lanes:
                    periodic = np.zeros(lanes["id"].size, dtype=bool)
                    periodic[lanes.pop("pairs")["pos"]] = True
                    del lanes["ring"]
                    _decide(lanes, verdicts, {VERDICT_PERIODIC: periodic})
                if (lt < 0 or ls < 1) and lanes["id"].size:
                    raise ValueError("need n_transient >= 0 and n_sample >= 1")
            for key in ("re", "im"):  # the block's last two points start the next
                lanes[key][:2] = lanes[key][size:size + 2]
            m0, first = m1, m1 + 1

        # a tangent that collapsed (growth 0, as beta = 0 gives) left log_sum
        # at -inf, or at nan from the next renormalisation on: never above
        # the threshold
        lam = lanes["log_sum"] / ls
        _decide(lanes, verdicts, {VERDICT_CHAOTIC: lam > analysis.chaos_threshold})
    return verdicts.tolist()
