"""Lanes: batched twins of the scalar kernels, one orbit or parameter pair per lane.

core.iterate, stability.clark_margin_at and analysis.classify_orbit are
the scalar reference; each twin here gives, lane by lane, the result of
the scalar call.  The twins compute on the float64 real and imaginary
parts and repeat CPython's complex operations one float operation at a
time (_prod, _quot, _square, _sqrt, abs as hypot), so each lane gets
the bits the scalar code gives: numpy's complex multiply, divide, sqrt
and abs round differently in a large share of cases, which chaotic
orbits would amplify.  Where the scalar code raises (a zero divisor, an
overflow), a lane gets nan or inf, and so may a branch that np.where
discards: callers mask those lanes, and the kernels run under
np.errstate(all="ignore"), which classify_lanes and _clark_margin_lanes set.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .analysis import (VERDICT_CHAOTIC, VERDICT_CONVERGES, VERDICT_PERIODIC, VERDICT_SINGULAR,
                       VERDICT_UNBOUNDED, VERDICT_UNDETERMINED, AnalysisSettings, _locked,
                       _modulus, _settled, _transient_cut)
from .core import IterationSettings
from .stability import BRANCH_MINUS

__all__ = ["classify_lanes"]

# classify_lanes steps its lanes in blocks that end at every multiple of
# _CHECK, runs the guards and the tangent once per block, and at each
# multiple of _CHECK compares each lane's state with the states its
# block ring holds (_retire)
_CHECK = 32

# _tangent_block renormalises only after a block's last step when the product
# of its step bounds stays within this factor, and after every step otherwise
_GROWTH_LIMIT = 2.0 ** 900


def _prod(a_re, a_im, b_re, b_im):
    """CPython's _Py_c_prod on real and imaginary parts (floats or arrays)."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _quot(a_re, a_im, b_re, b_im):
    """CPython's _Py_c_quot (Smith's method) on parts, the branch picked per lane."""
    real_major = np.abs(b_re) >= np.abs(b_im)
    major = np.where(real_major, b_re, b_im)
    minor = np.where(real_major, b_im, b_re)
    ratio = minor / major
    denom = minor * ratio
    denom += major
    re_ratio, im_ratio = a_re * ratio, a_im * ratio
    re = np.where(real_major, a_re + im_ratio, re_ratio + a_im)
    re /= denom
    im = np.where(real_major, a_im - re_ratio, im_ratio - a_re)
    im /= denom
    return re, im


def _lane_step(ba_re, ba_im, pc_re, pc_im):
    """z_next of many orbits at once, each lane one orbit, without guards.

    ba_re, ba_im are the real and imaginary parts of the rows (beta,
    alpha), and pc_re, pc_im those of (z_prev, z_curr): float64 arrays of
    shape (2, lanes), so that one _prod gives both products.  Returns
    (x_re, x_im), the parts of z_next, with the bits step() gives;
    _guard_block decides the guards for a block of such steps.
    """
    # alpha + alpha*z_curr + beta*z_prev, summed left to right
    prod_re, prod_im = _prod(ba_re, ba_im, pc_re, pc_im)
    n_re = prod_re[1] + ba_re[1]
    n_re += prod_re[0]
    n_im = prod_im[1] + ba_im[1]
    n_im += prod_im[0]
    # 1 + z_curr promotes 1 to 1+0j, so -0.0 imaginary parts become +0.0
    return _quot(n_re, n_im, 1.0 + pc_re[1], 0.0 + pc_im[1])


def _bounded(x, bound) -> bool:
    """Every element of x lies in [-bound, bound]; False where one is nan.

    ufunc reductions, as ndarray.min and max add a Python call; the
    initial values answer for an empty x.
    """
    return bool(np.maximum.reduce(x, axis=None, initial=-np.inf) <= bound
                and np.minimum.reduce(x, axis=None, initial=np.inf) >= -bound)


def _guard_block(z_re, z_im, singular_tol, escape_radius):
    """iterate()'s guards over a block of steps of many orbits at once.

    z_re, z_im are the parts of the points z[m0], ..., z[m1] (rows) of
    each lane (columns), float64 arrays of one shape, and the block's
    steps are (z[j-1], z[j]) -> z[j+1] for m0 <= j < m1.  Returns
    (singular, escaped): the lanes whose first trip in iterate's order
    is the pole (|1 + z[j]| below singular_tol) or an escape (z[j+1]
    outside the escape radius or not finite).  The pole test at z[j]
    comes before the escape test at z[j+1], which comes before the pole
    test at z[j+1].  Both masks are None when no lane trips.

    hypot(u, v) lies between max(|u|, |v|) and sqrt(2) times it, so no
    lane is singular while every |Re(1 + z[j])| is at least
    singular_tol, and none escapes while every part of every z[j+1] is at
    most escape_radius / 2.  Only the points that fail these bounds (a
    nan fails both) get their moduli computed.
    """
    d_re = 1.0 + z_re[:-1]
    np.abs(d_re, out=d_re)
    x_re, x_im = z_re[1:], z_im[1:]
    half = escape_radius / 2
    if (np.minimum.reduce(d_re, axis=None, initial=np.inf) >= singular_tol
            and _bounded(x_re, half) and _bounded(x_im, half)):
        return None, None
    near = ~(d_re >= singular_tol)
    far = ~((-half <= x_re) & (x_re <= half) & (-half <= x_im) & (x_im <= half))
    # hypot(1.0 + Re z, 0.0 + Im z) is hypot(|1.0 + Re z|, Im z)
    near[near] = np.hypot(d_re[near], z_im[:-1][near]) < singular_tol
    far[far] = ~(np.hypot(x_re[far], x_im[far]) <= escape_radius)
    # interleave: pole test at row i, then escape test at row i, then row i + 1
    trips = np.stack((near, far), axis=1).reshape(-1, near.shape[-1])
    tripped = np.logical_or.reduce(trips, axis=0)
    if not tripped.any():
        return None, None
    pole = trips.argmax(axis=0) % 2 == 0
    return tripped & pole, tripped & ~pole


def _square(re, im):
    """z**2 as CPython computes it: c_powu's (1, 0) * (z * z)."""
    return _prod(1.0, 0.0, *_prod(re, im, re, im))


def _sqrt(re, im):
    """cmath.sqrt on finite parts, operation by operation.

    Below DBL_MIN the parts are scaled by 2**53 and the root by 2**-27
    (exact, like CPython's ldexp) so that hypot stays normal.  Non-finite
    parts give a non-finite root where cmath returns its special values.
    """
    ax, ay = np.abs(re), np.abs(im)
    tiny = (ax < sys.float_info.min) & (ay < sys.float_info.min)
    ax_up = ax * 2.0**53
    s = np.where(tiny, np.sqrt(ax_up + np.hypot(ax_up, ay * 2.0**53)) * 2.0**-27,
                 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0)))
    d = ay / (2.0 * s)
    zero = (re == 0) & (im == 0)
    upper = re >= 0
    return (np.where(zero, 0.0, np.where(upper, s, d)),
            np.where(zero, im, np.copysign(np.where(upper, d, s), im)))


def _clark_margin_lanes(alpha_re, alpha_im, beta_re, beta_im, branch):
    """clark_margin_at for many parameter pairs at once: (margin, ok).

    The arguments are float64 arrays of the parts of alpha and beta, one
    lane per pair; ints promote to (x, 0.0), as in CPython.  margin[i]
    has the bits of clark_margin_at(Parameters(alpha[i], beta[i]),
    branch) wherever ok[i], and ok is False exactly where that call
    raises GuardTripped (an equilibrium at the pole or not finite, or an
    overflow) or returns a non-finite value.
    """
    a_re, a_im, b_re, b_im = alpha_re, alpha_im, beta_re, beta_im
    alpha_zero = (a_re == 0) & (a_im == 0)
    beta_zero = (b_re == 0) & (b_im == 0)
    with np.errstate(all="ignore"):
        # equilibria: D = (1 + alpha)**2 + 2*(alpha - 1)*beta + beta**2
        s1_re, s1_im = _square(1.0 + a_re, 0.0 + a_im)
        t_re, t_im = _prod(*_prod(2.0, 0.0, a_re - 1.0, a_im - 0.0), b_re, b_im)
        s2_re, s2_im = _square(b_re, b_im)
        # a non-finite D makes zbar, 1 + zbar and A non-finite, as in the
        # scalar path, so cmath's special values need no copy
        root_re, root_im = _sqrt((s1_re + t_re) + s2_re, (s1_im + t_im) + s2_im)
        # zbar = 0.5*(-1 + alpha + beta -/+ sqrt(D)); for alpha = 0, 0j or beta - 1
        pick = np.subtract if branch == BRANCH_MINUS else np.add
        z_re, z_im = _prod(0.5, 0.0, pick((-1.0 + a_re) + b_re, root_re),
                           pick((0.0 + a_im) + b_im, root_im))
        if branch == BRANCH_MINUS:
            z_re, z_im = np.where(alpha_zero, 0.0, z_re), np.where(alpha_zero, 0.0, z_im)
        else:
            z_re = np.where(alpha_zero, b_re - 1.0, z_re)
            z_im = np.where(alpha_zero, b_im - 0.0, z_im)
        # complex ** raises OverflowError on an infinite part, and a
        # non-finite zbar (D can be nan without one) raises as well
        equilibria_escape = (~alpha_zero & (np.isinf(s1_re) | np.isinf(s1_im)
                                            | np.isinf(s2_re) | np.isinf(s2_im))
                             | ~(np.isfinite(z_re) & np.isfinite(z_im)))

        # linearization: A = beta*zbar/(1 + zbar)**2, C = -beta/(1 + zbar)
        d_re, d_im = 1.0 + z_re, 0.0 + z_im
        modulus = np.hypot(d_re, d_im)
        A_re, A_im = _quot(*_prod(b_re, b_im, z_re, z_im), *_prod(d_re, d_im, d_re, d_im))
        C_re, C_im = _quot(-b_re, -b_im, d_re, d_im)
        margin = np.hypot(A_re, A_im) + np.hypot(C_re, C_im)
    # abs(1 + zbar) raises OverflowError where finite parts have an infinite modulus
    modulus_overflows = np.isfinite(d_re) & np.isfinite(d_im) & np.isinf(modulus)
    linearized = (~modulus_overflows & ~(modulus < IterationSettings.singular_tol)
                  & np.isfinite(margin))
    # beta = 0 returns 0.0 before the pole and modulus checks
    ok = ~equilibria_escape & (beta_zero | linearized)
    return np.where(beta_zero, 0.0, margin), ok


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
    done = np.logical_or.reduce(list(masks.values()))
    if done.any():
        for verdict, mask in masks.items():
            verdicts[lanes["id"][mask]] = verdict
        _keep(lanes, ~done)


def _walk(lanes: dict, start: int, steps: int) -> None:
    """Step every lane `steps` times from the ring's rows start - 1 and
    start, writing each new point once into the ring's next row."""
    re, im, ba_re, ba_im = (lanes[key] for key in ("re", "im", "ba_re", "ba_im"))
    for r in range(start, start + steps):  # rows r - 1 and r hold (z[m-1], z[m])
        re[r + 1], im[r + 1] = _lane_step(ba_re, ba_im, re[r - 1:r + 1], im[r - 1:r + 1])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The C-contiguous complex array with parts re and im."""
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
    |q| <= (1 + max|d_prev|) / min|d|.  Only the last step renormalises
    while the product of these bounds, each taken as at least 1, stays
    within _GROWTH_LIMIT (math.prod: left to right, and inf, not a warning,
    where it overflows); otherwise every step does, as in lyapunov_max.
    Lanes with beta = 0 stay out of min|beta|: their tangent is 0 after two
    steps at any scale.  A nan or infinite bound renormalises every step.
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
    within = math.prod(np.maximum(bounds, 1.0).tolist()) <= _GROWTH_LIMIT
    return set(range(bounds.size - 1 if within else 0, bounds.size))


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
    beta = _complex(lanes["ba_re"][0], lanes["ba_im"][0])
    after = _renormalise_after(beta, z_re, z_im)
    d = np.empty(z_re[1:].shape, dtype=complex)  # 1 + z[j], as numpy's complex sum rounds it
    np.add(1.0, z_re[1:], out=d.real)
    np.add(0.0, z_im[1:], out=d.imag)
    s = beta / d  # numpy buffers the broadcast beta: before q, for the peak memory
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


def _cycle_step(lanes: dict, m: int, cut: int, periods: int, tol: float, row: int) -> None:
    """detect_cycle's test, _locked, at point m of the tail points[cut:], over every lane.

    The block ring holds point k in row k + row, back to point m - periods
    or to the cut if later, and a (period, lane) pair stays in
    lanes["pairs"] while every pair of tail points that far apart has
    held.  Once every period has been tried and no pair is left, it ends.
    """
    re, im, pairs = lanes["re"], lanes["im"], lanes["pairs"]
    period, lane = pairs["period"], pairs["pos"]
    if 1 <= m - cut <= periods:  # period m - cut meets its first pair
        period = np.concatenate((period, np.full(re.shape[1], m - cut)))
        lane = np.concatenate((lane, np.arange(re.shape[1])))
    at = (m + row) * re.shape[1] + lane  # flat: take gathers faster than [rows, lane]
    z, past = (_complex(re.take(k), im.take(k)) for k in (at, at - period * re.shape[1]))
    held = _locked(z, past, tol)
    pairs["period"], pairs["pos"] = period[held], lane[held]
    if m - cut >= periods and not pairs["pos"].size:
        del lanes["pairs"]


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
    such period among the points the block ring holds up to point m, in
    its rows up to m + row; after the cut, once every period has been
    tried, P must also be a period whose pair the lane still holds.  The
    lane converges when classify_orbit's window lies at or after s and
    settles, rebuilt from the cycle with one index expression.  Otherwise
    it is periodic when detect_cycle's test passes with distance 0 for the
    rest of the tail, that is when P is a period the test tries.  Any
    other lane stays.
    """
    re, im = lanes["re"][:m + 1 + row], lanes["im"][:m + 1 + row]
    if m < cut:  # the cycle starts within the cut
        held, pos = None, np.arange(lanes["id"].size)
    elif "pairs" in lanes and m - cut >= periods:  # so re holds periods + 1 rows or more
        pos, lane = np.unique(lanes["pairs"]["pos"], return_inverse=True)
        re, im = re[:, pos], im[:, pos]  # the lanes that hold a pair
        held = np.zeros(re.shape, dtype=bool)
        held[lanes["pairs"]["period"], lane] = True
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
    writes the new point into a ring that holds the block and, before
    it, the points a later test reads: the last two, the window's from
    its first to classify_orbit's last, the cycle test's last max_period
    from the cut on.  A decided lane leaves the working arrays at once.
    At each block end, the lanes that tripped a guard within the block
    leave; the tangent estimate and, from the cut on, detect_cycle's test
    (_transient_cut, _locked) run along the block's points; and at a
    multiple of _CHECK the lanes whose state repeats bit for bit leave
    with the verdict the repeat fixes (_retire).  Where classify_orbit's
    orbit ends, the settled windows and the locked cycles leave.
    """
    values = [np.ravel(v) for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (alpha, beta, z_minus1, z_0)))]
    count = values[0].size
    # the working arrays are copies, lane axis last: the parts of (beta,
    # alpha) in rows, as _lane_step takes them, and the block ring of
    # points, whose row i is point i - row
    lanes = {"ba_re": np.stack((values[1].real, values[0].real)),
             "ba_im": np.stack((values[1].imag, values[0].imag)),
             "re": np.zeros((_CHECK + 2, count)), "im": np.zeros((_CHECK + 2, count)),
             "id": np.arange(count),
             "w1": np.ones(count, dtype=complex),  # tangent along (z[n], z[n-1])
             "w2": np.zeros(count, dtype=complex), "log_sum": np.zeros(count)}
    lanes["re"][:2] = values[2].real, values[3].real
    lanes["im"][:2] = values[2].imag, values[3].imag
    verdicts = np.empty(count, dtype=object)
    verdicts[:] = VERDICT_UNDETERMINED  # one str object for every lane
    n = settings.max_steps + 2  # points of a completed orbit, seed included
    cut, periods = _transient_cut(n, analysis.max_period)  # detect_cycle tries 1..periods
    lt, ls = analysis.lyapunov_transient, analysis.lyapunov_sample
    last = max(n - 1, lt + ls + 1)  # lyapunov_max's reference orbit holds points[:lt + ls + 2]
    window = range(n)[-analysis.window:] if n >= analysis.window else None
    tol, esc = settings.singular_tol, settings.escape_radius

    with np.errstate(all="ignore"):
        outside = [~(_modulus(z) <= esc) for z in values[2:]]
        _decide(lanes, verdicts, {VERDICT_UNBOUNDED: outside[0] | outside[1]})
        m0, first, row = 1, 0, 0  # the block steps on from point m0; its end reads from point first
        for m1 in sorted({*range(_CHECK, last + 1, _CHECK), cut, n - 1, last}):
            if not lanes["id"].size:
                return verdicts.tolist()
            if m1 + row >= lanes["re"].shape[0]:  # once: no later carry keeps more rows
                for key in ("re", "im"):  # np.resize would keep a larger buffer behind a view
                    grown = np.empty((max(periods + _CHECK + 2, len(window or ())),
                                      lanes["id"].size))
                    grown[:m0 + row + 1] = lanes[key][:m0 + row + 1]
                    lanes[key] = grown
            _walk(lanes, m0 + row, m1 - m0)
            rows = slice(m0 + row, m1 + row + 1)
            singular, escaped = _guard_block(lanes["re"][rows], lanes["im"][rows], tol, esc)
            if singular is not None:
                _decide(lanes, verdicts, {VERDICT_SINGULAR: singular, VERDICT_UNBOUNDED: escaped})
            lo, hi = max(first, lt + 1, 1), min(m1, lt + ls)
            if lo <= hi:  # the tangent steps lo..hi read points lo - 1..hi
                _tangent_block(lanes, lanes["re"][lo - 1 + row:hi + 1 + row],
                               lanes["im"][lo - 1 + row:hi + 1 + row])
            if m1 == cut and periods >= 1:  # the cycle test starts at the cut
                lanes["pairs"] = dict.fromkeys(("pos", "period"), np.empty(0, dtype=np.intp))
            for j in range(max(first, cut), m1 + 1):
                if "pairs" not in lanes:
                    break
                _cycle_step(lanes, j, cut, periods, analysis.cycle_tol, row)
            if m1 % _CHECK == 0 and m1 < n - 1:
                _retire(lanes, verdicts, m1, cut, periods, window, analysis, row)
            if m1 == n - 1:  # the orbit classify_orbit iterates is complete
                settled, periodic = np.zeros((2, lanes["id"].size), dtype=bool)
                if window is not None:
                    rows = slice(window.start + row, n + row)
                    _, settled = _settled(_complex(lanes["re"][rows].T, lanes["im"][rows].T),
                                          analysis.convergence_tol)
                if "pairs" in lanes:
                    periodic[lanes.pop("pairs")["pos"]] = True
                _decide(lanes, verdicts, {VERDICT_CONVERGES: settled,
                                          VERDICT_PERIODIC: periodic & ~settled})
                if (lt < 0 or ls < 1) and lanes["id"].size:
                    raise ValueError("need n_transient >= 0 and n_sample >= 1")
            # keep from the earliest point a later test reads: the walk's last
            # two, the window's first to the orbit's end, the cycle test's periods
            keep = min(m1 - 1, window.start if window and m1 < n - 1 else m1,
                       max(cut, m1 + 1 - periods) if "pairs" in lanes else m1)
            for key in ("re", "im"):
                lanes[key][:m1 - keep + 1] = lanes[key][keep + row:m1 + row + 1]
            m0, first, row = m1, m1 + 1, -keep

        # a tangent that collapsed (growth 0, as beta = 0 gives) left log_sum
        # at -inf, or at nan from the next renormalisation on: never above
        # the threshold
        lam = lanes["log_sum"] / ls
        _decide(lanes, verdicts, {VERDICT_CHAOTIC: lam > analysis.chaos_threshold})
    return verdicts.tolist()
