"""Core map: one step, guarded iteration, and the tangent (Jacobian) map.

The map under study is the second-order recurrence

    z[n+1] = (alpha + alpha*z[n] + beta*z[n-1]) / (1 + z[n])

with complex parameters and complex initial conditions.  Everything in
this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GuardTripped",
    "Parameters",
    "OrbitSeed",
    "IterationSettings",
    "Orbit",
    "STATUS_COMPLETED",
    "STATUS_ESCAPED",
    "STATUS_SINGULAR",
    "step",
    "iterate",
    "tangent",
]

STATUS_COMPLETED = "completed"
STATUS_ESCAPED = "escaped"
STATUS_SINGULAR = "singular"


class GuardTripped(ArithmeticError):
    """A guard stopped the computation.

    status is STATUS_SINGULAR (the denominator 1 + z[n] is within
    tolerance of zero, the map pole) or STATUS_ESCAPED (an iterate left
    the escape radius or stopped being finite, or an equilibrium's
    arithmetic overflowed a double).  step is the index into the orbit's
    points of the value that tripped the guard, and value is that value
    (at the pole, the z whose 1 + z vanished); each is None where the
    guard has no orbit step or no single value.
    """

    def __init__(self, status: str, message: str, step: int | None = None,
                 value: complex | None = None):
        super().__init__(message)
        self.status = status
        self.step = step
        self.value = value


def _denominator(z_curr: complex, singular_tol: float) -> complex:
    """1 + z_curr, or GuardTripped at the pole or where its modulus overflows."""
    denom = 1 + z_curr
    try:
        modulus = abs(denom)
    except OverflowError:  # finite parts, modulus above the largest double
        raise GuardTripped(STATUS_ESCAPED, f"|1 + z| overflows a double at z = {z_curr!r}",
                           value=z_curr) from None
    if modulus < singular_tol:
        raise GuardTripped(STATUS_SINGULAR, f"map pole: |1 + z| = {modulus:.3e} at z = {z_curr!r}",
                           value=z_curr)
    return denom


def _require_finite(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")


@dataclass(frozen=True)
class Parameters:
    """The complex parameter pair driving the map."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _require_finite("alpha", self.alpha)
        _require_finite("beta", self.beta)


@dataclass(frozen=True)
class OrbitSeed:
    """Initial conditions (z[-1], z[0]).

    External tables that list initial values as "z0, z1" are ingested as
    (z_minus1, z_0), so the first computed iterate lines up with those
    tables' z1 column.
    """

    z_minus1: complex
    z_0: complex

    def __post_init__(self):
        object.__setattr__(self, "z_minus1", complex(self.z_minus1))
        object.__setattr__(self, "z_0", complex(self.z_0))
        _require_finite("z_minus1", self.z_minus1)
        _require_finite("z_0", self.z_0)


@dataclass(frozen=True)
class IterationSettings:
    """Guards for iteration: step budget, escape radius, pole tolerance."""

    max_steps: int = 10_000
    escape_radius: float = 1e6
    singular_tol: float = 1e-12

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be a positive integer")
        if not self.escape_radius > 1:
            raise ValueError("escape_radius must be > 1")
        if not 0 < self.singular_tol < 1:
            raise ValueError("singular_tol must lie in (0, 1)")


@dataclass(frozen=True)
class Orbit:
    """A computed trajectory.

    points[0] is z[-1], points[1] is z[0], and points[k] for k >= 2 are
    the iterates.  status is one of the STATUS_* constants; stop_step is
    the index into points of the value that tripped the guard (None for
    a completed orbit).
    """

    seed: OrbitSeed
    points: tuple[complex, ...]
    status: str
    stop_step: int | None = None

    def guard_error(self, offset: int = 0, suffix: str = "") -> GuardTripped:
        """The GuardTripped of this stopped orbit, its step shifted by offset."""
        stop = offset + self.stop_step
        return GuardTripped(self.status, f"orbit {self.status} at step {stop}{suffix}", stop,
                            self.points[self.stop_step])


@dataclass(frozen=True)
class ComplexRect:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not (np.isfinite(bounds).all() and self.re_min <= self.re_max
                and self.im_min <= self.im_max):
            raise ValueError("rectangle bounds must be finite and ordered")
        if not np.isfinite((self.re_span, self.im_span)).all():
            raise ValueError("rectangle spans must be finite")

    @property
    def re_span(self) -> float:
        return self.re_max - self.re_min

    @property
    def im_span(self) -> float:
        return self.im_max - self.im_min

    def center(self, ix: int, iy: int, nx: int, ny: int) -> complex:
        return complex(
            self.re_min + (ix + 0.5) * self.re_span / nx,
            self.im_min + (iy + 0.5) * self.im_span / ny,
        )


def step(
    params: Parameters,
    z_prev: complex,
    z_curr: complex,
    singular_tol: float = 1e-12,
) -> complex:
    """Advance one step: (z[n-1], z[n]) -> z[n+1].

    Raises GuardTripped: STATUS_SINGULAR when |1 + z_curr| < singular_tol,
    STATUS_ESCAPED when that modulus overflows a double.
    """
    denom = _denominator(z_curr, singular_tol)
    return (params.alpha + params.alpha * z_curr + params.beta * z_prev) / denom


def _within(z: complex, radius: float) -> bool:
    """abs(z) <= radius, False where the modulus overflows a double."""
    try:
        return abs(z) <= radius
    except OverflowError:
        return False


def iterate(
    params: Parameters,
    seed: OrbitSeed,
    settings: IterationSettings = IterationSettings(),
) -> Orbit:
    """Iterate the map from seed, recording every value including the seed.

    Stops after settings.max_steps computed iterates (status completed),
    when an iterate leaves the escape radius or is not finite (status
    escaped; a modulus above the largest double counts as outside), or
    when the next step would divide by ~0 (status singular).
    """
    alpha, beta = params.alpha, params.beta
    esc, tol = settings.escape_radius, settings.singular_tol
    points = [seed.z_minus1, seed.z_0]

    for k in (0, 1):
        if not _within(points[k], esc):
            return Orbit(seed, tuple(points), STATUS_ESCAPED, k)

    # abs() raises OverflowError where the parts are finite but the modulus
    # is above the largest double; only abs(z_next) can, because z_curr
    # already passed the escape test.  The try wraps the whole loop, so it
    # costs nothing per step.
    try:
        for _ in range(settings.max_steps):
            z_prev, z_curr = points[-2], points[-1]
            denom = 1 + z_curr
            if abs(denom) < tol:
                return Orbit(seed, tuple(points), STATUS_SINGULAR, len(points) - 1)
            z_next = (alpha + alpha * z_curr + beta * z_prev) / denom
            points.append(z_next)
            if not abs(z_next) <= esc:
                return Orbit(seed, tuple(points), STATUS_ESCAPED, len(points) - 1)
    except OverflowError:
        return Orbit(seed, tuple(points), STATUS_ESCAPED, len(points) - 1)

    return Orbit(seed, tuple(points), STATUS_COMPLETED)


def _prod(a_re, a_im, b_re, b_im):
    """CPython's _Py_c_prod on real and imaginary parts (floats or arrays)."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _quot(a_re, a_im, b_re, b_im):
    """CPython's _Py_c_quot (Smith's method) on parts, the branch picked per lane.

    A zero divisor gives nan or inf where CPython raises
    ZeroDivisionError; callers mask those lanes.  Call under
    np.errstate(all="ignore"): the branch not taken may divide by zero.
    """
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
    (x_re, x_im), the parts of z_next; _guard_block decides the guards
    for a block of such steps.

    The real formulas repeat CPython's complex product and quotient
    (_prod, _quot) operation by operation, so each lane gets the bits
    step() gives.  numpy's complex multiply, divide and abs round
    differently in a large share of cases, which chaotic orbits would
    amplify.  Call under np.errstate(all="ignore").
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
    nan fails both) get their moduli computed.  Call under
    np.errstate(all="ignore").
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


def tangent(
    params: Parameters,
    z_prev: complex,
    z_curr: complex,
    singular_tol: float = 1e-12,
) -> tuple[complex, complex]:
    """Top row (a11, a12) of the Jacobian of the state map at (z_prev, z_curr).

    The state map (z[n], z[n-1]) -> (z[n+1], z[n]) is in companion form,
    so its bottom row is the constant (1, 0).  a11 = d z[n+1] / d z[n] =
    -beta*z_prev/(1+z_curr)^2 and a12 = d z[n+1] / d z[n-1] =
    beta/(1+z_curr); the map is holomorphic away from the pole, so these
    are the complex derivatives.  Raises GuardTripped as step() does.
    """
    denom = _denominator(z_curr, singular_tol)
    return -params.beta * z_prev / (denom * denom), params.beta / denom
