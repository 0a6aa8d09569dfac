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
    arithmetic overflowed a double).
    """

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


def _pole(z: complex) -> GuardTripped:
    return GuardTripped(STATUS_SINGULAR,
                        f"map pole: |1 + z| = {abs(1 + z):.3e} at z = {z!r}")


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

    def __len__(self) -> int:
        return len(self.points)


def step(
    params: Parameters,
    z_prev: complex,
    z_curr: complex,
    singular_tol: float = 1e-12,
) -> complex:
    """Advance one step: (z[n-1], z[n]) -> z[n+1].

    Raises GuardTripped (STATUS_SINGULAR) when |1 + z_curr| < singular_tol.
    """
    denom = 1 + z_curr
    if abs(denom) < singular_tol:
        raise _pole(z_curr)
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
    denom = major + minor * ratio
    return (np.where(real_major, a_re + a_im * ratio, a_re * ratio + a_im) / denom,
            np.where(real_major, a_im - a_re * ratio, a_im * ratio - a_re) / denom)


def _lane_step(alpha, beta, z_prev, z_curr, singular_tol, escape_radius):
    """One guarded step of many orbits at once, each lane one orbit.

    The arguments are complex128 arrays (or complex scalars) that
    broadcast against each other; the arithmetic runs on their float64
    real and imaginary parts.  Returns (z_next, singular, escaped):
    singular marks lanes whose |1 + z_curr| is below singular_tol (their
    z_next is meaningless), escaped marks the other lanes whose z_next
    left the escape radius or is not finite, exactly as iterate() decides.

    The real formulas repeat CPython's complex product and quotient
    (_prod, _quot) operation by operation, so each lane gets the bits
    step() gives.  numpy's complex multiply, divide and abs round
    differently in a large share of cases, which chaotic orbits would
    amplify.  Call under np.errstate(all="ignore").
    """
    a_re, a_im, b_re, b_im = alpha.real, alpha.imag, beta.real, beta.imag
    p_re, p_im, c_re, c_im = z_prev.real, z_prev.imag, z_curr.real, z_curr.imag
    # alpha + alpha*z_curr + beta*z_prev, summed left to right
    ac_re, ac_im = _prod(a_re, a_im, c_re, c_im)
    bp_re, bp_im = _prod(b_re, b_im, p_re, p_im)
    # 1 + z_curr promotes 1 to 1+0j, so -0.0 imaginary parts become +0.0
    d_re = 1.0 + c_re
    d_im = 0.0 + c_im
    x_re, x_im = _quot((a_re + ac_re) + bp_re, (a_im + ac_im) + bp_im, d_re, d_im)
    singular = np.hypot(d_re, d_im) < singular_tol
    escaped = ~(np.hypot(x_re, x_im) <= escape_radius) & ~singular
    z_next = np.empty(x_re.shape, dtype=complex)
    z_next.real, z_next.imag = x_re, x_im
    return z_next, singular, escaped


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
    are the complex derivatives.
    """
    denom = 1 + z_curr
    if abs(denom) < singular_tol:
        raise _pole(z_curr)
    return -params.beta * z_prev / (denom * denom), params.beta / denom
