"""Core map: one step, guarded iteration, and the tangent (Jacobian) map.

The map under study is the second-order recurrence

    z[n+1] = (alpha + alpha*z[n] + beta*z[n-1]) / (1 + z[n])

with complex parameters and complex initial conditions.  Everything in
this module is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# classify_orbit's verdicts, here so that serialize names them without loading
# analysis and numpy; analysis lists them in its __all__, and invariants lists
# VERDICT_UNBOUNDED, which its trichotomy shares
VERDICT_CONVERGES = "converges"
VERDICT_PERIODIC = "periodic"
VERDICT_UNBOUNDED = "unbounded"
VERDICT_CHAOTIC = "chaotic"
VERDICT_SINGULAR = "singular"
VERDICT_UNDETERMINED = "undetermined"


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
        if not (all(map(math.isfinite, bounds)) and self.re_min <= self.re_max
                and self.im_min <= self.im_max):
            raise ValueError("rectangle bounds must be finite and ordered")
        if not (math.isfinite(self.re_span) and math.isfinite(self.im_span)):
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
    singular_tol: float = IterationSettings.singular_tol,
) -> complex:
    """Advance one step: (z[n-1], z[n]) -> z[n+1].

    Raises GuardTripped: STATUS_SINGULAR when |1 + z_curr| < singular_tol,
    STATUS_ESCAPED when that modulus overflows a double.
    """
    denom = _denominator(z_curr, singular_tol)
    return (params.alpha + params.alpha * z_curr + params.beta * z_prev) / denom


def _overflow(what: str, params: Parameters) -> GuardTripped:
    return GuardTripped(STATUS_ESCAPED, f"{what} overflows a double at "
                                        f"alpha = {params.alpha!r}, beta = {params.beta!r}")


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
            # step() inlined: calling it here took 1e5 steps from 37 ms to 45-48 ms
            # (best of 15 runs, Python 3.11.7 on a 2-core Xeon)
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


def tangent(
    params: Parameters,
    z_prev: complex,
    z_curr: complex,
    singular_tol: float = IterationSettings.singular_tol,
) -> tuple[complex, complex]:
    """Top row (a11, a12) of the Jacobian of the state map at (z_prev, z_curr).

    The state map (z[n], z[n-1]) -> (z[n+1], z[n]) is in companion form,
    so its bottom row is the constant (1, 0).  a11 = d z[n+1] / d z[n] =
    -beta*z_prev/(1+z_curr)^2 and a12 = d z[n+1] / d z[n-1] =
    beta/(1+z_curr); the map is holomorphic away from the pole, so these
    are the complex derivatives.  Raises GuardTripped as step() does.
    """
    return _jacobian(params.beta, z_prev, _denominator(z_curr, singular_tol))


def _jacobian(beta: complex, z_prev: complex, denom: complex) -> tuple[complex, complex]:
    """tangent's (a11, a12) for denom = 1 + z_curr, unguarded."""
    return -beta * z_prev / (denom * denom), beta / denom
