"""Boundedness certificates, the period-two family, and orbit identities.

Three groups of results live here:

* an invariant-ball certificate: orbits started inside B(0, eps) stay
  there whenever |alpha| + |beta| <= 1 - eps - |alpha|/eps;
* the period-two theory for beta = alpha + 1, built on the quantity
  J[n] = alpha + alpha*(z[n] + z[n-1]) - z[n]*z[n-1], which vanishes
  exactly on period-two solutions and obeys exact recurrences along
  orbits;
* the modulus trichotomy heuristic comparing |beta| against |alpha + 1|.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import Orbit, Parameters, STATUS_SINGULAR, _within

__all__ = [
    "VERDICT_FINITE_LIMIT",
    "VERDICT_PERIOD_TWO",
    "VERDICT_UNBOUNDED",
    "HypothesisError",
    "TrichotomyClass",
    "IdentityReport",
    "PeriodTwoPair",
    "PeriodTwoFamily",
    "BallCertificate",
    "EpsilonInterval",
    "trichotomy",
    "j_invariant",
    "check_identities",
    "period_two_pairs",
    "ball_certificate",
    "admissible_epsilon",
]

VERDICT_FINITE_LIMIT = "finite-limit"
VERDICT_PERIOD_TWO = "period-two"
VERDICT_UNBOUNDED = "unbounded"

_PERIOD_TWO_TOL = 1e-12  # |beta - (alpha+1)| threshold for the exact regime


class HypothesisError(ValueError):
    """An operation requiring beta = alpha + 1 was called outside that regime."""


@dataclass(frozen=True)
class TrichotomyClass:
    verdict: str
    lhs: float  # |beta|
    rhs: float  # |alpha + 1|


@dataclass(frozen=True)
class IdentityReport:
    """Maximum relative residuals of the four exact orbit identities.

    j_recurrence : J[n+1] = (alpha+1)/(1+z[n]) * J[n]
    gap_from_j   : z[n+1] - z[n-1] = J[n]/(1+z[n])
    gap_recursion: z[n+1] - z[n-1] = (alpha+1)/(1+z[n]) * (z[n] - z[n-2])
    gap_product  : z[n+1] - z[n-1] = (z[1]-z[-1]) * prod_{k=1..n} (alpha+1)/(1+z[k])
    """

    j_recurrence: float
    gap_from_j: float
    gap_recursion: float
    gap_product: float


@dataclass(frozen=True)
class PeriodTwoPair:
    phi: complex
    psi: complex


@dataclass(frozen=True)
class PeriodTwoFamily:
    """The one-parameter family of period-two pairs when beta = alpha + 1.

    Pairs are parameterized by their sum s: phi and psi are the roots of
    t^2 - s*t + (alpha + alpha*s) = 0, so that
    alpha + alpha*(phi+psi) - phi*psi = 0 holds by construction.
    """

    alpha: complex

    def pair_for_sum(self, s: complex) -> PeriodTwoPair:
        prod = self.alpha + self.alpha * s
        disc = cmath.sqrt(s * s - 4 * prod)
        return PeriodTwoPair(phi=0.5 * (s + disc), psi=0.5 * (s - disc))


@dataclass(frozen=True)
class BallCertificate:
    epsilon: float
    margin: float

    @property
    def valid(self) -> bool:
        return self.margin >= 0 and 0 < self.epsilon < 1


@dataclass(frozen=True)
class EpsilonInterval:
    lo: float
    hi: float


def trichotomy(params: Parameters, boundary_tol: float = 1e-9) -> TrichotomyClass:
    """Heuristic outcome prediction from |beta| versus |alpha + 1|.

    Within boundary_tol of equality the verdict is period-two; above it,
    unbounded; below, a finite limit.  This transplants the real-parameter
    trichotomy to moduli and is a predictor, not a theorem: bounded
    higher-period and chaotic orbits do occur strictly inside
    |beta| < |alpha + 1|.
    """
    if boundary_tol < 0:
        raise ValueError("boundary_tol must be >= 0")
    lhs = abs(params.beta)
    rhs = abs(params.alpha + 1)
    if abs(lhs - rhs) <= boundary_tol:
        verdict = VERDICT_PERIOD_TWO
    elif lhs > rhs + boundary_tol:
        verdict = VERDICT_UNBOUNDED
    else:
        verdict = VERDICT_FINITE_LIMIT
    return TrichotomyClass(verdict=verdict, lhs=lhs, rhs=rhs)


def _j(alpha: complex, z_prev: complex, z_curr: complex) -> complex:
    return alpha + alpha * (z_curr + z_prev) - z_curr * z_prev


def j_invariant(params: Parameters, z_prev: complex, z_curr: complex) -> complex:
    """alpha + alpha*(z_curr + z_prev) - z_curr*z_prev along an orbit.

    Zero exactly on period-two pairs; for beta = alpha + 1 it obeys
    J[n+1] = (alpha+1)/(1+z[n]) * J[n] along every orbit.
    """
    return _j(params.alpha, z_prev, z_curr)


def _rel(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / (1 + max(abs(lhs), abs(rhs)))


def check_identities(params: Parameters, orbit: Orbit) -> IdentityReport:
    """Maximum relative residuals of the exact identities over an orbit.

    Requires beta = alpha + 1 (HypothesisError otherwise) and a
    nonsingular orbit with at least one iterate.  The identities are
    algebraically exact in that regime, so residuals beyond rounding
    noise indicate a bug.
    """
    alpha, beta = params.alpha, params.beta
    if not _within(beta - (alpha + 1), _PERIOD_TWO_TOL):
        raise HypothesisError(
            f"identities require beta = alpha + 1; got beta - (alpha+1) = {beta - (alpha + 1)!r}"
        )
    if orbit.status == STATUS_SINGULAR:
        raise ValueError("identities are undefined across a singular orbit")
    if len(orbit.points) < 3:
        raise ValueError("identities need an orbit with at least one iterate")

    pts = orbit.points
    z = lambda n: pts[n + 1]  # z[-1] is pts[0]
    n_max = len(pts) - 2  # largest n with z[n+1] available is n_max - 1

    r8 = r9 = r10 = r11 = 0.0
    j_curr = _j(alpha, z(-1), z(0))
    prod = 1 + 0j
    gap0 = z(1) - z(-1)
    for n in range(n_max):
        denom = 1 + z(n)
        gap = z(n + 1) - z(n - 1)
        r9 = max(r9, _rel(gap, j_curr / denom))
        if n + 1 < n_max:
            j_next = _j(alpha, z(n), z(n + 1))
            r8 = max(r8, _rel(j_next, (alpha + 1) / denom * j_curr))
        else:
            j_next = None
        if n >= 1:
            r10 = max(r10, _rel(gap, (alpha + 1) / denom * (z(n) - z(n - 2))))
            prod *= (alpha + 1) / denom
            r11 = max(r11, _rel(gap, gap0 * prod))
        if j_next is not None:
            j_curr = j_next
    return IdentityReport(
        j_recurrence=r8, gap_from_j=r9, gap_recursion=r10, gap_product=r11
    )


def period_two_pairs(params: Parameters) -> PeriodTwoFamily | None:
    """The period-two solution family, or None when only equilibria exist.

    Prime period-two solutions exist only for beta = alpha + 1 (a direct
    subtraction of the two period-two equations forces beta - alpha = 1
    when phi != psi); in that regime the solutions form the
    one-dimensional family exposed by PeriodTwoFamily.
    """
    if not _within(params.beta - (params.alpha + 1), _PERIOD_TWO_TOL):
        return None
    return PeriodTwoFamily(alpha=params.alpha)


def ball_certificate(params: Parameters, epsilon: float) -> BallCertificate:
    """Invariance certificate for the closed ball of radius epsilon.

    margin = (1 - eps - |alpha|/eps) - (|alpha| + |beta|); a nonnegative
    margin certifies that orbits seeded inside the ball never leave it.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    bound = 1 - epsilon - abs(params.alpha) / epsilon
    return BallCertificate(
        epsilon=epsilon,
        margin=bound - (abs(params.alpha) + abs(params.beta)),
    )


def admissible_epsilon(params: Parameters) -> EpsilonInterval | None:
    """All epsilon in (0, 1) with a nonnegative certificate margin.

    These are the solutions of eps^2 - (1 - |a| - |b|)*eps + |a| <= 0
    intersected with (0, 1); None when the quadratic has no real roots
    or the root interval misses (0, 1).
    """
    a = abs(params.alpha)
    b = abs(params.beta)
    lin = 1 - a - b
    disc = lin * lin - 4 * a
    if disc < 0:
        return None
    root = math.sqrt(disc)
    # for alpha = 0 this degenerates cleanly to {0, 1 - |beta|}
    lo, hi = 0.5 * (lin - root), 0.5 * (lin + root)
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if hi <= 0 or lo > hi:
        return None
    return EpsilonInterval(lo=lo, hi=hi)
