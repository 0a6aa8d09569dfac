"""Equilibria, linearization coefficients, and local stability verdicts.

An equilibrium solves zbar*(1+zbar) = alpha + alpha*zbar + beta*zbar,
i.e. the quadratic zbar^2 + (1 - alpha - beta)*zbar - alpha = 0.  The
linearized recurrence about zbar is written

    z[n+1] + A*z[n] + C*z[n-1] = 0

and the Clark margin |A| + |C| < 1 is a sufficient condition for local
asymptotic stability.  A spectral verdict from the characteristic roots
of lambda^2 + A*lambda + C = 0 supplements it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (STATUS_SINGULAR, GuardTripped, IterationSettings, Parameters, _jacobian,
                   _overflow, step)

__all__ = [
    "BRANCH_MINUS",
    "BRANCH_PLUS",
    "BRANCH_ZERO",
    "BRANCH_SUM_MINUS_ONE",
    "SPECTRAL_STABLE",
    "SPECTRAL_UNSTABLE",
    "SPECTRAL_MARGINAL",
    "Equilibrium",
    "CharCoeffs",
    "StabilityVerdict",
    "equilibria",
    "equilibrium_residual",
    "linearization",
    "clark_margin_at",
    "characteristic_roots",
    "classify",
]

# quadratic-formula branches for alpha != 0
BRANCH_MINUS = "minus"
BRANCH_PLUS = "plus"
# degenerate alpha = 0 pair {0, alpha+beta-1}
BRANCH_ZERO = "zero"
BRANCH_SUM_MINUS_ONE = "alpha+beta-1"

SPECTRAL_STABLE = "stable"
SPECTRAL_UNSTABLE = "unstable"
SPECTRAL_MARGINAL = "marginal"

_SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class Equilibrium:
    z_bar: complex
    branch: str
    coincident: bool = False  # set on both entries when the discriminant vanishes


@dataclass(frozen=True)
class CharCoeffs:
    """Coefficients of z[n+1] + A*z[n] + C*z[n-1] = 0 and their Clark margin."""

    A: complex
    C: complex
    clark_margin: float

    @classmethod
    def of(cls, A: complex, C: complex) -> "CharCoeffs":
        return cls(A=A, C=C, clark_margin=abs(A) + abs(C))


@dataclass(frozen=True)
class StabilityVerdict:
    clark_holds: bool
    spectral: str
    roots: tuple[complex, complex]


def equilibria(params: Parameters) -> list[Equilibrium]:
    """Both fixed points of the map.

    For alpha != 0 these are the two quadratic-formula branches
    (-1 + alpha + beta -/+ sqrt(D))/2 with the principal square root of
    D = (1+alpha)^2 + 2*(alpha-1)*beta + beta^2.  For alpha = 0 the pair
    degenerates to {0, alpha+beta-1}, returned under its own branch tags.
    Coincident roots (D = 0) are returned twice, flagged.  A square in D
    that overflows a double, or an equilibrium that is not finite (D can
    be nan where complex ** reports no overflow), raises GuardTripped
    (STATUS_ESCAPED).
    """
    alpha, beta = params.alpha, params.beta
    if alpha == 0:
        return [
            Equilibrium(0j, BRANCH_ZERO),
            Equilibrium(beta - 1, BRANCH_SUM_MINUS_ONE),
        ]
    try:
        disc = (1 + alpha) ** 2 + 2 * (alpha - 1) * beta + beta**2
    except OverflowError:  # complex ** raises on an infinite part
        raise _overflow("the equilibrium discriminant", params) from None
    root = cmath.sqrt(disc)
    base = -1 + alpha + beta
    z_minus, z_plus = 0.5 * (base - root), 0.5 * (base + root)
    if not (cmath.isfinite(z_minus) and cmath.isfinite(z_plus)):
        raise _overflow("the equilibrium discriminant", params)
    coincident = disc == 0
    return [
        Equilibrium(z_minus, BRANCH_MINUS, coincident),
        Equilibrium(z_plus, BRANCH_PLUS, coincident),
    ]


def equilibrium_residual(params: Parameters, z_bar: complex) -> float:
    """|f(zbar, zbar) - zbar| for the map f; zero at a true fixed point.

    Raises GuardTripped at the pole, or where a modulus overflows a double.
    """
    try:
        return abs(step(params, z_bar, z_bar) - z_bar)
    except OverflowError:
        raise _overflow("the equilibrium residual", params) from None


def linearization(params: Parameters, eq: Equilibrium) -> CharCoeffs:
    """Characteristic coefficients A = beta*zbar/(1+zbar)^2, C = -beta/(1+zbar).

    For beta = 0 the map is constant and the linearization vanishes
    identically, even when the spurious quadratic root zbar = -1 sits at
    the pole; that limit is returned directly.  Otherwise an equilibrium
    at the pole (|1 + zbar| below IterationSettings.singular_tol) raises
    GuardTripped (STATUS_SINGULAR), and a modulus above the largest
    double raises GuardTripped (STATUS_ESCAPED).
    """
    beta = params.beta
    if beta == 0:
        return CharCoeffs.of(0j, 0j)
    z = eq.z_bar
    denom = 1 + z
    try:  # abs() raises where finite parts have a modulus above the largest double
        if abs(denom) < IterationSettings.singular_tol:
            raise GuardTripped(STATUS_SINGULAR, f"equilibrium at the map pole: z = {z!r}", value=z)
        return CharCoeffs.of(*_jacobian(-beta, z, denom))  # (A, C) = -(a11, a12) at zbar
    except OverflowError:
        raise _overflow("the linearization", params) from None


def clark_margin_at(params: Parameters, branch: str) -> float:
    """|A| + |C| at the selected equilibrium branch.

    branch is BRANCH_MINUS or BRANCH_PLUS; in the alpha = 0 case these
    resolve to the zero equilibrium and to alpha+beta-1 respectively.
    Raises GuardTripped where equilibria() or linearization() does.
    """
    if branch not in (BRANCH_MINUS, BRANCH_PLUS):
        raise ValueError(f"branch must be {BRANCH_MINUS!r} or {BRANCH_PLUS!r}")
    eqs = equilibria(params)
    eq = eqs[0] if branch == BRANCH_MINUS else eqs[1]
    return linearization(params, eq).clark_margin


def characteristic_roots(coeffs: CharCoeffs) -> tuple[complex, complex]:
    """Roots of lambda^2 + A*lambda + C = 0, larger magnitude first.

    The larger root is computed with the cancellation-free sign choice, from
    A / 2**e and C / 4**e with 2**e about max(|A|, sqrt|C|), whose squares
    neither overflow nor underflow; its companion comes from lambda1*lambda2 = C.
    """
    A, C = coeffs.A, coeffs.C
    if A == 0 and C == 0:
        return (0j, 0j)
    if C == 0:  # the roots are -A and 0
        big = -A
    else:
        e = math.frexp(max(abs(A), math.sqrt(abs(C))))[1]
        a, c = _ldexp(A, -e), _ldexp(C, -2 * e)
        s = cmath.sqrt(a * a - 4 * c)  # then the sign that avoids cancellation in -a -/+ s
        big = _ldexp(0.5 * (-a + s) if abs(a - s) > abs(a + s) else 0.5 * (-a - s), e)
    small = C / big
    if abs(small) > abs(big):
        big, small = small, big
    return (big, small)


def _ldexp(z: complex, e: int) -> complex:  # z * 2**e, part by part
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def classify(params: Parameters, eq: Equilibrium) -> StabilityVerdict:
    """Clark check plus spectral classification of an equilibrium.

    clark_holds means |A| + |C| < 1 (sufficient for stability).  The
    spectral verdict compares max |lambda| against 1 with tolerance 1e-9.
    """
    coeffs = linearization(params, eq)
    roots = characteristic_roots(coeffs)
    max_mod = max(abs(roots[0]), abs(roots[1]))
    if abs(max_mod - 1) <= _SPECTRAL_TOL:
        spectral = SPECTRAL_MARGINAL
    elif max_mod < 1:
        spectral = SPECTRAL_STABLE
    else:
        spectral = SPECTRAL_UNSTABLE
    return StabilityVerdict(
        clark_holds=coeffs.clark_margin < 1,
        spectral=spectral,
        roots=roots,
    )
