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
import sys
from dataclasses import dataclass

import numpy as np

from .core import STATUS_ESCAPED, STATUS_SINGULAR, GuardTripped, Parameters, _prod, _quot, step

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
_SINGULAR_TOL = 1e-12


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


def linearization(
    params: Parameters,
    eq: Equilibrium,
    singular_tol: float = _SINGULAR_TOL,
) -> CharCoeffs:
    """Characteristic coefficients A = beta*zbar/(1+zbar)^2, C = -beta/(1+zbar).

    For beta = 0 the map is constant and the linearization vanishes
    identically, even when the spurious quadratic root zbar = -1 sits at
    the pole; that limit is returned directly.  Otherwise an equilibrium
    at the pole raises GuardTripped (STATUS_SINGULAR), and a modulus
    above the largest double raises GuardTripped (STATUS_ESCAPED).
    """
    beta = params.beta
    if beta == 0:
        return CharCoeffs.of(0j, 0j)
    z = eq.z_bar
    denom = 1 + z
    try:  # abs() raises where finite parts have a modulus above the largest double
        if abs(denom) < singular_tol:
            raise GuardTripped(STATUS_SINGULAR, f"equilibrium at the map pole: z = {z!r}", value=z)
        return CharCoeffs.of(beta * z / (denom * denom), -beta / denom)
    except OverflowError:
        raise _overflow("the linearization", params) from None


def _overflow(what: str, params: Parameters) -> GuardTripped:
    return GuardTripped(STATUS_ESCAPED, f"{what} overflows a double at "
                                        f"alpha = {params.alpha!r}, beta = {params.beta!r}")


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
    lane per pair.  The arithmetic repeats CPython's complex operations
    on the parts (ints promote to (x, 0.0), z**2, Smith's quotient,
    cmath.sqrt, abs as hypot), so margin[i] has the bits of
    clark_margin_at(Parameters(alpha[i], beta[i]), branch) wherever
    ok[i].  ok is False exactly where that call raises GuardTripped (an
    equilibrium at the pole or not finite, or an overflow) or returns a
    non-finite value.  numpy's complex multiply, divide, sqrt and abs round
    differently, so they are not used.
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
    linearized = ~modulus_overflows & ~(modulus < _SINGULAR_TOL) & np.isfinite(margin)
    # beta = 0 returns 0.0 before the pole and modulus checks
    ok = ~equilibria_escape & (beta_zero | linearized)
    return np.where(beta_zero, 0.0, margin), ok


def characteristic_roots(coeffs: CharCoeffs) -> tuple[complex, complex]:
    """Roots of lambda^2 + A*lambda + C = 0, larger magnitude first.

    The larger root is computed with the cancellation-free sign choice;
    its companion comes from the product lambda1*lambda2 = C.
    """
    A, C = coeffs.A, coeffs.C
    if A == 0 and C == 0:
        return (0j, 0j)
    s = cmath.sqrt(A * A - 4 * C)
    # pick the sign that avoids cancellation in -A -/+ s
    if abs(A - s) > abs(A + s):
        big = 0.5 * (-A + s)
    else:
        big = 0.5 * (-A - s)
    if big == 0:
        # reached when C == 0 and each part of A is 0 or +-5e-324: A*A
        # underflows, s == 0 and 0.5*(-A) rounds to 0; the roots are -A and 0
        return (-A, 0j)
    small = C / big
    if abs(small) > abs(big):
        big, small = small, big
    return (big, small)


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
