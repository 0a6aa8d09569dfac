import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdiff import (
    CharCoeffs,
    Equilibrium,
    GuardTripped,
    Parameters,
    characteristic_roots,
    clark_margin_at,
    classify,
    equilibria,
    equilibrium_residual,
    linearization,
    tangent,
)
from ratdiff.lanes import _clark_margin_lanes, _sqrt
from ratdiff.stability import BRANCH_MINUS, BRANCH_PLUS

import cases


def _random_params(rng, span=3.0):
    return Parameters(complex(*rng.uniform(-span, span, 2)),
                      complex(*rng.uniform(-span, span, 2)))


# --- equilibria ------------------------------------------------------------

def test_equilibria_alpha_zero():
    eqs = equilibria(Parameters(0, 3 + 1j))
    assert eqs[0].z_bar == 0 and eqs[0].branch == "zero"
    assert eqs[1].z_bar == 2 + 1j and eqs[1].branch == "alpha+beta-1"


def test_equilibria_golden_pair():
    # alpha = beta = 1+1i: (1+2i -/+ sqrt(1+8i))/2
    eqs = equilibria(Parameters(1 + 1j, 1 + 1j))
    root = cmath.sqrt(1 + 8j)
    assert eqs[0].z_bar == pytest.approx(0.5 * ((1 + 2j) - root))
    assert eqs[1].z_bar == pytest.approx(0.5 * ((1 + 2j) + root))


def test_equilibria_satisfy_fixed_point_equation():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = _random_params(rng)
        if p.alpha == 0:
            continue
        for eq in equilibria(p):
            z = eq.z_bar
            # quadratic form of the fixed-point equation
            assert abs(z * (1 + z) - (p.alpha + p.alpha * z + p.beta * z)) \
                <= 1e-9 * (1 + abs(z)) * (1 + abs(z))


def test_equilibria_residual_against_map():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = _random_params(rng)
        for eq in equilibria(p):
            if abs(1 + eq.z_bar) < 1e-6:
                continue  # spurious root at the pole (beta ~ 0 corner)
            assert equilibrium_residual(p, eq.z_bar) <= 1e-9 * (1 + abs(eq.z_bar))


def test_equilibria_branch_symmetry():
    # the two branches are exactly the +/- sqrt choices around the midpoint
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = _random_params(rng)
        if p.alpha == 0:
            continue
        lo, hi = equilibria(p)
        mid = 0.5 * (-1 + p.alpha + p.beta)
        assert lo.z_bar + hi.z_bar == pytest.approx(2 * mid)
        assert (lo.z_bar - mid) == pytest.approx(-(hi.z_bar - mid))


def test_equilibria_coincident_flag():
    # discriminant vanishes when beta = 1 - alpha + 2*sqrt(-alpha):
    # alpha = -1, beta = 4 gives the double root zbar = 1
    eqs = equilibria(Parameters(-1, 4))
    assert eqs[0].coincident and eqs[1].coincident
    assert eqs[0].z_bar == eqs[1].z_bar
    assert len(eqs) == 2


# --- linearization ----------------------------------------------------------

def test_linearization_golden_minus():
    p = Parameters(cases.GOLDEN_ALPHA, cases.GOLDEN_ALPHA)
    co = linearization(p, equilibria(p)[0])
    assert abs(co.A) == pytest.approx(cases.GOLDEN_MINUS_MODULI[0], abs=1e-4)
    assert abs(co.C) == pytest.approx(cases.GOLDEN_MINUS_MODULI[1], abs=1e-4)


def test_linearization_golden_plus():
    p = Parameters(cases.GOLDEN_ALPHA, cases.GOLDEN_ALPHA)
    co = linearization(p, equilibria(p)[1])
    assert abs(co.A) == pytest.approx(cases.GOLDEN_PLUS_MODULI[0], abs=1e-4)
    assert abs(co.C) == pytest.approx(cases.GOLDEN_PLUS_MODULI[1], abs=1e-4)


def test_linearization_beta_zero_vanishes():
    p = Parameters(0.7 + 0.1j, 0)
    for eq in equilibria(p):
        co = linearization(p, eq)
        assert co.A == 0 and co.C == 0 and co.clark_margin == 0


def test_linearization_matches_displayed_closed_forms():
    # closed forms written directly from the displayed linearizations:
    #   at the minus root: A = 2b(-1+a+b-s)/(1+a+b-s)^2, C = -(1+a+b+s)/2
    #   at the plus root:  A = 2b(-1+a+b+s)/(1+a+b+s)^2, C = -2b/(1+a+b+s)
    # with s = sqrt((1+a)^2 + 2(a-1)b + b^2)
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 1000:
        p = _random_params(rng)
        a, b = p.alpha, p.beta
        if a == 0 or b == 0:
            continue
        s = cmath.sqrt((1 + a) ** 2 + 2 * (a - 1) * b + b * b)
        denom_minus = 1 + a + b - s
        denom_plus = 1 + a + b + s
        if min(abs(denom_minus), abs(denom_plus)) < 1e-3:
            continue
        A1 = 2 * b * (-1 + a + b - s) / denom_minus**2
        C1 = -0.5 * (1 + a + b + s)
        A2 = 2 * b * (-1 + a + b + s) / denom_plus**2
        C2 = -2 * b / denom_plus
        lo, hi = equilibria(p)
        co1, co2 = linearization(p, lo), linearization(p, hi)
        for got, want in ((co1.A, A1), (co1.C, C1), (co2.A, A2), (co2.C, C2)):
            assert abs(got - want) <= 1e-8 * (1 + abs(want))
        checked += 1


def test_linearization_matches_equal_parameter_displays():
    # with alpha = beta the coefficients collapse to closed forms in
    # s = sqrt(1 + 4*alpha^2):
    #   minus branch: |A| = |(1 + s + alpha*(1 + 2*alpha + s)) / (2*alpha)|,
    #                 |C| = |1 + 2*alpha + s| / 2
    #   plus branch:  A = 2*alpha*(-1 + 2*alpha + s)/(1 + 2*alpha + s)^2,
    #                 |C| = |1 + 2*alpha - s| / 2
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 300:
        a = complex(*rng.uniform(-2, 2, 2))
        if abs(a) < 1e-3:
            continue
        s = cmath.sqrt(1 + 4 * a * a)
        if min(abs(1 + 2 * a - s), abs(1 + 2 * a + s)) < 1e-3:
            continue
        p = Parameters(a, a)
        lo, hi = equilibria(p)
        co_lo, co_hi = linearization(p, lo), linearization(p, hi)
        assert abs(co_lo.A) == pytest.approx(
            abs((1 + s + a * (1 + 2 * a + s)) / (2 * a)), rel=1e-9)
        assert abs(co_lo.C) == pytest.approx(abs(1 + 2 * a + s) / 2, rel=1e-9)
        assert co_hi.A == pytest.approx(
            2 * a * (-1 + 2 * a + s) / (1 + 2 * a + s) ** 2, rel=1e-9)
        assert abs(co_hi.C) == pytest.approx(abs(1 + 2 * a - s) / 2, rel=1e-9)
        checked += 1


_PART = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e300,
                                   -1e300, 1.5e308, -1.5e308]),
                  st.floats(-3, 3))
_VALUE = st.one_of(st.builds(complex, _PART, _PART), st.builds(complex, _PART))  # or real-only


def _hexes(*values):
    return [part.hex() for z in values for part in (z.real, z.imag)]


@settings(max_examples=500, deadline=None)
@given(alpha=_VALUE, beta=_VALUE, z_prev=_VALUE, z=_VALUE)
def test_tangent_and_linearization_share_the_jacobian_bit_for_bit(alpha, beta, z_prev, z):
    # (a11, a12) at (z_prev, z), and (A, C) = -(a11, a12) at the equilibrium z,
    # each as written out in full, signed zeros included
    p, d = Parameters(alpha, beta), 1 + z
    try:
        got = tangent(p, z_prev, z)
    except GuardTripped:
        pass
    else:
        assert _hexes(*got) == _hexes(-beta * z_prev / (d * d), beta / d)
    try:
        co = linearization(p, Equilibrium(z, BRANCH_MINUS))
    except GuardTripped:
        return
    want = (0j, 0j) if beta == 0 else (beta * z / (d * d), -beta / d)
    assert _hexes(co.A, co.C) == _hexes(*want)


# --- clark margin -----------------------------------------------------------

def test_margin_plus_reference_point():
    alpha, expected = cases.MARGIN_PLUS_MAX
    assert clark_margin_at(Parameters(alpha, cases.MARGIN_BETA), BRANCH_PLUS) \
        == pytest.approx(expected, abs=5e-3)


def test_margin_minus_reference_point():
    # the printed argument for this extremum carries a sign typo: the
    # value 1.28533 is attained at the sign-flipped alpha (the same point
    # as the plus-branch maximum), where it reproduces to 5 digits
    alpha, expected = cases.MARGIN_MINUS_MIN_ACTUAL
    assert clark_margin_at(Parameters(alpha, cases.MARGIN_BETA), BRANCH_MINUS) \
        == pytest.approx(expected, abs=5e-3)


def test_margin_minus_max_first_sign_reading():
    alpha = cases.MARGIN_MINUS_MAX_READINGS[0]
    value = clark_margin_at(Parameters(alpha, cases.MARGIN_MINUS_MAX_BETA),
                            BRANCH_MINUS)
    assert value == pytest.approx(cases.MARGIN_MINUS_MAX_VALUE, abs=5e-3)


def test_margin_plus_near_zero_minimum():
    # the plus-branch margin dips to ~3.2e-6 just off (alpha, beta) = (1, 0)
    alpha = 1 - 6.4974e-8
    beta = -3.02771e-6 - 3.02772e-6j
    value = clark_margin_at(Parameters(alpha, beta), BRANCH_PLUS)
    assert value == pytest.approx(3.211e-6, rel=5e-3)


def test_margin_equal_parameter_extremum():
    # the plus-branch margin peak in the alpha = beta family; the margin
    # is conjugation-invariant so both conjugate readings agree
    for a in (-0.535769 - 0.13703j, -0.535769 + 0.13703j):
        assert clark_margin_at(Parameters(a, a), BRANCH_PLUS) \
            == pytest.approx(1.15792, abs=5e-3)


def test_margin_beta_zero():
    p = Parameters(0.3 + 0.2j, 0)
    assert clark_margin_at(p, BRANCH_MINUS) == 0
    assert clark_margin_at(p, BRANCH_PLUS) == 0


def test_margin_alpha_zero_branches():
    # degenerate pair {0, beta-1}: at zbar = 0 the margin is plainly |beta|
    beta = 0.3 - 0.4j
    assert clark_margin_at(Parameters(0, beta), BRANCH_MINUS) \
        == pytest.approx(abs(beta))
    z = beta - 1
    expected = abs(beta * z / (1 + z) ** 2) + abs(beta / (1 + z))
    assert clark_margin_at(Parameters(0, beta), BRANCH_PLUS) \
        == pytest.approx(expected)


def test_margin_rejects_unknown_branch():
    with pytest.raises(ValueError):
        clark_margin_at(Parameters(1, 1), "middle")


def test_margin_overflow_raises_guard_tripped():
    # (1 + alpha)**2 and abs() raise OverflowError for large finite inputs
    huge = Parameters(1e200, 1)
    with pytest.raises(GuardTripped) as info:
        equilibria(huge)
    assert info.value.status == "escaped"
    for branch in (BRANCH_MINUS, BRANCH_PLUS):
        with pytest.raises(GuardTripped):
            clark_margin_at(huge, branch)
    # alpha = 0 skips the squares; |1 + zbar| itself overflows
    wide = Parameters(0, 1.5e308 + 1.5e308j)
    eq = equilibria(wide)[1]
    with pytest.raises(GuardTripped) as info:
        linearization(wide, eq)
    assert info.value.status == "escaped"
    with pytest.raises(GuardTripped):
        equilibrium_residual(wide, eq.z_bar)


def _scalar_margin(alpha, beta, branch):
    """clark_margin_at's value, or None where scan_margin skips the draw."""
    try:
        value = clark_margin_at(Parameters(alpha, beta), branch)
    except GuardTripped as exc:
        return exc.status
    return value if math.isfinite(value) else None


def test_margin_lanes_match_clark_margin_bit_for_bit():
    # the scan evaluates its global draws with the lane kernel; it must give
    # clark_margin_at's bits and skip exactly the draws the scalar call skips
    rng = np.random.default_rng(29)
    n = 2500
    parts = rng.choice((-1.0, 1.0), (n, 4)) * 10.0 ** rng.uniform(-160, 200, (n, 4))
    parts[:n // 3] = rng.uniform(-3, 3, (n // 3, 4))
    for col in range(4):
        parts[rng.random(n) < 0.05, col] = 0.0
        parts[rng.random(n) < 0.05, col] = -0.0
    parts[rng.random(n) < 0.05, 0:2] = 0.0  # alpha = 0
    parts[rng.random(n) < 0.05, 2:4] = 0.0  # beta = 0
    parts[:8] = [(0.5, 0.1, 1e-14, 0.0), (0.5, 0.1, 0.0, 1e-300),  # pole on the minus branch
                 (1e200, 0.0, 1.0, 0.0), (0.0, 0.0, 1.5e308, 1.5e308),  # overflow
                 (1e-200, 0.0, 1e200, 1e200), (-1.0, 0.0, 4.0, 0.0),  # nan margin, D = 0
                 (1e-170, 1e-170, 0.0, 1e-170), (3.0, 0.0, -0.0, 0.0)]  # D below DBL_MIN, beta = -0
    outcomes = set()
    for branch in (BRANCH_MINUS, BRANCH_PLUS):
        margin, ok = _clark_margin_lanes(*parts.T, branch)
        for i in range(n):
            expected = _scalar_margin(complex(*parts[i, :2]), complex(*parts[i, 2:]), branch)
            if isinstance(expected, float):
                assert ok[i]
                assert float(margin[i]).hex() == expected.hex()
                outcomes.add("finite")
            else:
                assert not ok[i]
                outcomes.add(expected)
    assert outcomes == {"finite", None, "singular", "escaped"}


def test_lane_sqrt_matches_cmath_bit_for_bit():
    # a discriminant below DBL_MIN only arises next to the pole, so the
    # margin test cannot see the scaled path; check the root itself
    rng = np.random.default_rng(31)
    n = 3000
    re, im = (rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300, 300, n) for _ in range(2))
    re[:500], im[:500] = (rng.choice((-1.0, 1.0), 500) * 10.0 ** rng.uniform(-323, -308, 500)
                          for _ in range(2))
    re[500:520], im[510:530] = 0.0, -0.0
    with np.errstate(all="ignore"):
        root_re, root_im = _sqrt(re, im)
    for i in range(n):
        expected = cmath.sqrt(complex(re[i], im[i]))
        assert (float(root_re[i]).hex(), float(root_im[i]).hex()) \
            == (expected.real.hex(), expected.imag.hex())


# --- characteristic roots ---------------------------------------------------

def test_roots_zero_coeffs():
    assert characteristic_roots(CharCoeffs.of(0, 0)) == (0, 0)


@pytest.mark.parametrize("A", [5e-324 + 0j, -5e-324 + 0j, 1e-200 + 0j, 1e-200 - 3e-190j,
                               1e200 + 1j])
def test_roots_of_a_subnormal_linear_coefficient(A):
    # A*A underflows (or overflows), so sqrt(A*A) is not +-A: the roots are -A and 0
    assert characteristic_roots(CharCoeffs.of(A, 0j)) == (-A, 0j)


def test_roots_of_a_linear_coefficient_whose_square_overflows():
    big, small = characteristic_roots(CharCoeffs.of(1e200 + 0j, 1 + 0j))
    assert cmath.isfinite(big) and cmath.isfinite(small)
    assert big == pytest.approx(-1e200, rel=1e-15) and small == pytest.approx(-1e-200, rel=1e-15)


def test_roots_pure_square():
    roots = characteristic_roots(CharCoeffs.of(0, -0.25))
    assert sorted(r.real for r in roots) == pytest.approx([-0.5, 0.5])
    assert all(r.imag == 0 for r in roots)


def test_roots_vieta():
    rng = np.random.default_rng(5)
    for _ in range(500):
        A, C = (complex(*rng.uniform(-10, 10, 2)) for _ in range(2))
        r1, r2 = characteristic_roots(CharCoeffs.of(A, C))
        assert abs(r1) >= abs(r2)
        assert abs(r1 * r2 - C) <= 1e-10 * (1 + abs(C))
        assert abs(r1 + r2 + A) <= 1e-10 * (1 + abs(A))


# --- classify ---------------------------------------------------------------

def test_classify_golden_verdicts():
    p = Parameters(cases.GOLDEN_ALPHA, cases.GOLDEN_ALPHA)
    lo, hi = equilibria(p)
    v_lo, v_hi = classify(p, lo), classify(p, hi)
    assert not v_lo.clark_holds and v_lo.spectral == "unstable"
    assert v_hi.clark_holds and v_hi.spectral == "stable"


def test_classify_beta_zero_stable():
    p = Parameters(-0.4 + 2j, 0)
    for eq in equilibria(p):
        v = classify(p, eq)
        assert v.clark_holds and v.spectral == "stable"
        assert v.roots == (0, 0)


def test_classify_marginal_case():
    # alpha = 0, beta = 1: at zbar = 0 the roots are +/-1 exactly
    p = Parameters(0, 1)
    v = classify(p, equilibria(p)[0])
    assert v.spectral == "marginal"
    assert not v.clark_holds


def test_clark_implies_spectral_stability():
    rng = np.random.default_rng(6)
    hits = 0
    for _ in range(2000):
        p = _random_params(rng, span=1.0)
        for eq in equilibria(p):
            if abs(1 + eq.z_bar) < 1e-9:
                continue
            co = linearization(p, eq)
            if co.clark_margin < 1:
                hits += 1
                r1, r2 = characteristic_roots(co)
                assert abs(r1) < 1 and abs(r2) < 1
    assert hits > 50  # the regime is actually exercised
