import math

import numpy as np
import pytest

from ratdiff import (
    HypothesisError,
    IterationSettings,
    OrbitSeed,
    Parameters,
    admissible_epsilon,
    ball_certificate,
    check_identities,
    iterate,
    j_invariant,
    period_two_pairs,
    step,
    trichotomy,
)

import cases


# --- trichotomy --------------------------------------------------------------

def test_trichotomy_unbounded_case():
    alpha, beta, mod1, mod2 = cases.UNBOUNDED_CASES[0]
    t = trichotomy(Parameters(alpha, beta))
    assert t.verdict == "unbounded"
    assert t.rhs == pytest.approx(mod1, abs=5e-4)
    assert t.lhs == pytest.approx(mod2, abs=5e-4)


def test_trichotomy_equality_is_period_two():
    alpha = 0.37 - 0.85j
    # the band is a fixed 1e-9 on |beta| - |alpha+1|
    for excess, verdict in [(0.0, "period-two"), (5e-10, "period-two"), (2e-9, "unbounded")]:
        t = trichotomy(Parameters(alpha, (alpha + 1) * (1 + excess / abs(alpha + 1))))
        assert t.lhs - t.rhs == pytest.approx(excess, abs=1e-15)
        assert t.verdict == verdict


def test_trichotomy_finite_limit_prediction_even_when_chaotic():
    # a chaotic catalog entry still sits inside |beta| < |alpha+1|
    alpha, beta, *_ = cases.CHAOTIC_CASES[0]
    t = trichotomy(Parameters(alpha, beta))
    assert t.verdict == "finite-limit"
    assert t.rhs == pytest.approx(1.2691, abs=5e-4)
    assert t.lhs == pytest.approx(1.1680, abs=5e-4)


def test_trichotomy_depends_only_on_moduli():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha = complex(*rng.uniform(-2, 2, 2))
        beta = complex(*rng.uniform(-2, 2, 2))
        base = trichotomy(Parameters(alpha, beta))
        # rotate beta and alpha+1 without changing their moduli
        phase = complex(math.cos(1.1), math.sin(1.1))
        alpha2 = (alpha + 1) * phase - 1
        beta2 = beta * phase
        other = trichotomy(Parameters(alpha2, beta2))
        assert base.verdict == other.verdict


# --- J invariant and identities ----------------------------------------------

def test_j_invariant_zero_cases():
    assert j_invariant(Parameters(0, 1), 0, 5 + 2j) == 0
    assert j_invariant(Parameters(0, 1), 3 - 1j, 0) == 0


def test_j_invariant_vanishes_on_catalog_pair():
    alpha, _, pair = cases.PERIOD_TWO_CASES[0]
    value = j_invariant(Parameters(alpha, alpha + 1), pair[0], pair[1])
    assert abs(value) <= 5e-2  # catalog values are 4-decimal rounded


def test_j_recurrence_along_orbit():
    rng = np.random.default_rng(8)
    for _ in range(50):
        alpha = complex(*rng.uniform(-1, 1, 2))
        p = Parameters(alpha, alpha + 1)
        seed = OrbitSeed(complex(*rng.uniform(-2, 2, 2)),
                         complex(*rng.uniform(-2, 2, 2)))
        orbit = iterate(p, seed, IterationSettings(max_steps=60))
        if orbit.status != "completed":
            continue
        pts = orbit.points
        for n in range(1, len(pts) - 1):
            j_n = j_invariant(p, pts[n - 1], pts[n])
            j_next = j_invariant(p, pts[n], pts[n + 1])
            expect = (alpha + 1) / (1 + pts[n]) * j_n
            assert abs(j_next - expect) <= 1e-8 * (1 + abs(expect))


def test_identities_constant_orbit():
    # an equilibrium of the beta = alpha+1 map gives vanishing residuals
    alpha = 0.25 + 0.4j
    p = Parameters(alpha, alpha + 1)
    from ratdiff import equilibria
    z = equilibria(p)[1].z_bar
    orbit = iterate(p, OrbitSeed(z, z), IterationSettings(max_steps=50))
    report = check_identities(p, orbit)
    assert report.j_recurrence <= 1e-12
    assert report.gap_from_j <= 1e-12
    assert report.gap_recursion <= 1e-12
    assert report.gap_product <= 1e-12


def test_identities_catalog_parameters():
    alpha, seed, _ = cases.PERIOD_TWO_CASES[1]
    p = Parameters(alpha, alpha + 1)
    orbit = iterate(p, OrbitSeed(*seed), IterationSettings(max_steps=200))
    report = check_identities(p, orbit)
    for residual in (report.j_recurrence, report.gap_from_j,
                     report.gap_recursion, report.gap_product):
        assert residual <= 1e-6


def test_identities_product_form_random():
    rng = np.random.default_rng(9)
    count = 0
    while count < 100:
        alpha = complex(*rng.uniform(-1, 1, 2))
        p = Parameters(alpha, alpha + 1)
        seed = OrbitSeed(complex(*rng.uniform(-2, 2, 2)),
                         complex(*rng.uniform(-2, 2, 2)))
        orbit = iterate(p, seed, IterationSettings(max_steps=100))
        if orbit.status != "completed":
            continue
        report = check_identities(p, orbit)
        assert report.gap_product <= 1e-6
        count += 1


def test_identities_require_hypothesis():
    p = Parameters(0.5, 0.5)
    orbit = iterate(p, OrbitSeed(0.1, 0.2), IterationSettings(max_steps=10))
    with pytest.raises(HypothesisError):
        check_identities(p, orbit)


def test_hypothesis_fails_where_the_difference_overflows():
    # beta - (alpha + 1) has finite parts but a modulus above the largest double
    p = Parameters(-1.7e308, -1 + 1.683e308j)
    orbit = iterate(p, OrbitSeed(0.1, 0.2), IterationSettings(max_steps=5))
    with pytest.raises(HypothesisError):
        check_identities(p, orbit)
    assert period_two_pairs(p) is None


def test_identities_need_an_iterate():
    p = Parameters(1, 2)
    orbit = iterate(p, OrbitSeed(2e6, 0), IterationSettings(max_steps=5))
    assert orbit.status == "escaped" and len(orbit.points) == 2
    with pytest.raises(ValueError, match="iterate"):
        check_identities(p, orbit)


def test_identities_are_undefined_across_a_singular_orbit():
    p = Parameters(0, 1)  # beta = alpha + 1; 1 + z[0] = 0 at once
    orbit = iterate(p, OrbitSeed(0, -1), IterationSettings(max_steps=5))
    assert orbit.status == "singular"
    with pytest.raises(ValueError, match="singular"):
        check_identities(p, orbit)


# --- period-two family --------------------------------------------------------

def test_no_pairs_outside_regime():
    assert period_two_pairs(Parameters(0.3 + 0.1j, 0.3 + 0.1j)) is None


def test_family_recovers_catalog_pair():
    alpha, _, pair = cases.PERIOD_TWO_CASES[0]
    family = period_two_pairs(Parameters(alpha, alpha + 1))
    assert family is not None
    got = family.pair_for_sum(pair[0] + pair[1])
    direct = abs(got.phi - pair[0]) + abs(got.psi - pair[1])
    swapped = abs(got.phi - pair[1]) + abs(got.psi - pair[0])
    assert min(direct, swapped) <= 5e-2


def test_family_pairs_satisfy_invariant_relation():
    rng = np.random.default_rng(10)
    for _ in range(300):
        alpha = complex(*rng.uniform(-2, 2, 2))
        family = period_two_pairs(Parameters(alpha, alpha + 1))
        s = complex(*rng.uniform(-5, 5, 2))
        pair = family.pair_for_sum(s)
        residual = alpha + alpha * (pair.phi + pair.psi) - pair.phi * pair.psi
        assert abs(residual) <= 1e-10 * (1 + abs(alpha) * (1 + abs(s)) + abs(pair.phi * pair.psi))


def test_family_pairs_are_two_cycles():
    rng = np.random.default_rng(11)
    count = 0
    while count < 100:
        alpha = complex(*rng.uniform(-1.5, 1.5, 2))
        p = Parameters(alpha, alpha + 1)
        family = period_two_pairs(p)
        pair = family.pair_for_sum(complex(*rng.uniform(-3, 3, 2)))
        phi, psi = pair.phi, pair.psi
        if min(abs(1 + phi), abs(1 + psi)) < 1e-3 or abs(phi - psi) < 1e-6:
            continue
        z1 = step(p, phi, psi)
        z2 = step(p, psi, z1)
        scale = 1 + max(abs(phi), abs(psi))
        assert abs(z1 - phi) <= 1e-8 * scale
        assert abs(z2 - psi) <= 1e-8 * scale
        count += 1


# --- ball certificates ---------------------------------------------------------

def test_certificate_direct_arithmetic():
    cert = ball_certificate(Parameters(0, 0.3), 0.5)
    assert cert.margin == pytest.approx(0.2)
    assert cert.valid


def test_certificate_impossible_for_large_alpha():
    # eps + |alpha|/eps >= 2 sqrt(|alpha|) > 1 whenever |alpha| = 0.5
    p = Parameters(0.5, 0)
    for eps in np.linspace(0.01, 0.99, 60):
        assert not ball_certificate(p, float(eps)).valid


def test_certificate_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        ball_certificate(Parameters(0, 0), 0.0)
    with pytest.raises(ValueError):
        ball_certificate(Parameters(0, 0), 1.0)


def test_certificate_monte_carlo_invariance():
    p = Parameters(0.01, 0.05)
    cert = ball_certificate(p, 0.1)
    assert cert.margin == pytest.approx(0.74)
    assert cert.valid
    rng = np.random.default_rng(12)
    settings = IterationSettings(max_steps=2000)
    for _ in range(50):
        r1, r2 = 0.1 * np.sqrt(rng.uniform(0, 1, 2))
        t1, t2 = rng.uniform(0, 2 * np.pi, 2)
        seed = OrbitSeed(complex(r1 * np.cos(t1), r1 * np.sin(t1)),
                         complex(r2 * np.cos(t2), r2 * np.sin(t2)))
        orbit = iterate(p, seed, settings)
        assert orbit.status == "completed"
        assert max(abs(z) for z in orbit.points) <= 0.1 + 1e-12


def test_admissible_epsilon_alpha_zero():
    interval = admissible_epsilon(Parameters(0, 0.4))
    assert interval.lo == pytest.approx(0.0)
    assert interval.hi == pytest.approx(0.6)
    assert admissible_epsilon(Parameters(0, 1.2)) is None


def test_admissible_epsilon_none_for_large_alpha():
    assert admissible_epsilon(Parameters(0.5, 0)) is None
    assert admissible_epsilon(Parameters(0.5j, 0.1)) is None


def test_admissible_epsilon_endpoints_are_margin_roots():
    p = Parameters(0.01, 0.05)
    interval = admissible_epsilon(p)
    assert interval.lo == pytest.approx(0.010761499871798641, abs=1e-9)
    assert interval.hi == pytest.approx(0.9292385001282013, abs=1e-9)
    for eps in (interval.lo, interval.hi):
        assert abs(ball_certificate(p, eps).margin) <= 1e-9
    # bisection oracle on the margin function finds the same lower root
    lo, hi = 1e-6, 0.5
    f = lambda e: ball_certificate(p, e).margin
    assert f(lo) < 0 < f(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(interval.lo, abs=1e-9)


def test_admissible_epsilon_consistent_with_certificates():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = Parameters(complex(*rng.uniform(-0.2, 0.2, 2)),
                       complex(*rng.uniform(-0.6, 0.6, 2)))
        interval = admissible_epsilon(p)
        eps = float(rng.uniform(0.01, 0.99))
        cert = ball_certificate(p, eps)
        if interval is None:
            assert not cert.valid
        else:
            inside = interval.lo <= eps <= interval.hi
            assert cert.valid == inside or abs(cert.margin) < 1e-12
