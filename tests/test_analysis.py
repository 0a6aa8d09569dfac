from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratdiff.analysis
from ratdiff import (
    AnalysisSettings,
    GuardTripped,
    IterationSettings,
    OrbitSeed,
    Parameters,
    classify_lanes,
    classify_orbit,
    detect_convergence,
    detect_cycle,
    equilibria,
    iterate,
    lyapunov_divergence_oracle,
    lyapunov_max,
    step,
)

import cases


def _orbit(alpha, beta, seed, steps):
    return iterate(Parameters(alpha, beta), OrbitSeed(*seed),
                   IterationSettings(max_steps=steps))


# --- convergence ---------------------------------------------------------------

def test_convergence_constant_orbit():
    p = Parameters(0.4 + 0.1j, -0.3 + 0.2j)
    z = equilibria(p)[1].z_bar
    orbit = iterate(p, OrbitSeed(z, z), IterationSettings(max_steps=100))
    assert detect_convergence(orbit) == pytest.approx(z)


def test_convergence_to_stable_equilibrium():
    p = Parameters(1 + 1j, 1 + 1j)
    z = equilibria(p)[1].z_bar
    orbit = iterate(p, OrbitSeed(z + 0.05, z - 0.03j),
                    IterationSettings(max_steps=2000))
    limit = detect_convergence(orbit)
    assert limit is not None
    assert abs(limit - z) <= 1e-6


def test_convergence_none_for_escaped():
    orbit = _orbit(40 + 33j, 27 + 77j, (0.1, 0.2), 10_000)
    assert orbit.status == "escaped"
    assert detect_convergence(orbit) is None


def test_convergence_none_for_cycling():
    alpha, seed, _ = cases.PERIOD_TWO_CASES[0]
    orbit = _orbit(alpha, alpha + 1, seed, 2000)
    assert detect_convergence(orbit) is None


# --- cycle detection -------------------------------------------------------------

def test_cycle_constant_orbit_is_period_one():
    p = Parameters(0.4 + 0.1j, -0.3 + 0.2j)
    z = equilibria(p)[1].z_bar
    orbit = iterate(p, OrbitSeed(z, z), IterationSettings(max_steps=1200))
    report = detect_cycle(orbit)
    assert report.period == 1
    assert report.onset == 0


@pytest.mark.parametrize("row", [0, 2])
def test_cycle_catalog_periods(row):
    alpha, beta, seed, period, *_ = cases.HIGHER_PERIOD_CASES[row]
    orbit = _orbit(alpha, beta, seed, 20_000)
    report = detect_cycle(orbit)
    assert report is not None
    assert report.period == period


def test_cycle_minimality_no_divisor_locks():
    alpha, beta, seed, period, *_ = cases.HIGHER_PERIOD_CASES[0]
    orbit = _orbit(alpha, beta, seed, 4000)
    report = detect_cycle(orbit)
    assert report.period == period
    pts = np.asarray(orbit.points[len(orbit.points) // 2:], dtype=complex)
    for d in range(1, period):
        if period % d:
            continue
        dist = np.abs(pts[d:] - pts[:-d])
        assert np.any(dist > 1e-6 * (1 + np.abs(pts[:-d])))


def test_cycle_closure_under_iteration():
    alpha, beta, seed, period, *_ = cases.HIGHER_PERIOD_CASES[0]
    p = Parameters(alpha, beta)
    orbit = _orbit(alpha, beta, seed, 4000)
    report = detect_cycle(orbit)
    z_prev, z_curr = orbit.points[-2], orbit.points[-1]
    start = z_curr
    for _ in range(report.period):
        z_prev, z_curr = z_curr, step(p, z_prev, z_curr)
    assert abs(z_curr - start) <= max(report.residual * 10, 1e-9 * (1 + abs(start)))


def test_cycle_none_for_chaotic():
    alpha, beta, *_ = cases.CHAOTIC_CASES[0]
    orbit = _orbit(alpha, beta, (0.1 + 0.1j, 0.2 - 0.1j), 4000)
    assert detect_cycle(orbit) is None


def test_cycle_none_for_escaped():
    orbit = _orbit(40 + 33j, 27 + 77j, (0.1, 0.2), 10_000)
    assert detect_cycle(orbit) is None


# --- lyapunov exponents -----------------------------------------------------------

def test_lyapunov_negative_at_stable_equilibrium():
    p = Parameters(1 + 1j, 1 + 1j)
    z = equilibria(p)[1].z_bar
    est = lyapunov_max(p, OrbitSeed(z + 0.01, z), n_transient=200, n_sample=2000)
    assert est.lambda_max < 0
    assert est.converged


def test_lyapunov_equals_linearization_rate_at_stable_point():
    # at a converging orbit the exponent is exactly log|dominant root| of
    # the linearization: a closed-loop check of tangent flow vs root solver
    import math
    from ratdiff import characteristic_roots, linearization

    p = Parameters(1 + 1j, 1 + 1j)
    eq = equilibria(p)[1]
    expected = math.log(abs(characteristic_roots(linearization(p, eq))[0]))
    z = eq.z_bar
    est = lyapunov_max(p, OrbitSeed(z + 0.01, z), n_transient=500, n_sample=3000)
    assert est.lambda_max == pytest.approx(expected, abs=1e-4)
    oracle = lyapunov_divergence_oracle(p, OrbitSeed(z + 0.01, z),
                                        n=5000, n_transient=200)
    assert oracle == pytest.approx(expected, abs=5e-3)


def test_lyapunov_positive_for_chaotic_case():
    alpha, beta, *_ = cases.CHAOTIC_CASES[0]
    est = lyapunov_max(Parameters(alpha, beta), OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j),
                       n_transient=500, n_sample=10_000)
    assert est.lambda_max > 0


def test_lyapunov_zero_beta_is_minus_inf():
    # the tangent map is nilpotent, so the tangent vector vanishes
    est = lyapunov_max(Parameters(0.3 + 0.1j, 0), OrbitSeed(0.1, 0.2))
    assert est.lambda_max == -np.inf
    assert est.converged


def test_lyapunov_escape_raises():
    with pytest.raises(GuardTripped) as excinfo:
        lyapunov_max(Parameters(40 + 33j, 27 + 77j), OrbitSeed(0.1, 0.2),
                     n_transient=0, n_sample=5000)
    assert excinfo.value.status == "escaped"


def test_divergence_oracle_negative_for_stable():
    p = Parameters(1 + 1j, 1 + 1j)
    z = equilibria(p)[1].z_bar
    # keep the reference orbit off the exact fixed point so the companion
    # separation stays meaningful
    rate = lyapunov_divergence_oracle(p, OrbitSeed(z + 0.01, z), n=2000,
                                      n_transient=50)
    assert rate < 0


def test_divergence_oracle_positive_for_chaotic_case():
    alpha, beta, *_ = cases.CHAOTIC_CASES[4]
    rate = lyapunov_divergence_oracle(Parameters(alpha, beta),
                                      OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j),
                                      n=10_000)
    assert rate > 0


def test_divergence_oracle_delta_range():
    with pytest.raises(ValueError):
        lyapunov_divergence_oracle(Parameters(0.1, 0.1), OrbitSeed(0, 0), delta=1e-4)


def test_tangent_and_divergence_agree():
    rng = np.random.default_rng(14)
    checked = 0
    for alpha, beta, *_ in cases.CHAOTIC_CASES[:3]:
        p = Parameters(alpha, beta)
        seed = OrbitSeed(complex(*rng.uniform(-0.5, 0.5, 2)),
                         complex(*rng.uniform(-0.5, 0.5, 2)))
        tangent_est = lyapunov_max(p, seed, n_transient=500, n_sample=10_000)
        oracle = lyapunov_divergence_oracle(p, seed, n=10_000)
        assert tangent_est.lambda_max == pytest.approx(oracle, abs=0.1)
        checked += 1
    assert checked == 3


# --- classification ----------------------------------------------------------------

def test_classify_unbounded_catalog():
    alpha, beta, *_ = cases.UNBOUNDED_CASES[9]
    result = classify_orbit(Parameters(alpha, beta), OrbitSeed(0.3, -0.2j),
                            IterationSettings(max_steps=100_000))
    assert result.verdict == "unbounded"
    assert result.guard_step is not None


def test_classify_period_two_catalog():
    alpha, seed, pair = cases.PERIOD_TWO_CASES[3]
    result = classify_orbit(Parameters(alpha, alpha + 1), OrbitSeed(*seed),
                            IterationSettings(max_steps=4000))
    assert result.verdict == "periodic"
    assert result.cycle.period == 2
    got = sorted(result.cycle.cycle_points, key=lambda z: abs(z))
    want = sorted(pair, key=lambda z: abs(z))
    for g, w in zip(got, want):
        assert abs(g - w) <= 5e-3


def test_classify_chaotic_catalog():
    alpha, beta, *_ = cases.CHAOTIC_CASES[6]
    result = classify_orbit(Parameters(alpha, beta),
                            OrbitSeed(0.15 - 0.05j, -0.2 + 0.3j),
                            IterationSettings(max_steps=4000))
    assert result.verdict == "chaotic"
    assert result.lyapunov.lambda_max > 0


def test_classify_converges():
    p = Parameters(1 + 1j, 1 + 1j)
    z = equilibria(p)[1].z_bar
    result = classify_orbit(p, OrbitSeed(z + 0.05, z - 0.05j),
                            IterationSettings(max_steps=2000))
    assert result.verdict == "converges"
    assert abs(result.limit - z) <= 1e-6


def test_classify_singular():
    result = classify_orbit(Parameters(0, 1), OrbitSeed(-1, 0),
                            IterationSettings(max_steps=100))
    assert result.verdict == "singular"


def test_classify_deterministic_and_total():
    rng = np.random.default_rng(15)
    settings = IterationSettings(max_steps=1500)
    analysis = AnalysisSettings(lyapunov_transient=200, lyapunov_sample=1000)
    for _ in range(25):
        p = Parameters(complex(*rng.uniform(-1, 1, 2)),
                       complex(*rng.uniform(-1, 1, 2)))
        seed = OrbitSeed(complex(*rng.uniform(-1, 1, 2)),
                         complex(*rng.uniform(-1, 1, 2)))
        first = classify_orbit(p, seed, settings, analysis)
        second = classify_orbit(p, seed, settings, analysis)
        assert first.verdict == second.verdict
        assert first.verdict in {"converges", "periodic", "unbounded",
                                 "chaotic", "singular", "undetermined"}


def _estimate_bits(estimate):
    return (estimate.lambda_max.hex(), estimate.n_transient, estimate.n_sample,
            estimate.converged)


_coordinate = st.floats(-1.5, 1.5, allow_nan=False)
_complex = st.builds(complex, _coordinate, _coordinate)


@settings(max_examples=60, deadline=None)
@given(params=st.one_of(st.just(Parameters(0.2278 + 0.3210j, 0.82956 + 0.8221j)),
                        st.builds(Parameters, _complex, _complex)),
       seed=st.builds(OrbitSeed, _complex, _complex),
       transient=st.integers(0, 40), sample=st.integers(1, 120),
       side=st.sampled_from([-1, 0, 1]), gap=st.integers(1, 80))
# this orbit escapes at point 584: inside the continuation of a 90-step orbit
@example(params=Parameters(0.2278 + 0.321j, -0.25 + 1.3j), seed=OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j),
         transient=50, sample=540, side=-1, gap=500)
def test_classify_orbit_estimate_is_lyapunov_max(params, seed, transient, sample, side, gap):
    # max_steps below, at or above the reference orbit's transient + sample
    iteration = IterationSettings(max_steps=max(1, transient + sample + side * gap))
    analysis = AnalysisSettings(lyapunov_transient=transient, lyapunov_sample=sample)
    result = classify_orbit(params, seed, iteration, analysis)
    if result.lyapunov is not None:
        estimate = lyapunov_max(params, seed, transient, sample, iteration)
        assert _estimate_bits(result.lyapunov) == _estimate_bits(estimate)
    elif result.verdict in ("unbounded", "singular") and result.guard_step is None:
        # a guard tripped while the orbit was continued for the estimate
        with pytest.raises(GuardTripped) as info:
            lyapunov_max(params, seed, transient, sample, iteration)
        assert {"escaped": "unbounded", "singular": "singular"}[info.value.status] == result.verdict


def test_classify_orbit_iterates_each_point_once(monkeypatch):
    asked = []

    def counting_iterate(params, seed, settings):
        asked.append(settings.max_steps)
        return iterate(params, seed, settings)

    monkeypatch.setattr(ratdiff.analysis, "iterate", counting_iterate)
    params, seed = Parameters(0.2278 + 0.3210j, 0.82956 + 0.8221j), OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)
    # the default orbit already holds the 5,500-step reference orbit
    assert classify_orbit(params, seed).verdict == "chaotic"
    assert sum(asked) == 10_000
    asked.clear()
    # a 4,000-step orbit is continued by the 1,500 steps it lacks
    assert classify_orbit(params, seed, IterationSettings(max_steps=4000)).verdict == "chaotic"
    assert sum(asked) == 5_500


# --- lockstep classification ---------------------------------------------------

def _threshold(holds, lo, hi):
    """Smallest float in (lo, hi] at which the monotone predicate holds."""
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("params, seed", [
    (Parameters(1 + 1j, 1 + 1j), OrbitSeed(0.5, 0.3)),  # settles: the tail's first pairs bind
    (Parameters(0.5, 2 + 0.3j), None),  # leaves an equilibrium: the last pairs bind
])
def test_lanes_agree_at_decision_boundaries(params, seed):
    # tolerances sit exactly on the scalar classifier's decision boundary,
    # so a window, transient cut or ring slot one point off flips a verdict
    if seed is None:
        z_bar = equilibria(params)[1].z_bar
        seed = OrbitSeed(z_bar + 1e-9, z_bar)
    iteration = IterationSettings(max_steps=100)
    orbit = iterate(params, seed, iteration)
    quick = AnalysisSettings(lyapunov_transient=20, lyapunov_sample=50)
    limit_tol = _threshold(
        lambda t: detect_convergence(orbit, t, quick.window) is not None, 0.0, 1.0)
    pairs = [[replace(quick, convergence_tol=tol, max_period=1)
              for tol in (limit_tol, np.nextafter(limit_tol, 0))]]
    for max_period in (1, 3):
        cycle_tol = _threshold(
            lambda t: detect_cycle(orbit, t, max_period) is not None, 0.0, 1.0)
        pairs.append([replace(quick, convergence_tol=0.0, max_period=max_period, cycle_tol=tol)
                      for tol in (cycle_tol, np.nextafter(cycle_tol, 0))])
    for pair in pairs:
        verdicts = [classify_orbit(params, seed, iteration, analysis).verdict for analysis in pair]
        assert verdicts[0] != verdicts[1]
        for analysis, verdict in zip(pair, verdicts):
            assert classify_lanes(params.alpha, params.beta, seed.z_minus1, seed.z_0,
                                  iteration, analysis) == [verdict]


def test_lanes_extend_the_orbit_past_the_lyapunov_sample():
    # lyapunov_max's reference orbit runs one point past its last tangent
    # step, so an escape exactly there makes the orbit unbounded
    params, seed = Parameters(0.2278 + 0.321j, -0.25 + 1.3j), OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)
    escape = iterate(params, seed, IterationSettings(max_steps=2000)).stop_step
    iteration = IterationSettings(max_steps=100)
    verdicts = []
    for sample in (escape - 51, escape - 52):
        analysis = AnalysisSettings(lyapunov_transient=50, lyapunov_sample=sample)
        verdict = classify_orbit(params, seed, iteration, analysis).verdict
        assert classify_lanes(params.alpha, params.beta, seed.z_minus1, seed.z_0,
                              iteration, analysis) == [verdict]
        verdicts.append(verdict)
    assert verdicts[0] == "unbounded" != verdicts[1]
