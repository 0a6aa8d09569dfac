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


def test_guard_tripped_names_the_orbit_step_and_value():
    # the orbit escapes at point 48: sampled from the seed, or continued
    # from a completed 10-step orbit, the guard names that point
    params, seed = Parameters(40 + 33j, 27 + 77j), OrbitSeed(0.3 - 0.2j, -0.4 + 0.1j)
    full = iterate(params, seed)
    short = iterate(params, seed, IterationSettings(max_steps=10))
    assert (full.status, full.stop_step, short.status) == ("escaped", 48, "completed")
    for raising in (lambda: lyapunov_max(params, seed),
                    lambda: ratdiff.analysis._reference_orbit(params, short.points, 500, 5000,
                                                              IterationSettings())):
        with pytest.raises(GuardTripped) as info:
            raising()
        assert (info.value.step, info.value.value) == (48, full.points[48])
    # one step has no orbit index; the value is the z at the pole
    with pytest.raises(GuardTripped) as info:
        step(Parameters(1, 1), 0.5, -1 + 0j)
    assert (info.value.step, info.value.value) == (None, -1)


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


@pytest.mark.parametrize("size", [1, 3])
def test_lanes_leave_their_arguments_unchanged(size):
    # the lanes escape at point 48 and sit closed in the arrays until
    # the end: their working copies change, the caller's arrays must not
    args = [np.full(size, z) for z in (40 + 33j, 27 + 77j, 0.3 - 0.2j, -0.4 + 0.1j)]
    before = [a.copy() for a in args]
    assert classify_lanes(*args, IterationSettings(max_steps=100)) == ["unbounded"] * size
    assert all(a.tobytes() == b.tobytes() for a, b in zip(args, before))


def test_lane_tangent_step_matches_the_plain_expression_bit_for_bit():
    # _tangent_step reuses its buffers; numpy's complex multiply is not
    # commutative bit for bit, so it must keep the operand order of the
    # plain expression
    rng = np.random.default_rng(5)
    n = 400

    def draw():
        return rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)

    beta, w1, w2 = draw(), draw(), draw()
    lanes = {"b": beta, "w1": w1.copy(), "w2": w2.copy(), "log_sum": np.zeros(n)}
    log_sum = np.zeros(n)
    for _ in range(5):
        lanes["prev"], lanes["curr"] = z_prev, z = draw(), draw()
        ratdiff.analysis._tangent_step(lanes)
        denom = 1 + z
        w1, w2 = beta / denom * (w2 - z_prev / denom * w1), w1
        growth = np.hypot(np.abs(w1), np.abs(w2))
        log_sum += np.log(growth)
        w1, w2 = w1 / growth, w2 / growth
    for got, want in ((lanes["w1"], w1), (lanes["w2"], w2), (lanes["log_sum"], log_sum)):
        assert got.tobytes() == want.tobytes()


# --- lanes that leave once their state repeats ------------------------------------

# the bench's mixed grid: alpha and the seed are fixed, beta takes dyadic
# cell centres, and most bounded cells end on an orbit that repeats bit
# for bit
_ALPHA, _SEED = 0.2278 + 0.321j, OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)
_QUICK = AnalysisSettings(lyapunov_transient=50, lyapunov_sample=100)


def _lane_and_orbit(monkeypatch, beta, seed, steps, analysis=_QUICK):
    """(classify_lanes' verdict, classify_orbit's verdict, steps the lane took)."""
    taken = []
    real = ratdiff.analysis._lane_step

    def counting(a_re, *rest):
        taken.append(a_re.size)
        return real(a_re, *rest)

    monkeypatch.setattr(ratdiff.analysis, "_lane_step", counting)
    iteration = IterationSettings(max_steps=steps)
    [verdict] = classify_lanes(_ALPHA, beta, seed.z_minus1, seed.z_0, iteration, analysis)
    expected = classify_orbit(Parameters(_ALPHA, beta), seed, iteration, analysis).verdict
    return verdict, expected, sum(taken)


def _fixed_point_orbit(beta):
    # this orbit is constant from point 365 on
    return iterate(Parameters(_ALPHA, beta), _SEED, IterationSettings(max_steps=400)).points


def test_lanes_retire_an_exact_fixed_point(monkeypatch):
    beta = -0.046875 - 0.890625j
    # from the seed, the state first repeats at point 367: the lane leaves
    # at the next check, 32 steps apart, long before the transient cut
    assert _lane_and_orbit(monkeypatch, beta, _SEED, 1000) == ("converges", "converges", 383)
    # seeded on the fixed point, it leaves at the first check
    z = _fixed_point_orbit(beta)[-1]
    assert _lane_and_orbit(monkeypatch, beta, OrbitSeed(z, z), 100) == (
        "converges", "converges", 31)


@pytest.mark.parametrize("beta, start, steps, taken", [
    # a last-bit 2-cycle: the orbit settles onto two points one rounding
    # apart, and the state repeats at point 171
    (0.140625 - 0.703125j, None, 1000, 191),
    # seeded 30 points before the fixed point, so that the check at point
    # 32 finds the repeat with no point to spare
    (-0.046875 - 0.890625j, 335, 100, 31),
])
def test_lanes_rebuild_the_window_of_a_retired_lane_bit_for_bit(monkeypatch, beta, start, steps,
                                                                taken):
    # convergence_tol on classify_orbit's decision boundary: the window
    # rebuilt from the cycle gives the same mean and deviations, or the
    # lane that leaves at the check would take the other verdict
    seed = _SEED if start is None else OrbitSeed(*_fixed_point_orbit(beta)[start:start + 2])
    orbit = iterate(Parameters(_ALPHA, beta), seed, IterationSettings(max_steps=steps))
    limit_tol = _threshold(
        lambda t: detect_convergence(orbit, t, _QUICK.window) is not None, 0.0, 1.0)
    for tol, verdict in ((limit_tol, "converges"), (np.nextafter(limit_tol, 0), "periodic")):
        analysis = replace(_QUICK, convergence_tol=tol)
        assert _lane_and_orbit(monkeypatch, beta, seed, steps, analysis) == (
            verdict, verdict, taken)


def test_history_repeats_compare_bits_and_report_the_smallest_period():
    rows = ratdiff.analysis._HISTORY + 2
    m = 5 * rows + 3
    k = np.arange(m - rows + 1, m + 1)  # the points the history holds, point k in row k % rows
    lanes = [
        [complex(i % 3, 0.0) for i in k],  # period 3, and so 6, 9, ...
        [complex(0.0 if i % 2 else -0.0, 0.0) for i in k],  # equal values, period 2 in bits
        [complex(i, 0.0) for i in k],  # no repeat
    ]
    hist = np.empty((rows, len(lanes)), dtype=complex)
    hist[k % rows] = np.array(lanes).T
    cols, periods = ratdiff.analysis._history_repeats(hist, m)
    assert cols.tolist() == [0, 1] and periods.tolist() == [3, 2]


def test_lanes_retire_a_cycle_before_the_cut(monkeypatch):
    # period 4 from point 486 on: the repeat passes detect_cycle's test
    # with distance 0 from the cut at 2,001 on
    beta = -0.984375 - 0.421875j
    assert _lane_and_orbit(monkeypatch, beta, _SEED, 4000) == ("periodic", "periodic", 511)
    # unless detect_cycle tries no period of 4 or more, or no distance passes
    for analysis in (replace(_QUICK, max_period=3), replace(_QUICK, cycle_tol=-1.0)):
        verdict, expected, steps = _lane_and_orbit(monkeypatch, beta, _SEED, 4000, analysis)
        assert verdict == expected != "periodic" and steps == 4000


def test_lanes_retire_a_cycle_longer_than_the_history(monkeypatch):
    # period 48 from point 971 on, past the history of the last states;
    # the cycle test's ring finds it once every period has been tried
    assert ratdiff.analysis._HISTORY < 48
    assert _lane_and_orbit(monkeypatch, -0.234375 - 1.171875j, _SEED, 4000) == (
        "periodic", "periodic", 2143)


def test_lanes_retire_a_cycle_that_starts_after_the_cut(monkeypatch):
    # 3,000 steps put the cut at 1,501, before the period-80 cycle starts
    # at point 1,878; the lane still holds the pair of period 80
    assert _lane_and_orbit(monkeypatch, 0.421875 - 1.078125j, _SEED, 3000) == (
        "periodic", "periodic", 1983)
    # 600 steps put the cut at 301, before the fixed point at 365
    assert _lane_and_orbit(monkeypatch, -0.046875 - 0.890625j, _SEED, 600) == (
        "converges", "converges", 447)


def test_lanes_keep_a_cycle_whose_onset_is_inside_the_window(monkeypatch):
    # the period-2 cycle starts at point 398 and the state repeats at 401;
    # at 418 steps the window starts at point 388, before the onset, so
    # the lane stays to the end of the orbit; at 500 steps it leaves
    beta = 0.515625 - 0.796875j
    assert _lane_and_orbit(monkeypatch, beta, _SEED, 418) == ("converges", "converges", 418)
    assert _lane_and_orbit(monkeypatch, beta, _SEED, 500) == ("converges", "converges", 415)


def test_lanes_before_the_first_check(monkeypatch):
    # 20 steps end before the first check at point 32: the fixed point
    # stays to the end, where the orbit is shorter than the window
    beta = -0.046875 - 0.890625j
    z = _fixed_point_orbit(beta)[-1]
    assert ratdiff.analysis._CHECK > 21
    assert _lane_and_orbit(monkeypatch, beta, OrbitSeed(z, z), 20) == ("periodic", "periodic", 20)
