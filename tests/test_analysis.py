import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratdiff.analysis
import ratdiff.lanes
from ratdiff import (
    STATUS_COMPLETED,
    AnalysisSettings,
    GuardTripped,
    IterationSettings,
    Orbit,
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


def _plain_onset_and_residual(points, period):
    """detect_cycle's onset and residual for a locked period, in plain
    Python: CPython's complex abs, and the onset walked back point by point."""
    tol, cut = AnalysisSettings.cycle_tol, len(points) // 2  # the cut of a 4,000-step orbit
    onset = cut
    while onset > 0 and (abs(points[onset - 1 + period] - points[onset - 1])
                         <= tol * (1 + abs(points[onset - 1]))):
        onset -= 1
    return onset, max(abs(points[n + period] - points[n]) for n in range(cut, len(points) - period))


@pytest.mark.parametrize("alpha, beta, seed, period, onset", [
    # numpy's complex abs gave a residual one ulp above CPython's here
    (0.88 - 1.96j, -0.89 + 1.25j, (1.99 - 0.88j, 1.04 - 1.55j), 4, None),
    (0.8407 + 0.2542j, 1.8407 + 0.2542j, (55 + 14j, 15 + 26j), 2, 17),  # the README's period 2
    (-0.63 + 1.8j, 0.59 - 1.46j, (0.19 + 1.27j, 0.26 - 0.95j), 6, 151),  # in the golden corpus
    (*cases.HIGHER_PERIOD_CASES[0][:4], None),
])
def test_cycle_onset_and_residual_match_plain_python(alpha, beta, seed, period, onset):
    orbit = _orbit(alpha, beta, seed, 4000)
    report = detect_cycle(orbit)
    assert report.period == period and onset in (None, report.onset)
    assert (report.onset, report.residual) == _plain_onset_and_residual(orbit.points, period)


def _plain_period(points):
    """detect_cycle's period in plain Python: every period tried on the whole tail."""
    tol = AnalysisSettings.cycle_tol
    cut, periods = ratdiff.analysis._transient_cut(len(points), AnalysisSettings.max_period)
    return next((p for p in range(1, periods + 1)
                 if all(abs(points[n + p] - points[n]) <= tol * (1 + abs(points[n]))
                        for n in range(cut, len(points) - p))), None)


@pytest.mark.parametrize("points, period", [
    # chaotic: every period misses, on the 20,000-step orbit of the bench's period query
    (_orbit(0.2278 + 0.3210j, 0.82956 + 0.8221j, (0.1 + 0.1j, 0.2 - 0.1j), 20_000).points, None),
    # period 1's first pair (1, 1) passes and its tail fails; period 3 locks
    ((5j, 6j, 7j, 8j, 9j, 10j, 11j, 12j, 1, 1, 2, 1, 1, 2, 1, 1), 3),
    # period 1's first pair passes and fails later in the tail: no period locks
    ((5j, 6j, 7j, 8j, 9j, 10j, 1, 1, 1, 1, 1, 2), None),
])
def test_cycle_period_matches_plain_python(points, period):
    report = detect_cycle(Orbit(OrbitSeed(*points[:2]), points, STATUS_COMPLETED))
    assert (report and report.period) == _plain_period(points) == period


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


@pytest.mark.parametrize("transient,sample", [(500, 0), (-1, 5000)])
def test_a_lyapunov_budget_below_its_floor_is_a_value_error(transient, sample):
    alpha, beta, *_ = cases.CHAOTIC_CASES[0]
    params, seed = Parameters(alpha, beta), OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)
    analysis = AnalysisSettings(lyapunov_transient=transient, lyapunov_sample=sample)
    iteration = IterationSettings(max_steps=200)  # chaotic: the orbit reaches the estimate
    floor = "need n_transient >= 0 and n_sample >= 1"
    with pytest.raises(ValueError, match=floor):
        lyapunov_max(params, seed, transient, sample)
    with pytest.raises(ValueError, match=floor):
        classify_orbit(params, seed, iteration, analysis)
    with pytest.raises(ValueError, match=floor):
        classify_lanes(alpha, beta, np.full(3, seed.z_minus1), seed.z_0, iteration, analysis)
    # an orbit that escapes is decided before its estimate: no error either way
    escaping = Parameters(40 + 33j, 27 + 77j)
    assert classify_orbit(escaping, seed, iteration, analysis).verdict == "unbounded"
    assert classify_lanes(escaping.alpha, escaping.beta, np.full(3, seed.z_minus1), seed.z_0,
                          iteration, analysis) == ["unbounded"] * 3


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


@pytest.mark.parametrize("params, seed, steps, window", [
    # settles: the tail's first pairs bind
    (Parameters(1 + 1j, 1 + 1j), OrbitSeed(0.5, 0.3), 100, 32),
    # leaves an equilibrium: the last pairs bind
    (Parameters(0.5, 2 + 0.3j), None, 100, 32),
    # the window starts at point 3, inside the first block, so the block
    # ring carries it from there to the end of the orbit
    (Parameters(1 + 1j, 1 + 1j), OrbitSeed(0.5, 0.3), 33, 32),
    # a window of 60 points outgrows the block ring's 34 rows
    (Parameters(1 + 1j, 1 + 1j), OrbitSeed(0.5, 0.3), 100, 60),
], ids=["params0-seed0", "params1-None", "window-in-the-first-block", "window-past-the-ring"])
def test_lanes_agree_at_decision_boundaries(params, seed, steps, window):
    # tolerances sit exactly on the scalar classifier's decision boundary,
    # so a window, transient cut or ring slot one point off flips a verdict
    if seed is None:
        z_bar = equilibria(params)[1].z_bar
        seed = OrbitSeed(z_bar + 1e-9, z_bar)
    iteration = IterationSettings(max_steps=steps)
    orbit = iterate(params, seed, iteration)
    quick = AnalysisSettings(window=window, lyapunov_transient=20, lyapunov_sample=50)
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
    # the lanes escape at point 48 and leave the working arrays then:
    # their working copies change, the caller's arrays must not
    args = [np.full(size, z) for z in (40 + 33j, 27 + 77j, 0.3 - 0.2j, -0.4 + 0.1j)]
    before = [a.copy() for a in args]
    assert classify_lanes(*args, IterationSettings(max_steps=100)) == ["unbounded"] * size
    assert all(a.tobytes() == b.tobytes() for a, b in zip(args, before))


def test_lane_tangent_step_matches_the_plain_expression_bit_for_bit():
    # _tangent_block reuses its buffers; numpy's complex multiply is not
    # commutative bit for bit, so it must keep the operand order of the
    # plain expression, and it renormalises by real divisions of the parts
    rng = np.random.default_rng(5)
    n = 400

    def draw(*rows):
        return rng.uniform(-2, 2, (*rows, n)) + 1j * rng.uniform(-2, 2, (*rows, n))

    beta, w1, w2 = draw(), draw(), draw()
    # _tangent_block reads beta from row 0 of the (beta, alpha) parts
    lanes = {"ba_re": beta.real[None], "ba_im": beta.imag[None], "w1": w1.copy(),
             "w2": w2.copy(), "log_sum": np.zeros(n)}
    log_sum = np.zeros(n)
    steps = ratdiff.lanes._CHECK
    for _ in range(3):
        z = draw(steps + 1)
        z_re, z_im = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
        # these bounds let the whole block run before it renormalises
        assert ratdiff.lanes._renormalise_after(beta, z_re, z_im) == {steps - 1}
        ratdiff.lanes._tangent_block(lanes, z_re, z_im)
        for z_prev, z_curr in zip(z[:-1], z[1:]):
            d = 1 + z_curr
            w1, w2 = beta / d * (w2 - z_prev / d * w1), w1
        growth = np.hypot(np.abs(w1), np.abs(w2))
        log_sum += np.log(growth)
        for w in (w1, w2):
            w.real, w.imag = w.real / growth, w.imag / growth
    for got, want in ((lanes["w1"], w1), (lanes["w2"], w2), (lanes["log_sum"], log_sum)):
        assert got.tobytes() == want.tobytes()


# --- block edges ---------------------------------------------------------------------

# the chaotic pair; 100 steps put the cut at point 51 and the end of
# classify_orbit's orbit at 101, and the reference orbit runs on to 121,
# so classify_lanes' blocks end at points 32, 51, 64, 96, 101 and 121
_CHAOS, _CHAOS_SEED = Parameters(0.2278 + 0.321j, 0.82956 + 0.8221j), OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)
_EDGES = AnalysisSettings(lyapunov_transient=20, lyapunov_sample=100)


def _count_lanes(monkeypatch) -> list[int]:
    """The number of lanes in each later _lane_step call, in call order."""
    taken = []
    real = ratdiff.lanes._lane_step

    def counting(ba_re, *rest):
        taken.append(ba_re.shape[-1])
        return real(ba_re, *rest)

    monkeypatch.setattr(ratdiff.lanes, "_lane_step", counting)
    return taken


def _lane_steps(monkeypatch, params, seed, iteration, analysis):
    """(classify_lanes' verdict, classify_orbit's verdict, steps the lane took)."""
    taken = _count_lanes(monkeypatch)
    [verdict] = classify_lanes(params.alpha, params.beta, seed.z_minus1, seed.z_0, iteration,
                               analysis)
    return verdict, classify_orbit(params, seed, iteration, analysis).verdict, sum(taken)


@pytest.mark.parametrize("shift, escape_at, pole_at, sample, stop, taken", [
    (203, 32, None, 100, 32, 31),  # an escape at the last point of a block
    (202, 33, None, 100, 33, 50),  # at the first point of a block
    (522, None, 31, 100, 31, 31),  # the pole, tested on a block's last step
    (521, None, 32, 100, 32, 50),  # on a block's first step
    (699, 51, None, 100, 51, 50),  # at the transient cut
    (698, 52, None, 100, 52, 63),
    (283, None, 51, 100, 51, 63),
    (649, 101, None, 100, 101, 100),  # at the end of classify_orbit's orbit
    (649, 101, None, 50, 101, 100),  # where the reference orbit ends too
    (78, None, 100, 100, 100, 100),
    (77, None, 101, 100, 101, 120),  # tested in the Lyapunov continuation
    (640, 110, None, 100, 110, 120),  # inside the continuation
    (35, None, 115, 100, 115, 120),
    (4, 121, None, 100, 121, 120),  # at its last point
    (138, 41, 40, 100, 40, 50),  # the pole, then an escape at the next point
    (85, 55, 63, 100, 55, 63),  # an escape, then the pole in the same block
])
def test_lanes_trip_guards_at_block_edges(monkeypatch, shift, escape_at, pole_at, sample, stop,
                                          taken):
    # the chaotic orbit from point `shift` on, with the escape radius and
    # the pole tolerance set so that its first escape is at point escape_at
    # and its first pole at point pole_at (a lone trip is the only one up
    # to point 121); the lane leaves at the end of the block that holds
    # the first trip, with classify_orbit's verdict
    points = iterate(_CHAOS, _CHAOS_SEED, IterationSettings(max_steps=900)).points[shift:]
    seed = OrbitSeed(*points[:2])
    escape_radius = max(map(abs, points[:escape_at])) if escape_at else 1e6
    singular_tol = min(abs(1 + z) for z in points[1:pole_at]) if pole_at else 1e-12
    iteration = IterationSettings(100, escape_radius, singular_tol)
    analysis = replace(_EDGES, lyapunov_sample=sample)
    reference = iterate(_CHAOS, seed, replace(iteration, max_steps=120))
    status = "singular" if stop == pole_at else "escaped"
    assert (reference.status, reference.stop_step) == (status, stop)
    if pole_at is None:  # a lone escape
        assert all(abs(z) <= escape_radius for z in points[stop + 1:122])
    if escape_at is None:  # a lone pole
        assert all(abs(1 + z) >= singular_tol for z in points[stop + 1:121])
    verdict = "singular" if status == "singular" else "unbounded"
    assert _lane_steps(monkeypatch, _CHAOS, seed, iteration, analysis) == (verdict, verdict, taken)


def test_lanes_close_an_escape_before_its_garbage_repeats(monkeypatch):
    # the lane escapes to inf at point 2, and from point 3 on its state is
    # nan bit for bit: the guards close it before the check at point 32
    # could take the repeat for a cycle
    params, seed = Parameters(1e308, 1e308), OrbitSeed(1, 1)
    assert iterate(params, seed).stop_step == 2
    assert _lane_steps(monkeypatch, params, seed, IterationSettings(max_steps=100), _EDGES) == (
        "unbounded", "unbounded", 31)


def test_a_decided_lane_is_stepped_no_more(monkeypatch):
    # lane 0 escapes at point 2, inside the first block (points 2..32);
    # from the next block on only the three chaotic lanes are stepped
    points = iterate(_CHAOS, _CHAOS_SEED, IterationSettings(max_steps=300)).points
    lanes = [(Parameters(1e308, 1e308), OrbitSeed(1, 1))]
    lanes += [(_CHAOS, OrbitSeed(*points[k:k + 2])) for k in (100, 200, 299)]
    iteration = IterationSettings(max_steps=100)
    taken = _count_lanes(monkeypatch)
    verdicts = classify_lanes(*(np.array(v) for v in zip(
        *((p.alpha, p.beta, s.z_minus1, s.z_0) for p, s in lanes))), iteration, _EDGES)
    assert verdicts == [classify_orbit(p, s, iteration, _EDGES).verdict for p, s in lanes]
    assert verdicts[0] == "unbounded"
    assert all(v in ("chaotic", "undetermined") for v in verdicts[1:])
    first = ratdiff.lanes._CHECK - 1
    # the three run on to the end of the reference orbit, point 121
    assert taken == [4] * first + [3] * (120 - first)


def _lanes_agree_on_the_exponent(params, seed, steps, transient, sample):
    # with no limit and no cycle to find, the verdict turns on the tangent
    # exponent alone: a chaos threshold a relative 1e-9 below it and one
    # above it part classify_orbit's verdicts, and the lanes must follow
    lam = lyapunov_max(params, seed, transient, sample).lambda_max
    iteration = IterationSettings(max_steps=steps)
    for threshold, verdict in ((lam - 1e-9 * abs(lam), "chaotic"),
                               (lam + 1e-9 * abs(lam), "undetermined")):
        analysis = AnalysisSettings(convergence_tol=-1.0, cycle_tol=-1.0, chaos_threshold=threshold,
                                    lyapunov_transient=transient, lyapunov_sample=sample)
        assert classify_orbit(params, seed, iteration, analysis).verdict == verdict
        assert classify_lanes(params.alpha, params.beta, seed.z_minus1, seed.z_0, iteration,
                              analysis) == [verdict]


def test_lane_tangent_near_the_pole():
    # |1 + z[0]| = 1e-10: the first tangent step grows w by about 1e10
    seed = OrbitSeed(0j, -1 + 1e-10)
    assert abs(1 + seed.z_0) < 1e-9
    _lanes_agree_on_the_exponent(_CHAOS, seed, 300, 0, 400)


@pytest.mark.parametrize("beta, after", [
    (1e-300, list(range(32))),  # after every step
    (1e-30 - 1e-30j, list(range(32))),  # the bounds' product passes 2**900
])
def test_lane_tangent_renormalises_within_a_block(beta, after):
    # every other step shrinks w by about |beta|: without the
    # renormalisations the bounds ask for within a block, w would
    # underflow to 0 and the exponent to -inf
    params = Parameters(0.2278 + 0.321j, beta)
    points = iterate(params, _CHAOS_SEED, IterationSettings(max_steps=40)).points
    z = np.array(points[8:41])
    assert sorted(ratdiff.lanes._renormalise_after(
        np.array([beta]), z.real[:, None], z.imag[:, None])) == after
    _lanes_agree_on_the_exponent(params, _CHAOS_SEED, 200, 20, 150)


@pytest.mark.parametrize("beta", [1e-300, 1e-30 - 1e-30j])
def test_lane_tangent_schedule_warns_of_no_overflow(beta):
    # the product of the block's bounds passes the largest double, and
    # outside np.errstate that must not raise a RuntimeWarning
    params = Parameters(0.2278 + 0.321j, beta)
    z = np.array(iterate(params, _CHAOS_SEED, IterationSettings(max_steps=40)).points[8:41])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        after = ratdiff.lanes._renormalise_after(np.array([beta]), z.real[:, None], z.imag[:, None])
    assert after == set(range(32))


def test_lane_tangent_collapses_for_zero_beta():
    # the tangent is 0 after two steps: -inf (or nan) is above no threshold
    params = Parameters(0.2278 + 0.321j, 0)
    assert lyapunov_max(params, _CHAOS_SEED, 20, 150).lambda_max == -np.inf
    analysis = AnalysisSettings(convergence_tol=-1.0, cycle_tol=-1.0, chaos_threshold=-1e300,
                                lyapunov_transient=20, lyapunov_sample=150)
    iteration = IterationSettings(max_steps=200)
    assert classify_orbit(params, _CHAOS_SEED, iteration, analysis).verdict == "undetermined"
    assert classify_lanes(params.alpha, params.beta, _CHAOS_SEED.z_minus1, _CHAOS_SEED.z_0,
                          iteration, analysis) == ["undetermined"]


# --- lanes that leave once their state repeats ------------------------------------

# the bench's mixed grid: alpha and the seed are fixed, beta takes dyadic
# cell centres, and most bounded cells end on an orbit that repeats bit
# for bit
_ALPHA, _SEED = 0.2278 + 0.321j, OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)
_QUICK = AnalysisSettings(lyapunov_transient=50, lyapunov_sample=100)


def _lane_and_orbit(monkeypatch, beta, seed, steps, analysis=_QUICK):
    """(classify_lanes' verdict, classify_orbit's verdict, steps the lane took)."""
    taken = _count_lanes(monkeypatch)
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
    rows = ratdiff.lanes._CHECK + 2  # a full block ring
    m = 5 * rows + 3
    k = np.arange(m - rows + 1, m + 1)  # the points the history holds, in order
    lanes = [
        [complex(i % 3, 0.0) for i in k],  # period 3, and so 6, 9, ...
        [complex(0.0 if i % 2 else -0.0, 0.0) for i in k],  # equal values, period 2 in bits
        [complex(i, 0.0) for i in k],  # no repeat
    ]
    hist = np.array(lanes).T
    re, im = np.ascontiguousarray(hist.real), np.ascontiguousarray(hist.imag)
    cols, periods = ratdiff.lanes._repeats(re, im)
    assert cols.tolist() == [0, 1] and periods.tolist() == [3, 2]
    # with a held mask, only the periods a lane holds count: the period-3
    # lane that holds only period 6 reports 6, and a lane that holds
    # nothing is not reported
    held = np.zeros((rows, 3), dtype=bool)
    held[6, 0] = held[2, 2] = True
    cols, periods = ratdiff.lanes._repeats(re, im, held)
    assert cols.tolist() == [0] and periods.tolist() == [6]


def test_settled_over_rows_gives_the_bits_and_verdicts_of_each_row_alone():
    rng = np.random.default_rng(5)
    tails = 0.3 - 0.7j + 1e-8 * (rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32)))
    tails[0] = 0.3 - 0.7j  # a constant row
    tails[1] = 0.3 - 0.7j + (tails[1] - 0.3 + 0.7j) / 10
    # tol is row 1's largest deviation from its mean, exactly
    tol = np.abs(tails[1] - tails[1].mean()).max()
    mean, settled = ratdiff.analysis._settled(tails, tol)
    for row, row_mean, row_settled in zip(tails, mean, settled):
        alone_mean, alone_settled = ratdiff.analysis._settled(row, tol)
        assert (row_mean.real.hex(), row_mean.imag.hex()) == (
            alone_mean.real.hex(), alone_mean.imag.hex())
        assert row_settled == alone_settled
    assert settled.tolist() == [True, True, False, False]


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
    # period 48 from point 971 on, longer than any repeat the block ring
    # can show; the cycle test's ring finds it once every period has been
    # tried
    assert ratdiff.lanes._CHECK < 48
    assert _lane_and_orbit(monkeypatch, -0.234375 - 1.171875j, _SEED, 4000) == (
        "periodic", "periodic", 2143)


@pytest.mark.parametrize("beta, verdict, taken", [
    (-0.796875 + 0.234375j, "converges", 479),
    (-0.890625 - 0.234375j, "converges", 767),
    (-0.796875 - 0.890625j, "periodic", 927),
    (0.234375 - 1.265625j, "periodic", 1215),
])
def test_lanes_retire_a_repeat_anywhere_in_the_block_ring(monkeypatch, beta, verdict, taken):
    # the state repeats with a period of 26 to 32, long before the cut at
    # 2,001: a check at a multiple of 32 sees the repeat only in all 34
    # rows of the block ring, or the lane stays until the cycle test's
    # ring decides it at point 2,144
    assert _lane_and_orbit(monkeypatch, beta, _SEED, 4000) == (verdict, verdict, taken)


def test_lanes_retire_a_cycle_that_starts_after_the_cut(monkeypatch):
    # 3,000 steps put the cut at 1,501, before the period-80 cycle starts
    # at point 1,878; the lane still holds the pair of period 80
    assert _lane_and_orbit(monkeypatch, 0.421875 - 1.078125j, _SEED, 3000) == (
        "periodic", "periodic", 1983)
    # 600 steps put the cut at 301, before the fixed point at 365
    assert _lane_and_orbit(monkeypatch, -0.046875 - 0.890625j, _SEED, 600) == (
        "converges", "converges", 447)


# bench cells at 3,000 steps, cut at 1,501: states that repeat every 48
# points from point 971 and every 80 from point 1,878, a converging lane
# that repeats after the cut, one that stays to the end, and chaos
_AFTER_THE_CUT = [-0.234375 - 1.171875j, 0.421875 - 1.078125j, -0.328125 - 0.984375j,
                  -0.515625 - 0.890625j, 0.82956 + 0.8221j]


@pytest.mark.parametrize("max_period, window", [
    (1, 32), (2, 32), (3, 32),  # the cycle test reads 1 to 3 points back
    (48, 32),  # the period-48 lane holds its pair only if every point 48 back is kept
    (200, 32),  # the ring grows to max_period + 34 rows, past the default's 162
    (128, 200), (3, 60),  # windows longer than max_period + _CHECK: it grows to theirs
])
def test_lanes_carry_what_the_cycle_test_and_the_window_read(max_period, window):
    analysis = replace(_QUICK, max_period=max_period, window=window)
    iteration = IterationSettings(max_steps=3000)
    expected = [classify_orbit(Parameters(_ALPHA, beta), _SEED, iteration, analysis).verdict
                for beta in _AFTER_THE_CUT]
    assert classify_lanes(_ALPHA, np.array(_AFTER_THE_CUT), _SEED.z_minus1, _SEED.z_0,
                          iteration, analysis) == expected
    assert (expected[0] == "periodic") == (max_period >= 48)


_CONSTANTS = {verdict: verdict for verdict in (
    ratdiff.analysis.VERDICT_CONVERGES, ratdiff.analysis.VERDICT_PERIODIC,
    ratdiff.analysis.VERDICT_UNBOUNDED, ratdiff.analysis.VERDICT_CHAOTIC,
    ratdiff.analysis.VERDICT_SINGULAR, ratdiff.analysis.VERDICT_UNDETERMINED)}


@pytest.mark.parametrize("beta, z_0, analysis, kinds", [
    # no exponent passes an infinite threshold: every lane stays undetermined
    ([0.82956 + 0.8221j] * 3, [_SEED.z_0] * 3, replace(_QUICK, chaos_threshold=np.inf), 1),
    # converges, periodic, chaotic, undetermined, an escape and the pole
    ([-0.046875 - 0.984375j, -0.328125 - 1.171875j, 0.82956 + 0.8221j, -0.234375 - 1.265625j,
      1e308, 0.5], [_SEED.z_0] * 5 + [-1], _QUICK, 6),
], ids=["all-undetermined", "mixed"])
def test_lane_verdicts_are_the_module_constants(beta, z_0, analysis, kinds):
    verdicts = classify_lanes(_ALPHA, np.array(beta), _SEED.z_minus1, np.array(z_0),
                              IterationSettings(max_steps=600), analysis)
    assert len(set(verdicts)) == kinds
    assert all(verdict is _CONSTANTS[verdict] for verdict in verdicts)


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
    assert ratdiff.lanes._CHECK > 21
    assert _lane_and_orbit(monkeypatch, beta, OrbitSeed(z, z), 20) == ("periodic", "periodic", 20)
