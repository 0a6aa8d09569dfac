"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.

Three criteria contain catalog values that are verifiably not
reproducible from the stated inputs (see discrepancy_log.txt written by
this module and the notes in README.md); those tests are implemented
exactly as stated and fail honestly rather than being loosened:

* criterion 2: the minus-branch margin at the printed extremum argument,
* criterion 4: the listed two-cycle values of catalog rows 2 and 3,
* criterion 8: the magnitude of the first catalog Lyapunov rate.
"""

import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ratdiff import (
    GuardTripped,
    IterationSettings,
    OrbitSeed,
    Parameters,
    ball_certificate,
    characteristic_roots,
    clark_margin_at,
    classify,
    classify_orbit,
    detect_cycle,
    equilibria,
    iterate,
    linearization,
    lyapunov_divergence_oracle,
    lyapunov_max,
)
from ratdiff.invariants import check_identities
from ratdiff.serialize import format_complex

import cases

LOG_PATH = pathlib.Path(__file__).parent / "discrepancy_log.txt"


@pytest.fixture(scope="module", autouse=True)
def _fresh_log():
    LOG_PATH.write_text("")
    yield


def _log(line: str) -> None:
    with LOG_PATH.open("a") as fh:
        fh.write(line + "\n")


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] {criterion}: {tag}{suffix}")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ratdiff.cli", *args],
                          capture_output=True, text=True)


# --- criterion 1 -------------------------------------------------------------

def test_c01_golden_stability_values():
    p = Parameters(cases.GOLDEN_ALPHA, cases.GOLDEN_ALPHA)
    lo, hi = equilibria(p)
    co_lo, co_hi = linearization(p, lo), linearization(p, hi)
    v_lo, v_hi = classify(p, lo), classify(p, hi)
    checks = [
        abs(abs(co_lo.A) - cases.GOLDEN_MINUS_MODULI[0]) <= 1e-4,
        abs(abs(co_lo.C) - cases.GOLDEN_MINUS_MODULI[1]) <= 1e-4,
        abs(abs(co_hi.A) - cases.GOLDEN_PLUS_MODULI[0]) <= 1e-4,
        abs(abs(co_hi.C) - cases.GOLDEN_PLUS_MODULI[1]) <= 1e-4,
        v_lo.spectral == "unstable",
        v_hi.spectral == "stable" and v_hi.clark_holds,
    ]
    ok = all(checks)
    _report("criterion 1 (golden equilibria/stability values)", ok)
    assert ok, checks


# --- criterion 2 -------------------------------------------------------------

def test_c02_margin_values_at_reported_extrema():
    alpha_plus, want_plus = cases.MARGIN_PLUS_MAX
    got_plus = clark_margin_at(Parameters(alpha_plus, cases.MARGIN_BETA), "plus")
    plus_ok = abs(got_plus - want_plus) <= 5e-3

    # the 19.7392 claim, checked under both readings of the ambiguous
    # "--" sign typography; disagreement is logged, not failed
    for reading in cases.MARGIN_MINUS_MAX_READINGS:
        value = clark_margin_at(Parameters(reading, cases.MARGIN_MINUS_MAX_BETA), "minus")
        verdict = ("agrees" if abs(value - cases.MARGIN_MINUS_MAX_VALUE) <= 5e-3
                   else "disagrees")
        _log(f"minus-branch maximum claim {cases.MARGIN_MINUS_MAX_VALUE}: "
             f"alpha reading {format_complex(reading)} -> {value:.5f} ({verdict})")

    alpha_minus, want_minus = cases.MARGIN_MINUS_MIN_PRINTED
    got_minus = clark_margin_at(Parameters(alpha_minus, cases.MARGIN_BETA), "minus")
    minus_ok = abs(got_minus - want_minus) <= 5e-3
    if not minus_ok:
        flipped_alpha, _ = cases.MARGIN_MINUS_MIN_ACTUAL
        flipped = clark_margin_at(Parameters(flipped_alpha, cases.MARGIN_BETA), "minus")
        _log(f"minus-branch minimum claim {want_minus}: printed argument "
             f"{format_complex(alpha_minus)} -> {got_minus:.5f} (disagrees); "
             f"sign-flipped argument {format_complex(flipped_alpha)} -> "
             f"{flipped:.5f} (agrees)")

    ok = plus_ok and minus_ok
    detail = (f"plus={got_plus:.5f} (want {want_plus}), "
              f"minus={got_minus:.5f} (want {want_minus}"
              f"{'' if minus_ok else '; reproduces only at sign-flipped alpha, see discrepancy log'})")
    _report("criterion 2 (margin values at reported extrema)", ok, detail)
    assert plus_ok, f"plus-branch margin {got_plus} != {want_plus}"
    assert minus_ok, (
        f"minus-branch margin at the printed argument is {got_minus}, not "
        f"{want_minus}; the value reproduces at the sign-flipped alpha "
        f"(see {LOG_PATH.name})"
    )


# --- criterion 3 -------------------------------------------------------------

def test_c03_unbounded_catalog_escapes():
    rng = np.random.default_rng(301)
    settings = IterationSettings(max_steps=100_000)
    failures = []
    for idx, (alpha, beta, mod1, mod2) in enumerate(cases.UNBOUNDED_CASES, 1):
        p = Parameters(alpha, beta)
        if abs(abs(alpha + 1) - mod1) > 5e-4 or abs(abs(beta) - mod2) > 5e-4:
            failures.append(f"row {idx} moduli")
        for _ in range(5):
            seed = OrbitSeed(complex(*rng.uniform(-2, 2, 2)),
                             complex(*rng.uniform(-2, 2, 2)))
            orbit = iterate(p, seed, settings)
            if orbit.status != "escaped":
                failures.append(f"row {idx} seed {seed} -> {orbit.status}")
    ok = not failures
    _report("criterion 3 (unbounded catalog: all rows escape)", ok,
            "; ".join(failures))
    assert ok, failures


# --- criterion 4 -------------------------------------------------------------

def test_c04_period_two_catalog():
    settings = IterationSettings(max_steps=4000)
    failures = []
    for idx, (alpha, seed, pair) in enumerate(cases.PERIOD_TWO_CASES):
        result = classify_orbit(Parameters(alpha, alpha + 1), OrbitSeed(*seed),
                                settings)
        if result.verdict != "periodic" or result.cycle.period != 2:
            failures.append(f"row {idx}: verdict {result.verdict}")
            continue
        got = sorted(result.cycle.cycle_points, key=abs)
        want = sorted(pair, key=abs)
        worst = max(abs(g - w) for g, w in zip(got, want))
        if worst > 5e-3:
            failures.append(
                f"row {idx}: cycle {[format_complex(z) for z in got]} vs "
                f"listed {[format_complex(z) for z in want]} (off by {worst:.4g})"
            )
            _log(f"period-two catalog row {idx}: listed cycle does not "
                 f"reproduce from the listed seed (distance {worst:.4g}); "
                 f"the orbit locks onto a different pair of the same family")
    ok = not failures
    _report("criterion 4 (period-two catalog: cycles and values)", ok,
            "; ".join(failures) or "all 4 rows reproduce")
    assert ok, (
        f"rows with unreproducible listed values: {failures}; every row does "
        "lock onto a prime two-cycle, but rows 1 and 2 (0-indexed) lock onto "
        "pairs other than the listed ones (verified under both seed "
        "orderings and long runs)"
    )


# --- criterion 5 -------------------------------------------------------------

def test_c05_higher_period_catalog():
    settings = IterationSettings(max_steps=20_000)
    failures = []
    for idx, (alpha, beta, seed, period, mod1, mod2) in enumerate(
            cases.HIGHER_PERIOD_CASES):
        if abs(abs(alpha + 1) - mod1) > 5e-4 or abs(abs(beta) - mod2) > 5e-4:
            failures.append(f"row {idx} moduli")
        orbit = iterate(Parameters(alpha, beta), OrbitSeed(*seed), settings)
        report = detect_cycle(orbit, tol=1e-6)
        if report is None or report.period != period:
            failures.append(
                f"row {idx}: got {report.period if report else None}, want {period}"
            )
    ok = not failures
    _report("criterion 5 (higher-period catalog: 7/9/13/36/40)", ok,
            "; ".join(failures))
    assert ok, failures


# --- criterion 6 -------------------------------------------------------------

def test_c06_identity_suite():
    rng = np.random.default_rng(601)
    settings = IterationSettings(max_steps=100)
    worst = 0.0
    count = 0
    while count < 500:
        alpha = complex(*rng.uniform(-1, 1, 2))
        p = Parameters(alpha, alpha + 1)
        seed = OrbitSeed(complex(*rng.uniform(-2, 2, 2)),
                         complex(*rng.uniform(-2, 2, 2)))
        orbit = iterate(p, seed, settings)
        if orbit.status != "completed":
            continue
        report = check_identities(p, orbit)
        worst = max(worst, report.j_recurrence, report.gap_from_j,
                    report.gap_recursion, report.gap_product)
        count += 1
    ok = worst <= 1e-6
    _report("criterion 6 (identity suite, 500 random cases)", ok,
            f"worst relative residual {worst:.3e}")
    assert ok, worst


# --- criterion 7 -------------------------------------------------------------

def test_c07_ball_invariance():
    rng = np.random.default_rng(701)
    n_cases, n_steps = 1000, 10_000

    alphas = np.empty(n_cases, dtype=complex)
    betas = np.empty(n_cases, dtype=complex)
    eps = np.empty(n_cases)
    filled = 0
    while filled < n_cases:
        e = rng.uniform(0.05, 0.95)
        cap_a = e * (1 - e) / (1 + e)
        r_a = rng.uniform(0, 0.95 * cap_a)
        t_a = rng.uniform(0, 2 * np.pi)
        a = r_a * np.exp(1j * t_a)
        headroom = (1 - e - r_a / e) - r_a
        if headroom <= 0:
            continue
        r_b = rng.uniform(0, headroom)
        t_b = rng.uniform(0, 2 * np.pi)
        b = r_b * np.exp(1j * t_b)
        cert = ball_certificate(Parameters(complex(a), complex(b)), e)
        if not cert.valid:
            continue
        alphas[filled], betas[filled], eps[filled] = a, b, e
        filled += 1

    # independent vectorized iteration of all certified cases at once
    r = eps * np.sqrt(rng.uniform(0, 1, (2, n_cases)))
    t = rng.uniform(0, 2 * np.pi, (2, n_cases))
    z_prev = r[0] * np.exp(1j * t[0])
    z_curr = r[1] * np.exp(1j * t[1])
    worst_excess = 0.0
    for _ in range(n_steps):
        z_prev, z_curr = z_curr, (alphas + alphas * z_curr + betas * z_prev) / (1 + z_curr)
        worst_excess = max(worst_excess, float((np.abs(z_curr) - eps).max()))
    ok = worst_excess <= 1e-12
    _report("criterion 7 (ball invariance, 1000 certified cases)", ok,
            f"worst |z| - eps = {worst_excess:.3e}")
    assert ok, worst_excess


# --- criterion 8 -------------------------------------------------------------

def test_c08_lyapunov_catalog():
    rng = np.random.default_rng(801)
    failures = []
    row1_estimates = []
    agreement_worst = 0.0
    positive = skipped = 0
    for idx, (alpha, beta, reported, mod1, mod2) in enumerate(cases.CHAOTIC_CASES):
        p = Parameters(alpha, beta)
        if abs(abs(alpha + 1) - mod1) > 5e-4 or abs(abs(beta) - mod2) > 5e-4:
            failures.append(f"row {idx} moduli")
        if not abs(alpha + 1) > abs(beta):
            failures.append(f"row {idx} premise |alpha+1| > |beta|")
        for _ in range(10):
            seed = OrbitSeed(complex(*rng.uniform(-1, 1, 2)),
                             complex(*rng.uniform(-1, 1, 2)))
            try:
                tangent_est = lyapunov_max(p, seed, n_transient=500, n_sample=5000)
                oracle = lyapunov_divergence_oracle(p, seed, n=5000)
            except GuardTripped:
                skipped += 1
                continue
            if tangent_est.lambda_max <= 0:
                failures.append(f"row {idx}: lambda {tangent_est.lambda_max:.4f} <= 0")
            else:
                positive += 1
            gap = abs(tangent_est.lambda_max - oracle)
            agreement_worst = max(agreement_worst, gap)
            if gap > 0.1:
                failures.append(f"row {idx}: tangent/oracle gap {gap:.3f}")
            if idx == 0:
                row1_estimates.append(tangent_est.lambda_max)

    row1 = float(np.mean(row1_estimates))
    reported1 = cases.CHAOTIC_CASES[0][2]
    row1_ok = abs(row1 - reported1) <= 0.25
    if not row1_ok:
        failures.append(
            f"row 0 magnitude: estimate {row1:.4f} vs reported {reported1} "
            f"(both estimators agree with each other to "
            f"{agreement_worst:.3f}; the reported magnitude is not "
            "recoverable by a per-iteration natural-log exponent)"
        )
        _log(f"lyapunov catalog row 0: reported rate {reported1} vs "
             f"converged tangent/divergence estimate {row1:.4f}; the two "
             f"independent estimators agree with each other (worst gap "
             f"{agreement_worst:.3f}) and are validated on a textbook map, "
             f"so the reported magnitude is treated as unreproducible")
    ok = not failures
    _report("criterion 8 (lyapunov catalog)", ok,
            f"{positive} positive estimates, {skipped} skipped, "
            f"worst method gap {agreement_worst:.3f}, row-0 mean {row1:.4f}"
            + ("" if ok else "; " + "; ".join(failures)))
    assert ok, failures


# --- criterion 9 -------------------------------------------------------------

def test_c09_period_two_sweep():
    rng = np.random.default_rng(901)
    settings = IterationSettings(max_steps=4000)
    outcomes = {"periodic-2": 0, "converges": 0, "guarded": 0, "other": 0}
    others = []
    for _ in range(200):
        alpha = complex(*rng.uniform(-1, 1, 2))
        seed = OrbitSeed(complex(*rng.uniform(-1, 1, 2)),
                         complex(*rng.uniform(-1, 1, 2)))
        result = classify_orbit(Parameters(alpha, alpha + 1), seed, settings)
        if result.verdict == "periodic" and result.cycle.period == 2:
            outcomes["periodic-2"] += 1
        elif result.verdict == "converges":
            outcomes["converges"] += 1
        elif result.verdict in ("singular", "unbounded"):
            outcomes["guarded"] += 1
            _log(f"period-two sweep: guarded case alpha={format_complex(alpha)} "
                 f"-> {result.verdict}")
        else:
            outcomes["other"] += 1
            others.append((alpha, result.verdict))
    good = outcomes["periodic-2"] + outcomes["converges"]
    ok = good >= 0.95 * 200 and not others
    _report("criterion 9 (period-two conjecture sweep)", ok, str(outcomes))
    assert ok, (outcomes, others)


# --- criterion 10 ------------------------------------------------------------

def test_c10_clark_implies_spectral():
    rng = np.random.default_rng(1001)
    exceptions = []
    draws = 0
    while draws < 1000:
        p = Parameters(complex(*rng.uniform(-2, 2, 2)),
                       complex(*rng.uniform(-2, 2, 2)))
        draws += 1
        for eq in equilibria(p):
            if abs(1 + eq.z_bar) < 1e-9:
                continue
            coeffs = linearization(p, eq)
            if coeffs.clark_margin < 1:
                roots = characteristic_roots(coeffs)
                if not (abs(roots[0]) < 1 and abs(roots[1]) < 1):
                    exceptions.append((p, eq.branch))
    ok = not exceptions
    _report("criterion 10 (Clark margin < 1 implies |roots| < 1)", ok,
            f"{draws} draws, {len(exceptions)} exceptions")
    assert ok, exceptions


# --- criterion 11 ------------------------------------------------------------

def test_c11_cli_end_to_end(tmp_path):
    failures = []

    def check(name, condition, detail=""):
        if not condition:
            failures.append(f"{name}: {detail}")

    # orbit: unbounded catalog row 1, all three formats
    a, b, *_ = cases.UNBOUNDED_CASES[0]
    orbit_args = ("orbit", "--alpha", format_complex(a), "--beta",
                  format_complex(b), "--seed", "0.1+0.1i,0.2-0.1i",
                  "--steps", "2000")
    res = _run_cli(*orbit_args)
    check("orbit json", res.returncode == 0, res.stderr)
    payload = json.loads(res.stdout)["payload"]
    check("orbit escaped", payload["orbits"][0]["status"] == "escaped")
    res = _run_cli(*orbit_args, "--format", "csv")
    check("orbit csv", res.returncode == 0 and res.stdout.startswith("n,re,im"))
    res = _run_cli(*orbit_args, "--format", "svg",
                   "--out", str(tmp_path / "orbit.svg"))
    svg = (tmp_path / "orbit.svg").read_text()
    check("orbit svg", res.returncode == 0 and svg.startswith("<svg"))

    # equilibria: degenerate alpha = 0 pair
    res = _run_cli("equilibria", "--alpha", "0+0i", "--beta", "3+1i")
    payload = json.loads(res.stdout)["payload"]
    zs = [e["z"] for e in payload["equilibria"]]
    check("equilibria", res.returncode == 0 and zs == ["0.0+0.0i", "2.0+1.0i"], zs)

    # stability: golden parameter point
    res = _run_cli("stability", "--alpha", "1+1i", "--beta", "1+1i")
    payload = json.loads(res.stdout)["payload"]
    spectrals = [r["spectral"] for r in payload["reports"]]
    check("stability", spectrals == ["unstable", "stable"], spectrals)

    # trichotomy: unbounded catalog row 2 moduli
    a, b, mod1, mod2 = cases.UNBOUNDED_CASES[1]
    res = _run_cli("trichotomy", "--alpha", format_complex(a),
                   "--beta", format_complex(b))
    payload = json.loads(res.stdout)["payload"]
    check("trichotomy verdict", payload["verdict"] == "unbounded")
    check("trichotomy moduli",
          abs(payload["lhs"] - mod2) <= 5e-4 and abs(payload["rhs"] - mod1) <= 5e-4)

    # period: the period-13 catalog row
    a, b, seed, period, *_ = cases.HIGHER_PERIOD_CASES[2]
    res = _run_cli("period", "--alpha", format_complex(a), "--beta",
                   format_complex(b),
                   f"--seed={format_complex(seed[0])},{format_complex(seed[1])}")
    payload = json.loads(res.stdout)["payload"]
    check("period 13", res.returncode == 0 and payload["period"] == period,
          payload.get("period"))

    # lyapunov: stable fixed-point case is negative
    res = _run_cli("lyapunov", "--alpha", "1+1i", "--beta", "1+1i",
                   "--seed", "1.6+1.9i,1.5+2.0i",
                   "--transient", "200", "--sample", "2000")
    payload = json.loads(res.stdout)["payload"]
    check("lyapunov negative", payload["lambda_max"] < 0, payload["lambda_max"])

    # identities: catalog parameters, beta defaulted to alpha + 1
    res = _run_cli("identities", "--alpha", "0.1966+0.2511i",
                   "--seed", "82+24i,93+25i")
    payload = json.loads(res.stdout)["payload"]
    check("identities", all(payload[k] <= 1e-6 for k in
                            ("j_recurrence", "gap_from_j", "gap_recursion",
                             "gap_product")))

    # scan: deterministic given rng-seed, byte-identical payloads
    scan_args = ("scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1",
                 "--beta-rect=-1,1,-1,1", "--budget", "2000", "--rng-seed", "4")
    r1, r2 = _run_cli(*scan_args), _run_cli(*scan_args)
    pay1 = json.dumps(json.loads(r1.stdout)["payload"], sort_keys=True)
    pay2 = json.dumps(json.loads(r2.stdout)["payload"], sort_keys=True)
    check("scan deterministic", r1.returncode == 0 and pay1 == pay2)

    # grid: seed grid over a chaotic catalog row, svg + csv forms
    a, b, *_ = cases.CHAOTIC_CASES[0]
    grid_args = ("grid", "--alpha", format_complex(a), "--beta",
                 format_complex(b), "--vary", "seed", "--rect=-0.4,0.4,-0.4,0.4",
                 "--resolution", "2x2", "--steps", "800")
    res = _run_cli(*grid_args)
    payload = json.loads(res.stdout)["payload"]
    check("grid json", res.returncode == 0 and payload["nx"] == 2)
    res = _run_cli(*grid_args, "--format", "csv")
    check("grid csv", res.stdout.startswith("re,im,verdict"))
    res = _run_cli(*grid_args, "--format", "svg")
    check("grid svg", res.stdout.startswith("<svg"))
    r2 = _run_cli(*grid_args, "--format", "svg")
    check("grid svg deterministic", res.stdout == r2.stdout)

    ok = not failures
    _report("criterion 11 (CLI end-to-end)", ok, "; ".join(failures))
    assert ok, failures
