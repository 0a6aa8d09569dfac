import numpy as np
import pytest

from ratdiff import (
    AnalysisSettings,
    ComplexRect,
    GridSpec,
    IterationSettings,
    OrbitSeed,
    Parameters,
    classification_grid,
    clark_margin_at,
    classify_orbit,
    scan_margin,
)

import cases

UNIT = ComplexRect(-1, 1, -1, 1)


def _point_rect(z: complex) -> ComplexRect:
    return ComplexRect(z.real, z.real, z.imag, z.imag)


def test_clark_margin_matches_reference_points():
    alpha, expected = cases.MARGIN_PLUS_MAX
    assert clark_margin_at(Parameters(alpha, cases.MARGIN_BETA), "plus") \
        == pytest.approx(expected, abs=5e-3)
    assert clark_margin_at(Parameters(0.4 + 0.2j, 0), "minus") == 0


def test_scan_collapsed_region_is_direct_evaluation():
    alpha = 0.3 + 0.4j
    beta = -0.2 + 0.1j
    report = scan_margin("plus", _point_rect(alpha), _point_rect(beta),
                         budget=25, rng_seed=0)
    direct = clark_margin_at(Parameters(alpha, beta), "plus")
    assert report.max_value == direct
    assert report.min_value == direct
    assert report.argmax == (alpha, beta)


def test_scan_finds_reference_maximum_scale():
    # the reported plus-branch maximum 2.69519 lies in the unit bidisk
    report = scan_margin("plus", UNIT, UNIT, budget=100_000, rng_seed=7)
    assert report.max_value >= 2.5


def test_scan_minus_branch_claim_is_falsified():
    # the historical claim that the minus-branch margin never drops below 1
    # fails under the principal-square-root labeling: near the sqrt branch
    # cut (alpha close to -1 + i*t) with |beta| small, the minus label lands
    # on the near-constant-map equilibrium and the margin collapses toward 0
    report = scan_margin("minus", UNIT, UNIT, budget=30_000, rng_seed=11)
    assert report.min_value < 1.0
    # the counterexample is genuine: direct evaluation confirms it
    assert clark_margin_at(Parameters(*report.argmin), "minus") == report.min_value


def test_scan_three_by_three_brute_force():
    # scanning each collapsed cell equals brute-force enumeration
    alphas = [complex(a, b) for a in (-0.5, 0.0, 0.5) for b in (-0.4, 0.1, 0.6)]
    beta = 0.25 - 0.35j
    values = []
    for alpha in alphas:
        report = scan_margin("plus", _point_rect(alpha), _point_rect(beta),
                             budget=5, rng_seed=1)
        values.append(report.max_value)
    brute = [clark_margin_at(Parameters(alpha, beta), "plus") for alpha in alphas]
    assert values == brute


def test_scan_deterministic():
    a = scan_margin("plus", UNIT, UNIT, budget=4000, rng_seed=42)
    b = scan_margin("plus", UNIT, UNIT, budget=4000, rng_seed=42)
    assert a == b


def test_scan_monotone_in_budget():
    budgets = [500, 1000, 2000, 4000, 8000]
    reports = [scan_margin("plus", UNIT, UNIT, budget=n, rng_seed=3)
               for n in budgets]
    for small, large in zip(reports, reports[1:]):
        assert large.max_value >= small.max_value
        assert large.min_value <= small.min_value


def test_scan_report_self_consistent():
    report = scan_margin("minus", UNIT, UNIT, budget=3000, rng_seed=9)
    assert abs(clark_margin_at(Parameters(*report.argmax), "minus") - report.max_value) <= 1e-12
    assert abs(clark_margin_at(Parameters(*report.argmin), "minus") - report.min_value) <= 1e-12
    assert report.max_value >= report.min_value
    assert report.samples <= 3000


def test_scan_validates_inputs():
    with pytest.raises(ValueError):
        scan_margin("plus", UNIT, UNIT, budget=0, rng_seed=0)
    with pytest.raises(ValueError):
        scan_margin("center", UNIT, UNIT, budget=10, rng_seed=0)
    with pytest.raises(ValueError):
        ComplexRect(1, -1, 0, 1)


# --- classification grids ------------------------------------------------------

_FAST = IterationSettings(max_steps=1500)
_FAST_ANALYSIS = AnalysisSettings(lyapunov_transient=200, lyapunov_sample=1000)


def test_grid_single_cell_equals_classify():
    alpha, beta, *_ = cases.CHAOTIC_CASES[0]
    spec = GridSpec(vary="seed", region=ComplexRect(0.0, 0.2, 0.0, 0.2),
                    nx=1, ny=1, params=Parameters(alpha, beta))
    grid = classification_grid(spec, _FAST, _FAST_ANALYSIS)
    center = complex(0.1, 0.1)
    direct = classify_orbit(Parameters(alpha, beta), OrbitSeed(center, center),
                            _FAST, _FAST_ANALYSIS)
    assert grid.cells == ((direct.verdict,),)


def test_grid_seed_mode_majority_chaotic():
    alpha, beta, *_ = cases.CHAOTIC_CASES[0]
    spec = GridSpec(vary="seed", region=UNIT, nx=5, ny=5,
                    params=Parameters(alpha, beta))
    grid = classification_grid(spec, _FAST, _FAST_ANALYSIS)
    flat = [v for row in grid.cells for v in row]
    surviving = [v for v in flat if v not in ("unbounded", "singular")]
    chaotic = [v for v in surviving if v == "chaotic"]
    assert len(surviving) > 0
    assert len(chaotic) > len(surviving) / 2


def test_grid_matches_per_cell_classification():
    alpha, beta, *_ = cases.CHAOTIC_CASES[1]
    spec = GridSpec(vary="seed", region=ComplexRect(-0.6, 0.6, -0.6, 0.6),
                    nx=4, ny=3, params=Parameters(alpha, beta))
    grid = classification_grid(spec, _FAST, _FAST_ANALYSIS)
    assert grid.cells == tuple(
        tuple(classify_orbit(*spec.cell_case(ix, iy), _FAST, _FAST_ANALYSIS).verdict
              for ix in range(spec.nx))
        for iy in range(spec.ny)
    )


def test_grid_alpha_mode():
    # vary alpha across a window at fixed beta and seed: the far-right
    # cells land in the finite-limit regime, the left ones do not
    spec = GridSpec(
        vary="alpha",
        region=ComplexRect(-0.5, 3.0, 0.0, 0.4),
        nx=3, ny=1,
        params=Parameters(0, 0.9 + 0.2j),
        seed=OrbitSeed(0.1, 0.2),
    )
    grid = classification_grid(spec, _FAST, _FAST_ANALYSIS)
    assert len(grid.cells) == 1 and len(grid.cells[0]) == 3
    assert grid.cells[0][2] == "converges"


def test_grid_requires_seed_for_parameter_mode():
    with pytest.raises(ValueError):
        GridSpec(vary="beta", region=UNIT, nx=2, ny=2,
                 params=Parameters(0.1, 0.2))
