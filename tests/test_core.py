import cmath
import math

import numpy as np
import pytest

from ratdiff import (
    GuardTripped,
    IterationSettings,
    OrbitSeed,
    Parameters,
    classify_orbit,
    equilibria,
    iterate,
    step,
    tangent,
)
from ratdiff.core import _lane_step, _within


def test_step_zero_parameters():
    assert step(Parameters(0, 0), 3 + 4j, 0) == 0


def test_step_direct_value():
    p = Parameters(1 + 1j, 1 + 1j)
    assert step(p, 1, 1) == pytest.approx(1.5 + 1.5j)


def test_step_fixes_equilibria():
    p = Parameters(0.3 - 0.7j, 1.1 + 0.2j)
    for eq in equilibria(p):
        z = eq.z_bar
        assert abs(step(p, z, z) - z) <= 1e-9 * (1 + abs(z))


def test_step_pole_raises():
    with pytest.raises(GuardTripped) as excinfo:
        step(Parameters(1, 1), 0.5, -1)
    assert excinfo.value.status == "singular"


def test_step_near_pole_raises():
    with pytest.raises(GuardTripped):
        step(Parameters(1, 1), 0.5, -1 + 1e-13j)


def test_step_never_returns_nonfinite():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b, zp, zc = (complex(*rng.uniform(-5, 5, 2)) for _ in range(4))
        try:
            z = step(Parameters(a, b), zp, zc)
        except GuardTripped:
            continue
        assert cmath.isfinite(z)


def test_parameters_reject_nonfinite():
    with pytest.raises(ValueError):
        Parameters(float("nan"), 0)
    with pytest.raises(ValueError):
        OrbitSeed(0, complex(0, float("inf")))


def test_settings_validation():
    with pytest.raises(ValueError):
        IterationSettings(max_steps=0)
    with pytest.raises(ValueError):
        IterationSettings(escape_radius=0.5)
    with pytest.raises(ValueError):
        IterationSettings(singular_tol=2.0)


def test_iterate_constant_at_equilibrium():
    p = Parameters(1 + 1j, 1 + 1j)
    z = equilibria(p)[1].z_bar
    orbit = iterate(p, OrbitSeed(z, z), IterationSettings(max_steps=50))
    assert orbit.status == "completed"
    assert all(abs(pt - z) <= 1e-9 * (1 + abs(z)) for pt in orbit.points)


def test_iterate_escapes_for_large_parameters():
    # unbounded catalog entry: alpha=40+33i, beta=27+77i
    p = Parameters(40 + 33j, 27 + 77j)
    orbit = iterate(p, OrbitSeed(0.3 - 0.2j, -0.4 + 0.1j),
                    IterationSettings(max_steps=10_000))
    assert orbit.status == "escaped"
    assert abs(orbit.points[orbit.stop_step]) > 1e6


def test_iterate_nonfinite_iterate_escapes():
    # 1e308j * 3j + 1e308 * 2 overflows to -inf + inf = nan, which no
    # magnitude bound catches; the guard must call it escaped
    p, seed = Parameters(1e308j, 1e308), OrbitSeed(2, 3j)
    orbit = iterate(p, seed, IterationSettings(max_steps=10))
    assert orbit.status == "escaped"
    assert orbit.stop_step == 2 and not cmath.isfinite(orbit.points[2])
    assert classify_orbit(p, seed).verdict == "unbounded"


def test_iterate_modulus_overflow_escapes():
    # finite parts whose modulus is above the largest double: abs() raises
    # OverflowError there, and the guard must call the iterate escaped
    p = Parameters(1.5e308 + 1.5e308j, 0)
    orbit = iterate(p, OrbitSeed(0, 0), IterationSettings(max_steps=3))
    assert orbit.status == "escaped" and orbit.stop_step == 2
    assert orbit.points[2] == 1.5e308 + 1.5e308j
    assert classify_orbit(p, OrbitSeed(0, 0)).verdict == "unbounded"
    orbit = iterate(Parameters(1, 1), OrbitSeed(1.5e308 + 1.5e308j, 0))
    assert orbit.status == "escaped" and orbit.stop_step == 0


def test_step_and_tangent_modulus_overflow_escapes():
    # the same rule for a single step and for the Jacobian: a modulus above
    # the largest double is outside, not an OverflowError
    for f in (step, tangent):
        with pytest.raises(GuardTripped) as info:
            f(Parameters(1, 1), 0j, 1.5e308 + 1.5e308j)
        assert info.value.status == "escaped"


def test_iterate_zero_map_reaches_zero():
    orbit = iterate(Parameters(0, 0), OrbitSeed(2 + 3j, -0.7j),
                    IterationSettings(max_steps=10))
    assert orbit.points[2] == 0
    assert all(pt == 0 for pt in orbit.points[2:])
    assert orbit.status == "completed"


def test_iterate_singular_status():
    # alpha = 0, beta = 1: z1 = z_{-1}, so a seed of (-1, 0) hits the pole
    orbit = iterate(Parameters(0, 1), OrbitSeed(-1, 0),
                    IterationSettings(max_steps=10))
    assert orbit.status == "singular"
    k = orbit.stop_step
    assert abs(1 + orbit.points[k]) < 1e-12


def test_iterate_records_seed_first():
    orbit = iterate(Parameters(0.1, 0.2), OrbitSeed(5 + 1j, -2j),
                    IterationSettings(max_steps=3))
    assert orbit.points[0] == 5 + 1j
    assert orbit.points[1] == -2j
    assert len(orbit.points) == 5


def test_iterate_deterministic_bitwise():
    p = Parameters(0.3 + 0.4j, -0.2 + 0.9j)
    seed = OrbitSeed(0.11 - 0.3j, 0.7 + 0.02j)
    s = IterationSettings(max_steps=300)
    a = iterate(p, seed, s)
    b = iterate(p, seed, s)
    assert a.points == b.points and a.status == b.status


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _check_lanes(alpha, beta, z_prev, z_curr, tol, radius):
    """_lane_step against step() and abs(), lane by lane, by float.hex.

    Returns the (singular, escaped) masks, all False where _lane_step
    reports that no lane tripped.
    """
    lanes = [np.asarray(v, dtype=complex) for v in (alpha, beta, z_prev, z_curr)]
    parts = [np.ascontiguousarray(part) for z in lanes for part in (z.real, z.imag)]
    with np.errstate(all="ignore"):
        x_re, x_im, singular, escaped = _lane_step(*parts, tol, radius)
    if singular is None:
        assert escaped is None
        singular = escaped = np.zeros(x_re.shape, dtype=bool)
    for i, (a, b, zp, zc) in enumerate(zip(*(z.tolist() for z in lanes))):
        try:
            expected = step(Parameters(a, b), zp, zc, tol)
        except GuardTripped:
            assert singular[i] and not escaped[i]
            continue
        assert not singular[i]
        assert _bits(complex(x_re[i], x_im[i])) == _bits(expected)
        assert escaped[i] == (not _within(expected, radius))
    return singular, escaped


def test_lane_step_matches_step_bit_for_bit():
    # the batched grid's orbit kernel must round exactly like CPython's
    # complex arithmetic, signed zeros included, in both Smith branches
    rng = np.random.default_rng(11)
    n = 3000

    def draw():
        z = np.empty(n, dtype=complex)
        for part in (z.real, z.imag):
            part[:] = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3, 3, n)
            part[rng.random(n) < 0.05] = 0.0
            part[rng.random(n) < 0.05] = -0.0
        return z

    alpha, beta, z_prev, z_curr = draw(), draw(), draw(), draw()
    z_curr[:50] = -1  # on the pole
    real_major = np.abs(1 + z_curr.real) >= np.abs(z_curr.imag)
    assert 0.2 < real_major.mean() < 0.8
    singular, escaped = _check_lanes(alpha, beta, z_prev, z_curr, 1e-12, 50.0)
    assert singular.sum() == 50 and 0 < escaped.sum() < n
    # lanes that pass the cheap bounds give no masks at all
    inside = (np.abs(1 + z_curr.real) >= 1e-12) & ~escaped
    inside &= np.maximum(np.abs(alpha), np.abs(beta)) < 3  # keep z_next within 25 of 0
    inside &= np.maximum(np.abs(z_prev), np.abs(z_curr)) < 3
    inside &= np.abs(1 + z_curr) > 1
    lanes = [np.ascontiguousarray(part) for z in (alpha, beta, z_prev, z_curr)
             for part in (z.real[inside], z.imag[inside])]
    with np.errstate(all="ignore"):
        assert _lane_step(*lanes, 1e-12, 50.0)[2:] == (None, None)
    assert inside.sum() > 20


_TOL = 2.0 ** -40  # 1 + (-1 + _TOL) is _TOL exactly
_RADIUS = 64.0
_HUGE = 1.7e308


@pytest.mark.parametrize("z_curr, singular", [
    # the larger part of 1 + z_curr at singular_tol, and just below it
    (complex(-1 + _TOL, 0.0), False),
    (complex(-1 - _TOL, -0.0), False),
    (complex(-1 + _TOL - 2.0 ** -53, 0.0), True),  # the next 1 + x below _TOL
    (complex(-1.0, _TOL), False),
    (complex(-1.0, -_TOL), False),
    (complex(-1.0, math.nextafter(_TOL, 0)), True),
    (complex(-1.0, -math.nextafter(_TOL, 0)), True),
    # both parts below singular_tol, the modulus above it: only hypot decides
    (complex(-1 + 0.75 * _TOL, 0.75 * _TOL), False),
    (complex(-1 + 0.5 * _TOL, 0.5 * _TOL), True),
    (complex(-1.0, 0.0), True),
])
def test_lane_step_singular_guard_at_its_edge(z_curr, singular):
    # z_prev = 0 keeps z_next near alpha, well inside the escape bound, so
    # that the pole bound alone decides whether the moduli are computed
    lanes = (0.5 + 0.25j, 0.75 - 0.5j, 0j, z_curr)
    got, _ = _check_lanes(*([v] for v in lanes), _TOL, _RADIUS)
    assert got.tolist() == [singular]


# with beta = 0 and z_curr = 0, z_next is alpha bit for bit
@pytest.mark.parametrize("z_next, escaped", [
    (complex(_RADIUS / 2, 0.0), False),
    (complex(-0.0, -_RADIUS / 2), False),
    (complex(math.nextafter(_RADIUS / 2, math.inf), 1.0), False),
    (complex(_RADIUS / 2, _RADIUS / 2), False),
    (complex(0.7 * _RADIUS, -0.7 * _RADIUS), False),  # fails the bound, inside
    (complex(0.75 * _RADIUS, 0.75 * _RADIUS), True),
    (complex(_RADIUS, 0.0), False),  # on the escape circle is inside
    (complex(0.0, -_RADIUS), False),
    (complex(math.nextafter(_RADIUS, math.inf), 0.0), True),
    (complex(0.0, math.nextafter(-_RADIUS, -math.inf)), True),
    (complex(_HUGE, _HUGE), True),  # finite parts, the modulus overflows
    (complex(-_HUGE, 1.0), True),
])
def test_lane_step_escape_guard_at_its_edge(z_next, escaped):
    _, got = _check_lanes([z_next], [0j], [0.5 - 0.5j], [0j], _TOL, _RADIUS)
    assert got.tolist() == [escaped]


def test_lane_step_edges_together():
    # every edge in one batch, next to ordinary lanes, and parts whose sum
    # or quotient leaves the doubles
    z_curr = [complex(-1 + _TOL, 0.0), complex(-1.0, math.nextafter(_TOL, 0)),
              complex(-1 + 0.75 * _TOL, 0.75 * _TOL), 0j, 0j, 0j, 1 + 0j, 3j, 0.5 - 0.25j]
    alpha = [0.5 + 0.25j] * 3 + [complex(_RADIUS, 0.0), complex(_HUGE, _HUGE),
                                 complex(0.7 * _RADIUS, 0.7 * _RADIUS), complex(_HUGE, 0.0),
                                 1e308j, 0.1 + 0.2j]
    beta = [0.75 - 0.5j] * 3 + [0j] * 4 + [1e308 + 0j, 0.3 - 0.1j]
    z_prev = [0j] * 7 + [2 + 0j, -0.2 + 0.4j]
    singular, escaped = _check_lanes(alpha, beta, z_prev, z_curr, _TOL, _RADIUS)
    assert singular.tolist() == [False, True] + [False] * 7
    assert escaped.tolist() == [False] * 4 + [True, False, True, True, False]


def test_tangent_zero_beta():
    assert tangent(Parameters(2 - 1j, 0), 0.4 + 0.1j, 1.3j) == (0, 0)


def test_tangent_golden_moduli():
    # alpha = beta = 1+1i at the stable equilibrium
    p = Parameters(1 + 1j, 1 + 1j)
    z = equilibria(p)[1].z_bar
    a11, a12 = tangent(p, z, z)
    assert abs(-a11) == pytest.approx(0.340882, abs=1e-4)
    assert abs(a12) == pytest.approx(0.439849, abs=1e-4)


def test_tangent_pole_raises():
    with pytest.raises(GuardTripped):
        tangent(Parameters(1, 2), 0.3, -1 + 1e-14j)


def test_tangent_matches_finite_differences():
    # central differences of step, h = 1e-6, relative error <= 1e-5
    rng = np.random.default_rng(42)
    h = 1e-6
    checked = 0
    while checked < 200:
        a, b, zp, zc = (complex(*rng.uniform(-3, 3, 2)) for _ in range(4))
        if abs(1 + zc) <= 1e-3:
            continue
        p = Parameters(a, b)
        a11, a12 = tangent(p, zp, zc)
        d_curr = (step(p, zp, zc + h) - step(p, zp, zc - h)) / (2 * h)
        d_prev = (step(p, zp + h, zc) - step(p, zp - h, zc)) / (2 * h)
        assert abs(a11 - d_curr) <= 1e-5 * (1 + abs(d_curr))
        assert abs(a12 - d_prev) <= 1e-5 * (1 + abs(d_prev))
        checked += 1
