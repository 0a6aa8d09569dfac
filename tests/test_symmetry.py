"""Exact symmetries of the map, checked on random inputs.

Complex conjugation commutes with every operation the map uses (sums,
products, Smith's division, moduli), so conjugating the parameters and
the seed conjugates the whole orbit exactly and leaves every modulus,
hence every guard decision and the Lyapunov exponent, unchanged.  Real
parameters with a real seed keep every imaginary part exactly zero.
Magnitudes are bounded so no intermediate overflows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ratdiff import (
    GuardTripped,
    IterationSettings,
    OrbitSeed,
    Parameters,
    iterate,
    lyapunov_max,
)

_REAL = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
_COMPLEX = st.builds(complex, _REAL, _REAL)
_STEPS = IterationSettings(max_steps=500)


def _lyapunov(params, seed):
    try:
        return lyapunov_max(params, seed, n_transient=100, n_sample=400).lambda_max
    except GuardTripped as exc:
        return exc.status


@settings(max_examples=50, deadline=None)
@given(alpha=_COMPLEX, beta=_COMPLEX, z_minus1=_COMPLEX, z_0=_COMPLEX)
def test_conjugation_conjugates_orbit(alpha, beta, z_minus1, z_0):
    params, seed = Parameters(alpha, beta), OrbitSeed(z_minus1, z_0)
    mirror = Parameters(alpha.conjugate(), beta.conjugate())
    mirror_seed = OrbitSeed(z_minus1.conjugate(), z_0.conjugate())
    orbit = iterate(params, seed, _STEPS)
    image = iterate(mirror, mirror_seed, _STEPS)
    assert image.status == orbit.status
    assert image.stop_step == orbit.stop_step
    assert image.points == tuple(z.conjugate() for z in orbit.points)
    assert _lyapunov(mirror, mirror_seed) == _lyapunov(params, seed)


@settings(max_examples=50, deadline=None)
@given(alpha=_REAL, beta=_REAL, z_minus1=_REAL, z_0=_REAL)
def test_real_parameters_and_seed_give_real_orbit(alpha, beta, z_minus1, z_0):
    orbit = iterate(Parameters(alpha, beta), OrbitSeed(z_minus1, z_0), _STEPS)
    assert all(z.imag == 0 for z in orbit.points)
