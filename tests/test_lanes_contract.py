"""The batch contract of classify_lanes: a lane's verdict ignores its batch.

Each property draws a mixed batch: lanes with alpha and beta near the
chaotic catalog pair and seeds in [-1, 1]^2, among which are injected
lanes that escape at the seed, sit on the pole (z_0 = -1), have beta = 0,
start on an exact fixed point, or start on a period-4 cycle.  300 steps
put the transient cut at point 151, a repeat check after it at point 288
(where the cycle test's ring decides), and with 300 sample steps the
Lyapunov reference orbit runs on past the orbit's end to point 321.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratdiff.lanes
from ratdiff import (AnalysisSettings, IterationSettings, OrbitSeed, Parameters, classify_lanes,
                     classify_orbit, iterate)

import cases

_ALPHA, _BETA = cases.CHAOTIC_CASES[0][:2]
_ITERATION = IterationSettings(max_steps=300)
_ANALYSIS = AnalysisSettings(lyapunov_transient=20, lyapunov_sample=300)


def _lane_on(beta, start):
    """The lane of (_ALPHA, beta) seeded at points start, start + 1 of its orbit."""
    points = iterate(Parameters(_ALPHA, beta), OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j),
                     IterationSettings(max_steps=start + 1)).points
    return (_ALPHA, beta, points[start], points[start + 1])


# constant from point 365 on, and on a period-4 cycle from point 486 on
_FIXED = _lane_on(-0.046875 - 0.890625j, 398)
_CYCLE = _lane_on(-0.984375 - 0.421875j, 490)

# each injection takes a drawn lane to (lane, the verdict it must get or None)
_INJECT = {
    "plain": lambda lane: (lane, None),
    "escape": lambda lane: ((*lane[:3], complex(2e6, lane[3].imag)), "unbounded"),
    "pole": lambda lane: ((*lane[:3], -1 + 0j), "singular"),
    "beta0": lambda lane: ((lane[0], 0j, *lane[2:]), None),
    "fixed": lambda lane: (_FIXED, "converges"),
    "cycle": lambda lane: (_CYCLE, "periodic"),
}


def _lane(near, seed, kinds):
    lane = st.tuples(near(_ALPHA), near(_BETA), seed, seed)
    kind = st.sampled_from(["plain"] * 5 + kinds)
    return st.builds(lambda lane, kind: _INJECT[kind](lane), lane, kind)


_PART = st.floats(-0.6, 0.6)
_UNIT = st.floats(-1, 1)
_LANE = _lane(lambda z: st.builds(lambda re, im: z + complex(re, im), _PART, _PART),
              st.builds(complex, _UNIT, _UNIT), ["escape", "pole", "beta0", "fixed", "cycle"])
_BATCH = st.lists(_LANE, min_size=1, max_size=70)
# the fixed point and the cycle are complex, so real batches leave them out
_REAL_BATCH = st.lists(_lane(lambda z: st.builds(lambda re: complex(z.real + re), _PART),
                             st.builds(complex, _UNIT), ["escape", "pole", "beta0"]),
                       min_size=1, max_size=70)
_SETTINGS = settings(max_examples=8, deadline=None)


def _classify(lanes):
    return classify_lanes(*(np.array(v) for v in zip(*lanes)), _ITERATION, _ANALYSIS)


@_SETTINGS
@given(batch=_BATCH, data=st.data())
def test_permuting_the_lanes_permutes_the_verdicts(batch, data):
    lanes = [lane for lane, _ in batch]
    verdicts = _classify(lanes)
    assert all(verdict == expected for verdict, (_, expected) in zip(verdicts, batch) if expected)
    order = data.draw(st.permutations(range(len(lanes))))
    assert _classify([lanes[i] for i in order]) == [verdicts[i] for i in order]


@pytest.mark.parametrize("size", [1, 7, 33])  # one lane, a prime, more than _CHECK
@_SETTINGS
@given(data=st.data())
def test_chunks_joined_equal_one_call(size, data):
    assert ratdiff.lanes._CHECK < 33
    # more lanes than one chunk, and few enough chunks to stay quick
    lanes = [lane for lane, _ in data.draw(st.lists(_LANE, min_size=size + 1,
                                                    max_size=3 * size + 10))]
    joined = [verdict for i in range(0, len(lanes), size) for verdict in _classify(lanes[i:i + size])]
    assert joined == _classify(lanes)


@_SETTINGS
@given(batch=_BATCH)
def test_conjugating_every_lane_leaves_the_verdicts(batch):
    lanes = [lane for lane, _ in batch]
    assert _classify([[z.conjugate() for z in lane] for lane in lanes]) == _classify(lanes)


@_SETTINGS
@given(batch=_REAL_BATCH)
def test_real_lanes_take_classify_orbit_verdicts(batch):
    lanes = [lane for lane, _ in batch]
    assert all(z.imag == 0 for lane in lanes for z in lane)
    assert _classify(lanes) == [
        classify_orbit(Parameters(alpha, beta), OrbitSeed(z_minus1, z_0), _ITERATION,
                       _ANALYSIS).verdict
        for alpha, beta, z_minus1, z_0 in lanes]
