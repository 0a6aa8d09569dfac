"""Orbits of the map and the escape condition.

Iterates z[n+1] = (a + a*z[n] + b*z[n-1]) / (1 + z[n]) for a handful of
parameter choices and shows the three ways an orbit can end: completing
its step budget, escaping to infinity, or hitting the pole at z = -1.
Writes an SVG of a bounded orbit next to this script.
"""

import pathlib

from ratdiff import (
    IterationSettings,
    OrbitSeed,
    Parameters,
    ResultEnvelope,
    RunSpec,
    emit,
    format_complex,
    iterate,
    trichotomy,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# a parameter family where |beta| > |alpha+1| forces every orbit out
escaping = [
    (0.09594 + 0.06016j, 0.81950 + 0.77147j),
    (40 + 33j, 27 + 77j),
]
settings = IterationSettings(max_steps=100_000)
seed = OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j)

print("escape behavior for |beta| > |alpha+1|:")
for alpha, beta in escaping:
    p = Parameters(alpha, beta)
    t = trichotomy(p)
    orbit = iterate(p, seed, settings)
    print(f"  alpha={format_complex(alpha)}  |a+1|={t.rhs:.4f} |b|={t.lhs:.4f}"
          f"  -> {orbit.status} after {len(orbit.points) - 2} iterates")

# the pole: any orbit stepping onto z = -1 is cut off
orbit = iterate(Parameters(0, 1), OrbitSeed(-1, 0), IterationSettings(max_steps=10))
print(f"\npole demonstration: status={orbit.status} at index {orbit.stop_step}, "
      f"z={format_complex(orbit.points[orbit.stop_step])}")

# a bounded chaotic orbit, rendered to SVG via the CLI payload machinery
alpha, beta = 0.2278 + 0.3210j, 0.82956 + 0.8221j
orbit = iterate(Parameters(alpha, beta), seed, IterationSettings(max_steps=2000))
payload = {
    "kind": "orbit",
    "orbits": [{
        "seed": (seed.z_minus1, seed.z_0),
        "status": orbit.status,
        "stop_step": orbit.stop_step,
        "points": orbit.points,
    }],
}
envelope = ResultEnvelope(
    runspec=RunSpec(command="orbit", alpha=alpha, beta=beta,
                    seeds=((seed.z_minus1, seed.z_0),), steps=2000),
    version="demo", wall_time_s=0.0, payload=payload,
)
path = OUT / "bounded_orbit.svg"
emit(envelope, "svg", str(path))
print(f"\nbounded orbit with {len(orbit.points)} points written to {path}")
