"""Higher-order periodic orbits: a small zoo of locked cycles.

Away from the beta = alpha + 1 regime the map still produces bounded
orbits that lock onto cycles of substantial length.  This demo detects
the minimal periods for a catalog of parameter/seed combinations and
renders the period-13 orbit to SVG.
"""

import pathlib

from ratdiff import (
    IterationSettings,
    OrbitSeed,
    Parameters,
    ResultEnvelope,
    RunSpec,
    detect_cycle,
    emit,
    format_complex,
    iterate,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

CASES = [
    (0.0098 + 0.5323j, 0.2794 + 0.9462j, (-0.5938 - 0.3212j, -1.2230 + 1.7184j)),
    (0.2021 + 0.4539j, 0.4280 + 0.9660j, (-0.6653 + 2.800j, 0.2991 + 0.6178j)),
    (89 + 55j, 32 + 90j, (0.01272 + 0.6399j, -0.06293 + 0.02114j)),
    (0.2776 + 0.65251j, -0.7224 + 0.65251j, (-0.5909 + 3.2147j, 0.02654 + 0.4106j)),
    (0.0524 + 0.3234j, 0.7996 + 0.6302j, (0.4480 + 0.2593j, -1.03264 + 0.7212j)),
]

settings = IterationSettings(max_steps=20_000)
print("minimal periods (20000-step orbits, relative lock tolerance 1e-6):")
for alpha, beta, seed in CASES:
    orbit = iterate(Parameters(alpha, beta), OrbitSeed(*seed), settings)
    report = detect_cycle(orbit)
    period = report.period if report else "none"
    onset = report.onset if report else "-"
    print(f"  alpha={format_complex(alpha):>24}  period={period:>4}  "
          f"locked from step {onset}")

# render the period-13 cycle: the last few hundred points trace the cycle
alpha, beta, seed = CASES[2]
orbit = iterate(Parameters(alpha, beta), OrbitSeed(*seed), settings)
tail = orbit.points[-400:]
payload = {
    "kind": "orbit",
    "orbits": [{
        "seed": seed,
        "status": orbit.status,
        "stop_step": None,
        "points": tail,
    }],
}
envelope = ResultEnvelope(
    runspec=RunSpec(command="orbit", alpha=alpha, beta=beta,
                    seeds=(seed,), steps=20_000),
    version="demo", wall_time_s=0.0, payload=payload,
)
path = OUT / "period13_orbit.svg"
emit(envelope, "svg", str(path))
print(f"\nperiod-13 attractor (last 400 points) written to {path}")
