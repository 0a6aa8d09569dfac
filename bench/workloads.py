"""The benchmark's workloads: each is a list of ratdiff CLI invocations.

A workload seed selects small offsets of the rectangles, orbit seeds and
the scan's --rng-seed; seed 0 gives the reference argv documented in
bench/README.md.  The program only ever sees the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# chaotic parameter pair of the reference catalog.  Its attractor keeps
# |z| below 3e3 and |1 + z| above 1e-4 (200 random seeds, 1e5 steps
# each), far inside the escape radius and the pole guard, so long orbits
# complete, and every seed gives statistically the same digits to export.
CHAOS_ALPHA = "0.2278+0.3210i"
CHAOS_BETA = "0.82956+0.8221i"
ORBIT_SEED = (complex(0.1, 0.1), complex(0.2, -0.1))


@dataclass(frozen=True)
class Size:
    chaos_n: int
    mixed_n: int
    budget: int
    orbit_steps: int


SIZES = {
    "full": Size(chaos_n=16, mixed_n=32, budget=100_000, orbit_steps=100_000),
    # every tiny chaos-grid cell is re-classified by the output check
    "tiny": Size(chaos_n=2, mixed_n=6, budget=2_000, orbit_steps=2_000),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what its output must satisfy.

    check names the output check in checks.py.  out is the --out file
    name, relative to the run's work directory.  expect is everything
    the check needs to know about the generated input.
    """

    argv: tuple[str, ...]
    check: str
    out: str | None = None
    expect: dict = field(default_factory=dict)


def _num(v: float) -> str:
    return f"{v:.6g}"


def _literal(z: complex) -> str:
    return f"{_num(z.real)}{'-' if z.imag < 0 else '+'}{_num(abs(z.imag))}i"


def _rect(bounds: tuple[float, ...]) -> tuple[str, tuple[float, ...]]:
    """The --rect style literal and the bounds the CLI parses from it."""
    text = ",".join(_num(v) for v in bounds)
    return text, tuple(float(v) for v in text.split(","))


def _shift(rng: random.Random | None, scale: float) -> float:
    return rng.uniform(-scale, scale) if rng else 0.0


def _grid(rng, vary, half, n, fixed, **expect) -> Invocation:
    # offsets stay within a fifth of a cell, so the mix of verdicts and
    # with it the work per cell changes little from seed to seed
    cell = 2 * half / n
    dx, dy = _shift(rng, cell / 5), _shift(rng, cell / 5)
    text, rect = _rect((-half + dx, half + dx, -half + dy, half + dy))
    argv = ("grid", "--vary", vary, *fixed, f"--rect={text}",
            "--resolution", f"{n}x{n}")
    return Invocation(argv, "grid",
                      expect={"vary": vary, "rect": rect, "n": n, **expect})


def chaos_grid(rng, size: Size) -> list[Invocation]:
    return [_grid(rng, "seed", 1.0, size.chaos_n,
                  ("--alpha", CHAOS_ALPHA, "--beta", CHAOS_BETA),
                  alpha=CHAOS_ALPHA, beta=CHAOS_BETA)]


def mixed_grid(rng, size: Size) -> list[Invocation]:
    # --beta is required by the CLI but replaced by each cell's value
    seed = ",".join(map(_literal, ORBIT_SEED))
    return [_grid(rng, "beta", 1.5, size.mixed_n,
                  ("--alpha", CHAOS_ALPHA, "--beta", CHAOS_BETA, f"--seed={seed}"),
                  alpha=CHAOS_ALPHA, seed=seed)]


def margin_scan(rng, size: Size) -> list[Invocation]:
    a_text, a = _rect((-1 + _shift(rng, 0.02), 1 + _shift(rng, 0.02), -1, 1))
    b_text, b = _rect((-1, 1, -1 + _shift(rng, 0.02), 1 + _shift(rng, 0.02)))
    rng_seed = rng.randrange(1, 2**31) if rng else 7
    argv = ("scan", "--branch", "plus", f"--alpha-rect={a_text}",
            f"--beta-rect={b_text}", "--budget", str(size.budget),
            "--rng-seed", str(rng_seed))
    return [Invocation(argv, "scan", expect={
        "branch": "plus", "alpha_rect": a, "beta_rect": b, "budget": size.budget,
    })]


def cli_session(rng, size: Size) -> list[Invocation]:
    z1, z0 = (z + complex(_shift(rng, 0.05), _shift(rng, 0.05))
              for z in ORBIT_SEED)
    seed = f"{_literal(z1)},{_literal(z0)}"
    params = ("--alpha", CHAOS_ALPHA, "--beta", CHAOS_BETA)
    steps = size.orbit_steps
    orbit = ("orbit", *params, f"--seed={seed}", "--steps", str(steps))
    exports = [
        Invocation((*orbit, "--out", f"orbit.{fmt}", "--format", fmt),
                   f"orbit-{fmt}", out=f"orbit.{fmt}", expect={
                       "alpha": CHAOS_ALPHA, "beta": CHAOS_BETA,
                       "seed": seed, "steps": steps,
                   })
        for fmt in ("json", "csv", "svg")
    ]
    queries = [
        Invocation((cmd, *params), cmd)
        for cmd in ("equilibria", "stability", "trichotomy")
    ] + [
        Invocation((cmd, *params, f"--seed={seed}"), cmd)
        for cmd in ("period", "lyapunov")
    ] + [
        # the identities need beta = alpha + 1, which the CLI supplies
        Invocation(("identities", "--alpha", CHAOS_ALPHA, f"--seed={seed}"),
                   "identities"),
    ]
    return exports + queries


WORKLOADS = {
    "chaos-grid": chaos_grid,
    "mixed-grid": mixed_grid,
    "margin-scan": margin_scan,
    "cli-session": cli_session,
}


def invocations(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    """The workload's invocations for this seed; seed 0 is the reference argv."""
    rng = random.Random(f"{workload}/{seed}") if seed else None
    return WORKLOADS[workload](rng, SIZES[size])
