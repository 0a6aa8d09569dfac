"""Randomized search for Clark-margin extrema over the unit bidisk.

The margin functional is non-smooth, so the search interleaves global
uniform draws with shrinking local proposals around the incumbents.
With a fixed rng seed the scan is fully reproducible, and its extrema
are monotone in the budget.
"""

import pathlib

from ratdiff import (
    ComplexRect,
    Parameters,
    ResultEnvelope,
    RunSpec,
    clark_margin_at,
    emit,
    format_complex,
    scan_margin,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

UNIT = ComplexRect(-1, 1, -1, 1)

for branch in ("plus", "minus"):
    report = scan_margin(branch, UNIT, UNIT, budget=100_000, rng_seed=2024)
    print(f"{branch} branch over the unit bidisk "
          f"({report.samples} usable samples):")
    print(f"  max {report.max_value:.5f} at alpha={format_complex(report.argmax[0])}, "
          f"beta={format_complex(report.argmax[1])}")
    print(f"  min {report.min_value:.5f} at alpha={format_complex(report.argmin[0])}, "
          f"beta={format_complex(report.argmin[1])}")
    # the report is self-consistent: evaluating at the winner reproduces it
    assert clark_margin_at(Parameters(*report.argmax), branch) == report.max_value

print("\nbudget monotonicity (plus branch, shared stream):")
for budget in (1000, 10_000, 100_000):
    r = scan_margin("plus", UNIT, UNIT, budget=budget, rng_seed=7)
    print(f"  budget {budget:>7}: max {r.max_value:.5f}  min {r.min_value:.5f}")

report = scan_margin("plus", UNIT, UNIT, budget=50_000, rng_seed=2024)
payload = {
    "kind": "scan", "branch": "plus",
    "max_value": report.max_value,
    "argmax": report.argmax,
    "min_value": report.min_value,
    "argmin": report.argmin,
    "samples": report.samples,
}
envelope = ResultEnvelope(
    runspec=RunSpec(command="scan", branch="plus", alpha_rect=UNIT,
                    beta_rect=UNIT, budget=50_000, rng_seed=2024),
    version="demo", wall_time_s=0.0, payload=payload,
)
path = OUT / "margin_scan.svg"
emit(envelope, "svg", str(path))
print(f"\nextrema chart written to {path}")
