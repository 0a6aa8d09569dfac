"""Output checks: each returns (items produced, list of problems found).

The orbit checks test the recurrence itself, not the program's code, so
they hold for any correct implementation of the map.  The grid and scan
checks recompute a sample of results in-process with the public API.
Every check runs outside the timed region.
"""

from __future__ import annotations

import csv
import json
import random
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

from ratdiff.analysis import classify_orbit
from ratdiff.core import IterationSettings, OrbitSeed, Parameters
from ratdiff.stability import clark_margin_at

from workloads import Invocation

GRID_STEPS = 4000  # the CLI's default --steps for grid
GRID_SAMPLE = 8  # cells re-classified in-process per grid output
RECURRENCE_TOL = 1e-12  # relative to the size of the terms


def literal(text: str) -> complex:
    """Parse the CLI's "a+bi" literal."""
    if not text.endswith("i"):
        return complex(float(text))
    return complex(text[:-1] + "j")


def _seed_pair(text: str) -> tuple[complex, complex]:
    first, second = text.split(",")
    return literal(first), literal(second)


def _envelope(stdout: str, kind: str) -> tuple[dict, list[str]]:
    try:
        env = json.loads(stdout)
    except ValueError as exc:
        return {}, [f"output is not JSON: {exc}"]
    payload = env.get("payload", {})
    if "error" in env or payload.get("kind") != kind:
        return payload, [f"expected a {kind} payload, got {env.get('error') or payload.get('kind')}"]
    return payload, []


def recurrence_problems(alpha: complex, beta: complex, points) -> list[str]:
    """|z[n+1](1+z[n]) - (a + a z[n] + b z[n-1])| must vanish at every point."""
    z = np.asarray(points, dtype=complex)
    prev, curr, nxt = z[:-2], z[1:-1], z[2:]
    lhs = nxt * (1 + curr)
    rhs = alpha + alpha * curr + beta * prev
    scale = np.abs(lhs) + abs(alpha) + np.abs(alpha * curr) + np.abs(beta * prev)
    bad = np.flatnonzero(~(np.abs(lhs - rhs) <= RECURRENCE_TOL * scale))
    if bad.size:
        return [f"{bad.size} points break the recurrence, first at n={bad[0] + 1}"]
    return []


def _orbit_problems(inv: Invocation, points: list[complex]) -> list[str]:
    e = inv.expect
    problems = []
    if len(points) != e["steps"] + 2:
        problems.append(f"{len(points)} points, expected {e['steps'] + 2}")
    if tuple(points[:2]) != _seed_pair(e["seed"]):
        problems.append("orbit does not start at the seed")
    return problems + recurrence_problems(literal(e["alpha"]), literal(e["beta"]), points)


def orbit_json(inv, stdout, work, rng):
    payload, problems = _envelope((work / inv.out).read_text(), "orbit")
    if problems:
        return 0, problems
    orbit = payload["orbits"][0]
    if orbit["status"] != "completed":
        problems.append(f"orbit status {orbit['status']}")
    points = [literal(p) for p in orbit["points"]]
    return len(points), problems + _orbit_problems(inv, points)


def orbit_csv(inv, stdout, work, rng):
    with open(work / inv.out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh, strict=True))
    if not rows or rows[0] != ["n", "re", "im"]:
        return 0, ["csv header is not n,re,im"]
    body = rows[1:]
    problems = []
    if [int(r[0]) for r in body] != list(range(-1, len(body) - 1)):
        problems.append("csv n column is not -1, 0, 1, ...")
    points = [complex(float(r[1]), float(r[2])) for r in body]
    return len(points), problems + _orbit_problems(inv, points)


def orbit_svg(inv, stdout, work, rng):
    try:
        root = ET.parse(work / inv.out).getroot()
    except ET.ParseError as exc:
        return 0, [f"svg is not XML: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    if root.tag != ns + "svg":
        return 0, [f"root element is {root.tag}"]
    circles = sum(1 for _ in root.iter(ns + "circle"))
    if circles != inv.expect["steps"] + 2:
        return circles, [f"{circles} plotted points, expected {inv.expect['steps'] + 2}"]
    return circles, []


def _cell(rect, n, ix, iy) -> complex:
    re_min, re_max, im_min, im_max = rect
    return complex(re_min + (ix + 0.5) * (re_max - re_min) / n,
                   im_min + (iy + 0.5) * (im_max - im_min) / n)


def grid(inv, stdout, work, rng):
    payload, problems = _envelope(stdout, "grid")
    if problems:
        return 0, problems
    e = inv.expect
    n, cells = e["n"], payload["cells"]
    if len(cells) != n or any(len(row) != n for row in cells):
        return 0, [f"cells are not {n}x{n}"]
    if sum(payload["counts"].values()) != n * n:
        problems.append(f"counts sum to {sum(payload['counts'].values())}, not {n * n}")
    if Counter(v for row in cells for v in row) != Counter(payload["counts"]):
        problems.append("counts disagree with the cells")
    alpha = literal(e["alpha"])
    settings = IterationSettings(max_steps=GRID_STEPS)
    coords = [(ix, iy) for iy in range(n) for ix in range(n)]
    for ix, iy in rng.sample(coords, min(GRID_SAMPLE, len(coords))):
        c = _cell(e["rect"], n, ix, iy)
        if e["vary"] == "seed":
            params, seed = Parameters(alpha, literal(e["beta"])), OrbitSeed(c, c)
        else:
            params, seed = Parameters(alpha, c), OrbitSeed(*_seed_pair(e["seed"]))
        verdict = classify_orbit(params, seed, settings).verdict
        if cells[iy][ix] != verdict:
            problems.append(f"cell ({ix},{iy}) is {cells[iy][ix]}, in-process {verdict}")
    return n * n, problems


def _inside(z: complex, rect) -> bool:
    return rect[0] <= z.real <= rect[1] and rect[2] <= z.imag <= rect[3]


def scan(inv, stdout, work, rng):
    payload, problems = _envelope(stdout, "scan")
    if problems:
        return 0, problems
    e = inv.expect
    for name, value in (("argmax", payload["max_value"]), ("argmin", payload["min_value"])):
        alpha, beta = (literal(s) for s in payload[name])
        if not (_inside(alpha, e["alpha_rect"]) and _inside(beta, e["beta_rect"])):
            problems.append(f"{name} lies outside the scanned rectangles")
        elif clark_margin_at(Parameters(alpha, beta), e["branch"]) != value:
            problems.append(f"the margin at {name} is not the reported value")
    samples = payload["samples"]
    if not 1 <= samples <= e["budget"]:
        problems.append(f"{samples} samples for a budget of {e['budget']}")
    return samples, problems


def query(kind):
    def check(inv, stdout, work, rng):
        return 0, _envelope(stdout, kind)[1]
    return check


def version(inv, stdout, work, rng):
    return 0, [] if stdout.strip() else ["--version printed nothing"]


CHECKS = {
    "orbit-json": orbit_json,
    "orbit-csv": orbit_csv,
    "orbit-svg": orbit_svg,
    "grid": grid,
    "scan": scan,
    "version": version,
    **{kind: query(kind) for kind in (
        "equilibria", "stability", "trichotomy", "period", "lyapunov", "identities")},
}


def run_check(inv: Invocation, stdout: str, work: Path, rng: random.Random):
    """(items, problems); a check that crashes on bad output is a problem too."""
    try:
        return CHECKS[inv.check](inv, stdout, work, rng)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return 0, [f"{inv.check} check could not read the output: {exc!r}"]
