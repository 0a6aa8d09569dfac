"""Parameter-space search for margin extrema and classification grids.

The margin functional is non-smooth (absolute values, branch switches),
so the extrema search is randomized rather than gradient-based: a single
seeded stream interleaves global uniform draws with local proposals
around the best points found so far, through ten shrinking neighborhood
levels.  Because every proposal depends only on the draw history, the
evaluation sequence for a given rng_seed is a prefix of the sequence for
any larger budget; running extrema are therefore monotone in budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import stability
from .analysis import AnalysisSettings
from .core import (STATUS_SINGULAR, ComplexRect, GuardTripped, IterationSettings, OrbitSeed,
                   Parameters)
from .lanes import _clark_margin_lanes, classify_lanes
from .stability import BRANCH_MINUS, BRANCH_PLUS

__all__ = [
    "ComplexRect",
    "ExtremaReport",
    "GridSpec",
    "ClassificationGrid",
    "scan_margin",
    "classification_grid",
]

_SHRINK_LEVELS = 10
_REFINE_EVERY = 4  # every 4th draw is a local proposal
# draws per lane pass: fewer rows pay numpy's per-call cost more often,
# more rows hold larger temporaries and were no faster
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ExtremaReport:
    max_value: float
    argmax: tuple[complex, complex]
    min_value: float
    argmin: tuple[complex, complex]
    samples: int


def _lane_clip(x, lo, hi):
    """min(max(x, lo), hi) in every lane, ties broken as Python breaks them.

    max(x, lo) is x unless lo > x, and min(y, hi) is y unless hi < y, so
    a tie keeps x, signed zeros included; np.maximum and np.minimum
    would return the other operand.
    """
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


def scan_margin(
    branch: str,
    region_alpha: ComplexRect,
    region_beta: ComplexRect,
    budget: int,
    rng_seed: int,
) -> ExtremaReport:
    """Randomized extrema search of the Clark margin over two rectangles.

    budget counts total functional evaluations (global draws plus local
    refinements).  Samples whose margin clark_margin_at cannot give (an
    equilibrium at the map pole, an overflow, a non-finite value) are
    skipped.  Deterministic for a fixed rng_seed, and the running
    max/min are nondecreasing/nonincreasing in budget.

    The draws come in blocks of rows, one row of four uniforms per
    evaluation.  Each block makes one pass of the lane kernel, which has
    the bits of clark_margin_at: every row's global point, and the local
    proposals of each target that has a best point as the block starts.
    After that point or shrink level moves within the block, the
    target's later rows are evaluated one at a time by clark_margin_at.
    The extrema only widen, so a global row whose margin lies within
    those at the block's start moves nothing: it is counted, not walked.
    Over the unit bidisk at budget 1e5: 98 passes and 1,863 calls at rng
    seed 7 (the walk visits 25,768 of its rows), 98 passes and 1,252
    calls at rng seed 12345.
    """
    if branch not in (BRANCH_MINUS, BRANCH_PLUS):
        raise ValueError(f"branch must be {BRANCH_MINUS!r} or {BRANCH_PLUS!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(rng_seed)
    # (min, max, span) of each part: alpha re, alpha im, beta re, beta im
    axes = [axis for r in (region_alpha, region_beta)
            for axis in ((r.re_min, r.re_max, r.re_span), (r.im_min, r.im_max, r.im_span))]

    def local_lanes(rows, t):
        # one proposal per row around target t, clip(centre part + (2u - 1) *
        # shrink * span), in the float operations of a scalar proposal
        shrink, centre = 0.5**level[t], (p for z in arg[t] for p in (z.real, z.imag))
        with np.errstate(over="ignore"):  # past the largest double the clip saturates
            return [_lane_clip(c + (2 * rows[:, k] - 1) * shrink * span, lo, hi)
                    for k, (c, (lo, hi, span)) in enumerate(zip(centre, axes))]

    def local_scalar(row, t):
        # local_lanes of one row in Python floats, then clark_margin_at: one lane
        shrink, centre = 0.5**level[t], (p for z in arg[t] for p in (z.real, z.imag))
        parts = []
        for c, x, (lo, hi, span) in zip(centre, row, axes):
            x = c + (2 * x - 1) * shrink * span
            x = lo if lo > x else x
            parts.append(hi if hi < x else x)
        try:
            value = stability.clark_margin_at(
                Parameters(complex(*parts[:2]), complex(*parts[2:])), branch)
        except GuardTripped:
            value = math.nan
        return [value], [math.isfinite(value)], [[part] for part in parts]

    best = [-math.inf, math.inf]  # running max, min
    arg = [None, None]  # their points, the centres of the local proposals
    level = [0, 0]  # shrink level per refinement target
    evaluated = 0
    cycle = 2 * _REFINE_EVERY
    # local proposals alternate: the max's target, then the min's
    phases = (_REFINE_EVERY - 1, cycle - 1)
    target_of_phase = {phase: t for t, phase in enumerate(phases)}

    for start in range(0, budget, _BLOCK_ROWS):
        # one (rows, 4) draw continues the stream as rows calls of random(4) would
        u = rng.random((min(_BLOCK_ROWS, budget - start), 4))
        rows = len(u)
        # the global point of each row: min + u * span in both rectangles
        columns = [lo + u[:, k] * span for k, (lo, _, span) in enumerate(axes)]
        firsts = [(phase - start) % cycle for phase in phases]  # each target's first row
        local = [None, None]  # per target with a point: the lane of its first row
        for t, first in enumerate(firsts):
            if arg[t] is not None:
                local[t] = len(columns[0])
                columns = [np.concatenate(pair)
                           for pair in zip(columns, local_lanes(u[first::cycle], t))]
        margins, ok = _clark_margin_lanes(*columns, branch)
        # the local rows, and the global rows that can move an extremum
        walk = (margins[:rows] > best[0]) | (margins[:rows] < best[1])
        for first in firsts:
            walk[first::cycle] = True
        evaluated += int(np.count_nonzero(ok[:rows] & ~walk))  # json cannot encode a numpy int
        block = margins.tolist(), ok.tolist(), columns
        for j in np.flatnonzero(walk).tolist():
            target = target_of_phase.get((start + j) % cycle)
            if target is not None and arg[target] is None:
                target = None
            if target is None:
                i, (margins, ok, parts) = j, block
            elif local[target] is None:
                i, (margins, ok, parts) = 0, local_scalar(u[j].tolist(), target)
            else:
                i, (margins, ok, parts) = local[target] + j // cycle, block
            if not ok[i]:
                continue
            value = margins[i]
            evaluated += 1
            improved = (value > best[0], value < best[1])
            if improved[0] or improved[1]:
                point = (complex(parts[0][i], parts[1][i]), complex(parts[2][i], parts[3][i]))
            elif target is None:
                continue
            for t in (0, 1):
                if improved[t]:
                    best[t], arg[t], local[t] = value, point, None
                elif t == target and level[t] < _SHRINK_LEVELS - 1:
                    level[t], local[t] = level[t] + 1, None

    if arg[0] is None:
        raise GuardTripped(STATUS_SINGULAR, "no sample in the scan has a finite margin: "
                                            "each hit the map pole or overflowed")
    return ExtremaReport(
        max_value=best[0],
        argmax=arg[0],
        min_value=best[1],
        argmin=arg[1],
        samples=evaluated,
    )


VARY_SEED = "seed"
VARY_ALPHA = "alpha"
VARY_BETA = "beta"


@dataclass(frozen=True)
class GridSpec:
    """What a classification grid varies, and what it holds fixed.

    vary = "seed": each cell center c is run as the seed (c, c) with the
    fixed parameters.  vary = "alpha" / "beta": the named parameter takes
    the cell-center value, the other parameter and the seed stay fixed.
    """

    vary: str
    region: ComplexRect
    nx: int
    ny: int
    params: Parameters
    seed: OrbitSeed | None = None

    def __post_init__(self):
        if self.vary not in (VARY_SEED, VARY_ALPHA, VARY_BETA):
            raise ValueError(f"vary must be one of seed/alpha/beta, got {self.vary!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("resolution must be at least 1x1")
        if self.vary != VARY_SEED and self.seed is None:
            raise ValueError("parameter grids need a fixed seed")
        # (ix + 0.5) * span grows with ix, so the last centre overflows first
        last = self.region.center(self.nx - 1, self.ny - 1, self.nx, self.ny)
        if not (math.isfinite(last.real) and math.isfinite(last.imag)):
            raise ValueError("the rectangle is too large for the resolution: "
                             "cell centres overflow a double")

    def cell_case(self, ix: int, iy: int) -> tuple[Parameters, OrbitSeed]:
        c = self.region.center(ix, iy, self.nx, self.ny)
        if self.vary == VARY_SEED:
            return self.params, OrbitSeed(c, c)
        if self.vary == VARY_ALPHA:
            return Parameters(c, self.params.beta), self.seed
        return Parameters(self.params.alpha, c), self.seed


@dataclass(frozen=True)
class ClassificationGrid:
    spec: GridSpec
    cells: tuple[tuple[str, ...], ...]  # cells[iy][ix], row-major in im


def _cell_lanes(spec: GridSpec) -> tuple[np.ndarray, ...]:
    """(alpha, beta, z_minus1, z_0) arrays over the cells, row-major in im.

    The per-cell objects die here, before the batch allocates its arrays.
    """
    cases = [spec.cell_case(ix, iy) for iy in range(spec.ny) for ix in range(spec.nx)]
    return tuple(np.array(column, dtype=complex) for column in zip(
        *((p.alpha, p.beta, s.z_minus1, s.z_0) for p, s in cases)))


def classification_grid(
    spec: GridSpec,
    settings: IterationSettings = IterationSettings(),
    analysis: AnalysisSettings = AnalysisSettings(),
) -> ClassificationGrid:
    """Verdict tag for every cell center of the grid.

    All cells run in lockstep through classify_lanes; cell (ix, iy) gets
    classify_orbit(*spec.cell_case(ix, iy), settings, analysis).verdict.
    """
    verdicts = classify_lanes(*_cell_lanes(spec), settings, analysis)
    rows = tuple(tuple(verdicts[iy * spec.nx:(iy + 1) * spec.nx]) for iy in range(spec.ny))
    return ClassificationGrid(spec=spec, cells=rows)
