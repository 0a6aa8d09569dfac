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

from .analysis import AnalysisSettings, classify_lanes
from .core import STATUS_SINGULAR, GuardTripped, IterationSettings, OrbitSeed, Parameters
from .stability import BRANCH_MINUS, BRANCH_PLUS, _clark_margin_lanes, clark_margin_at

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
class ComplexRect:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not (np.isfinite(bounds).all() and self.re_min <= self.re_max
                and self.im_min <= self.im_max):
            raise ValueError("rectangle bounds must be finite and ordered")
        if not np.isfinite((self.re_span, self.im_span)).all():
            raise ValueError("rectangle spans must be finite")

    @property
    def re_span(self) -> float:
        return self.re_max - self.re_min

    @property
    def im_span(self) -> float:
        return self.im_max - self.im_min

    def clip(self, z: complex) -> complex:
        return complex(
            min(max(z.real, self.re_min), self.re_max),
            min(max(z.imag, self.im_min), self.im_max),
        )

    def center(self, ix: int, iy: int, nx: int, ny: int) -> complex:
        return complex(
            self.re_min + (ix + 0.5) * self.re_span / nx,
            self.im_min + (iy + 0.5) * self.im_span / ny,
        )


@dataclass(frozen=True)
class ExtremaReport:
    max_value: float
    argmax: tuple[complex, complex]
    min_value: float
    argmin: tuple[complex, complex]
    samples: int


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
    evaluation.  Every row's global point is evaluated up front by the
    lane kernel, which has the bits of clark_margin_at; the block is
    then walked in order, and a local proposal, which depends on the
    best point so far, is evaluated when its row comes.
    """
    if branch not in (BRANCH_MINUS, BRANCH_PLUS):
        raise ValueError(f"branch must be {BRANCH_MINUS!r} or {BRANCH_PLUS!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(rng_seed)

    best_max = -np.inf
    best_min = np.inf
    arg_max = arg_min = None
    level_max = level_min = 0  # shrink level per refinement target
    evaluated = 0

    def propose_local(center: tuple[complex, complex], level: int,
                      u: list[float]) -> tuple[complex, complex]:
        # Python floats round like numpy's float64 scalars and cost less
        shrink = 0.5**level
        da = complex(
            (2 * u[0] - 1) * shrink * region_alpha.re_span,
            (2 * u[1] - 1) * shrink * region_alpha.im_span,
        )
        db = complex(
            (2 * u[2] - 1) * shrink * region_beta.re_span,
            (2 * u[3] - 1) * shrink * region_beta.im_span,
        )
        return (
            region_alpha.clip(center[0] + da),
            region_beta.clip(center[1] + db),
        )

    for start in range(0, budget, _BLOCK_ROWS):
        # one (rows, 4) draw continues the stream as rows calls of random(4) would
        u = rng.random((min(_BLOCK_ROWS, budget - start), 4))
        # the global point of each row: min + u * span in both rectangles
        a_re = region_alpha.re_min + u[:, 0] * region_alpha.re_span
        a_im = region_alpha.im_min + u[:, 1] * region_alpha.im_span
        b_re = region_beta.re_min + u[:, 2] * region_beta.re_span
        b_im = region_beta.im_min + u[:, 3] * region_beta.im_span
        margins, ok = _clark_margin_lanes(a_re, a_im, b_re, b_im, branch)
        margins, ok = margins.tolist(), ok.tolist()
        for j in range(len(ok)):
            # local proposals alternate: the max's target, then the min's
            phase = (start + j) % (2 * _REFINE_EVERY)
            refine_max = phase == _REFINE_EVERY - 1
            refine_min = phase == 2 * _REFINE_EVERY - 1
            if refine_max and arg_max is not None:
                point = propose_local(arg_max, level_max, u[j].tolist())
            elif refine_min and arg_min is not None:
                point = propose_local(arg_min, level_min, u[j].tolist())
            else:
                refine_max = refine_min = False
                point = None
            if point is not None:
                try:
                    value = clark_margin_at(Parameters(*point), branch)
                except GuardTripped:
                    continue
                if not math.isfinite(value):
                    continue
            elif ok[j]:
                value = margins[j]
            else:
                continue
            evaluated += 1
            improved_max = value > best_max
            improved_min = value < best_min
            if (improved_max or improved_min) and point is None:
                point = (complex(a_re[j], a_im[j]), complex(b_re[j], b_im[j]))
            if improved_max:
                best_max, arg_max = value, point
            if improved_min:
                best_min, arg_min = value, point
            if refine_max and not improved_max:
                level_max = min(level_max + 1, _SHRINK_LEVELS - 1)
            if refine_min and not improved_min:
                level_min = min(level_min + 1, _SHRINK_LEVELS - 1)

    if arg_max is None:
        raise GuardTripped(STATUS_SINGULAR, "no sample in the scan has a finite margin: "
                                            "each hit the map pole or overflowed")
    return ExtremaReport(
        max_value=best_max,
        argmax=arg_max,
        min_value=best_min,
        argmin=arg_min,
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
