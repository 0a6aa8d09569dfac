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

from dataclasses import dataclass

import numpy as np

from .analysis import AnalysisSettings, classify_lanes
from .core import STATUS_SINGULAR, GuardTripped, IterationSettings, OrbitSeed, Parameters
from .stability import BRANCH_MINUS, BRANCH_PLUS, clark_margin_at

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

    def point(self, u_re: float, u_im: float) -> complex:
        return complex(
            self.re_min + u_re * self.re_span,
            self.im_min + u_im * self.im_span,
        )

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
    refinements).  Samples whose equilibrium sits at the map pole are
    skipped.  Deterministic for a fixed rng_seed, and the running
    max/min are nondecreasing/nonincreasing in budget.
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
                      u: np.ndarray) -> tuple[complex, complex]:
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

    for i in range(budget):
        u = rng.random(4)  # constant draw count keeps the stream aligned
        refine_max = i % _REFINE_EVERY == _REFINE_EVERY - 1 and (i // _REFINE_EVERY) % 2 == 0
        refine_min = i % _REFINE_EVERY == _REFINE_EVERY - 1 and (i // _REFINE_EVERY) % 2 == 1
        if refine_max and arg_max is not None:
            alpha, beta = propose_local(arg_max, level_max, u)
        elif refine_min and arg_min is not None:
            alpha, beta = propose_local(arg_min, level_min, u)
        else:
            refine_max = refine_min = False
            alpha = region_alpha.point(u[0], u[1])
            beta = region_beta.point(u[2], u[3])
        try:
            value = clark_margin_at(Parameters(alpha, beta), branch)
        except GuardTripped:
            continue
        if not np.isfinite(value):
            continue
        evaluated += 1
        improved_max = value > best_max
        improved_min = value < best_min
        if improved_max:
            best_max, arg_max = value, (alpha, beta)
        if improved_min:
            best_min, arg_min = value, (alpha, beta)
        if refine_max and not improved_max:
            level_max = min(level_max + 1, _SHRINK_LEVELS - 1)
        if refine_min and not improved_min:
            level_min = min(level_min + 1, _SHRINK_LEVELS - 1)

    if arg_max is None:
        raise GuardTripped(STATUS_SINGULAR, "every sample in the scan hit the map pole")
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
