"""Run specifications, result envelopes, and artifact emission.

Payloads are typed: a complex value stays a Python complex (a sequence
of them is a tuple) until JSON is written.  JSON is the canonical
interchange format and the one place where complex numbers become "a+bi"
literals, printed with Python's shortest round-trip float repr, so
parse(print(z)) is the identity on finite doubles (signed zeros
included), and non-finite parts read back as nan and inf.  CSV covers
orbit and grid tables (RFC 4180 line endings); SVG 1.1 is written by
hand so plots stay dependency-free and diffable.  Both are rendered
straight from the numbers.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .scan import ComplexRect

__all__ = [
    "FormatError",
    "parse_complex",
    "format_complex",
    "RunSpec",
    "ResultEnvelope",
    "emit",
]

FORMATS = ("csv", "json", "svg")


class FormatError(ValueError):
    """Requested output format cannot represent the payload."""


_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_PART = rf"(?:{_FLOAT}|nan|inf)"
_RE_FULL = re.compile(rf"^\s*([+-]?{_PART})([+-]{_PART})i\s*$")
_RE_REAL = re.compile(rf"^\s*([+-]?{_FLOAT})\s*$")
_RE_IMAG = re.compile(rf"^\s*([+-]?{_FLOAT})i\s*$")


def parse_complex(text: str) -> complex:
    """Parse an "a+bi" literal (bare reals and pure imaginaries allowed).

    The full form also reads the nan and inf parts format_complex writes.
    """
    m = _RE_FULL.match(text)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _RE_REAL.match(text)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_IMAG.match(text)
    if m:
        return complex(0.0, float(m.group(1)))
    raise ValueError(f"not a complex literal: {text!r}")


def format_complex(z: complex) -> str:
    """Shortest exact "a+bi" literal for z."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _from_literals(value):
    """Inverse of _plain over a decoded payload.

    format_complex always writes the full "a+bi" form, which no other
    payload string takes; a list of complex values becomes a tuple.
    """
    if isinstance(value, dict):
        return {key: _from_literals(v) for key, v in value.items()}
    if isinstance(value, list):
        items = [_from_literals(v) for v in value]
        if items and all(isinstance(v, complex) for v in items):
            return tuple(items)
        return items
    if isinstance(value, str) and _RE_FULL.match(value):
        return parse_complex(value)
    return value


def _plain(value):
    """value in JSON types: complex values become their literals (here and
    nowhere else), rectangles their bound lists, tuples lists, and floats
    that JSON cannot hold their reprs ("inf", "-inf", "nan")."""
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, ComplexRect):
        return [value.re_min, value.re_max, value.im_min, value.im_max]
    return value


# run-spec fields whose JSON form is not the value itself, by annotation
_FROM_PLAIN = {
    "complex | None": parse_complex,
    "tuple[tuple[complex, complex], ...] | None":
        lambda pairs: tuple((parse_complex(a), parse_complex(b)) for a, b in pairs),
    "ComplexRect | None": lambda bounds: ComplexRect(*(float(v) for v in bounds)),
}


@dataclass(frozen=True)
class RunSpec:
    """One CLI invocation, fully serializable.

    Only fields relevant to the command are set; everything else stays
    None and is omitted from the serialized form.
    """

    command: str
    alpha: complex | None = None
    beta: complex | None = None
    seeds: tuple[tuple[complex, complex], ...] | None = None
    steps: int | None = None
    branch: str | None = None
    alpha_rect: ComplexRect | None = None
    beta_rect: ComplexRect | None = None
    rect: ComplexRect | None = None
    vary: str | None = None
    nx: int | None = None
    ny: int | None = None
    budget: int | None = None
    rng_seed: int | None = None
    n_transient: int | None = None
    n_sample: int | None = None
    out: str | None = None
    format: str = "json"

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: _plain(v) for name, v in values.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        types = {f.name: f.type for f in fields(cls)}
        kwargs: dict = {}
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown run-spec field {key!r}")
            convert = _FROM_PLAIN.get(types[key])
            kwargs[key] = value if convert is None else convert(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class ResultEnvelope:
    runspec: RunSpec
    version: str
    wall_time_s: float
    payload: dict = field(default_factory=dict)
    error: dict | None = None

    def to_json(self) -> str:
        envelope = {"runspec": self.runspec.to_dict(), "version": self.version,
                    "wall_time_s": self.wall_time_s, "payload": self.payload}
        if self.error is not None:
            envelope["error"] = self.error
        return json.dumps(_plain(envelope), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultEnvelope":
        data = json.loads(text)
        return cls(runspec=RunSpec.from_dict(data["runspec"]), version=data["version"],
                   wall_time_s=data["wall_time_s"], payload=_from_literals(data["payload"]),
                   error=data.get("error"))


# ---------------------------------------------------------------------------
# emission

def emit(envelope: ResultEnvelope, format: str, path: str | None = None) -> str:
    """Render the envelope in the requested format, writing path if given.

    Returns the rendered text.  Raises FormatError when the payload kind
    cannot be represented in the requested format (csv: orbit and grid
    payloads; svg: orbit, grid, and scan payloads).
    """
    if format == "json":
        text = envelope.to_json()
    elif format == "csv":
        text = _emit_csv(envelope.payload)
    elif format == "svg":
        text = _emit_svg(envelope.payload)
    else:
        raise FormatError(f"unknown format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _emit_csv(payload: dict) -> str:
    # no field is ever quoted: numbers are reprs ("nan" and "inf" included)
    # and verdicts are plain words
    kind = payload.get("kind")
    if kind == "orbit":
        orbits = payload["orbits"]
        if len(orbits) != 1:
            raise FormatError("csv orbit output requires exactly one seed")
        rows = ["n,re,im\r\n"]
        rows += [f"{n},{z.real!r},{z.imag!r}\r\n"
                 for n, z in enumerate(orbits[0]["points"], start=-1)]
    elif kind == "grid":
        rows = ["re,im,verdict\r\n"]
        rect = ComplexRect(*payload["region"])
        nx, ny = payload["nx"], payload["ny"]
        for iy, row in enumerate(payload["cells"]):
            for ix, verdict in enumerate(row):
                c = rect.center(ix, iy, nx, ny)
                rows.append(f"{c.real!r},{c.imag!r},{verdict}\r\n")
    else:
        raise FormatError(f"no csv form for payload kind {kind!r}")
    return "".join(rows)


# fixed palettes keep emission deterministic
_SERIES_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
_VERDICT_COLORS = {
    "converges": "#1f77b4",
    "periodic": "#2ca02c",
    "unbounded": "#d62728",
    "chaotic": "#9467bd",
    "singular": "#7f7f7f",
    "undetermined": "#c7c7c7",
}

_SVG_SIZE = 480
_SVG_PAD = 40


def _f(v: float) -> str:
    return f"{v:.3f}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def circles(self, xs, ys, r, fill):
        """One circle per point; xs and ys come formatted."""
        r = _f(r)
        self.parts += [f'<circle cx="{x}" cy="{y}" r="{r}" fill="{fill}"/>'
                       for x, y in zip(xs, ys)]

    def polyline(self, xs, ys, stroke):
        """xs and ys come formatted."""
        coords = " ".join([f"{x},{y}" for x, y in zip(xs, ys)])
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="1"/>'
        )

    def text(self, x, y, content, size=12):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}">{content}</text>'
        )

    def frame(self):
        self.rect(_SVG_PAD, _SVG_PAD, self.width - 2 * _SVG_PAD,
                  self.height - 2 * _SVG_PAD, "none", stroke="black")

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _bound(v: float, scale: float) -> str:
    """The window bound v / scale; .3f would write one near 1e308 with 309 digits."""
    q = v / scale
    if math.isinf(q):  # a padded bound at scale 1/4 may pass the largest double
        from decimal import Decimal  # here, as importing it costs every start-up 6 ms
        return f"{Decimal(v) / Decimal(scale):.3e}"
    return f"{q:.3e}" if abs(q) >= 1e6 else _f(q)


def _window(values: np.ndarray) -> tuple[float, float, float]:
    """(lo, hi, scale) of one axis: values * scale are mapped onto [lo, hi].

    The window pads the values' range by 5% of their spread on each
    side, or by 1.0 where the spread is zero, at scale 1.  Where that
    collapses (1.0 vanishes next to the magnitude) or its span overflows,
    the axis is taken at scale 1/4 and padded by 5% of the spread, or of
    the magnitude where the spread is zero; the span then stays finite.
    """
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    pad = 0.05 * (hi - lo) or 1.0
    if lo - pad < hi + pad and math.isfinite((hi + pad) - (lo - pad)):
        return lo - pad, hi + pad, 1.0
    lo, hi = 0.25 * lo, 0.25 * hi
    pad = 0.05 * ((hi - lo) or abs(lo))
    return lo - pad, hi + pad, 0.25


class _PlaneMap:
    """Affine map from a complex-plane window onto the padded canvas.

    The window spans the given points, which must be finite.  xy takes
    floats or float arrays.
    """

    def __init__(self, points: np.ndarray, width: int, height: int):
        self.re = _window(points.real)
        self.im = _window(points.imag)
        self.w = width - 2 * _SVG_PAD
        self.h = height - 2 * _SVG_PAD

    def xy(self, re, im):
        (lo_r, hi_r, s_r), (lo_i, hi_i, s_i) = self.re, self.im
        u = (re * s_r - lo_r) / (hi_r - lo_r)
        v = (im * s_i - lo_i) / (hi_i - lo_i)
        return _SVG_PAD + u * self.w, _SVG_PAD + (1 - v) * self.h

    def label(self) -> str:
        (lo_r, hi_r, s_r), (lo_i, hi_i, s_i) = self.re, self.im
        return (f"re in [{_bound(lo_r, s_r)}, {_bound(hi_r, s_r)}], "
                f"im in [{_bound(lo_i, s_i)}, {_bound(hi_i, s_i)}]")


def _emit_svg(payload: dict) -> str:
    kind = payload.get("kind")
    if kind == "orbit":
        return _svg_orbit(payload)
    if kind == "grid":
        return _svg_grid(payload)
    if kind == "scan":
        return _svg_scan(payload)
    raise FormatError(f"no svg form for payload kind {kind!r}")


def _svg_orbit(payload: dict) -> str:
    canvas = _Canvas(_SVG_SIZE, _SVG_SIZE)
    # a non-finite point has no place in the plane: it is left out of the
    # window, the polyline and the circles
    orbits = [np.array(orbit["points"], dtype=complex) for orbit in payload["orbits"]]
    orbits = [z[np.isfinite(z)] for z in orbits]
    plane = _PlaneMap(np.concatenate(orbits), _SVG_SIZE, _SVG_SIZE)
    for idx, z in enumerate(orbits):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        xs, ys = ([f"{c:.3f}" for c in axis.tolist()] for axis in plane.xy(z.real, z.imag))
        canvas.polyline(xs, ys, color)
        canvas.circles(xs, ys, 2.0, color)
    canvas.frame()
    canvas.text(_SVG_PAD, _SVG_PAD - 10,
                f"orbit plot ({len(orbits)} seed(s)), re vs im")
    canvas.text(_SVG_PAD, _SVG_SIZE - 10, plane.label(), size=10)
    return canvas.render()


def _svg_grid(payload: dict) -> str:
    canvas = _Canvas(_SVG_SIZE, _SVG_SIZE)
    nx, ny = payload["nx"], payload["ny"]
    span_x = (_SVG_SIZE - 2 * _SVG_PAD) / nx
    span_y = (_SVG_SIZE - 2 * _SVG_PAD) / ny
    for iy, row in enumerate(payload["cells"]):
        for ix, verdict in enumerate(row):
            color = _VERDICT_COLORS.get(verdict, "#000000")
            # im axis grows upward: row 0 sits at the bottom
            canvas.rect(
                _SVG_PAD + ix * span_x,
                _SVG_PAD + (ny - 1 - iy) * span_y,
                span_x, span_y, color,
            )
    canvas.frame()
    canvas.text(_SVG_PAD, _SVG_PAD - 10,
                f"classification grid {nx}x{ny}, vary={payload['vary']}")
    legend = " ".join(f"{k}:{v}" for k, v in sorted(payload["counts"].items()))
    canvas.text(_SVG_PAD, _SVG_SIZE - 10, legend, size=10)
    return canvas.render()


def _svg_scan(payload: dict) -> str:
    width = 2 * _SVG_SIZE
    canvas = _Canvas(width, _SVG_SIZE)
    alpha_max, beta_max = payload["argmax"]
    alpha_min, beta_min = payload["argmin"]

    half = _SVG_SIZE
    for offset, pts, title in (
        (0, (alpha_max, alpha_min), "alpha plane"),
        (half, (beta_max, beta_min), "beta plane"),
    ):
        plane = _PlaneMap(np.array(pts, dtype=complex), half, _SVG_SIZE)
        for z, color, label in zip(pts, ("#d62728", "#1f77b4"), ("max", "min")):
            x, y = plane.xy(z.real, z.imag)
            canvas.circles([_f(offset + x)], [_f(y)], 4.0, color)
            canvas.text(offset + x + 6, y, label, size=10)
        canvas.rect(offset + _SVG_PAD, _SVG_PAD, half - 2 * _SVG_PAD,
                    _SVG_SIZE - 2 * _SVG_PAD, "none", stroke="black")
        canvas.text(offset + _SVG_PAD, _SVG_PAD - 10, title)
    canvas.text(_SVG_PAD, _SVG_SIZE - 10,
                f"max={payload['max_value']!r} min={payload['min_value']!r}",
                size=10)
    return canvas.render()
