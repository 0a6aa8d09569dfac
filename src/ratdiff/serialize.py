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
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields

from .core import (VERDICT_CHAOTIC, VERDICT_CONVERGES, VERDICT_PERIODIC, VERDICT_SINGULAR,
                   VERDICT_UNBOUNDED, VERDICT_UNDETERMINED, ComplexRect)

__all__ = [
    "FormatError",
    "parse_complex",
    "format_complex",
    "RunSpec",
    "ResultEnvelope",
    "emit",
]

FORMATS = ("csv", "json", "svg")

# exports format this many points (CSV rows, JSON literals, an orbit SVG's
# polyline segment and its circles) into one string at a time, and write a
# string at a time
_BLOCK = 2048


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
        return "".join(self._json_blocks())

    def _json_blocks(self):
        envelope = {"runspec": self.runspec.to_dict(), "version": self.version,
                    "wall_time_s": self.wall_time_s, "payload": self.payload}
        if self.error is not None:
            envelope["error"] = self.error
        yield from _json_blocks(envelope)
        yield "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultEnvelope":
        data = json.loads(text)
        return cls(runspec=RunSpec.from_dict(data["runspec"]), version=data["version"],
                   wall_time_s=data["wall_time_s"], payload=_from_literals(data["payload"]),
                   error=data.get("error"))


def _json_scalar(value) -> str:
    """json.dumps(_plain(value)) for a value that holds no other value."""
    return f'"{format_complex(value)}"' if isinstance(value, complex) else json.dumps(_plain(value))


def _json_blocks(value, indent: str = "\n"):
    """The strings of json.dumps(_plain(value), sort_keys=True, indent=2), where
    indent opens value's line; a sequence with no container gives one per _BLOCK items."""
    value = _plain(value) if isinstance(value, ComplexRect) else value
    if not (value and isinstance(value, (dict, list, tuple))):  # {} and [] too
        yield _json_scalar(value)
        return
    inner, keyed = indent + "  ", isinstance(value, dict)
    sep = "," + inner
    yield "{" if keyed else "["
    kinds = () if keyed else set(map(type, value))
    if keyed or any(issubclass(kind, (dict, list, tuple, ComplexRect)) for kind in kinds):
        pairs = ((json.dumps(key) + ": ", item) for key, item in sorted(value.items())) \
            if keyed else (("", item) for item in value)  # (prefix, item)
        for i, (prefix, item) in enumerate(pairs):
            yield (sep if i else inner) + prefix
            yield from _json_blocks(item, inner)
    else:
        for start in range(0, len(value), _BLOCK):
            yield sep if start else inner
            yield _json_items(value[start:start + _BLOCK], sep, kinds == {complex})
    yield indent + ("}" if keyed else "]")


def _json_items(items, sep: str, complex_only: bool) -> str:
    """sep.join of the items' JSON texts; complex_only says each item is a complex."""
    if complex_only:  # format_complex's text, as "+-" only ever joins the parts
        text = sep.join([f'"{z.real!r}+{z.imag!r}i"' for z in items]).replace("+-", "-")
        if "nani" not in text:  # a NaN's repr drops its sign bit
            return text
    return sep.join([_json_scalar(v) for v in items])


# ---------------------------------------------------------------------------
# emission

def emit(envelope: ResultEnvelope, format: str, path: str | None = None) -> None:
    """Write the envelope in the requested format to path, or to sys.stdout
    where path is None, a block at a time, and return None.  A library
    caller gets JSON from envelope.to_json(), and any format by wrapping
    the call in contextlib.redirect_stdout.

    Raises FormatError, before path is opened or anything is written,
    when the payload kind cannot be represented in the requested format:
    JSON takes every payload, CSV and SVG the kinds _RENDERERS lists.
    Standard output is flushed here, so a failed write raises OSError
    from this call.  A 1e5-point orbit peaks under tracemalloc at 0.06,
    0.07 and 0.05 of its text in JSON, CSV and SVG.
    """
    if format not in FORMATS:
        raise FormatError(f"unknown format {format!r}")
    if format == "json":
        blocks = envelope._json_blocks()
    else:
        kind = envelope.payload.get("kind")
        if (format, kind) not in _RENDERERS:
            raise FormatError(f"no {format} form for payload kind {kind!r}")
        blocks = _RENDERERS[format, kind](envelope.payload)
    first = next(blocks)  # a FormatError comes here, before any output
    with nullcontext(sys.stdout) if path is None else \
            open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(first)
        fh.writelines(blocks)
        fh.flush()


# no CSV field is ever quoted: numbers are reprs ("nan" and "inf" included)
# and verdicts are plain words
def _csv_orbit(payload: dict):
    orbits = payload["orbits"]
    if len(orbits) != 1:
        raise FormatError("csv orbit output requires exactly one seed")
    points = orbits[0]["points"]
    yield "n,re,im\r\n"
    for i in range(0, len(points), _BLOCK):
        yield "".join([f"{n},{z.real!r},{z.imag!r}\r\n"
                       for n, z in enumerate(points[i:i + _BLOCK], start=i - 1)])


def _csv_grid(payload: dict):
    yield "re,im,verdict\r\n"
    rect = ComplexRect(*payload["region"])
    nx, ny = payload["nx"], payload["ny"]
    for iy, row in enumerate(payload["cells"]):  # a string per row of cells
        centers = [rect.center(ix, iy, nx, ny) for ix in range(len(row))]
        yield "".join([f"{c.real!r},{c.imag!r},{verdict}\r\n"
                       for c, verdict in zip(centers, row)])


# fixed palettes keep emission deterministic
_SERIES_COLORS = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
_VERDICT_COLORS = {
    VERDICT_CONVERGES: "#1f77b4",
    VERDICT_PERIODIC: "#2ca02c",
    VERDICT_UNBOUNDED: "#d62728",
    VERDICT_CHAOTIC: "#9467bd",
    VERDICT_SINGULAR: "#7f7f7f",
    VERDICT_UNDETERMINED: "#c7c7c7",
}

_SVG_SIZE = 480
_SVG_PAD = 40


def _f(v: float) -> str:
    return f"{v:.3f}"


def _header(width: int, height: int) -> str:
    """An SVG's opening tag and white background; every element after it
    starts with its own newline."""
    return (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')


def _rect(x, y, w, h, fill, stroke="none") -> str:
    return (f'\n<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>')


def _text(x, y, content, size=12) -> str:
    return (f'\n<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
            f'font-size="{size}">{content}</text>')


def _frame(x, width: int, height: int) -> str:
    """The black frame of the padded plot area of a width x height panel at x."""
    return _rect(x + _SVG_PAD, _SVG_PAD, width - 2 * _SVG_PAD, height - 2 * _SVG_PAD,
                 "none", stroke="black")


_END = "\n</svg>\n"


def _bound(v: float, scale: float) -> str:
    """The window bound v / scale; .3f would write one near 1e308 with 309 digits."""
    q = v / scale
    if math.isinf(q):  # a padded bound at scale 1/4 may pass the largest double
        from decimal import Decimal  # here, as importing it costs every start-up 6 ms
        return f"{Decimal(v) / Decimal(scale):.3e}"
    return f"{q:.3e}" if abs(q) >= 1e6 else _f(q)


def _window(lo: float, hi: float) -> tuple[float, float, float]:
    """(lo, hi, scale) of an axis whose values span [lo, hi]: values * scale map onto it.

    The window pads the values' range by 5% of their spread on each
    side, or by 1.0 where the spread is zero, at scale 1.  Where that
    collapses (1.0 vanishes next to the magnitude) or its span overflows,
    the axis is taken at scale 1/4 and padded by 5% of the spread, or of
    the magnitude where the spread is zero; the span then stays finite.
    """
    pad = 0.05 * (hi - lo) or 1.0
    if lo - pad < hi + pad and math.isfinite((hi + pad) - (lo - pad)):
        return lo - pad, hi + pad, 1.0
    lo, hi = 0.25 * lo, 0.25 * hi
    pad = 0.05 * ((hi - lo) or abs(lo))
    return lo - pad, hi + pad, 0.25


class _PlaneMap:
    """Affine map from a complex-plane window onto the padded canvas.

    The window spans the finite extremes re = (lo, hi) and im = (lo, hi).
    xy takes floats or float arrays.
    """

    def __init__(self, re: tuple, im: tuple, width: int, height: int):
        self.re = _window(*re)
        self.im = _window(*im)
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


def _svg_orbit(payload: dict):
    import numpy as np  # here, as JSON and CSV emission need no numpy

    def finite(points):  # an array per block: a non-finite point has no place in the plane
        for start in range(0, len(points), _BLOCK):
            z = np.array(points[start:start + _BLOCK], dtype=complex)
            if (z := z[np.isfinite(z)]).size:
                yield z
    orbits = [orbit["points"] for orbit in payload["orbits"]]
    ends = [(z.real.min(), z.real.max(), z.imag.min(), z.imag.max())
            for points in orbits for z in finite(points)]  # no array holds an orbit
    re_lo, re_hi, im_lo, im_hi = zip(*ends) if ends else ([0.0],) * 4
    plane = _PlaneMap((float(min(re_lo)), float(max(re_hi))),
                      (float(min(im_lo)), float(max(im_hi))), _SVG_SIZE, _SVG_SIZE)
    yield _header(_SVG_SIZE, _SVG_SIZE)
    for idx, points in enumerate(orbits):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        close = f'" r="2.000" fill="{color}"/>'
        start = ""  # a later segment opens at the previous one's last point
        for z in finite(points):  # each block's polyline segment, then its circles
            block = " ".join(["%.3f,%.3f"] * z.size) % tuple(
                np.column_stack(plane.xy(z.real, z.imag)).ravel().tolist())
            yield (f'\n<polyline points="{start}{block}" fill="none" stroke="{color}" '
                   'stroke-width="1"/>\n<circle cx="'  # spaces first, as '" cy="' adds one
                   + block.replace(" ", close + '\n<circle cx="').replace(",", '" cy="') + close)
            start = block[block.rfind(" ") + 1:] + " "
    yield (_frame(0, _SVG_SIZE, _SVG_SIZE)
           + _text(_SVG_PAD, _SVG_PAD - 10, f"orbit plot ({len(orbits)} seed(s)), re vs im")
           + _text(_SVG_PAD, _SVG_SIZE - 10, plane.label(), size=10) + _END)


def _svg_grid(payload: dict):
    nx, ny = payload["nx"], payload["ny"]
    span_x = (_SVG_SIZE - 2 * _SVG_PAD) / nx
    span_y = (_SVG_SIZE - 2 * _SVG_PAD) / ny
    yield _header(_SVG_SIZE, _SVG_SIZE)
    for iy, row in enumerate(payload["cells"]):  # a string per row of cells
        y = _SVG_PAD + (ny - 1 - iy) * span_y  # im axis grows upward: row 0 sits at the bottom
        yield "".join([_rect(_SVG_PAD + ix * span_x, y, span_x, span_y,
                             _VERDICT_COLORS.get(verdict, "#000000"))
                       for ix, verdict in enumerate(row)])
    legend = " ".join(f"{k}:{v}" for k, v in sorted(payload["counts"].items()))
    yield (_frame(0, _SVG_SIZE, _SVG_SIZE)
           + _text(_SVG_PAD, _SVG_PAD - 10,
                   f"classification grid {nx}x{ny}, vary={payload['vary']}")
           + _text(_SVG_PAD, _SVG_SIZE - 10, legend, size=10) + _END)


def _svg_scan(payload: dict):
    alpha_max, beta_max = payload["argmax"]
    alpha_min, beta_min = payload["argmin"]
    half = _SVG_SIZE
    yield _header(2 * half, _SVG_SIZE)
    for offset, pts, title in ((0, (alpha_max, alpha_min), "alpha plane"),
                               (half, (beta_max, beta_min), "beta plane")):
        plane = _PlaneMap(sorted(z.real for z in pts), sorted(z.imag for z in pts),
                          half, _SVG_SIZE)
        panel = []
        for z, color, label in zip(pts, ("#d62728", "#1f77b4"), ("max", "min")):
            x, y = plane.xy(z.real, z.imag)
            panel.append(f'\n<circle cx="{_f(offset + x)}" cy="{_f(y)}" r="4.000" '
                         f'fill="{color}"/>')
            panel.append(_text(offset + x + 6, y, label, size=10))
        panel.append(_frame(offset, half, _SVG_SIZE))
        panel.append(_text(offset + _SVG_PAD, _SVG_PAD - 10, title))
        yield "".join(panel)
    yield _text(_SVG_PAD, _SVG_SIZE - 10,
                f"max={payload['max_value']!r} min={payload['min_value']!r}", size=10) + _END


# the export of each (format, payload kind) pair that has one, as a generator
# of the text's blocks; JSON, which every payload has, is the envelope's own
_RENDERERS = {("csv", "orbit"): _csv_orbit, ("csv", "grid"): _csv_grid,
              ("svg", "orbit"): _svg_orbit, ("svg", "grid"): _svg_grid, ("svg", "scan"): _svg_scan}
