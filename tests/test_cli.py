import collections
import contextlib
import csv
import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratdiff.cli
from ratdiff import (AnalysisSettings, ComplexRect, IterationSettings, OrbitSeed, Parameters,
                     ResultEnvelope, RunSpec, emit, format_complex, iterate, parse_complex)
from ratdiff.cli import UsageError, execute, main, parse_args
from ratdiff.serialize import (_BLOCK, _RENDERERS, _VERDICT_COLORS, FORMATS, FormatError,
                               _json_blocks, _plain)

import cases


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ratdiff.cli", *args],
                          capture_output=True, text=True)


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# --- complex literals ------------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("1+1i", 1 + 1j),
    ("0.1+0i", 0.1),
    ("-2.191+12.3691i", -2.191 + 12.3691j),
    ("1-1i", 1 - 1j),
    ("3", 3.0),
    ("-0.5i", -0.5j),
    ("1e-3+2e+4i", 0.001 + 20000j),
])
def test_parse_complex_grammar(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["bogus", "1+", "i", "1+2", "1 + 2i2"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def test_complex_round_trip_full_precision():
    rng = np.random.default_rng(16)
    for _ in range(500):
        z = complex(*(rng.standard_normal(2) * 10.0 ** rng.integers(-300, 300)))
        assert parse_complex(format_complex(z)) == z
    # signed zeros survive too
    z = complex(0.0, -0.0)
    back = parse_complex(format_complex(z))
    assert math.copysign(1, back.imag) == -1
    # non-finite parts read back; a nan keeps its sign in the imaginary part,
    # where format_complex writes it
    nan, inf = math.nan, math.inf
    for z in (complex(nan, -nan), complex(inf, 0.0), complex(-inf, inf), complex(1.5, -inf),
              complex(-nan, nan), complex(nan, -0.0)):
        text = format_complex(z)
        back = parse_complex(text)
        for got, want in ((back.real, z.real), (back.imag, z.imag)):
            if math.isnan(want):
                assert math.isnan(got), text
            else:
                assert got == want, text
        assert math.copysign(1, back.imag) == math.copysign(1, z.imag), text
        if not math.isnan(z.real):
            assert math.copysign(1, back.real) == math.copysign(1, z.real), text


# --- parsing ----------------------------------------------------------------------

def test_parse_orbit_grammar_instance():
    spec = parse_args(["orbit", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "0.1+0i,0.2+0i", "--steps", "100"])
    assert spec.command == "orbit"
    assert spec.alpha == 1 + 1j and spec.beta == 1 + 1j
    assert spec.seeds == ((0.1 + 0j, 0.2 + 0j),)
    assert spec.steps == 100
    assert spec.format == "json"


def test_parse_bad_complex_exits_2(capsys):
    assert main(["orbit", "--alpha", "bogus"]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_parse_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1",
     "--beta-rect=-1,1,-1,1", "--budget", "100", "--rng-seed", "5"],
    ["orbit", "--alpha", "1+1i", "--beta=-0.5-0.25i",
     "--seed", "0.1+0i,0.2+0i", "--seed=-1+2i,3-4i", "--steps", "7",
     "--format", "svg", "--out", "x.svg"],
    ["grid", "--alpha", "0.1+0.2i", "--beta", "0.3+0.4i", "--vary", "seed",
     "--rect=-2,2,-1,1", "--resolution", "8x4"],
    ["lyapunov", "--alpha", "1+1i", "--beta", "1+1i", "--transient", "10",
     "--sample", "100", "--rng-seed", "3"],
    ["identities", "--alpha", "0.5+0.5i", "--seed", "1+0i,2+0i"],
])
def test_runspec_round_trip(argv):
    spec = parse_args(argv)
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_runspec_from_dict_rejects_an_unknown_field():
    with pytest.raises(ValueError, match="unknown run-spec field 'wavelength'"):
        RunSpec.from_dict({"command": "orbit", "wavelength": 7})


_ORBIT, _GRID = ["orbit", "--alpha", "1", "--beta", "1"], ["grid", "--alpha", "1", "--beta", "1"]


# each value its converter rejects, and the converter's reason
@pytest.mark.parametrize("argv,reason", [
    ([*_ORBIT, "--steps", "1.5"], "must be an integer >= 1, got '1.5'"),
    ([*_ORBIT, "--seed", "0.1"], "seed must be two comma-separated complex literals, got '0.1'"),
    ([*_GRID, "--vary", "seed", "--rect=-1,1,-1"],
     "rectangle must be re_min,re_max,im_min,im_max, got '-1,1,-1'"),
    ([*_GRID, "--vary", "seed", "--rect=-1,1,-1,1", "--resolution", "32"],
     "resolution must be NXxNY, got '32'"),
    ([*_GRID, "--vary", "seed", "--rect=-1,1,-1,1", "--resolution", "axb"],
     "resolution must be NXxNY, got 'axb'"),
])
def test_a_malformed_value_exits_2_with_its_reason(argv, reason, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


def test_config_file_fills_unset_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0+0i\nbeta = 3+1i\n# comment\nformat = json\n")
    spec = parse_args(["stability", "--config", str(cfg)])
    assert spec.alpha == 0 and spec.beta == 3 + 1j


def test_explicit_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 5+5i\nbeta = 3+1i\n")
    spec = parse_args(["stability", "--alpha", "0+0i", "--config", str(cfg)])
    assert spec.alpha == 0
    assert spec.beta == 3 + 1j


# each config key whose RunSpec field has another name: the command it is
# given to, a value from the config file and one from the command line, and
# what each puts in the field
_RENAMED_KEYS = [
    ("lyapunov", "transient", "10", "20", "n_transient", 10, 20),
    ("lyapunov", "sample", "100", "200", "n_sample", 100, 200),
    ("orbit", "seed", "0.1,0.2", "0.3,0.4", "seeds", ((0.1, 0.2),), ((0.3, 0.4),)),
    ("grid", "resolution", "3x2", "4x5", "resolution", (3, 2), (4, 5)),
    ("orbit", "rng-seed", "7", "8", "rng_seed", 7, 8),
    ("scan", "alpha-rect", "0,1,0,1", "0,2,0,2", "alpha_rect", ComplexRect(0, 1, 0, 1),
     ComplexRect(0, 2, 0, 2)),
]


@pytest.mark.parametrize("command,key,in_config,on_line,field,from_config,from_line",
                         _RENAMED_KEYS, ids=[case[1] for case in _RENAMED_KEYS])
def test_a_config_key_fills_its_field_and_its_flag_wins(tmp_path, command, key, in_config,
                                                        on_line, field, from_config, from_line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {in_config}\n")
    got = lambda spec: (spec.nx, spec.ny) if field == "resolution" else getattr(spec, field)
    assert got(parse_args([command, "--config", str(cfg)])) == from_config
    assert got(parse_args([command, f"--{key}", on_line, "--config", str(cfg)])) == from_line


def test_every_runspec_field_but_command_and_the_grid_size_has_one_flag():
    # the flag table is the one place a flag names its field: a field no row
    # names could never be set from the command line or a config file
    named = collections.Counter(field for field, _, _ in ratdiff.cli._FLAGS.values())
    spec_fields = {f.name for f in dataclasses.fields(RunSpec)}
    assert {name: named[name] for name in spec_fields - {"command", "nx", "ny"}
            if named[name] != 1} == {}
    # --resolution fills nx and ny, the one row that names no field of its own
    assert set(named) - spec_fields == {"resolution"}


def test_a_config_line_without_an_equals_sign_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1\nbeta 1\n")
    assert main(["stability", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"ratdiff: {cfg}:2: expected key = value, got 'beta 1'\n"


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavelength = 7\n")
    with pytest.raises(UsageError):
        parse_args(["stability", "--config", str(cfg)])


@pytest.mark.parametrize("name", ["missing.cfg", ".", "latin1.cfg", ""])
def test_a_config_file_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, name):
    # no such file, a directory, a byte that is not UTF-8, and the empty
    # path, given as it is
    (tmp_path / "latin1.cfg").write_bytes(b"alpha = 1\xff\n")
    path = str(tmp_path / name) if name else name
    assert main(["stability", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ratdiff: --config {path}: ")
    assert "Traceback" not in err


# --- execute ----------------------------------------------------------------------

def test_execute_stability_alpha_zero():
    spec = parse_args(["stability", "--alpha", "0+0i", "--beta", "3+1i"])
    env = execute(spec)
    assert env.error is None
    zs = [r["z"] for r in env.payload["reports"]]
    assert zs[0] == 0
    assert zs[1] == 2 + 1j


def test_execute_period_thirteen():
    alpha, beta, seed, period, *_ = cases.HIGHER_PERIOD_CASES[2]
    spec = parse_args([
        "period",
        "--alpha", format_complex(alpha), "--beta", format_complex(beta),
        "--seed", f"{format_complex(seed[0])},{format_complex(seed[1])}",
    ])
    env = execute(spec)
    assert env.error is None
    assert env.payload["period"] == period


def test_execute_trichotomy_catalog():
    alpha, beta, mod1, mod2 = cases.UNBOUNDED_CASES[1]
    spec = parse_args(["trichotomy", "--alpha", format_complex(alpha),
                       "--beta", format_complex(beta)])
    env = execute(spec)
    assert env.payload["verdict"] == "unbounded"
    assert env.payload["rhs"] == pytest.approx(mod1, abs=5e-4)
    assert env.payload["lhs"] == pytest.approx(mod2, abs=5e-4)


def test_execute_lyapunov_stable_is_negative():
    spec = parse_args(["lyapunov", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "1.6+1.9i,1.5+2.0i",
                       "--transient", "200", "--sample", "2000"])
    env = execute(spec)
    assert env.error is None
    assert env.payload["lambda_max"] < 0


def test_execute_period_escape_is_numeric_failure():
    spec = parse_args(["period", "--alpha", "40+33i", "--beta", "27+77i",
                       "--seed", "0.1+0i,0.2+0i"])
    env = execute(spec)
    assert env.error is not None
    assert "escaped" in env.error["message"]
    assert env.payload == {}  # no kind either: an error envelope has no payload


def test_execute_identities_requires_hypothesis():
    spec = parse_args(["identities", "--alpha", "0.5+0i", "--beta", "0.5+0i",
                       "--seed", "0.1+0i,0.2+0i"])
    with pytest.raises(UsageError):
        execute(spec)


def test_execute_identities_default_beta():
    spec = parse_args(["identities", "--alpha", "0.1966+0.2511i",
                       "--seed", "82+24i,93+25i"])
    env = execute(spec)
    assert env.error is None
    for key in ("j_recurrence", "gap_from_j", "gap_recursion", "gap_product"):
        assert env.payload[key] <= 1e-6


def test_execute_missing_flags_usage_error():
    with pytest.raises(UsageError):
        execute(parse_args(["equilibria"]))


def test_a_bare_grid_names_every_missing_flag(capsys):
    # the grid's own flags first, then the parameters
    assert main(["grid"]) == 2
    assert capsys.readouterr().err == (
        "ratdiff: grid: missing required flag(s) --vary, --rect, --alpha, --beta\n")


@pytest.mark.parametrize("command", ratdiff.cli._COMMANDS)
def test_every_field_a_command_needs_has_a_flag_of_that_command(command):
    entry = ratdiff.cli._COMMANDS[command]
    fields = {ratdiff.cli._FLAGS[name][0] for name in (*ratdiff.cli._SHARED_FLAGS, *entry.flags)}
    assert set(entry.needs) <= fields


def test_each_export_row_names_a_command_and_a_format_but_json():
    assert {kind for _, kind in _RENDERERS} <= set(ratdiff.cli._COMMANDS)
    assert {fmt for fmt, _ in _RENDERERS} == set(FORMATS) - {"json"}


# --- emission ----------------------------------------------------------------------

def _orbit_envelope(steps=3):
    spec = parse_args(["orbit", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "0.1+0i,0.2+0i", "--steps", str(steps)])
    return execute(spec)


def _emitted(env, fmt):
    """The text emit(env, fmt) writes to standard output."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(env, fmt)
    return out.getvalue()


def test_csv_orbit_shape():
    env = _orbit_envelope(1)  # seed pts + 1 iterate = 3 points
    text = _emitted(env, "csv")
    _strict_csv(text)
    lines = text.split("\r\n")
    assert lines[0] == "n,re,im"
    assert len([ln for ln in lines[1:] if ln]) == 3
    assert lines[1].startswith("-1,")


def test_emit_rejects_an_unknown_format():
    with pytest.raises(FormatError, match="unknown format 'xml'"):
        emit(_orbit_envelope(), "xml")


def test_csv_rejects_scalar_payload():
    spec = parse_args(["trichotomy", "--alpha", "1+0i", "--beta", "0.5+0i"])
    with pytest.raises(FormatError):
        emit(execute(spec), "csv")


def test_csv_rejects_multiple_orbits():
    spec = parse_args(["orbit", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "0.1+0i,0.2+0i", "--seed", "0.3+0i,0.4+0i",
                       "--steps", "3"])
    with pytest.raises(FormatError):
        emit(execute(spec), "csv")


def test_incompatible_format_exits_2():
    result = run_cli("trichotomy", "--alpha", "1+0i", "--beta", "0.5+0i",
                     "--format", "csv")
    assert result.returncode == 2
    assert "--format" in result.stderr
    assert result.stdout == ""  # refused before anything is written


def test_svg_orbit_renders():
    text = _emitted(_orbit_envelope(), "svg")
    assert text.startswith("<svg")
    assert 'version="1.1"' in text
    assert "<polyline" in text


def test_svg_multi_seed_orbit_gets_distinct_colors():
    spec = parse_args(["orbit", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "0.1+0i,0.2+0i", "--seed", "0.3+0i,0.1+0.2i",
                       "--steps", "20"])
    text = _emitted(execute(spec), "svg")
    assert text.count("<polyline") == 2
    assert 'stroke="#1f77b4"' in text and 'stroke="#ff7f0e"' in text


def test_svg_grid_has_colored_cells():
    spec = parse_args(["grid", "--alpha", "0.2278+0.3210i",
                       "--beta", "0.82956+0.8221i", "--vary", "seed",
                       "--rect=-0.4,0.4,-0.4,0.4", "--resolution", "2x2",
                       "--steps", "600"])
    env = execute(spec)
    text = _emitted(env, "svg")
    # 4 data cells on top of the background rect and the frame
    assert text.count("<rect") == 4 + 2


def test_emission_deterministic():
    env = _orbit_envelope()
    for fmt in ("json", "csv", "svg"):
        assert _emitted(env, fmt) == _emitted(env, fmt)


def test_envelope_json_round_trip():
    env = _orbit_envelope()
    again = ResultEnvelope.from_json(env.to_json())
    assert again == env


# sha256 of the exports of a 2,000-step orbit of the chaotic pair, recorded
# from the implementation that formatted every point as a literal in
# execute and parsed it back in the CSV and SVG emitters
_PINNED_ARGV = ["orbit", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
                "--steps", "2000", "--seed=0.1+0.1i,0.2-0.1i"]
_PINNED_SHA256 = {
    "json": "d3f80d4f7f1d138c006ec015b112f43a81762729ef53fed2eb4d2d3817a3522a",
    "csv": "03cc347c6c9ad911aa8928fe49418524fd2d6908c30f847e54570eb78210d144",
    "svg": "7be10222c488f8b8220b741c5eaf5a10a1e80e451f88508e4e4952594ec2f7ca",
}


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_export_bytes_are_pinned(fmt):
    # the svg plots a second seed as well; the json has its timing zeroed
    argv = _PINNED_ARGV + (["--seed=-0.3+0.2i,0.4+0i"] if fmt == "svg" else [])
    env = dataclasses.replace(execute(parse_args(argv)), wall_time_s=0.0)
    assert hashlib.sha256(_emitted(env, fmt).encode()).hexdigest() == _PINNED_SHA256[fmt]


# an envelope of each command; together they hold two seeds of more than
# a block of points each, non-finite points, an error with an empty
# payload, null, true, a "-inf" float, a grid's rows and a scan's pairs
_ENVELOPE_ARGV = {
    "orbit": ["orbit", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
              "--seed=0.1+0.1i,0.2-0.1i", "--seed=-0.0-0.3i,2", "--steps", str(_BLOCK + 5)],
    "orbit-escaped": ["orbit", "--alpha", "0+1e308i", "--beta", "1e308",
                      "--seed=2,0+3i", "--steps", "5"],
    "equilibria": ["equilibria", "--alpha", "0", "--beta", "0"],
    "stability": ["stability", "--alpha", "1+1i", "--beta", "1+1i"],
    "trichotomy": ["trichotomy", "--alpha", "1", "--beta", "3"],
    "period": ["period", "--alpha", "1", "--beta", "1", "--seed=2,3", "--steps", "100"],
    "period-escaped": ["period", "--alpha", "1e308", "--beta", "1e308",
                       "--seed=1e308,1e308", "--steps", "10"],
    "lyapunov": ["lyapunov", "--alpha", "0.3+0.1i", "--beta", "0", "--seed", "0.1,0.2"],
    "scan": ["scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1",
             "--beta-rect=-1,1,-1,1", "--budget", "64"],
    "grid": ["grid", "--alpha", "1", "--beta", "1", "--vary", "seed",
             "--rect=-1,1,-1,1", "--resolution", "3x2", "--steps", "50"],
    "identities": ["identities", "--alpha", "0.5+0.5i", "--seed=0.1,0.2", "--steps", "20"],
}


# sha256 of exports whose blocks move with the block size, recorded at
# 8,192-point blocks from the SVG renderer that took its window from arrays of
# whole orbits and drew each seed as one polyline: two seeds over more than
# two blocks each, non-finite points inside a block, and one seed just past
# two such blocks; an SVG is hashed with its polyline segments joined
_BLOCKS_SHA256 = {
    ("svg", "two-seed"): "a789913ff8bc5cad703197d45c720b5da776564fe72fc0d5c946f4f15e62f6e1",
    ("svg", "orbit-escaped"): "23705a9eb5a91e6eecb2e28f6898fbed167022fa7fdf8de8991e9d168ca0b45a",
    ("json", "one-seed"): "bfb8ff0cdd6cfdac75e24f7f7727d704d63d650e47ff58882dd4c28aa4b3ce69",
    ("csv", "one-seed"): "09e1a34fb38734c57693f088d79a3a694d0eeae4905af8cd4a8e28a1f1090852",
}


@pytest.mark.parametrize("fmt,name", _BLOCKS_SHA256)
def test_export_bytes_across_blocks_are_pinned(fmt, name):
    argv = {"two-seed": _PINNED_ARGV[:5] + ["--steps", "20000", "--seed=0.1+0.1i,0.2-0.1i",
                                            "--seed=-0.3+0.2i,0.4+0i"],
            "orbit-escaped": _ENVELOPE_ARGV["orbit-escaped"],
            "one-seed": _PINNED_ARGV[:5] + ["--steps", str(2 * 8192 + 1),
                                            "--seed=0.1+0.1i,0.2-0.1i"]}[name]
    env = dataclasses.replace(execute(parse_args(argv)), wall_time_s=0.0)
    text = _emitted(env, fmt)
    digest = hashlib.sha256((_merged_svg(text) if fmt == "svg" else text).encode()).hexdigest()
    assert digest == _BLOCKS_SHA256[fmt, name]


_SEGMENT = re.compile(r'<polyline points="([^"]*)"(.*)')


def _merged_svg(text):
    """An orbit SVG with each seed's polyline segments joined into one
    polyline, a later segment's first point (its predecessor's last)
    dropped, and the seed's circles moved after it."""
    lines, circles = [], []
    for line in text.split("\n"):
        segment, previous = _SEGMENT.fullmatch(line), lines and _SEGMENT.fullmatch(lines[-1])
        if segment and previous and segment[2] == previous[2]:  # the same stroke: one seed
            lines[-1] = f'<polyline points="{previous[1]} {segment[1].split(" ", 1)[1]}"{segment[2]}'
        elif line.startswith("<circle"):
            circles.append(line)
        else:
            lines += circles + [line]
            circles = []
    return "\n".join(lines)


def test_an_orbit_svg_draws_a_segment_and_its_circles_per_block(monkeypatch):
    # two seeds of 202 points each, over four blocks of 64 points: each
    # block's segment is followed by that block's circles, and the
    # segments joined give the plot drawn from one block per seed
    argv = _PINNED_ARGV[:5] + ["--steps", "200", "--seed=0.1+0.1i,0.2-0.1i",
                               "--seed=-0.3+0.2i,0.4+0i"]
    env = execute(parse_args(argv))
    whole = _emitted(env, "svg")
    monkeypatch.setattr(ratdiff.serialize, "_BLOCK", 64)
    text = _emitted(env, "svg")
    assert _merged_svg(text) == whole
    for orbit, color in zip(env.payload["orbits"], ("#1f77b4", "#ff7f0e")):
        assert len(orbit["points"]) == 202
        points = next(e for e in ET.fromstring(whole).iter()
                      if e.get("stroke") == color).attrib["points"].split()
        segments = []  # (a segment's points, the circles after it)
        for e in ET.fromstring(text).iter():
            if e.tag.endswith("polyline") and e.get("stroke") == color:
                segments.append((e.attrib["points"].split(), []))
            elif e.tag.endswith("circle") and e.get("fill") == color:
                segments[-1][1].append(f'{e.attrib["cx"]},{e.attrib["cy"]}')
        assert len(segments) == 4
        assert [circles for _, circles in segments] == [points[i:i + 64] for i in range(0, 202, 64)]
        assert segments[0][0] == points[:64]
        for (before, _), (segment, circles) in zip(segments, segments[1:]):
            assert segment == [before[-1]] + circles


@pytest.mark.parametrize("name", _ENVELOPE_ARGV)
def test_to_json_is_json_dumps_of_the_plain_envelope(name):
    env = execute(parse_args(_ENVELOPE_ARGV[name]))
    if name == "period-escaped":
        assert env.error is not None and env.payload == {}
    if name == "lyapunov":
        assert env.payload["lambda_max"] == -math.inf
    envelope = {"runspec": env.runspec.to_dict(), "version": env.version,
                "wall_time_s": env.wall_time_s, "payload": env.payload}
    if env.error is not None:
        envelope["error"] = env.error
    assert env.to_json() == json.dumps(_plain(envelope), sort_keys=True, indent=2) + "\n"


# every signed zero, infinity and NaN, as either part: a NaN's sign bit is
# not in its repr, so a block with a NaN imaginary part is written by
# format_complex
_EDGE_PARTS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.5, -2.5e-300, 1e16)
_EDGE_POINTS = [complex(re, im) for re in _EDGE_PARTS for im in _EDGE_PARTS]
_FINITE_POINTS = [z for z in _EDGE_POINTS if not (math.isnan(z.real) or math.isnan(z.imag))]


def _scalars_written(value, monkeypatch):
    """(the text _json_blocks writes for value, how many items it formats one by one)."""
    calls = []
    one_by_one = ratdiff.serialize._json_scalar
    monkeypatch.setattr(ratdiff.serialize, "_json_scalar",
                        lambda v: calls.append(v) or one_by_one(v))
    return "".join(_json_blocks(value)), len(calls)


@pytest.mark.parametrize("points", [
    _FINITE_POINTS * 50 + _EDGE_POINTS,  # the last block holds NaNs of both signs
    (_FINITE_POINTS * 100)[:2 * _BLOCK + 1],
    [0.5 - 0.25j] * _BLOCK + [complex(1.0, -math.nan)],
    [complex(-math.nan, 2.0)] * (_BLOCK + 1),  # a real part's repr has no sign to drop
], ids=["edge", "finite", "one-nan", "nan-real"])
@pytest.mark.parametrize("sequence", [list, tuple])
def test_a_block_of_complex_points_is_written_as_json_dumps(points, sequence, monkeypatch):
    value = {"points": sequence(points), "more": [sequence(points)]}
    text, one_by_one = _scalars_written(value, monkeypatch)
    assert len(points) > _BLOCK
    assert text.split("\n") == json.dumps(_plain(value), sort_keys=True, indent=2).split("\n")
    # only a block with a NaN imaginary part is formatted point by point
    blocks = [points[i:i + _BLOCK] for i in range(0, len(points), _BLOCK)]
    assert one_by_one == 2 * sum(len(block) for block in blocks
                                 if any(math.isnan(z.imag) for z in block))


@pytest.mark.parametrize("other", [0.5, -math.inf, math.nan, None, 3, True, "x"])
def test_a_sequence_of_complex_and_other_values_is_written_item_by_item(other, monkeypatch):
    points = list(_EDGE_POINTS * 30)
    points[_BLOCK + 7] = other
    text, one_by_one = _scalars_written(points, monkeypatch)
    assert text.split("\n") == json.dumps(_plain(points), sort_keys=True, indent=2).split("\n")
    assert one_by_one == len(points)


@pytest.fixture(scope="module")
def chaotic_orbit_envelope():
    return execute(parse_args(["orbit", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
                               "--seed=0.1+0.1i,0.2-0.1i", "--steps", "50000"]))


def _written_peak(env, fmt, path, stdout=False):
    """(tracemalloc peak of emit(env, fmt) writing path, through --out or
    through stdout open on path, and the size of the file written)."""
    def write():
        if not stdout:
            emit(env, fmt, str(path))
            return
        with open(path, "w", encoding="utf-8", newline="") as fh, \
                contextlib.redirect_stdout(fh):
            emit(env, fmt)
    write()  # imports outside the measurement
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, path.stat().st_size


@pytest.fixture(scope="module")
def long_orbit_envelope():
    return execute(parse_args(["orbit", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
                               "--seed=0.1+0.1i,0.2-0.1i", "--steps", "100000"]))


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_a_streamed_export_holds_no_text(chaotic_orbit_envelope, long_orbit_envelope, fmt,
                                         tmp_path):
    # written to a path, an export holds a block at a time, never its text
    # (the svg a block's polyline segment and circles), so its peak does not
    # grow with the orbit
    peak, size = _written_peak(long_orbit_envelope, fmt, tmp_path / f"long.{fmt}")
    assert peak < 0.5 * size, f"{fmt}: peak {peak} for {size} bytes"
    half_peak, _ = _written_peak(chaotic_orbit_envelope, fmt, tmp_path / f"half.{fmt}")
    assert peak <= 1.1 * half_peak, f"{fmt}: peak {peak} at 1e5 steps, {half_peak} at 5e4"


@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_an_export_to_stdout_holds_no_text(long_orbit_envelope, fmt, tmp_path):
    # standard output takes the blocks as --out does: joined, the text
    # alone would pass 1.0 of the file
    peak, size = _written_peak(long_orbit_envelope, fmt, tmp_path / f"long.{fmt}", stdout=True)
    assert peak < 0.5 * size, f"{fmt}: peak {peak} for {size} bytes"


# a child's max RSS starts at that of the process it was spawned from, so a
# small launcher spawns the export and prints its exit code and its max RSS
# (KB on Linux) from os.wait4
_LAUNCH = ("import os, sys; argv = [sys.executable, *sys.argv[1:]]; "
           "pid = os.posix_spawn(sys.executable, argv, os.environ); "
           "_, status, usage = os.wait4(pid, 0); "
           "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


@pytest.mark.skipif(not (hasattr(os, "wait4") and sys.platform == "linux"),
                    reason="needs os.wait4 and ru_maxrss in KB")
def test_an_svg_export_peaks_near_the_json_one(tmp_path):
    # the svg renderer holds neither an array nor the text of the whole
    # orbit, only a block's, so its process peaks within 1.5 MB of the JSON
    # export's
    argv = ["orbit", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
            "--seed=0.1+0.1i,0.2-0.1i", "--steps", "100000"]
    peak_mb = {}
    for fmt in ("svg", "json"):
        launched = subprocess.run([sys.executable, "-c", _LAUNCH, "-m", "ratdiff.cli", *argv,
                                   "--format", fmt, "--out", str(tmp_path / f"orbit.{fmt}")],
                                  capture_output=True, text=True, check=True)
        code, kb = map(int, launched.stdout.split())
        assert code == 0, (fmt, launched.stderr)
        peak_mb[fmt] = kb / 1024
    assert peak_mb["svg"] <= peak_mb["json"] + 1.5, peak_mb


def test_a_grid_svg_holds_a_row_at_a_time(tmp_path):
    # a 512x512 grid's SVG is built a row of cells (about 45 KB) at a time;
    # its elements held in a list, or joined, would pass 1.0 of the file
    verdicts = sorted(_VERDICT_COLORS)
    cells = [[verdicts[(ix + iy) % len(verdicts)] for ix in range(512)] for iy in range(512)]
    payload = {"kind": "grid", "vary": "seed", "region": [-1.0, 1.0, -1.0, 1.0],
               "nx": 512, "ny": 512, "cells": cells,
               "counts": dict(collections.Counter(v for row in cells for v in row))}
    env = ResultEnvelope(RunSpec("grid"), "0", 0.0, payload)
    peak, size = _written_peak(env, "svg", tmp_path / "grid.svg")
    assert peak < 0.05 * size, f"peak {peak} for {size} bytes"


def test_csv_reads_back_to_orbit_points():
    text = _emitted(execute(parse_args(_PINNED_ARGV)), "csv")
    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    orbit = iterate(Parameters(0.2278 + 0.3210j, 0.82956 + 0.8221j),
                    OrbitSeed(0.1 + 0.1j, 0.2 - 0.1j), IterationSettings(max_steps=2000))
    assert rows[0] == ["n", "re", "im"]
    assert [int(n) for n, _, _ in rows[1:]] == list(range(-1, len(orbit.points) - 1))
    assert ([(float(re).hex(), float(im).hex()) for _, re, im in rows[1:]]
            == [(z.real.hex(), z.imag.hex()) for z in orbit.points])


_NON_FINITE_ORBIT = ["orbit", "--alpha", "0+1e308i", "--beta", "1e308",
                     "--seed=2,0+3i", "--steps", "5"]


def test_non_finite_points_export_as_csv():
    # the third point is nan+nanj: it must come out as a row float() reads
    result = run_cli(*_NON_FINITE_ORBIT, "--format", "csv")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    rows = list(csv.reader(io.StringIO(result.stdout, newline=""), strict=True))
    assert rows[0] == ["n", "re", "im"] and all(len(row) == 3 for row in rows)
    values = [float(v) for row in rows[1:] for v in row[1:]]
    assert values[:4] == [2.0, 0.0, 0.0, 3.0]
    assert any(not math.isfinite(v) for v in values)


def test_non_finite_points_read_back_from_json():
    result = run_cli(*_NON_FINITE_ORBIT)
    assert result.returncode == 0
    strict_json(result.stdout)
    envelope = ResultEnvelope.from_json(result.stdout)
    points = envelope.payload["orbits"][0]["points"]
    assert points[:2] == (2 + 0j, 3j)
    assert isinstance(points[2], complex) and math.isnan(points[2].real)


def _svg_coordinates(text):
    """Every number in a coordinate attribute of the SVG."""
    values = []
    for element in ET.fromstring(text).iter():
        for name in ("x", "y", "cx", "cy", "r", "width", "height"):
            if name in element.attrib:
                values.append(float(element.attrib[name]))
        for pair in element.attrib.get("points", "").split():
            values.extend(float(v) for v in pair.split(","))
    return values


def test_non_finite_points_are_left_out_of_the_svg():
    result = run_cli(*_NON_FINITE_ORBIT, "--format", "svg")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    root = ET.fromstring(result.stdout)
    # the two finite seeds are plotted, the nan iterate is not
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 2
    assert all(math.isfinite(v) for v in _svg_coordinates(result.stdout))


# the sha256 of each plot was recorded from the renderer that took its
# window from an array of every finite point
@pytest.mark.parametrize("argv,sha256", [
    # every point coincides far beyond where a padding of 1.0 registers
    (["orbit", "--alpha", "1e300", "--beta", "1e300", "--seed=1e300,1e300",
      "--steps", "5", "--format", "svg"],
     "e3986b040bf70e90b20dcfb8aa20d70fdf4ceb2f0385ba910d141b2654041772"),
    (["scan", "--branch", "plus", "--alpha-rect=1e150,1e150,0,0",
      "--beta-rect=1e150,1e150,0,0", "--budget", "3", "--format", "svg"],
     "abec220e86eb1463c49047bf54058652e8eb93b7fb47f59b74f4254410918fb3"),
    # a coincident point next to the largest double, and a spread that overflows
    (["orbit", "--alpha", "1", "--beta", "1", "--seed=1.7e308,1.7e308",
      "--steps", "5", "--format", "svg"],
     "1205fd4601f20b4b62147574f106a7cc92e9e400844ee3bd4a5ab0c811d9800b"),
    (["orbit", "--alpha", "1", "--beta", "1", "--seed=-1.7e308,1.7e308+1e308i",
      "--steps", "5", "--format", "svg"],
     "994d2a2c669feaee89f8b3241d4fcbbe9e778b9d93b2c928af836e49e32f773c"),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_svg_window_never_collapses_or_overflows(argv, sha256):
    result = run_cli(*argv)
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256
    assert all(math.isfinite(v) for v in _svg_coordinates(result.stdout))
    # every marker lands inside its frame (the scan's beta plane is offset by 480)
    for element in ET.fromstring(result.stdout).iter():
        if element.tag.endswith("circle"):
            assert 40 <= float(element.attrib["cx"]) % 480 <= 440
            assert 40 <= float(element.attrib["cy"]) <= 440


def test_emit_writes_file(tmp_path):
    # the file holds exactly the bytes emit writes to stdout, for every
    # format each payload kind has: orbits of one seed and of two over more
    # than a block, an escaped orbit's non-finite points, a grid, a scan and
    # an error envelope
    one_seed = _ENVELOPE_ARGV["orbit"][:6] + ["--steps", str(2 * _BLOCK + 1)]
    exports = [(one_seed, ("json", "csv", "svg")),
               (_ENVELOPE_ARGV["orbit"], ("json", "svg")),
               (_ENVELOPE_ARGV["orbit-escaped"], ("json", "csv", "svg")),
               (_ENVELOPE_ARGV["grid"], ("json", "csv", "svg")),
               (_ENVELOPE_ARGV["scan"], ("json", "svg")),
               (_ENVELOPE_ARGV["period-escaped"], ("json",))]
    for argv, formats in exports:
        env = execute(parse_args(argv))
        for fmt in formats:
            path = tmp_path / f"{argv[0]}.{fmt}"
            assert emit(env, fmt, str(path)) is None
            assert path.read_bytes() == _emitted(env, fmt).encode(), (argv, fmt)


# --- end-to-end exit codes ----------------------------------------------------------

def test_exit_zero_and_payload_determinism():
    args = ("scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1",
            "--beta-rect=-1,1,-1,1", "--budget", "500", "--rng-seed", "9")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    p1 = json.loads(first.stdout)["payload"]
    p2 = json.loads(second.stdout)["payload"]
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_exit_two_on_usage(capsys):
    assert main(["orbit", "--alpha", "1+1i"]) == 2  # --beta missing
    assert "--beta" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["orbit", "--alpha", "1e400", "--beta", "1"],
    ["orbit", "--alpha", "1", "--beta", "1", "--steps", "0"],
    ["scan", "--branch", "plus", "--alpha-rect=0,1,0,1", "--beta-rect=0,1,0,1",
     "--budget", "0"],
    ["lyapunov", "--alpha", "1", "--beta", "1", "--sample", "0"],
    ["lyapunov", "--alpha", "1", "--beta", "1", "--transient=-1"],
    ["orbit", "--alpha", "1", "--beta", "1", "--rng-seed=-1"],
    ["grid", "--alpha", "1", "--beta", "1", "--vary", "seed", "--rect=-inf,1,0,1"],
    ["grid", "--alpha", "1", "--beta", "1", "--vary", "seed", "--rect=-1e308,1e308,-1,1"],
    ["scan", "--branch", "plus", "--alpha-rect=-1e308,1e308,-1,1", "--beta-rect=0,1,0,1"],
    # finite span, but the last cell centre overflows
    ["grid", "--alpha", "1", "--beta", "1", "--vary", "seed", "--rect=-0.5e308,1.2e308,-1,1",
     "--resolution", "2x1"],
    # beta - (alpha + 1) overflows a double: far from the beta = alpha + 1 hypothesis
    ["identities", "--alpha=-1.7e+308+0i", "--beta=-1+1.683e+308i",
     "--seed=-9.9e+199+2i,1000.0+0.0i", "--steps", "5"],
    # the hypothesis fails, and the orbit is singular at step 1: the usage error wins
    ["identities", "--alpha", "1", "--beta", "5", "--seed=-1,-1"],
])
def test_exit_two_on_out_of_range_value(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


def test_config_values_are_range_checked(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1\nbeta = 1\nsteps = 0\n")
    with pytest.raises(UsageError, match="steps"):
        parse_args(["orbit", "--config", str(cfg)])


def test_config_values_are_checked_against_choices(tmp_path):
    # the flag table gives a config file the parser's choices, not only its types
    cfg = tmp_path / "run.cfg"
    cfg.write_text("branch = bogus\nalpha-rect = 0,1,0,1\nbeta-rect = 0,1,0,1\nbudget = 5\n")
    with pytest.raises(UsageError, match="branch"):
        parse_args(["scan", "--config", str(cfg)])


def test_exit_three_on_unwritable_out():
    result = run_cli("trichotomy", "--alpha", "1+0i", "--beta", "0.5+0i",
                     "--out", "/nonexistent-dir/report.json")
    assert result.returncode == 3
    assert "--out" in result.stderr


# a quick run of each command that gives neither --seed nor --rng-seed
_UNSEEDED = {
    "orbit": ["orbit", "--alpha", "1", "--beta", "1", "--steps", "5"],
    "equilibria": ["equilibria", "--alpha", "1+0i", "--beta", "0.5+0i"],
    "stability": ["stability", "--alpha", "1+0i", "--beta", "0.5+0i"],
    "trichotomy": ["trichotomy", "--alpha", "1+0i", "--beta", "0.5+0i"],
    "period": ["period", "--alpha", "1", "--beta", "1", "--steps", "50"],
    "lyapunov": ["lyapunov", "--alpha", "1", "--beta", "1", "--sample", "100"],
    "scan": ["scan", "--branch", "plus", "--alpha-rect=0,1,0,1", "--beta-rect=0,1,0,1",
             "--budget", "8"],
    "grid": ["grid", "--alpha", "1", "--beta", "1", "--vary", "seed", "--rect=-1,1,-1,1",
             "--resolution", "2x2", "--steps", "40"],
    "identities": ["identities", "--alpha", "1", "--steps", "5"],
}


@pytest.mark.parametrize("command", ratdiff.cli._COMMANDS)
def test_randomized_commands_record_rng_seed(command, capsys):
    # a run that draws at random echoes its rng seed, 0 where --rng-seed is
    # omitted; a run that draws nothing carries no rng seed
    def echoed(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["runspec"]
    draws = command in ("orbit", "period", "lyapunov", "identities", "scan")
    runspec = echoed(_UNSEEDED[command])
    assert runspec.get("rng_seed") == (0 if draws else None)
    if command in ("orbit", "period", "lyapunov", "identities", "grid"):  # they take --seed
        assert "rng_seed" not in echoed([*_UNSEEDED[command], "--seed", "0.1,0.2"])


def test_exit_three_on_numeric_failure():
    result = run_cli("period", "--alpha", "40+33i", "--beta", "27+77i",
                     "--seed", "0.1+0i,0.2+0i")
    assert result.returncode == 3
    envelope = json.loads(result.stdout)
    assert envelope["error"]["type"] == "GuardTripped"


def test_svg_label_writes_large_bounds_in_exponent_form():
    result = run_cli("orbit", "--alpha", "1", "--beta", "1", "--seed=1.7e308,1.7e308",
                     "--steps", "5", "--format", "svg")
    assert result.returncode == 0
    labels = [e.text for e in ET.fromstring(result.stdout).iter() if e.tag.endswith("text")]
    window = [text for text in labels if text.startswith("re in")]
    # a fixed-point bound near 1e308 alone would be 309 digits long
    assert window and all(len(text) <= 60 for text in window)
    assert "1.615e+308" in window[0] and "-1.000" in window[0]


def test_svg_label_writes_bounds_past_the_largest_double():
    # the re spread overflows, so the window is taken at scale 1/4, and its
    # padded bounds lie beyond the largest double once scaled back
    result = run_cli("orbit", "--alpha", "1", "--beta", "1", "--seed=-1.7e308,1.7e308+1e308i",
                     "--steps", "5", "--format", "svg")
    assert result.returncode == 0
    labels = [e.text for e in ET.fromstring(result.stdout).iter() if e.tag.endswith("text")]
    window = [text for text in labels if text.startswith("re in")]
    assert window and "inf" not in window[0] and "nan" not in window[0]
    assert window[0].startswith("re in [-1.870e+308, 1.870e+308], ")


def _strict_csv(text):
    """Rows of an RFC 4180 CSV: CRLF line ends, no stray quotes, one width."""
    assert text.endswith("\r\n")
    rows = list(csv.reader(io.StringIO(text, newline=""), strict=True))
    assert rows and len({len(row) for row in rows}) == 1


# a bound from 0 to the edge of the doubles, signed zeros included
_BOUND = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2, 2),
                   st.floats(-1.7e308, 1.7e308, allow_nan=False))
_RECT = st.lists(_BOUND, min_size=4, max_size=4).map(
    lambda b: ",".join(repr(v) for v in sorted(b[:2]) + sorted(b[2:])))


def _flag(name, value, attached):
    """A flag and its value, as one --name=value word or as two words."""
    return [f"--{name}={value}"] if attached else [f"--{name}", value]


@settings(max_examples=100, deadline=None)
@given(branch=st.sampled_from(["plus", "minus"]), alpha_rect=_RECT, beta_rect=_RECT,
       budget=st.integers(1, 3000), rng_seed=st.integers(0, 2**32 - 1),
       fmt=st.sampled_from(["json", "csv", "svg"]), attached=st.booleans())
def test_scan_cli_exits_cleanly_with_strict_output(branch, alpha_rect, beta_rect, budget,
                                                   rng_seed, fmt, attached):
    argv = ["scan", "--branch", branch, *_flag("alpha-rect", alpha_rect, attached),
            *_flag("beta-rect", beta_rect, attached), "--budget", str(budget),
            "--rng-seed", str(rng_seed), "--format", fmt]
    _exits_cleanly_with_strict_output(argv, fmt)


def _exits_cleanly_with_strict_output(argv, fmt):
    # any exception, SystemExit included, escapes and fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    text = out.getvalue()
    if code == 3 or (code == 0 and fmt == "json"):
        strict_json(text)
    elif code == 0 and fmt == "svg":
        ET.fromstring(text)
    elif code == 0:
        _strict_csv(text)
    else:
        assert text == ""


@settings(max_examples=50, deadline=None)
@given(vary=st.sampled_from(["seed", "alpha", "beta"]), rect=_RECT,
       nx=st.integers(1, 4), ny=st.integers(1, 4), steps=st.integers(1, 600),
       fmt=st.sampled_from(["json", "csv", "svg"]), attached=st.booleans())
def test_grid_cli_exits_cleanly_with_strict_output(vary, rect, nx, ny, steps, fmt, attached):
    # the chaotic catalog pair and the bench seed: cells that escape,
    # settle, lock onto a cycle or stay chaotic, whatever is varied
    argv = ["grid", "--vary", vary, "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
            *_flag("seed", "0.1+0.1i,0.2-0.1i", attached), *_flag("rect", rect, attached),
            "--resolution", f"{nx}x{ny}", "--steps", str(steps), "--format", fmt]
    _exits_cleanly_with_strict_output(argv, fmt)


def _literal(re, im):
    return f"{re!r}{'-' if math.copysign(1.0, im) < 0 else '+'}{abs(im)!r}i"


_COMPLEX = st.builds(_literal, _BOUND, _BOUND)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["orbit", "period", "lyapunov", "equilibria", "stability",
                                "trichotomy", "identities"]),
       alpha=_COMPLEX, beta=_COMPLEX, seed=st.tuples(_COMPLEX, _COMPLEX),
       steps=st.integers(1, 600), transient=st.integers(0, 600), sample=st.integers(1, 600),
       fmt=st.sampled_from(["json", "json", "json", "csv", "svg"]), attached=st.booleans())
# the alpha + beta - 1 equilibrium's residual is inf, which JSON cannot hold
@example(command="equilibria", alpha="0.0+0.0i", beta="0.0+1.3407807929942597e+154i",
         seed=("0.0+0.0i", "0.0+0.0i"), steps=1, transient=0, sample=1, fmt="json",
         attached=True)
# |beta|, then |alpha + 1|, overflows a double: exit 3, not a traceback
@example(command="trichotomy", alpha="1.0+0.0i",
         beta="1.2711610061536462e+308+1.2711610061536464e+308i", seed=("0.0+0.0i", "0.0+0.0i"),
         steps=1, transient=0, sample=1, fmt="json", attached=False)
@example(command="trichotomy", alpha="1.2711610061536462e+308+1.2711610061536464e+308i",
         beta="1.0+0.0i", seed=("0.0+0.0i", "0.0+0.0i"), steps=1, transient=0, sample=1,
         fmt="json", attached=False)
# the orbit escapes at its first iterate, whose identity residual overflows a double: exit 3
@example(command="identities", alpha="1.2711610061536462e+308+1.2711610061536464e+308i",
         beta="0.0+0.0i", seed=("0.0+0.0i", "0.0+0.0i"), steps=1, transient=0, sample=1,
         fmt="json", attached=False)
def test_other_commands_exit_cleanly_with_strict_output(command, alpha, beta, seed, steps,
                                                        transient, sample, fmt, attached):
    # identities takes beta = alpha + 1 when --beta is left out: any
    # other beta breaks its hypothesis (exit 2).  Only orbit writes CSV
    # and SVG; the others exit 2 for those formats.
    argv = [command, *_flag("alpha", alpha, attached), "--format", fmt]
    if command != "identities":
        argv += _flag("beta", beta, attached)
    if command in ("orbit", "period", "lyapunov", "identities"):
        argv += _flag("seed", f"{seed[0]},{seed[1]}", attached)
    if command == "lyapunov":
        argv += ["--transient", str(transient), "--sample", str(sample)]
    elif command in ("orbit", "period", "identities"):
        argv += ["--steps", str(steps)]
    _exits_cleanly_with_strict_output(argv, fmt)


@pytest.mark.parametrize("words, attached", [
    (["equilibria", "--alpha", "-0.5+1i", "--beta", "1"],
     ["equilibria", "--alpha=-0.5+1i", "--beta", "1"]),
    (["orbit", "--alpha", "1", "--beta", "1", "--seed", "-0.1,0.2"],
     ["orbit", "--alpha", "1", "--beta", "1", "--seed=-0.1,0.2"]),
    (["grid", "--vary", "seed", "--alpha", "1", "--beta", "1", "--rect", "-1,1,-1,1"],
     ["grid", "--vary", "seed", "--alpha", "1", "--beta", "1", "--rect=-1,1,-1,1"]),
    (["scan", "--branch", "plus", "--alpha-rect", "-1,1,-1,1", "--beta-rect", "-.5,1,-1,-0.5"],
     ["scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1", "--beta-rect=-.5,1,-1,-0.5"]),
    (["lyapunov", "--alpha", "-0.2278-0.321i", "--beta", "-1e-3+0.5i", "--seed",
      "-0.1-0.1i,-0.2+0.1i", "--out", "-x.json", "--sample", "100"],
     ["lyapunov", "--alpha=-0.2278-0.321i", "--beta=-1e-3+0.5i",
      "--seed=-0.1-0.1i,-0.2+0.1i", "--out=-x.json", "--sample", "100"]),
])
def test_values_starting_with_a_minus_sign_may_be_separate_words(words, attached):
    assert parse_args(words) == parse_args(attached)


def test_a_value_the_flag_rejects_is_the_same_usage_error_in_both_forms(capsys):
    assert main(["orbit", "--alpha", "1", "--beta", "1", "--steps", "-5"]) == 2
    assert main(["orbit", "--alpha", "1", "--beta", "1", "--steps=-5"]) == 2
    first, second = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert first == second and first.endswith("got '-5'")


def test_a_flag_after_a_value_flag_is_not_its_value(capsys):
    assert main(["equilibria", "--alpha", "--beta", "1"]) == 2
    assert "--alpha: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scan", "--branch", "bogus"],
    ["scan", "--branch", "plus", "--alpha-rect=1,0,0,1", "--beta-rect=0,1,0,1"],
    ["grid", "--vary", "seed", "--alpha", "1", "--beta", "1", "--rect=0,1,0,1",
     "--resolution", "0x0"],
    ["orbit", "--alpha", "1", "--beta", "1", "--steps", "0"],
    ["no-such-command"],
])
def test_main_returns_two_when_argparse_rejects_the_command_line(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["grid", "--help"]])
def test_main_help_and_version_still_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["equilibria", "--alpha", "1e200", "--beta", "1"],
    ["stability", "--alpha", "1e200", "--beta", "1"],
    ["scan", "--branch", "plus", "--alpha-rect=1e200,1e200,0,0",
     "--beta-rect=0.5,0.5,0,0", "--budget", "5", "--rng-seed", "1"],
    # beta**2 is nan+nanj without an OverflowError: the equilibria are nan
    ["equilibria", "--alpha", "1e-200", "--beta", "1e200+1e200i"],
    ["stability", "--alpha", "1e-200", "--beta", "1e200+1e200i"],
    # the seed is outside the escape radius, so no iterate is left to check
    ["identities", "--alpha", "1", "--seed=2e6,0", "--steps", "5"],
])
def test_exit_three_on_overflow(argv):
    # (1 + alpha)**2 overflows a double, or the orbit escapes before the
    # command has anything to report: a numeric failure, not a crash
    result = run_cli(*argv)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert strict_json(result.stdout)["error"]["type"] == "GuardTripped"


@pytest.mark.parametrize("argv", [
    ["equilibria", "--alpha", "1", "--beta", "1", "--format", "svg"],
    ["orbit", "--alpha", "1", "--beta", "1", "--seed=0.1,0.2", "--seed=0.3,0.4",
     "--steps", "5", "--format", "csv"],
])
def test_out_with_a_format_error_exits_2_and_writes_no_file(argv, tmp_path, capsys):
    path = tmp_path / "export"
    assert main([*argv, "--out", str(path)]) == 2
    assert "ratdiff: --format:" in capsys.readouterr().err
    assert not path.exists()


def test_out_to_a_directory_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["orbit", "--alpha", "1", "--beta", "1", "--seed=0.1,0.2",
                 "--steps", "5", "--format", "csv", "--out", "."]) == 3
    assert "ratdiff: --out:" in capsys.readouterr().err


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_stdout_write_error_exits_3(monkeypatch, capsys, failing):
    # a full disk or a closed pipe behind stdout is a failed write, not a crash
    def enospc(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class Stdout(io.StringIO):  # unlike io.StringIO's, its methods can be replaced
        pass

    stdout = Stdout()
    monkeypatch.setattr(stdout, failing, enospc)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["stability", "--alpha", "1", "--beta", "1"]) == 3
    assert capsys.readouterr().err == "ratdiff: stdout: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("argv", [
    ["stability", "--alpha", "1", "--beta", "1"],
    ["orbit", "--alpha", "1", "--beta", "1", "--seed=0.1,0.2", "--steps", "20000",
     "--format", "svg"],
])
def test_a_real_stdout_write_error_exits_3_with_one_line(argv, target):
    # the bytes left buffered must not fail a second time at interpreter exit,
    # which prints "Exception ignored" and exits 120; buffered stdout, as in a shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if target == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "ratdiff.cli", *argv], stdout=stdout,
                                stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(stdout)
    assert result.returncode == 3
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("ratdiff: stdout: [Errno ")


@pytest.mark.parametrize("argv,stdout_closed,code", [
    (["stability", "--alpha", "1"], False, 2),
    (["stability", "--alpha", "1", "--beta", "1", "--format", "csv"], False, 2),
    (["orbit", "--alpha", "1", "--beta", "1", "--seed=0.1,0.2", "--steps", "20000",
      "--format", "svg"], True, 3),
])
def test_a_closed_stderr_keeps_the_exit_code(argv, stdout_closed, code):
    # `ratdiff ... 2>&1 | head -c 100`: the message has no reader either, and
    # its failed write must neither raise nor fail again at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    streams = []
    for closed in (stdout_closed, True):
        read_end, write_end = os.pipe()
        os.close(read_end)
        streams.append(write_end if closed else subprocess.DEVNULL)
    try:
        result = subprocess.run([sys.executable, "-m", "ratdiff.cli", *argv], stdout=streams[0],
                                stderr=streams[1], env=env)
    finally:
        for stream in streams:
            if stream != subprocess.DEVNULL:
                os.close(stream)
    assert result.returncode == code


def test_lyapunov_zero_beta_writes_minus_inf():
    # beta = 0 makes the tangent map nilpotent; the payload must stay JSON
    result = run_cli("lyapunov", "--alpha", "0.3+0.1i", "--beta", "0",
                     "--seed", "0.1,0.2")
    assert result.returncode == 0
    payload = strict_json(result.stdout)["payload"]
    assert payload["lambda_max"] == "-inf"
    assert payload["converged"] is True


def test_main_returns_codes_directly(tmp_path):
    out = tmp_path / "report.json"
    code = main(["equilibria", "--alpha", "0+0i", "--beta", "3+1i",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["payload"]["kind"] == "equilibria"


def test_the_process_entry_freezes_the_import_time_objects():
    # main() with no argv is the console script, python -m ratdiff.cli and
    # the bench launcher: what it imported is frozen, so no later collection
    # and not the interpreter's exit walks it
    child = subprocess.run(
        [sys.executable, "-c", "import gc, sys; from ratdiff.cli import main; code = main(); "
         "print(code, gc.get_freeze_count(), file=sys.stderr)",
         "stability", "--alpha", "1", "--beta", "1"],
        capture_output=True, text=True, check=True)
    code, frozen = map(int, child.stderr.split())
    assert code == 0 and frozen > 1000
    assert json.loads(child.stdout)["payload"]["kind"] == "stability"


def test_an_in_process_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert main(["stability", "--alpha", "1", "--beta", "1"]) == 0
    assert main(["orbit", "--alpha", "1", "--beta", "1", "--seed=0.1,0.2", "--steps", "5",
                 "--format", "csv"]) == 0
    assert gc.get_freeze_count() == before


# --- the resource rule -------------------------------------------------------------

_POINTS, _CELLS = ratdiff.cli._MAX_POINTS, ratdiff.cli._MAX_CELLS
_PAIR = ["--alpha", "1", "--beta", "1"]
# lyapunov's default --transient and --sample
_TRANSIENT, _SAMPLE = AnalysisSettings().lyapunov_transient, AnalysisSettings().lyapunov_sample
# each one step over a limit; none of these may ever run
_OVER_LIMIT = [
    ["orbit", *_PAIR, "--steps", str(_POINTS + 1)],
    ["orbit", *_PAIR, "--seed", "0,0", "--seed", "1,1", "--steps", str(_POINTS // 2 + 1)],
    ["period", *_PAIR, "--steps", str(_POINTS + 1)],
    ["identities", "--alpha", "1", "--steps", str(_POINTS + 1)],
    ["lyapunov", *_PAIR, "--transient", "0", "--sample", str(_POINTS + 1)],
    ["lyapunov", *_PAIR, "--sample", str(_POINTS - _TRANSIENT + 1)],
    ["grid", *_PAIR, "--vary", "seed", "--rect=-1,1,-1,1", "--resolution", f"{_CELLS + 1}x1"],
    ["grid", *_PAIR, "--vary", "seed", "--rect=-1,1,-1,1", "--resolution", "512x513"],
    ["lyapunov", *_PAIR, "--transient", str(_POINTS - _SAMPLE + 1)],
]


@pytest.fixture
def no_work(monkeypatch):
    def refuse(spec):
        raise AssertionError(f"{spec.command} ran although it is over a limit")
    monkeypatch.setattr(ratdiff.cli, "execute", refuse)


@pytest.mark.parametrize("argv", _OVER_LIMIT)
def test_parse_args_rejects_a_run_over_a_limit(argv):
    limit = _CELLS if argv[0] == "grid" else _POINTS
    with pytest.raises(UsageError, match=f"above the limit of {limit}"):
        parse_args(argv)


@pytest.mark.parametrize("argv", _OVER_LIMIT)
def test_main_exits_two_before_any_work_over_a_limit(argv, no_work, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "above the limit of" in err


def test_a_config_value_over_a_limit_is_rejected(tmp_path, no_work, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"steps = {_POINTS + 1}\n")
    assert main(["period", *_PAIR, "--config", str(cfg)]) == 2
    assert f"above the limit of {_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["orbit", *_PAIR, "--steps", str(_POINTS)],
    ["orbit", *_PAIR, "--seed", "0,0", "--seed", "1,1", "--steps", str(_POINTS // 2)],
    # period and identities iterate the first seed only
    ["period", *_PAIR, "--seed", "0,0", "--seed", "1,1", "--steps", str(_POINTS)],
    ["lyapunov", *_PAIR, "--sample", str(_POINTS - _TRANSIENT)],
    ["grid", *_PAIR, "--vary", "seed", "--rect=-1,1,-1,1", "--resolution", "512x512"],
    ["lyapunov", *_PAIR, "--transient", str(_POINTS - _SAMPLE)],
])
def test_parse_args_accepts_a_run_at_a_limit(argv):
    parse_args(argv)  # parsing allocates nothing; these are never run
