import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratdiff import (IterationSettings, OrbitSeed, Parameters, ResultEnvelope, RunSpec, emit,
                     format_complex, iterate, parse_complex)
from ratdiff.cli import UsageError, execute, main, parse_args
from ratdiff.serialize import FormatError

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


def test_parse_bad_complex_exits_2():
    result = run_cli("orbit", "--alpha", "bogus")
    assert result.returncode == 2
    assert "--alpha" in result.stderr


def test_parse_unknown_command_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2


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


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavelength = 7\n")
    with pytest.raises(UsageError):
        parse_args(["stability", "--config", str(cfg)])


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


# --- emission ----------------------------------------------------------------------

def _orbit_envelope(steps=3):
    spec = parse_args(["orbit", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "0.1+0i,0.2+0i", "--steps", str(steps)])
    return execute(spec)


def test_csv_orbit_shape():
    env = _orbit_envelope(1)  # seed pts + 1 iterate = 3 points
    text = emit(env, "csv")
    _strict_csv(text)
    lines = text.split("\r\n")
    assert lines[0] == "n,re,im"
    assert len([ln for ln in lines[1:] if ln]) == 3
    assert lines[1].startswith("-1,")


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


def test_svg_orbit_renders():
    text = emit(_orbit_envelope(), "svg")
    assert text.startswith("<svg")
    assert 'version="1.1"' in text
    assert "<polyline" in text


def test_svg_multi_seed_orbit_gets_distinct_colors():
    spec = parse_args(["orbit", "--alpha", "1+1i", "--beta", "1+1i",
                       "--seed", "0.1+0i,0.2+0i", "--seed", "0.3+0i,0.1+0.2i",
                       "--steps", "20"])
    text = emit(execute(spec), "svg")
    assert text.count("<polyline") == 2
    assert 'stroke="#1f77b4"' in text and 'stroke="#ff7f0e"' in text


def test_svg_grid_has_colored_cells():
    spec = parse_args(["grid", "--alpha", "0.2278+0.3210i",
                       "--beta", "0.82956+0.8221i", "--vary", "seed",
                       "--rect=-0.4,0.4,-0.4,0.4", "--resolution", "2x2",
                       "--steps", "600"])
    env = execute(spec)
    text = emit(env, "svg")
    # 4 data cells on top of the background rect and the frame
    assert text.count("<rect") == 4 + 2


def test_emission_deterministic():
    env = _orbit_envelope()
    for fmt in ("json", "csv", "svg"):
        assert emit(env, fmt) == emit(env, fmt)


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
    assert hashlib.sha256(emit(env, fmt).encode()).hexdigest() == _PINNED_SHA256[fmt]


def test_csv_reads_back_to_orbit_points():
    text = emit(execute(parse_args(_PINNED_ARGV)), "csv")
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


@pytest.mark.parametrize("argv", [
    # every point coincides far beyond where a padding of 1.0 registers
    ["orbit", "--alpha", "1e300", "--beta", "1e300", "--seed=1e300,1e300",
     "--steps", "5", "--format", "svg"],
    ["scan", "--branch", "plus", "--alpha-rect=1e150,1e150,0,0",
     "--beta-rect=1e150,1e150,0,0", "--budget", "3", "--format", "svg"],
    # a coincident point next to the largest double, and a spread that overflows
    ["orbit", "--alpha", "1", "--beta", "1", "--seed=1.7e308,1.7e308",
     "--steps", "5", "--format", "svg"],
    ["orbit", "--alpha", "1", "--beta", "1", "--seed=-1.7e308,1.7e308+1e308i",
     "--steps", "5", "--format", "svg"],
])
def test_svg_window_never_collapses_or_overflows(argv):
    result = run_cli(*argv)
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    assert all(math.isfinite(v) for v in _svg_coordinates(result.stdout))
    # every marker lands inside its frame (the scan's beta plane is offset by 480)
    for element in ET.fromstring(result.stdout).iter():
        if element.tag.endswith("circle"):
            assert 40 <= float(element.attrib["cx"]) % 480 <= 440
            assert 40 <= float(element.attrib["cy"]) <= 440


def test_emit_writes_file(tmp_path):
    env = _orbit_envelope()
    path = tmp_path / "orbit.csv"
    text = emit(env, "csv", str(path))
    assert path.read_bytes().decode() == text


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


def test_exit_two_on_usage():
    result = run_cli("orbit", "--alpha", "1+1i")  # --beta missing
    assert result.returncode == 2
    assert "--beta" in result.stderr


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


def test_randomized_commands_record_rng_seed():
    # defaulted seed is echoed for randomized runs even when omitted
    result = run_cli("scan", "--branch", "plus", "--alpha-rect=0,1,0,1",
                     "--beta-rect=0,1,0,1", "--budget", "50")
    assert json.loads(result.stdout)["runspec"]["rng_seed"] == 0
    result = run_cli("lyapunov", "--alpha", "0.2278+0.3210i",
                     "--beta", "0.82956+0.8221i", "--sample", "1500")
    assert json.loads(result.stdout)["runspec"]["rng_seed"] == 0
    # a fully specified deterministic run carries no seed
    result = run_cli("trichotomy", "--alpha", "1+0i", "--beta", "0.5+0i")
    assert "rng_seed" not in json.loads(result.stdout)["runspec"]


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


@settings(max_examples=100, deadline=None)
@given(branch=st.sampled_from(["plus", "minus"]), alpha_rect=_RECT, beta_rect=_RECT,
       budget=st.integers(1, 3000), rng_seed=st.integers(0, 2**32 - 1),
       fmt=st.sampled_from(["json", "csv", "svg"]))
def test_scan_cli_exits_cleanly_with_strict_output(branch, alpha_rect, beta_rect, budget,
                                                   rng_seed, fmt):
    argv = ["scan", "--branch", branch, f"--alpha-rect={alpha_rect}",
            f"--beta-rect={beta_rect}", "--budget", str(budget), "--rng-seed", str(rng_seed),
            "--format", fmt]
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
       fmt=st.sampled_from(["json", "csv", "svg"]))
def test_grid_cli_exits_cleanly_with_strict_output(vary, rect, nx, ny, steps, fmt):
    # the chaotic catalog pair and the bench seed: cells that escape,
    # settle, lock onto a cycle or stay chaotic, whatever is varied
    argv = ["grid", "--vary", vary, "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
            "--seed=0.1+0.1i,0.2-0.1i", f"--rect={rect}", "--resolution", f"{nx}x{ny}",
            "--steps", str(steps), "--format", fmt]
    _exits_cleanly_with_strict_output(argv, fmt)


def _literal(re, im):
    return f"{re!r}{'-' if math.copysign(1.0, im) < 0 else '+'}{abs(im)!r}i"


_COMPLEX = st.builds(_literal, _BOUND, _BOUND)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["orbit", "period", "lyapunov", "equilibria", "stability",
                                "trichotomy", "identities"]),
       alpha=_COMPLEX, beta=_COMPLEX, seed=st.tuples(_COMPLEX, _COMPLEX),
       steps=st.integers(1, 600), transient=st.integers(0, 600), sample=st.integers(1, 600),
       fmt=st.sampled_from(["json", "json", "json", "csv", "svg"]))
# the alpha + beta - 1 equilibrium's residual is inf, which JSON cannot hold
@example(command="equilibria", alpha="0.0+0.0i", beta="0.0+1.3407807929942597e+154i",
         seed=("0.0+0.0i", "0.0+0.0i"), steps=1, transient=0, sample=1, fmt="json")
def test_other_commands_exit_cleanly_with_strict_output(command, alpha, beta, seed, steps,
                                                        transient, sample, fmt):
    # identities takes beta = alpha + 1 when --beta is left out: any
    # other beta breaks its hypothesis (exit 2).  Only orbit writes CSV
    # and SVG; the others exit 2 for those formats.
    argv = [command, f"--alpha={alpha}", "--format", fmt]
    if command != "identities":
        argv.append(f"--beta={beta}")
    if command in ("orbit", "period", "lyapunov", "identities"):
        argv.append(f"--seed={seed[0]},{seed[1]}")
    if command == "lyapunov":
        argv += ["--transient", str(transient), "--sample", str(sample)]
    elif command in ("orbit", "period", "identities"):
        argv += ["--steps", str(steps)]
    _exits_cleanly_with_strict_output(argv, fmt)


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
