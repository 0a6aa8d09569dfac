"""Rewrite tests/golden/outputs.json, the golden output corpus.

    PYTHONPATH=src python tests/golden/regen.py

The corpus is the one list of pinned command lines: every check that
compares what the CLI writes for a fixed argv reads its argv here.  It
holds every bench workload's --size tiny argv at seeds 0 and 1 (--out
dropped) in json, csv and svg; the edge argv (EDGE_ARGV), which cross
the export blocks, the lanes' ring and the orbit guard; one relative
--out argv per format; and, in json, the argv that leave a flag to its
default, miss a required flag, read a config file or fail (exit 2 or
3).  Each entry holds the exit code, the sha256 of stdout with
wall_time_s masked, the first stderr line and, for an --out argv, the
sha256 of the file, its wall_time_s masked too.
tests/test_golden.py replays every entry through cli.main in process,
and writes every EDGE_ARGV export to --out as well, which must equal
the export to stdout.

Regenerate only for a change that means to change output, and name the
entries that changed and why beside the change.  Regenerating to make an
unintended difference pass hides it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "outputs.json"
_BENCH = Path(__file__).resolve().parents[2] / "bench"

FORMATS = ("json", "csv", "svg")
SEEDS = (0, 1)
# exports that cross what a small run does not: an orbit that escapes at
# once, whose blocks hold non-finite points; orbits and grids over more
# than two export blocks; a grid whose convergence window starts in the
# first block; a 32x32 grid at 3,000 steps whose period-48 and period-80
# cells leave through the cycle test after the transient cut; scans whose
# budget crosses four (plus) and five (minus) blocks of draws; a period-6
# orbit whose residual has the bits of CPython's abs whatever SIMD code
# numpy dispatches
EDGE_ARGV = [
    ("orbit", "--alpha", "0+1e308i", "--beta", "1e308", "--seed=2,0+3i", "--steps", "5",
     "--format", "svg"),
    ("orbit", "--alpha", "0+1e308i", "--beta", "1e308", "--seed=2,0+3i", "--steps", "5"),
    ("orbit", "--alpha", "1", "--beta", "1", "--seed", "0.1,0.2", "--steps", "20000"),
    ("orbit", "--alpha", "1", "--beta", "1", "--seed", "0.1,0.2", "--steps", "20000",
     "--format", "csv"),
    ("orbit", "--alpha", "1", "--beta", "1", "--seed", "0.1,0.2", "--steps", "20000",
     "--format", "svg"),
    ("orbit", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
     "--seed=0.1+0.1i,0.2-0.1i", "--seed=-0.3+0.2i,0.4+0i", "--steps", "5000",
     "--format", "svg"),
    ("grid", "--alpha", "1", "--beta", "1", "--vary", "seed", "--rect=-1,1,-1,1",
     "--resolution", "7x5", "--steps", "50", "--format", "svg"),
    ("grid", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
     "--seed=0.1+0.1i,0.2-0.1i", "--vary", "beta", "--rect=-1.5,1.5,-1.5,1.5",
     "--resolution", "8x8", "--steps", "33"),
    ("grid", "--alpha", "0.2278+0.3210i", "--beta", "0.82956+0.8221i",
     "--seed=0.1+0.1i,0.2-0.1i", "--vary", "beta", "--rect=-1.5,1.5,-1.5,1.5",
     "--resolution", "32x32", "--steps", "3000"),
    ("period", "--alpha", "-0.63+1.8i", "--beta", "0.59-1.46i", "--seed=0.19+1.27i,0.26-0.95i",
     "--steps", "4000"),
    ("scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1", "--beta-rect=-1,1,-1,1",
     "--budget", "5000", "--rng-seed", "7", "--format", "svg"),
    ("scan", "--branch", "minus", "--alpha-rect=-1,1,-1,1", "--beta-rect=-1,1,-1,1",
     "--budget", "5000", "--rng-seed", "19"),
]
# argv that leave to parse_args what no other entry does: the drawn seed
# (no --seed), the default --steps, --resolution and --rng-seed, and the
# usage error of a missing flag
DEFAULT_ARGV = [
    ("orbit", "--alpha", "1", "--beta", "1", "--steps", "5"),
    ("period", "--alpha", "1", "--beta", "1", "--steps", "50"),
    ("lyapunov", "--alpha", "1", "--beta", "1", "--sample", "100"),
    ("identities", "--alpha", "1", "--steps", "5"),
    ("scan", "--branch", "plus", "--alpha-rect=-1,1,-1,1", "--beta-rect=-1,1,-1,1",
     "--budget", "8"),
    ("orbit", "--alpha", "1", "--beta", "1", "--seed", "0.1,0.2"),
    ("grid", "--alpha", "1", "--beta", "5", "--vary", "seed", "--rect=-1,1,-1,1",
     "--steps", "40"),
    ("grid", "--alpha", "1", "--beta", "1"),
    ("scan", "--branch", "plus"),
    ("orbit", "--alpha", "1"),
]
# argv that fail: an error envelope, exit 3, keeps an empty payload and is
# JSON whatever --format asks for, also where |beta|, |alpha + 1| or an
# identity residual overflows a double; a grid that varies a parameter
# needs --seed
ERROR_ARGV = [
    ("period", "--alpha", "1e308", "--beta", "1e308", "--seed=1e308,1e308", "--steps", "10"),
    ("period", "--alpha", "1e308", "--beta", "1e308", "--seed=1e308,1e308", "--steps", "10",
     "--format", "csv"),
    ("lyapunov", "--alpha", "40+33i", "--beta", "27+77i", "--seed", "0.1,0.2"),
    ("identities", "--alpha", "0", "--seed=0,-1", "--steps", "5"),
    ("equilibria", "--alpha", "1e200", "--beta", "1"),
    ("stability", "--alpha", "1e200", "--beta", "1"),
    ("grid", "--alpha", "1", "--beta", "1", "--vary", "alpha", "--rect=-1,1,-1,1", "--steps", "5"),
    ("trichotomy", "--alpha", "1", "--beta", "1.5e308+1.5e308i"),
    ("trichotomy", "--alpha", "1.5e308+1.5e308i", "--beta", "1"),
    ("identities", "--alpha", "1.5e308+1.5e308i", "--seed", "0,0", "--steps", "1"),
]
# a run whose config file sets the keys named unlike their RunSpec field;
# --resolution is not a lyapunov flag, so that key is skipped
CONFIG_CASE = {
    "argv": ["lyapunov", "--alpha", "1", "--beta", "1", "--config", "run.cfg"],
    "config": "seed = 0.1,0.2\ntransient = 10\nsample = 100\nresolution = 3x2\nrng-seed = 7\n",
}

# the float after "wall_time_s": in a JSON envelope, the one field that
# differs from run to run
_WALL_TIME = re.compile(rb'("wall_time_s": )[^,}\s]+')


def versions() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _without_out(argv: tuple[str, ...]) -> list[str]:
    """argv without --out and --format, which an export argv ends with."""
    words = list(argv)
    for flag in ("--out", "--format"):
        if flag in words:
            i = words.index(flag)
            del words[i:i + 2]
    return words


def argv_list() -> list[dict]:
    """Every corpus command line: {"argv": [...]} plus "out" for an --out argv
    and "config" for the text of the run.cfg an argv reads."""
    sys.path.insert(0, str(_BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(_BENCH))
    cases, outs = [], {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for inv in workloads.invocations(name, seed, "tiny"):
                base = _without_out(inv.argv)
                cases += [{"argv": [*base, "--format", fmt]} for fmt in FORMATS]
                if inv.out is not None and seed == 0:
                    outs[inv.out] = list(inv.argv)
    cases += [{"argv": list(argv)} for argv in EDGE_ARGV]
    cases += [{"argv": argv, "out": out} for out, argv in outs.items()]
    cases += [{"argv": list(argv)} for argv in DEFAULT_ARGV]
    cases.append(CONFIG_CASE)
    cases += [{"argv": list(argv)} for argv in ERROR_ARGV]
    return cases


def run(case: dict) -> tuple[int, bytes, str, bytes | None]:
    """Run case["argv"] through cli.main in process: (exit code, stdout,
    stderr, the bytes of case["out"] or None where the case has no "out").

    Each argv runs in a fresh directory, so a relative --out path lands
    there and case["config"], if any, is the run.cfg it reads.
    """
    from ratdiff.cli import main
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if "config" in case:
                Path("run.cfg").write_text(case["config"], encoding="utf-8")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(case["argv"]))
            out = Path(case["out"]).read_bytes() if "out" in case else None
        finally:
            os.chdir(cwd)
    return code, stdout.getvalue().encode("utf-8"), stderr.getvalue(), out


def replay(case: dict) -> dict:
    """The fields the corpus records for case, from one run()."""
    code, stdout, stderr, out = run(case)
    result = {
        **case,
        "exit": code,
        "stdout_sha256": hashlib.sha256(masked(stdout)).hexdigest(),
        "stderr": stderr.partition("\n")[0],
    }
    if out is not None:
        result["out_sha256"] = hashlib.sha256(masked(out)).hexdigest()
    return result


def masked(data: bytes) -> bytes:
    """data with the value of a JSON envelope's wall_time_s set to 0."""
    return _WALL_TIME.sub(rb"\g<1>0", data)


def main() -> None:
    entries = [replay(case) for case in argv_list()]
    # one entry a line, so a regenerated corpus diffs entry by entry
    lines = ",\n".join(f"  {json.dumps(entry)}" for entry in entries)
    CORPUS.write_text(f'{{"versions": {json.dumps(versions())},\n "entries": [\n{lines}\n]}}\n',
                      encoding="utf-8")
    print(f"{CORPUS}: {len(entries)} entries")


if __name__ == "__main__":
    main()
