"""The benchmark's own smoke test; not part of the repository's test suite.

    python3 bench/smoke.py

Runs every workload at the tiny size in both modes and asserts that each
metric BENCHMARK.json names is printed with its unit, that the report
names the per-workload end-to-end metrics, and that no operation fails.
Then it corrupts one orbit point and one grid cell after the CLI wrote
them and asserts that each corruption counts as a failed operation.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

REPORTED = ("wall_s", "setup_s", "peak_rss_mb", "error_rate")


def check_workload(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    units = bench.metric_units(trace)
    assert result["metrics"].keys() == units.keys(), result["metrics"].keys() ^ units.keys()
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and isinstance(metric["value"], (int, float)), metric
    if not trace:
        throughput, unit = bench.THROUGHPUT[workload]
        report = "\n".join(lines[:-1])
        for name, unit in [(throughput, unit), *((n, None) for n in REPORTED)]:
            assert any(line.split()[:1] == [name] and (unit is None or line.endswith(unit))
                       for line in report.splitlines()), f"{name} missing from the report"
    print(f"ok  {workload} trace={trace}: {len(units)} metrics, "
          f"{result['attempted']} operations")


def shift_one_point(inv, stdout, work):
    if inv.check == "orbit-json":
        path = work / inv.out
        envelope = json.loads(path.read_text())
        points = envelope["payload"]["orbits"][0]["points"]
        z = complex(points[len(points) // 2][:-1] + "j") * (1 + 1e-6)
        points[len(points) // 2] = f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"
        path.write_text(json.dumps(envelope))
    return stdout


def flip_one_cell(inv, stdout, work):
    if inv.check != "grid":
        return stdout
    envelope = json.loads(stdout)
    payload = envelope["payload"]
    old = payload["cells"][0][0]
    new = "periodic" if old != "periodic" else "chaotic"
    payload["cells"][0][0] = new
    # keep the counts consistent, so only the cell-by-cell check can see it
    payload["counts"][old] -= 1
    payload["counts"][new] = payload["counts"].get(new, 0) + 1
    if not payload["counts"][old]:
        del payload["counts"][old]
    return json.dumps(envelope)


def check_corruption(spawner, workload: str, tamper, expect: str) -> None:
    session = bench.Session(workload, 3, "tiny", spawner, tamper=tamper)
    session.measure(0.1, 0)
    assert session.failed >= 1, f"{workload}: a corrupted output passed the checks"
    assert any(expect in p for p in session.problems), session.problems
    print(f"ok  {workload}: corrupted output counted as {session.failed} failed of "
          f"{session.attempted} ({session.problems[0]})")


def main() -> int:
    for workload in bench.THROUGHPUT:
        for trace in (0, 1):
            check_workload(workload, trace)
    with bench.Spawner() as spawner:
        problem = bench.load_program()
        assert problem is None, problem
        check_corruption(spawner, "cli-session", shift_one_point, "recurrence")
        check_corruption(spawner, "chaos-grid", flip_one_cell, "in-process")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
