"""ratdiff benchmark: run one workload of ratdiff CLI invocations and report.

    python3 bench/run.py --workload chaos-grid --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --record bench/results/out.json

--trace 0 times the real CLI as child processes, one at a time in a
closed loop, and reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 replays the same argv in this process, untraced and traced in
turn, and reports the per-layer metrics.  Every output is checked; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  bench/README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# what the installed `ratdiff` console script runs
LAUNCH = "import sys; from ratdiff.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120
# the speed probe's time (spawn.py) on the quiet machine the bounds were
# set on; child wall times are scaled to the speed at which the probe
# takes this long
REF_PROBE_S = 0.002
RUN_LIMIT_S = 150  # no pass starts after this, whatever --seconds says

# the end-to-end metrics the report prints besides BENCHMARK.json's: the
# per-workload name of the throughput, and the failure ratio
THROUGHPUT = {
    "chaos-grid": ("cells_per_s", "cells/s"),
    "mixed-grid": ("cells_per_s", "cells/s"),
    "margin-scan": ("evals_per_s", "evals/s"),
    "cli-session": ("points_per_s", "points/s"),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    code: int
    wall_s: float  # wall clock from start to exit
    ref_s: float  # the same at the reference speed
    rss_mb: float  # max RSS


class Spawner:
    """The bench/spawn.py process, which starts every CLI child.

    Start it before this process imports numpy or reads large outputs;
    spawn.py says why.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env())

    def run(self, args: list[str], cwd: Path, stdout: Path) -> Child:
        """Run one interpreter to completion."""
        request = {"args": [sys.executable, *args], "cwd": str(cwd), "stdout": str(stdout),
                   "stderr": str(cwd / "stderr.txt"), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("bench/spawn.py exited")
        reply = json.loads(line)
        return Child(reply["code"], reply["wall_s"],
                     reply["wall_s"] * REF_PROBE_S / reply["probe_s"], reply["rss_mb"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Session:
    """One workload at one seed: its invocations, work directory and tallies.

    An operation is one CLI invocation; it fails on a wrong exit code or
    a failed output check.  tamper(invocation, stdout, work dir) may
    rewrite an output before it is checked, for the smoke test.
    """

    def __init__(self, workload: str, seed: int, size: str, spawner: Spawner, tamper=None):
        self.workload, self.seed, self.size = workload, seed, size
        self.invs = workloads.invocations(workload, seed, size)
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "stderr.txt").write_bytes(b"")
        self.rng = random.Random(f"check/{workload}/{seed}")
        self.spawner, self.tamper = spawner, tamper
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def check(self, results) -> list[int]:
        """Check each (invocation, exit code, stdout); the items each produced."""
        from checks import run_check
        items = []
        for inv, code, stdout in results:
            if self.tamper is not None:
                stdout = self.tamper(inv, stdout, self.work)
            count, problems = run_check(inv, stdout, self.work, self.rng)
            if code != 0:
                problems = [f"exit {code}, expected 0"] + problems
            self.record(inv.argv[0], problems)
            items.append(count)
        return items

    # --- end to end: child processes ------------------------------------------

    def setup_times(self) -> list[Child]:
        """Fresh interpreter until `ratdiff --version` exits, after one warm-up."""
        version = workloads.Invocation(("--version",), "version")
        out = self.work / "version.txt"
        children = []
        for _ in range(SETUP_REPEATS + 1):
            child = self.spawner.run(["-c", LAUNCH, "--version"], self.work, out)
            self.check([(version, child.code, out.read_text())])
            children.append(child)
        return children[1:]

    def child_pass(self) -> dict:
        """One closed-loop pass over the invocations, one child at a time."""
        children = [self.spawner.run(["-c", LAUNCH, *inv.argv], self.work,
                                     self.work / f"stdout-{i}.txt")
                    for i, inv in enumerate(self.invs)]
        items = self.check(
            (inv, child.code, (self.work / f"stdout-{i}.txt").read_text())
            for i, (inv, child) in enumerate(zip(self.invs, children)))
        busy = sum(child.ref_s for child, n in zip(children, items) if n)
        return {"wall_s": sum(child.ref_s for child in children),
                "raw_wall_s": sum(child.wall_s for child in children),
                "work_per_s": sum(items) / busy if busy else 0.0,
                "peak_rss_mb": max(child.rss_mb for child in children),
                "invocation_s": [child.ref_s for child in children]}

    def end_to_end(self, seconds: float):
        setup = self.setup_times()
        passes = until(time.perf_counter() + seconds, self.child_pass)
        metrics = {name: statistics.median(p[name] for p in passes)
                   for name in ("wall_s", "work_per_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(child.ref_s for child in setup)
        samples = {"wall_s": [p["wall_s"] for p in passes],
                   "raw_wall_s": [p["raw_wall_s"] for p in passes],
                   "setup_s": [child.ref_s for child in setup],
                   "raw_setup_s": [child.wall_s for child in setup],
                   "invocation_s": [t for p in passes for t in p["invocation_s"]]}
        return metrics, samples

    # --- per layer: in-process replay ----------------------------------------

    def import_times(self) -> tuple[list[float], list[float]]:
        """numpy's and ratdiff's own cumulative import times, from -X importtime."""
        numpy_s, ratdiff_s = [], []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ratdiff.cli"],
                                  capture_output=True, text=True, env=child_env(),
                                  timeout=CHILD_TIMEOUT_S)
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
            ok = proc.returncode == 0 and {"numpy", "ratdiff.cli"} <= cumulative.keys()
            self.record("import ratdiff.cli", [] if ok else ["no -X importtime figures"])
            if ok:
                numpy_s.append(cumulative["numpy"])
                ratdiff_s.append(cumulative["ratdiff.cli"] - cumulative["numpy"])
        return numpy_s, ratdiff_s

    def replay(self) -> tuple[float, list]:
        """Run the argv through ratdiff.cli.main in this process: (wall s, results)."""
        results = []
        cwd = os.getcwd()
        os.chdir(self.work)  # --out paths are relative to the work directory
        try:
            start = time.perf_counter()
            for inv in self.invs:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    try:
                        code = sys.modules["ratdiff.cli"].main(list(inv.argv))
                    except SystemExit as exc:
                        code = exc.code
                results.append((inv, code, buf.getvalue()))
            wall = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        return wall, results

    def per_layer(self, seconds: float):
        numpy_s, ratdiff_s = self.import_times()
        last_spans: list = []

        def traced():
            t = tracer.Tracer()
            with t.traced():
                wall, results = self.replay()
            self.check(results)
            last_spans[:] = t.spans
            return wall, tracer.layer_metrics(t.spans, wall)

        def untraced():
            wall, results = self.replay()
            self.check(results)
            return wall

        turn = itertools.count()

        def pair():
            # alternate which side goes first, so drift affects both alike
            if next(turn) % 2:
                return traced(), untraced()
            first = untraced()
            return traced(), first

        pairs = until(time.perf_counter() + seconds, pair)
        tracer.write_spans(last_spans, self.work / "spans.json")
        layers = [m for (_, m), _ in pairs]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["setup.import_numpy_s"] = statistics.median(numpy_s) if numpy_s else 0.0
        metrics["setup.import_ratdiff_s"] = statistics.median(ratdiff_s) if ratdiff_s else 0.0
        traced_s = [w for (w, _), _ in pairs]
        untraced_s = [u for _, u in pairs]
        metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
        samples = {"untraced_s": untraced_s, "traced_s": traced_s,
                   "import_numpy_s": numpy_s, "import_ratdiff_s": ratdiff_s}
        return metrics, samples

    def measure(self, seconds: float, trace: int) -> dict:
        metrics, samples = self.per_layer(seconds) if trace else self.end_to_end(seconds)
        return {"env": environment(self.workload, self.seed), "trace": trace,
                "size": self.size, "seconds": seconds,
                "argv": [list(inv.argv) for inv in self.invs],
                "metrics": metrics, "samples": samples}


def until(deadline: float, step) -> list:
    """Call step() at least once, and again while another call fits the deadline."""
    out, spent = [], []
    limit = min(deadline, time.perf_counter() + RUN_LIMIT_S)
    while True:
        start = time.perf_counter()
        out.append(step())
        spent.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(spent) > limit:
            return out


def percentile_note(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    note = f"median {statistics.median(values):.4f}"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            note += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
            break
    else:
        if n < 20:
            note += ", no percentile has ten samples beyond it"
    return f"{note} (n={n})"


def environment(workload: str, seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit,
            "workload": workload, "seed": seed}


def report(record: dict, units: dict[str, str], session: Session) -> dict:
    """Print the human-readable report; return the contract's metrics."""
    env, metrics, samples = record["env"], record["metrics"], record["samples"]
    print(f"# {env['workload']} seed={env['seed']} trace={record['trace']} "
          f"size={record['size']} python={env['python']} numpy={env['numpy']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r} commit={env['commit']}")
    for name, values in samples.items():
        if values:
            print(f"  {name:<36} {percentile_note(values)}")
    shown = dict(metrics)
    if not record["trace"]:
        name, unit = THROUGHPUT[env["workload"]]
        units = {**units, name: unit, "error_rate": "ratio"}
        shown[name] = metrics["work_per_s"]
        shown["error_rate"] = session.failed / session.attempted
    for name, value in shown.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    for problem in session.problems:
        print(f"  FAILED {problem}")
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics}


def load_program() -> str | None:
    """Import ratdiff from this checkout's src/; the reason when that fails."""
    if not (SRC / "ratdiff" / "cli.py").is_file():
        return f"no ratdiff sources at {SRC}"
    sys.path.insert(0, str(SRC))
    import ratdiff.cli  # the in-process replay and the checks use it
    if not Path(ratdiff.cli.__file__).resolve().is_relative_to(SRC):
        return f"ratdiff was imported from {ratdiff.cli.__file__}, not from {SRC}"
    return None


def metric_units(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *THROUGHPUT])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", help="also write the full records as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "ratdiff" / "cli.py").is_file():
        print(f"bench: no ratdiff sources at {SRC}", file=sys.stderr)
        return 2
    with Spawner() as spawner:
        problem = load_program()
        if problem:
            print(f"bench: {problem}", file=sys.stderr)
            return 2
        units = metric_units(args.trace)
        names = list(THROUGHPUT) if args.workload == "all" else [args.workload]
        records, contract = [], {}
        for workload in names:
            session = Session(workload, args.seed, args.size, spawner)
            record = session.measure(args.seconds, args.trace)
            metrics = report(record, units, session)
            missing = units.keys() - metrics.keys()
            if missing:
                print(f"bench: metrics not measured: {sorted(missing)}", file=sys.stderr)
                return 1
            record.update(attempted=session.attempted, failed=session.failed,
                          problems=session.problems)
            records.append(record)
            prefix = "" if len(names) == 1 else f"{workload}/"
            contract.update({prefix + k: v for k, v in metrics.items()})
    if args.record:
        Path(args.record).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": contract}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
