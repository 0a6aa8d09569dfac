"""Child-process runner that reports each child's wall time and peak RSS.

    python3 bench/spawn.py    (reads one JSON request per line on stdin)

Linux counts in a child's max-RSS the high-water mark of the memory
image it was forked from, so children forked from the harness itself
would report the harness's size once it has read a few large outputs.
The harness therefore starts this small process first, before it
imports anything large, and has it start every CLI child.

On a shared host the machine's speed can change by half within
seconds.  So this process times a fixed pure-Python loop, the probe,
PROBES times just before and PROBES times just after each child.  The
mean probe time tells how fast the machine ran around the child, and
the harness scales the child's wall time to a reference speed with it.

Request: {"args": [...], "cwd": ..., "stdout": ..., "stderr": ..., "timeout": s}
Reply:   {"code": exit code, "wall_s": ..., "rss_mb": ..., "probe_s": mean probe time}
"""

import json
import os
import subprocess
import sys
import threading
import time


PROBE_ITERATIONS = 30_000  # about 2 ms
PROBES = 3


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def run(args, cwd, stdout, stderr, timeout):
    times = [probe() for _ in range(PROBES)]
    with open(stdout, "wb") as out, open(stderr, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    times += [probe() for _ in range(PROBES)]
    return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "probe_s": sum(times) / len(times)}


def main():
    for line in sys.stdin:
        reply = run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
