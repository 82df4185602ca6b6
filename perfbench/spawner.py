"""Job launcher for run.py; start it with ``python3 -S perfbench/spawner.py``.

A child started by vfork or posix_spawn inherits its parent's high-water RSS
in its own ru_maxrss, so a job launched straight from the benchmark (whose
oracles and inputs keep it large) could report the benchmark's memory as its
own.  This process stays small and launches every job instead.

Each line on stdin is a JSON request
    {"argv": [...], "timeout": seconds, "stdout": path, "mem_mb": limit}
answered by one JSON line on stdout
    {"status": "ok" | "timeout", "rc": exit code or null, "wall": seconds,
     "cpu": user+sys seconds, "rss_kb": peak RSS}
with CPU time and peak RSS of that child alone (from wait4).  The child's
address space is capped at mem_mb, so a runaway job fails instead of
exhausting the machine.  The launcher exits at the end of its input.
"""

import json
import os
import resource
import signal
import sys
import time


def run(argv, timeout, stdout, mem_mb):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    fired = []

    def kill(signum, frame):
        fired.append(signum)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        resource.prlimit(pid, resource.RLIMIT_AS, (mem_mb << 20, mem_mb << 20))
    except OSError:
        pass
    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {
        "status": "timeout" if fired else "ok",
        "rc": None if fired else os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
