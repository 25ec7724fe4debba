"""Spawns one command per request and reports its wall time and rusage.

Run as `python3 -S launcher.py`.  Linux charges a child's max RSS with the
memory of the process that spawned it (the spawner's address space is the
one replaced at exec), so every timed process is spawned from this small
interpreter instead of the benchmark harness; that keeps the harness's own
memory out of `peak_rss_mb`.

Protocol, one JSON object per line.  Request on stdin:
  {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
Reply on stdout:
  {"wall_s": float, "exit": int, "maxrss_kb": int, "timed_out": bool}
The wall time runs from just before the spawn to just after the child is
reaped.  A child still running at its timeout is killed.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    state = {"pid": 0, "timed_out": False}

    def on_alarm(signum, frame):
        if state["pid"]:
            state["timed_out"] = True
            try:
                os.kill(state["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, on_alarm)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
        ]
        state["timed_out"] = False
        start = time.perf_counter()
        state["pid"] = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                                      file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(state["pid"], 0)
        wall = time.perf_counter() - start
        state["pid"] = 0
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "exit": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
            "timed_out": state["timed_out"],
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
