"""Start CLI processes one at a time and report what each one cost.

Reads one JSON request per line on stdin, {"argv": [...], "out": path,
"err": path}, spawns the command with stdout and stderr sent to those
files, waits for it with os.wait4 and writes one JSON line back:
{"ns": wall time, "code": exit code, "maxrss_kb": ..., "cpu_s": ...}.

A child's ru_maxrss starts at the peak RSS of the process that spawned
it, so the spawning is done here, in a process that stays small, and not
in the benchmark worker, which parses outputs of several megabytes.
Run with `python3 -S`; it exits at end of input.
"""

import json
import os
import sys
import time


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["out"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["err"], flags, 0o644),
        ]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter_ns() - start
        reply = {
            "ns": elapsed,
            "code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
