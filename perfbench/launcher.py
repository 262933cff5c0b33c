"""Run measured commands one at a time and report each one's resource use.

Reads one JSON request per stdin line, {"argv": [...], "env": {...}, "log":
path}, runs the command to its end with stdout and stderr in the log file, and
answers with one JSON line: wall seconds from launch to exit, the user+sys CPU
seconds and peak RSS that os.wait4 reports for the command and its children,
the exit code, and this process's own peak RSS.

It is its own small process because ru_maxrss survives fork and exec: a
command started from a large process reports at least that process's resident
set. Started before the benchmark loads anything, this one stays a few MB.
"""

import json
import os
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], env=request["env"], stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "exit_code": proc.returncode,
            "launcher_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
