"""Runs one command; prints its exit code, wall and CPU time and peak RSS.

  python3 perfbench/launch.py TIMEOUT_S COMMAND...

A process's peak RSS (ru_maxrss) starts at the high-water mark of the
process it was forked from. run.py holds whole reports in memory, so it
launches each measured o2batch run through this small process, whose own
high-water mark stays far below any o2batch run's.

wait4 reports the child's own usage plus that of every descendant it
reaped, so CPU time includes the workers of --isolate=process and peak RSS
is the larger of the child's and its largest worker's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    timeout = float(sys.argv[1])
    start = time.perf_counter()
    p = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"exit": p.returncode, "wall_s": wall,
                      "cpu_s": ru.ru_utime + ru.ru_stime,
                      "peak_rss_mb": ru.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
