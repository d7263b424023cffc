"""Run one command; print its exit code, wall time and peak RSS as JSON.

Usage: python3 spawn.py STDOUT_PATH STDERR_PATH TIMEOUT_S -- COMMAND...

The benchmark starts every child through this small process. A child
started straight from the benchmark would inherit the benchmark's own
RSS high-water mark (the kernel carries it over fork and exec), so its
ru_maxrss would read at least as high as the benchmark's peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> None:
    out_path, err_path, timeout, sep, *command = argv
    if sep != "--" or not command:
        raise SystemExit(__doc__)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))  # KiB on Linux


if __name__ == "__main__":
    main(sys.argv[1:])
