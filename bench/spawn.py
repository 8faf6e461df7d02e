"""Helper process of run.py: runs the commands it is sent, one at a time, and
reports each one's exit code, wall time and peak RSS.

The kernel counts in a child's peak RSS the memory of the process it was
forked from, so a command started from run.py, which holds every generated
input, would report run.py's size whenever that is the larger. This process
stays small, so the peak RSS of the commands it starts is their own.

Protocol: one JSON list per line on standard input, ``[argv, stdout_path,
stderr_path, timeout_s]``; one JSON list per line on standard output,
``[exit_code, wall_s, peak_rss_mb]``. It exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(argv: list[str], stdout_path: str, stderr_path: str, timeout_s: float) -> list:
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6]


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
