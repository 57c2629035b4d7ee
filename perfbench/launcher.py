"""Start paneleff processes from a small process, one at a time.

Linux keeps a process's peak resident memory across exec, so a child forked
by the benchmark itself (which holds numpy, scipy and the oracle) would
report at least the benchmark's own peak. run.py starts this launcher
before those imports. It reads one JSON request per line (argv, cwd, env,
stdout and stderr paths, timeout), runs the process to completion, and
answers with one JSON line: wall seconds from spawn to exit, peak RSS in KB
from the process's own rusage, and the exit code. It exits when its input
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
