"""Report this process's peak resident memory when it exits.

The benchmark puts this directory on the PYTHONPATH of every annkit CLI
process it starts. When ``PERFBENCH_RSS_FILE`` is set, the process writes
its VmHWM (peak resident set, in kB) there at exit. ``ru_maxrss`` cannot
be used instead: on Linux a child's ``ru_maxrss`` starts from the resident
size of the process that spawned it.
"""

import atexit
import os

_RSS_FILE = os.environ.get("PERFBENCH_RSS_FILE")


def _report_peak_rss() -> None:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(_RSS_FILE, "w") as out:
                    out.write(line.split()[1])
                return


if _RSS_FILE:
    atexit.register(_report_peak_rss)
