"""Round-robin CPU placement for the benchmark's processes.

The CPUs of a shared host run at different speeds (busy neighbours, shared
caches). A process left on one CPU for a whole run measures that CPU, and
runs then disagree far more than cells do. The benchmark moves its work over
every allowed CPU in turn, so each run sees the same mix of them;
perfbench_driver does the same per cell (CpuRotation in driver/layers.h).
"""

import os


class CpuRotation:
    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self, width=1):
        """The next `width` CPUs in rotation (all CPUs when there are fewer)."""
        n = len(self.cpus)
        if n <= width:
            return set(self.cpus)
        picked = {self.cpus[(self.turn + i) % n] for i in range(width)}
        self.turn += 1
        return picked

    def all(self):
        return set(self.cpus)


def pin_process(pid, cpus):
    """Pins every thread of `pid`; threads it starts later inherit the set."""
    try:
        tids = [int(t) for t in os.listdir("/proc/%d/task" % pid)]
    except OSError:
        tids = [pid]
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except OSError:
            pass  # the thread exited meanwhile
