"""Elapsed seconds net of hypervisor steal.

On a virtual machine the host can withhold CPU from the guest ("steal"),
which stretches wall time without any change in the program.  A stopwatch
here reads wall time, the process's CPU time and the guest's steal counter
(/proc/stat, all CPUs), and reports the wall time scaled by the share of the
wanted CPU time the process actually got:

    seconds = wall * cpu / (cpu + steal)

Where the kernel reports no steal (bare metal) this is the wall time.

The steal counter is machine-wide, so the correction assumes the benchmark is
the only load on the machine: a vCPU accrues steal only while it has work to
run, and then the work is the benchmark's.  Steal suffered by another program
on a vCPU the benchmark leaves idle would be charged to the benchmark and make
its seconds come out low.
"""

import os
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_s() -> float:
    """Seconds of CPU the host has withheld from this machine, over all CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0


def net_seconds(wall: float, cpu: float, steal: float) -> float:
    return wall * cpu / (cpu + steal) if cpu + steal > 0 else wall


class Stopwatch:
    """Started at construction, or at the given earlier readings."""

    def __init__(self, wall0=None, cpu0=None, steal0=None):
        self.wall0 = time.monotonic() if wall0 is None else wall0
        self.cpu0 = time.process_time() if cpu0 is None else cpu0
        self.steal0 = stolen_s() if steal0 is None else steal0

    def read(self) -> dict:
        wall = time.monotonic() - self.wall0
        cpu = time.process_time() - self.cpu0
        steal = max(stolen_s() - self.steal0, 0.0)
        return {"s": net_seconds(wall, cpu, steal), "wall": wall, "cpu": cpu, "steal": steal}
