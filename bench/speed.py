"""Host-speed probe: a fixed piece of the benchmark's own code, timed between commands.

On a shared virtual machine the CPU's speed drifts.  On the 2-vCPU KVM
guest the baseline was taken on, a fixed loop ran up to about 2x slower or
faster for stretches of seconds to minutes, each vCPU partly on its own,
and CPU time drifted with it (the host slows the vCPU without taking its
time slices away).  That drift is larger than the program's own run-to-run
variation, and a run of tens of seconds cannot average it out.

So the benchmark times this probe on each CPU before and after every timed
command and divides the command's time by the mean of the two probes, in
units of :data:`REF_PROBE_S`: the probes of the CPU the command ran on, or
of every CPU if the command kept more than one busy (:func:`speed_factor`).
The end-to-end times then read as seconds at the host speed at which the
probe takes ``REF_PROBE_S``.  The probe does not call ``qabcert``, so a
change to the program moves the normalised times exactly as it moves the
raw ones; only the host's speed cancels.

The probe mixes the kinds of work the workloads do, in about equal parts:
interpreted Python, many numpy calls on 2x2 matrices and one batched LAPACK
call.  On that guest their times tracked the workloads' closely (correlation
0.8 between adjacent samples); a pass over a large array tracked them less
(0.6), so the probe leaves it out.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

# The probe's typical time on the baseline machine; sets the scale only.
REF_PROBE_S = 0.010
# Probe each CPU on its own up to this many CPUs, else only the current one.
MAX_PINNED_CPUS = 4
# A command whose CPU time exceeds its wall time by this factor ran on
# several CPUs at once.
MULTI_CPU_BUSY = 1.1


def current_cpu() -> int | None:
    """The CPU the calling thread last ran on, or None where Linux's /proc is absent."""
    try:
        stat = Path("/proc/thread-self/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[36])  # field 39, "processor"


def speed_factor(before: dict, after: dict, cpu: int | None, busy: float) -> tuple:
    """The host's (wall, CPU) slowness over a command, in units of REF_PROBE_S.

    ``before`` and ``after`` are the probes around the command, ``cpu`` the
    CPU it ended on and ``busy`` its CPU time over its wall time.
    """
    cpus = [cpu] if busy <= MULTI_CPU_BUSY and cpu in before else list(before)
    probes = [p[c] for p in (before, after) for c in cpus]
    return statistics.mean(w for w, _ in probes), statistics.mean(c for _, c in probes)


class SpeedProbe:
    """Times the fixed probe; inputs are built once, from a fixed seed."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        rng = np.random.default_rng(20260117)
        small = rng.standard_normal((300, 2, 2))
        self._small = list(small + small.transpose(0, 2, 1))
        stack = rng.standard_normal((1200, 4, 4))
        self._stack = stack + stack.transpose(0, 2, 1)
        # Bound now: a traced round patches np.linalg.eigh and must not count the probe.
        self._eigh = np.linalg.eigh

    def _work(self) -> None:
        x = 0
        for i in range(40_000):
            x += i * i
        for m in self._small:
            w, v = self._eigh(m)
            (v * w) @ v.T
        self._eigh(self._stack)

    def _time(self) -> tuple:
        # One untimed pass first refills the caches the previous command left
        # in another state, so the probe does not depend on what ran before it.
        self._work()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self._work()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        return wall / REF_PROBE_S, cpu / REF_PROBE_S

    def __call__(self) -> dict:
        """Time the probe on each CPU; returns {cpu: (wall, CPU time)} in units of REF_PROBE_S.

        The calling thread is pinned to one CPU after another, then given
        back every CPU it had.  On a host with more than MAX_PINNED_CPUS
        CPUs only the current one is timed.
        """
        if len(self.cpus) > MAX_PINNED_CPUS:
            return {current_cpu(): self._time()}
        speeds = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                speeds[cpu] = self._time()
        finally:
            os.sched_setaffinity(0, self.cpus)
        return speeds
