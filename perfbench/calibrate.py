"""Host-speed calibration, so that timings are comparable across runs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
up to 1.7 times within a minute (other tenants share the physical cores;
the guest sees no steal time, so CPU time drifts with wall time).  A run
therefore times, next to every task and every set-up, a fixed probe:
rational Gaussian elimination on twelve 7x7 matrices, written against
the stdlib only, close in kind to the program's own exact arithmetic,
with the collector paused.  No toruslab code runs in the probe, so no
change to the program can move it.

A timing is reported in reference seconds::

    wall_s * (REFERENCE_PROBE_S / probe_s) ** sensitivity

where probe_s is the mean of the probes just before and after it and,
for work in this process, of those taken every 0.25 s of CPU time while
it runs (InTaskProbes): the time the same work would take on a host
where one probe takes REFERENCE_PROBE_S.  The host's slow spells slow
the probe more than the program, whose work waits more on memory, and
start-up in a fresh interpreter less than work in a warm one; so each
workload carries its own sensitivity, the exponent that made a fixed
task's scaled time steadiest over four minutes of alternating tasks and
probes (before and after only) on the machine the benchmark was defined
on.  Per-task spread, as the distance between quartiles over the
median, without scaling / with exponent 1 / with the chosen exponent:

    prop-sweep  0.8   0.157 / 0.125 / 0.086
    structure   0.9   0.266 / 0.085 / 0.085
    cli-cold    0.6   0.120 / 0.147 / 0.088

With the probes inside tasks as well, two fixed prop-sweep tasks read
0.150 and 0.172 unscaled and 0.036 and 0.039 scaled; 0.8 was again the
best exponent.

The raw wall times are kept in the result file.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

#: the probe's time on the reference host; about its median on the
#: 2-vCPU machine the benchmark was defined on
REFERENCE_PROBE_S = 0.007

_N = 7
#: twelve fixed, well-conditioned matrices: a working set wider than one
#: matrix, as the program's own kernels have
_MATRICES = [[[Fraction((7 * k + 3 * i + 5 * j) % 19 - 9, (i + 2 * j + k) % 5 + 1)
               + (20 if i == j else 0) for j in range(_N)] for i in range(_N)]
             for k in range(12)]


def _eliminate():
    for matrix in _MATRICES:
        m = [row[:] for row in matrix]
        for c in range(_N):
            for r in range(c + 1, _N):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]


def _once():
    t0 = time.perf_counter()
    _eliminate()
    return time.perf_counter() - t0


def probe():
    """Time of one calibration probe, in seconds.

    The faster of two back-to-back runs, so that a probe right after a
    child process (cold caches) or an interrupt reads the host's speed,
    not the disturbance.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_once(), _once())
    finally:
        if enabled:
            gc.enable()


class InTaskProbes:
    """Probes on a CPU-time timer while a task runs in this process.

    A task of a few seconds spans several of the host's fast and slow
    spells, of which the probes just before and after it catch two
    moments; these catch one every INTERVAL_S of CPU time.  paused_s is
    their time, which the caller takes out of the task's.  Inactive, the
    context does nothing: while a child process runs, a probe here would
    compete with it for the host's cores.
    """

    INTERVAL_S = 0.25

    def __init__(self, active):
        self.active = active
        self.samples = []
        self.paused_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_PROF, 0)
        return False


def scale(wall_s, probes_s, sensitivity):
    """wall_s in reference seconds, given the probes taken around it."""
    return wall_s * (REFERENCE_PROBE_S / statistics.mean(probes_s)) ** sensitivity
