"""Host speed yardstick that lets timings from a drifting host agree.

On a shared host, the speed of pure-Python code drifts by a factor of up
to two within a minute, and seqmatch's loops drift with it.  A fixed
kernel shaped like those loops (table-driven skips over a byte string,
half of them through a method call, as a generic ``scheme.hash`` probe
does) is timed every ``EVERY_NS`` of the run.  Each timing the
benchmark takes is multiplied by ``REF_NS / kernel_ns``, which
expresses it at the speed of a host where the kernel takes ``REF_NS``.
The kernel lives in the benchmark, so a change to seqmatch moves the
scaled timings exactly as much as the raw ones.
"""

from time import perf_counter_ns

# Kernel time, fastest of five, measured on a 2-vCPU Intel Xeon at
# 2.1 GHz with CPython 3.11.7 in its fast phases.
REF_NS = 200_000
EVERY_NS = 50_000_000
REPEATS = 5
# The first few runs of the kernel are up to 40% slower, until the
# interpreter has specialised its bytecode.
WARMUP = 10

_DATA = bytes(range(256)) * 8
_SKIP = [1 + i % 3 for i in range(256)]


class _Probe:
    def hash(self, seq, pos):
        return (seq[pos - 1] + (seq[pos] << 3)) & 255


def _kernel(probe=_Probe()):
    data, skip, hash_ = _DATA, _SKIP, probe.hash
    n = len(data)
    start = perf_counter_ns()
    pos = 1
    while pos < n:
        pos += skip[data[pos]]
    pos = 1
    while pos < n:
        pos += skip[hash_(data, pos)]
    return perf_counter_ns() - start


class HostClock:
    """Current scale factor from raw nanoseconds to reference ones."""

    def __init__(self):
        for _ in range(WARMUP):
            _kernel()
        self.scale = 1.0
        self.kernel_ns = []
        self._last = None

    def refresh(self):
        """Re-time the kernel when ``EVERY_NS`` have passed; return the
        scale to apply to timings taken now."""
        now = perf_counter_ns()
        if self._last is None or now - self._last > EVERY_NS:
            took = min(_kernel() for _ in range(REPEATS))
            self.kernel_ns.append(took)
            self.scale = REF_NS / took
            self._last = perf_counter_ns()
        return self.scale
