"""A fixed reference computation that measures the machine's current speed.

The benchmark machine shares its cores with other load, and each core
switches between a slow and a fast state, about 1.8x apart, for spells of a
second to a minute: the same code runs fast for a while and slow for a
while.  A statistic inside one run cannot remove a spell that lasts the
whole run.  So the benchmark times this kernel between the items it
measures, and scales each measured time by how fast the kernel ran next to
it.  The kernel is plain Python of the same kind as the program's hot
paths (bitmask branch and bound, sorted(), generator loops, a breadth-first
search over adjacency lists), so a slow spell slows both alike.  While a
CLI run keeps the cores busy, the kernel is timed in CPU time instead
(``Speed.cpu_probe``).

The kernel shares no code with ``semitotal``, so a change to the program
does not change it.  ``NOMINAL_S`` is about the kernel's median time on
the 2-vCPU machine the baselines in ``NOTES.md`` come from; a scaled time
reads as the time at that speed.
"""

import bisect
import statistics
import time
from collections import deque

NOMINAL_S = 0.0040
WINDOW_S = 0.5
_N = 26
# circulant graph C_26(1, 5): 4-regular, domination number 7, diameter 5
_ADJ = [
    sum(1 << ((v + d) % _N) for d in (1, -1, 5, -5)) for v in range(_N)
]
_CLOSED = [_ADJ[v] | 1 << v for v in range(_N)]
_LISTS = [[w for w in range(_N) if _ADJ[v] >> w & 1] for v in range(_N)]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _min_dominating() -> int:
    full = (1 << _N) - 1
    best = [_N]

    def search(covered: int, excluded: int, size: int) -> None:
        uncovered = full & ~covered
        if size + (uncovered.bit_count() + 4) // 5 >= best[0]:
            return
        if not uncovered:
            best[0] = size
            return
        avail, count = 0, _N + 1
        for u in _bits(uncovered):
            options = _CLOSED[u] & ~excluded
            c = options.bit_count()
            if c == 0:
                return
            if c < count:
                avail, count = options, c
        ex = excluded
        for v in sorted(_bits(avail), key=lambda w: (-_CLOSED[w].bit_count(), w)):
            search(covered | _CLOSED[v], ex, size + 1)
            ex |= 1 << v

    search(0, 0, 0)
    return best[0]


def _eccentricities() -> list[int]:
    out = []
    for s in range(_N):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in _LISTS[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(max(dist.values()))
    return out


def kernel() -> tuple:
    return _min_dominating(), tuple(_eccentricities())


EXPECTED = kernel()


class Speed:
    """Reference samples in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self.starts: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        t = time.perf_counter()
        result = kernel()
        self.samples.append(time.perf_counter() - t)
        self.starts.append(t)
        if result != EXPECTED:
            raise RuntimeError("reference kernel gave a different result")
        return len(self.samples) - 1

    def cpu_probe(self) -> float:
        """Time the kernel once in this thread's CPU time, which leaves out
        time spent waiting for a core: for use while the CLI's processes
        keep the cores busy, where the wall time would mostly measure the
        wait."""
        c = time.thread_time()
        result = kernel()
        dt = time.thread_time() - c
        if result != EXPECTED:
            raise RuntimeError("reference kernel gave a different result")
        return dt

    def samples_around(self, count: int) -> tuple[int, int]:
        """Take ``count`` samples; return the index range they span."""
        first = len(self.samples)
        for _ in range(count):
            self.sample()
        return first, len(self.samples)

    def factor_around(self, start: float, duration: float, index: int) -> float:
        """The factor for a timing that began at ``start``, right after
        sample ``index``: over the samples that began within WINDOW_S, or
        within the timing's own duration if longer, before it or after it,
        and at least three samples on either side."""
        reach = max(WINDOW_S, duration)
        lo = bisect.bisect_left(self.starts, start - reach)
        hi = bisect.bisect_right(self.starts, start + duration + reach)
        return self.factor(min(lo, index - 2), max(hi, index + 4))

    def factor(self, lo: int, hi: int) -> float:
        """NOMINAL_S over the mean of samples ``lo`` to ``hi - 1``: the
        factor that scales a time measured then to the nominal speed.  The
        mean, not the median: a fixed amount of work that runs through fast
        and slow spells takes the mean time per unit of work."""
        lo, hi = max(lo, 0), min(hi, len(self.samples))
        return NOMINAL_S / statistics.mean(self.samples[lo:hi])
