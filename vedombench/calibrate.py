"""Scaling measured times to a reference machine speed.

On a shared virtual machine the same pure-Python work can take 1.2 to 1.8
times longer for tens of seconds at a time while neighbouring guests are
busy, so raw wall times of identical runs differ by up to a third.  The
benchmark therefore times a fixed pure-Python kernel (list, set, dict,
tuple and big-int work, like vedom's own inner loops) between operations,
and reports each time multiplied by REFERENCE_KERNEL_S / (mean kernel time
around the operation).  A slowdown of the host stretches the kernel and the
operations alike and cancels; a slowdown of vedom does not touch the kernel
and shows in full.  Raw times are kept in the result files.

The mean, not the median: the host switches between a fast and a slow
state (about 1.1 and 1.7 ms per kernel on the defining machine) at
irregular moments, tens of milliseconds to seconds apart.  A long operation
sees a time-average of the two states, and so does the mean of the kernel
samples, while their median jumps to whichever state holds the majority.
Every few tens of milliseconds one sample is also preempted and takes 5 to
10 times longer; samples above three times the median are capped, so such
a sample does not read as a slow machine.
"""

from __future__ import annotations

import statistics
import time

# a round figure near the kernel's time on the 2-vCPU Xeon VM (2.0 GHz) the
# benchmark was defined on (1.1 to 1.9 ms there); it only fixes the unit
REFERENCE_KERNEL_S = 0.002
KERNEL_ORDER = 1500
# kernel samples taken on each side of an operation to judge its speed
WINDOW = 6


def kernel() -> int:
    """Fixed work: build the adjacency lists of a star, walk it with a
    stack, fold bits into a big int, group and sort neighbourhood tuples."""
    n = KERNEL_ORDER
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        adj[0].append(v)
        adj[v].append(0)
    seen = {0}
    stack = [0]
    mask = 0
    while stack:
        v = stack.pop()
        mask |= 1 << (v % 700)
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        groups.setdefault(tuple(adj[v]), []).append(v)
    return mask.bit_count() + len(sorted(tuple(a) for a in adj)) + len(groups)


def samples_after(elapsed_ns: int) -> int:
    """Kernel samples to take after an operation: one, plus one per 100 ms
    it took (at most 20 more), so long operations get as many samples
    around them as a run of short ones."""
    return 1 + min(20, elapsed_ns // 100_000_000)


class Speed:
    """Kernel timings taken between operations of one pass."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []

    def sample(self, count: int) -> None:
        """Time the kernel ``count`` times."""
        for _ in range(count):
            started = time.perf_counter_ns()
            kernel()
            self.samples_ns.append(time.perf_counter_ns() - started)

    def mark(self) -> int:
        """Position in the sample list, taken just before an operation."""
        return len(self.samples_ns)

    def scale(self, start: int = 0, end: int | None = None) -> float:
        """Factor turning a measured time into reference time, from the
        samples between ``start`` and ``end`` widened by WINDOW on each side
        (all samples by default)."""
        end = len(self.samples_ns) if end is None else end
        near = self.samples_ns[max(0, start - WINDOW):end + WINDOW]
        cap = 3 * statistics.median(near)
        return REFERENCE_KERNEL_S * 1e9 / statistics.mean(min(x, cap) for x in near)
