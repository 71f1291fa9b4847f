"""Host-speed probe: a fixed pure-Python kernel timed between ops.

The shared host this benchmark was tuned on changes speed by up to
1.7x, in phases that last from under a second to minutes, and every
kind of Python code (integer loops, list matmul, dict updates,
orbihom's own ops) slows by about the same factor at the same time.
Timing this kernel right before and right after an op measures the host
speed around that op.  run.py scales each op's wall time by
REFERENCE_S over the mean of those two probe times, which gives the
time the op would take on a host where the kernel takes REFERENCE_S.

The kernel is the benchmark's own code and never calls orbihom, so a
change to orbihom cannot move it; it only cancels the host's drift.
"""

from __future__ import annotations

from time import perf_counter

# Kernel time on the 2-vCPU Xeon VM (2.1 GHz, Python 3.11) that
# the benchmark was tuned on, in a fast phase.  Only the scale of the
# reported times depends on it; their ratios do not.
REFERENCE_S = 0.0017

_N = 28
_A = [[(3 * i + 5 * j) % 7 - 3 for j in range(_N)] for i in range(_N)]
_B_COLS = [list(col) for col in zip(*[[(i * j + 1) % 5 - 2
                                       for j in range(_N)]
                                      for i in range(_N)])]


def kernel() -> int:
    """Fixed work mixing what orbihom does: small dense integer matmul
    on lists of lists, dict updates and big-integer arithmetic."""
    prod = [[sum(x * y for x, y in zip(row, col)) for col in _B_COLS]
            for row in _A]
    counts: dict[int, int] = {}
    for i in range(3000):
        key = (i * 37) % 251
        counts[key] = counts.get(key, 0) + i
    big = 1
    for i in range(1, 300):
        big = big * (i | 1) % (1 << 200) + i
    return prod[3][7] + len(counts) + big % 97


def sample() -> float:
    """Wall time of one kernel call, in seconds."""
    began = perf_counter()
    kernel()
    return perf_counter() - began
