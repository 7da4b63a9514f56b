"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on a CPU of a shared host whose speed changes as
neighbours come and go: within a fraction of a second by up to 40 %, and in
its average over minutes by a third, so a run of 35 s cannot average it
out.  So every timed piece of work is bracketed by a fixed kernel
(:func:`kernel`), timed just before and just after it on the same CPU (the
run keeps itself and its children on one), and the work's time is scaled
by ``REF_S`` over the mean of the two kernel times.  A time so scaled is in
reference seconds: what the work would take with the CPU at the speed
where the kernel takes ``REF_S``.  Work the program does faster shows in
full, since the kernel belongs to the benchmark and does not change with
the program.

The kernel mixes what the package spends its time on: an interpreted
loop over Python objects, small numpy reductions and sorts, and a dict.
Timed next to a `place` or a `certify` operation on the same CPU, the
logarithms of the two times rise together with a slope of 1.0.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel time on the reference machine (one CPU of a 2-vCPU
#: virtual machine, CPython 3.11.7, numpy 2.4.6), in seconds.
REF_S = 0.009

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.random((60, 60))
_TALL = _RNG.random((200, 30))


def kernel() -> float:
    """A fixed mix of interpreted and numpy work, about 9 ms here."""
    acc = 0.0
    for i in range(15000):
        acc += (i % 7) * 0.5
    for _ in range(150):
        acc += float(np.minimum(_SQUARE, _SQUARE[:, [3]] + _SQUARE[[5], :]).sum())
        acc += float(np.sort(_TALL, axis=0)[0, 0])
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + counts[0]


def timed() -> float:
    """Seconds one :func:`kernel` call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work in reference seconds, given the kernel times
    measured just before and just after it."""
    return seconds * REF_S / (0.5 * (before + after))
