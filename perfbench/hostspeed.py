"""Host speed calibration: a fixed kernel timed between pcup's own calls.

On a shared VM the same single-threaded process runs up to 1.5x faster
or slower for seconds to minutes at a time, and CPU time does not hide
it (the guest counts the slow phases as its own time).  The benchmark
therefore runs this kernel between pcup calls, once every INTERVAL_S of
CPU time, and scales each measured time by how fast the kernel ran while
it was measured, to the speed of a host on which one kernel call takes
REFERENCE_S.  Interleaving matters: kernel samples taken between whole
repeats did not follow the host, while one call after every layer call
followed it within a few percent.

The kernel mixes the kinds of work the workloads do: a recursive
median-split nearest-neighbour search over small NumPy blocks (the
kd-tree), single-threaded matrix products (the network), a pure-Python
loop (per-cloud loops) and a sort.  Its inputs are fixed, so it does the
same work on every seed and every commit, and a change to pcup moves the
scaled times exactly as it moves the raw ones.

Import only after the BLAS thread variables are pinned (see run.py).
"""

from __future__ import annotations

import time

import numpy as np

# Mean CPU time of one kernel call on a 2-core shared x86-64 VM with
# Python 3.11, NumPy 2.4 and single-threaded OpenBLAS; scaled times are
# in seconds of that host.
REFERENCE_S = 0.010
# CPU time between kernel calls; the kernel adds about 10 %.
INTERVAL_S = 0.08

_rng = np.random.default_rng(20240607)
_POINTS = _rng.random((4096, 3))
_QUERIES = _rng.random((512, 3)) * 1.2 - 0.1
_X = _rng.standard_normal((1024, 64))
_W = _rng.standard_normal((64, 128)) * 0.1
_V = _rng.random(131072)


def _nearest(points: np.ndarray, queries: np.ndarray, depth: int = 0) -> np.ndarray:
    if len(points) <= 64:
        d = queries[:, None, :] - points[None, :, :]
        return np.einsum("bnj,bnj->bn", d, d).min(axis=1)
    axis = depth % 3
    mid = len(points) // 2
    part = np.argpartition(points[:, axis], mid)
    left = queries[:, axis] <= points[part[mid], axis]
    out = np.empty(len(queries))
    if left.any():
        out[left] = _nearest(points[part[:mid]], queries[left], depth + 1)
    if not left.all():
        out[~left] = _nearest(points[part[mid:]], queries[~left], depth + 1)
    return out


def kernel() -> float:
    """One call of the fixed mix; returns a checksum so no part is idle."""
    total = float(_nearest(_POINTS, _QUERIES).sum())
    h = np.maximum(_X @ _W, 0.0)
    total += float((_X.T @ h).sum())
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    total += float(np.sort(_V)[1000]) + acc
    return total


class Metronome:
    """Runs the kernel at most once every INTERVAL_S of CPU time, when
    tick() is called, and keeps the CPU time it spent there."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.kernel_s = 0.0
        self.calls = 0
        self._due = 0.0

    def program_time(self) -> float:
        """CPU time of this process less the time spent in the kernel."""
        return time.process_time() - self.kernel_s

    def tick(self) -> None:
        if not self.enabled:
            return
        start = time.process_time()
        if start < self._due:
            return
        kernel()
        end = time.process_time()
        self.kernel_s += end - start
        self.calls += 1
        self._due = end + INTERVAL_S

    def mark(self) -> tuple:
        return self.kernel_s, self.calls

    def speed_since(self, mark: tuple) -> "float | None":
        """Host speed relative to the reference since mark: REFERENCE_S ÷
        the mean kernel time; None when the kernel has not run since."""
        kernel_s, calls = self.kernel_s - mark[0], self.calls - mark[1]
        return REFERENCE_S * calls / kernel_s if calls else None
