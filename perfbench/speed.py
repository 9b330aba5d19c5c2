"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, with nothing else running in the container (see README.md, "Host
noise").  A run therefore times this kernel next to every pass and every
cold set-up and reports host times rescaled to a *reference host*: one on
which the kernel takes :data:`REFERENCE_S` seconds.  The kernel is the
benchmark's own code, so a change to the program moves the rescaled time
exactly as much as the raw time.

The kernel imitates the mix of a partitioning pass: label-propagation
rounds in numpy (gathers, a stable argsort, ``np.unique``, segmented sums
and maxima on arrays of about 10^5), then greedy matching sweeps in plain
Python, in a 2:1 ratio of time.  Many numpy calls on tiny arrays, also
part of a pass, are left out: their time followed the host's speed much
less closely than the passes did.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :meth:`Gauge.sample` takes on the reference host.  Near
#: what it took on the 2-core machine the benchmark was sized on, so the
#: rescaled times read like seconds on that machine.
REFERENCE_S = 0.3


class Gauge:
    """The kernel's fixed input, a small random graph, built once per
    process.  It holds about 4 MB, so that it barely moves the run's peak
    memory."""

    def __init__(self) -> None:
        n, degree = 10_000, 6
        rng = np.random.default_rng(2016)
        src = rng.integers(0, n, n * degree)
        dst = (src + rng.integers(1, 200, n * degree)) % n
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        order = np.lexsort((dst, src))
        self.src, self.adj = src[order], dst[order]
        self.weight = rng.integers(1, 8, len(src))[order]
        self.xadj = np.searchsorted(self.src, np.arange(n + 1))
        self.n = n

    def sample(self) -> float:
        """Run the kernel once; its host seconds."""
        t0 = time.perf_counter()
        self._numpy_rounds()
        self._python_matching()
        return time.perf_counter() - t0

    def _numpy_rounds(self) -> None:
        k = 64
        label = np.arange(self.n) % k
        for _ in range(20):
            key = self.src * k + label[self.adj]
            order = np.argsort(key, kind="stable")
            keys, start = np.unique(key[order], return_index=True)
            sums = np.add.reduceat(self.weight[order], start)
            vertex = keys // k
            first = np.searchsorted(vertex, np.arange(self.n))
            best = np.maximum.reduceat(sums, first)
            pick = np.flatnonzero(sums == np.repeat(best, np.diff(np.append(first, len(sums)))))
            label = np.zeros(self.n, dtype=np.int64)
            label[vertex[pick[::-1]]] = keys[pick[::-1]] % k
            np.bincount(label, minlength=k)

    def _python_matching(self) -> None:
        xadj, adj, weight = self.xadj.tolist(), self.adj.tolist(), self.weight.tolist()
        for _ in range(10):
            match = [-1] * self.n
            for u in range(self.n):
                if match[u] >= 0:
                    continue
                best, best_w = u, -1
                for j in range(xadj[u], xadj[u + 1]):
                    v = adj[j]
                    if match[v] < 0 and v != u and weight[j] > best_w:
                        best, best_w = v, weight[j]
                match[u] = best
                match[best] = u
