#!/usr/bin/env python
"""A guided tour of the GP-metis GPU pipeline, kernel by kernel.

Walks one coarsening level exactly as Sec. III.A describes — matching
kernel, conflict resolution, the 4-kernel cmap pipeline (Fig. 4), and the
contraction with both adjacency-merge strategies — showing the data each
stage produces and what it costs on the simulated GTX Titan.

Run:  python examples/gpu_pipeline_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.gpmetis.kernels import gpu_build_cmap, gpu_contract, gpu_match
from repro.gpusim import Device, transfer_graph_to_device
from repro.graphs import generators
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE


def main() -> None:
    graph = generators.delaunay(5_000, seed=3)
    print(f"input: {graph}\n")

    clock = SimClock()
    clock.set_phase("tour")
    dev = Device(PAPER_MACHINE.gpu, clock)

    # Step 0 — "Initially, the graph information is copied to the GPU's
    # global memory" (four CSR arrays).
    d_csr = transfer_graph_to_device(dev, graph, PAPER_MACHINE.interconnect)
    print(f"H2D: {dev.stats.h2d_bytes} bytes in {dev.stats.h2d_transfers} transfers; "
          f"device memory in use: {dev.allocated_bytes} bytes")

    # Step 1 — lock-free matching + conflict resolution (Fig. 3), one
    # fused launch.
    n_threads = min(graph.num_vertices, PAPER_MACHINE.gpu.max_threads)
    d_match, mstats = gpu_match(dev, d_csr, graph, n_threads, "hem",
                                np.random.default_rng(0))
    print(f"\nmatching with {n_threads} threads:")
    print(f"  pairs={mstats.pairs} conflicts={mstats.conflicts} "
          f"self-matched={mstats.self_matches}")
    k = dev.stats.kernel("coarsen.match_resolve")
    print(f"  match/resolve kernel: {k.memory_transactions:.0f} transactions, "
          f"coalescing efficiency {k.coalescing_efficiency:.2f}")

    # Step 2 — the 4-kernel cmap pipeline (Fig. 4).
    d_cmap, n_coarse = gpu_build_cmap(dev, d_match, n_threads)
    print(f"\ncmap pipeline: {graph.num_vertices} fine -> {n_coarse} coarse vertices")
    for name in ("coarsen.cmap_mark", "coarsen.cmap.inclusive_scan",
                 "coarsen.cmap_subtract", "coarsen.cmap_final"):
        kk = dev.stats.kernel(name)
        print(f"  {name:<30s} {kk.seconds * 1e6:8.2f} us")

    # Step 3 — contraction, once per merge strategy.
    for strategy in ("hash", "sort"):
        c = SimClock()
        c.set_phase("contract")
        d2 = Device(PAPER_MACHINE.gpu, c)
        csr2 = transfer_graph_to_device(d2, graph, PAPER_MACHINE.interconnect)
        m2 = d2.adopt(d_match.data.copy(), label="match")
        cm2 = d2.adopt(d_cmap.data.copy(), label="cmap")
        out = gpu_contract(d2, csr2, graph, m2, cm2, n_coarse, n_threads,
                           merge_strategy=strategy)
        merge_s = sum(
            ks.seconds for name, ks in d2.stats.kernels.items()
            if "contract_merge" in name
        )
        print(f"\ncontraction ({strategy} merge): coarse graph {out.coarse}")
        print(f"  merge kernel time: {merge_s * 1e6:.2f} us"
              + ("  (fell back to sort)" if out.fell_back_to_sort else ""))

    print(f"\ntotal modeled time of the tour: {clock.total_seconds * 1e3:.3f} ms")
    print("\nper-kernel summary:")
    print(dev.stats.report())


if __name__ == "__main__":
    main()
