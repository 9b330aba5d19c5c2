"""Multi-GPU GP-metis — the paper's future work (Sec. V).

"Currently, we assume that the graph size is small enough to fit into
the GPU's memory.  However, partitioning of bigger graphs that do not
fit to the global memory can be done on a cluster of GPUs.  This
approach will be explored in future work."

This module explores it.  The design follows the paper's own building
blocks plus PT-Scotch's folding idea (cited in Sec. II.B):

* vertices are block-distributed over D simulated devices; each device
  holds its vertices' adjacency slices (so a graph D times larger than
  one device fits);
* matching uses the same lock-free two-round scheme, with one lockstep
  round per device batch; claims that cross a device boundary are
  resolved by the same ``M[M[v]] != v`` kernel after a peer exchange of
  boundary match entries (counted as PCIe peer traffic);
* contraction is computed per-device for owned coarse vertices, with
  remote adjacency slices fetched over the interconnect (bytes counted
  per cross-device pair);
* like PT-Scotch's folding, once the coarse graph fits on a single
  device the remaining levels run on device 0 and the standard hybrid
  pipeline (CPU stage + single-GPU uncoarsening) takes over;
* during multi-device uncoarsening, each device refines its block's
  boundary and exchanges labels for cut arcs each sub-iteration.

Quality-wise the algorithms are identical to single-GPU GP-metis (the
lockstep schedule just interleaves per-device batches), so the interest
is in the cost model: peer transfers and per-device balance become the
scaling limits, which the multi-GPU bench (benchmarks/test_multigpu.py)
measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DeviceMemoryError, InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..gpusim.device import Device
from ..gpusim.simt import threads_for_items
from ..mtmetis.matching import lockfree_match
from ..mtmetis.refinement import (
    commit_moves,
    propose_balance_moves,
    propose_moves,
)
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.mpi import block_distribution
from ..runtime.trace import LevelRecord, RefinementRecord, Trace
from ..serial.contraction import contract
from ..serial.kway import enforce_balance
from ..serial.project import project_partition
from .options import GPMetisOptions
from .partitioner import GPMetis

__all__ = ["MultiGpuGPMetis", "MultiGpuOptions"]


@dataclass(frozen=True)
class MultiGpuOptions:
    """Knobs of the multi-GPU driver."""

    num_devices: int = 2
    #: Single-device GP-metis options for the fold-down stage.
    single: GPMetisOptions = field(default_factory=GPMetisOptions)
    #: Peer transfers route through host unless the devices share a
    #: switch; PCIe peer bandwidth relative to H2D (Kepler-era ~1.0).
    peer_bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise InvalidParameterError("num_devices must be >= 1")
        if self.peer_bandwidth_factor <= 0:
            raise InvalidParameterError("peer_bandwidth_factor must be positive")


class MultiGpuGPMetis:
    """GP-metis over a cluster of simulated GPUs (paper future work)."""

    name = "gp-metis-multigpu"

    def __init__(
        self,
        options: MultiGpuOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or MultiGpuOptions()
        self.machine = machine or PAPER_MACHINE

    # ------------------------------------------------------------------
    def _interleaved_batches(self, n: int, owner: np.ndarray, width: int):
        """Lockstep schedule cycling through devices: one width-wide batch
        from each device per round (the devices run concurrently; the
        interleaving models their independent progress)."""
        per_dev = [np.where(owner == d)[0] for d in range(self.options.num_devices)]
        positions = [0] * len(per_dev)
        alive = True
        while alive:
            alive = False
            for d, verts in enumerate(per_dev):
                if positions[d] < verts.shape[0]:
                    yield verts[positions[d] : positions[d] + width]
                    positions[d] += width
                    alive = True

    def _peer_exchange(self, clock: SimClock, nbytes: float, detail: str) -> None:
        net = self.machine.interconnect
        bw = net.pcie_bytes_per_sec * self.options.peer_bandwidth_factor
        clock.charge("transfer_latency", net.pcie_latency_seconds, count=1.0, detail=detail)
        if nbytes > 0:
            clock.charge("transfer_bytes", nbytes / bw, count=nbytes, detail=detail)

    # ------------------------------------------------------------------
    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        opts = self.options
        clock = SimClock()
        trace = Trace()
        rng = np.random.default_rng(opts.single.seed)
        t0 = time.perf_counter()
        D = opts.num_devices

        devices = [Device(self.machine.gpu, clock) for _ in range(D)]

        # Distribute CSR slices: each device stores its block's rows.
        clock.set_phase("transfer")
        owner = block_distribution(graph.num_vertices, D)
        slices = []
        per_dev_bytes = []
        for d in range(D):
            mine = owner == d
            arc_bytes = int(graph.degrees()[mine].sum()) * 16  # adjncy+adjwgt
            row_bytes = int(mine.sum()) * 16  # adjp+vwgt
            nbytes = arc_bytes + row_bytes
            per_dev_bytes.append(nbytes)
            if nbytes > devices[d].free_bytes:
                raise DeviceMemoryError(
                    f"device {d} cannot hold its block ({nbytes} B of "
                    f"{devices[d].free_bytes} B free)"
                )
            slices.append(devices[d].adopt(np.empty(nbytes // 8, np.int64), f"slice{d}"))
            self._peer_exchange(clock, nbytes, detail=f"h2d block {d}")

        # --------------------------------------------------------------
        # Distributed coarsening until the graph fits on one device.
        # --------------------------------------------------------------
        clock.set_phase("coarsening-multigpu")
        levels: list[tuple[CSRGraph, np.ndarray]] = []
        current = graph
        level_idx = 0
        single_device_bytes = int(self.machine.gpu.memory_bytes * 0.45)
        while current.nbytes > single_device_bytes and current.num_vertices > k * 2:
            n = current.num_vertices
            cur_owner = block_distribution(n, D)
            width = threads_for_items(
                max(1, n // D), opts.single.max_gpu_threads
            )
            match, mstats = lockfree_match(
                current,
                self._interleaved_batches(n, cur_owner, width),
                scheme=opts.single.matching,
                rng=rng,
            )
            # Per-device matching kernels: charge each device's scan as a
            # concurrent kernel (max over devices = wall time).
            deg = current.degrees().astype(np.float64)
            per_dev_scans = np.bincount(cur_owner, weights=deg, minlength=D)
            worst = int(per_dev_scans.max())
            with devices[0].kernel(f"mgpu.match.L{level_idx}", n_threads=width) as kk:
                flat = np.arange(min(worst, current.num_directed_edges))
                kk.compute_divergent(deg[cur_owner == int(np.argmax(per_dev_scans))])
                kk.compute(2 * worst)

            # Boundary match entries cross devices (peer exchange).
            src_dev = cur_owner[current.source_array()]
            dst_dev = cur_owner[current.adjncy]
            cross_arcs = int((src_dev != dst_dev).sum())
            self._peer_exchange(clock, cross_arcs * 8.0, detail=f"match halo L{level_idx}")

            coarse, cmap = contract(current, match)
            # Cross-device pairs migrate one adjacency list.
            ids = np.arange(n, dtype=np.int64)
            cross_pairs = (match > ids) & (cur_owner[ids] != cur_owner[match])
            migrate_bytes = float(current.degrees()[match[cross_pairs]].sum() * 16)
            self._peer_exchange(clock, migrate_bytes, detail=f"pair migration L{level_idx}")
            with devices[0].kernel(f"mgpu.contract.L{level_idx}", n_threads=width) as kk:
                kk.compute(int(per_dev_scans.max()))

            trace.levels.append(
                LevelRecord(
                    level=level_idx,
                    num_vertices=n,
                    num_edges=current.num_edges,
                    matched_pairs=mstats.pairs,
                    conflicts=mstats.conflicts,
                    self_matches=mstats.self_matches,
                    engine="multi-gpu",
                )
            )
            shrink = 1.0 - coarse.num_vertices / n
            levels.append((current, cmap))
            current = coarse
            level_idx += 1
            if shrink < opts.single.min_shrink:
                break

        # --------------------------------------------------------------
        # Fold onto device 0: the standard single-GPU hybrid pipeline.
        # --------------------------------------------------------------
        clock.set_phase("transfer")
        self._peer_exchange(clock, float(current.nbytes), detail="fold to device 0")
        single = GPMetis(opts.single, self.machine)
        inner = single.partition(current, k)
        clock.merge([inner.clock])
        trace.levels.extend(inner.trace.levels)
        trace.refinements.extend(inner.trace.refinements)
        part = inner.part

        # --------------------------------------------------------------
        # Multi-device uncoarsening: project + refine each folded level.
        # --------------------------------------------------------------
        clock.set_phase("uncoarsening-multigpu")
        for li in range(len(levels) - 1, -1, -1):
            fine, cmap = levels[li]
            part = project_partition(part, cmap)
            cut_before = edge_cut(fine, part)
            part = self._refine_multidevice(fine, part, k, clock, li)
            trace.refinements.append(
                RefinementRecord(
                    level=li, pass_index=0,
                    moves_proposed=0, moves_committed=0,
                    cut_before=cut_before, cut_after=edge_cut(fine, part),
                    engine="multi-gpu",
                )
            )

        enforce_balance(graph, part, k, opts.single.ubfactor)

        return PartitionResult(
            method=self.name,
            graph_name=graph.name,
            k=k,
            part=part,
            clock=clock,
            trace=trace,
            wall_seconds=time.perf_counter() - t0,
            extras={
                "num_devices": D,
                "multi_gpu_levels": len(levels),
                "per_device_bytes": per_dev_bytes,
                "single_gpu_levels": inner.extras.get("gpu_levels", 0),
            },
        )

    # ------------------------------------------------------------------
    def _refine_multidevice(
        self, graph: CSRGraph, part: np.ndarray, k: int, clock: SimClock, level: int
    ) -> np.ndarray:
        """One direction-alternating refinement pass per folded level,
        with per-device halo label exchanges."""
        opts = self.options
        part = part.copy()
        total = graph.total_vertex_weight
        ideal = total / k if k else 0.0
        max_pw = opts.single.ubfactor * ideal
        min_pw = max(0.0, (2.0 - opts.single.ubfactor) * ideal)
        pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)

        owner = block_distribution(graph.num_vertices, opts.num_devices)
        cross_arcs = int((owner[graph.source_array()] != owner[graph.adjncy]).sum())

        for _ in range(opts.single.refine_passes):
            committed = 0
            rounds = [0] if pweights.max(initial=0.0) > max_pw else []
            rounds += [+1, -1]
            for direction in rounds:
                if direction == 0:
                    vs, ds, gs, stats = propose_balance_moves(
                        graph, part, k, pweights, max_pw
                    )
                else:
                    vs, ds, gs, stats = propose_moves(
                        graph, part, k, direction, pweights, max_pw, min_pw
                    )
                commit_moves(
                    graph, part, pweights, vs, ds, gs, k, max_pw, stats,
                    recheck_gains=(direction != 0),
                )
                committed += stats.committed
                # Each device sweeps its block; labels sync across devices.
                clock.charge(
                    "memory",
                    self.machine.gpu.gather_transaction_seconds(
                        graph.num_directed_edges / max(1, opts.num_devices)
                    ),
                    count=float(graph.num_directed_edges),
                    detail=f"mgpu refine sweep L{level}",
                )
                self._peer_exchange(clock, cross_arcs * 8.0, detail=f"label halo L{level}")
            if committed == 0:
                break
        return part
