"""Greedy k-way boundary refinement (paper Sec. II.A.3).

During un-coarsening, boundary vertices are visited in gain order and
moved to the adjacent partition with the largest edge-cut reduction,
"however, the balance among the partitions should be maintained after
this movement".  A vectorised snapshot computes candidate moves; each
application re-validates the gain against current state (neighbors may
have moved earlier in the pass), so a pass can only ever reduce the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._segments import gather_ranges, segment_ids
from ..graphs.csr import CSRGraph
from ..graphs.metrics import imbalance

__all__ = [
    "KwayPassResult",
    "kway_connectivity",
    "kway_refine_pass",
    "kway_refine",
    "rebalance_pass",
    "enforce_balance",
]


@dataclass(frozen=True)
class KwayPassResult:
    moves_proposed: int
    moves_committed: int
    gain_realised: int
    edge_scans: int


def kway_connectivity(
    graph: CSRGraph, part: np.ndarray, vertices: np.ndarray, k: int
) -> np.ndarray:
    """Dense (len(vertices), k) matrix of edge weight from each vertex to
    each partition."""
    lens = graph.adjp[vertices + 1] - graph.adjp[vertices]
    flat = gather_ranges(graph.adjp[vertices], lens)
    rows = segment_ids(lens)
    conn = np.zeros((vertices.shape[0], k), dtype=np.int64)
    np.add.at(conn, (rows, part[graph.adjncy[flat]]), graph.adjwgt[flat])
    return conn


def kway_refine_pass(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    k: int,
    max_pweight: float,
    min_pweight: float,
    rng: np.random.Generator,
) -> KwayPassResult:
    """One refinement pass; mutates ``part`` and ``pweights`` in place."""
    n = graph.num_vertices
    src = graph.source_array()
    ext = part[src] != part[graph.adjncy]
    bmask = np.zeros(n, dtype=bool)
    bmask[src[ext]] = True
    boundary = np.where(bmask)[0]
    edge_scans = int(graph.num_directed_edges)
    if boundary.size == 0:
        return KwayPassResult(0, 0, 0, edge_scans)

    conn = kway_connectivity(graph, part, boundary, k)
    own = part[boundary]
    own_conn = conn[np.arange(boundary.shape[0]), own]
    masked = conn.copy()
    masked[np.arange(boundary.shape[0]), own] = -1
    best_dest = np.argmax(masked, axis=1)
    best_gain = masked[np.arange(boundary.shape[0]), best_dest] - own_conn
    cand = best_gain > 0
    order = np.argsort(-best_gain[cand], kind="stable")
    cand_v = boundary[cand][order]
    cand_d = best_dest[cand][order]
    edge_scans += int((graph.adjp[boundary + 1] - graph.adjp[boundary]).sum())

    adjp, adjncy, adjwgt, vwgt = graph.adjp, graph.adjncy, graph.adjwgt, graph.vwgt
    committed = 0
    realised = 0
    for v, d in zip(cand_v, cand_d):
        s = int(part[v])
        if s == d:
            continue
        w = int(vwgt[v])
        if pweights[d] + w > max_pweight or pweights[s] - w < min_pweight:
            continue
        # Re-validate gain against current labels (vectorised per vertex).
        a, b = adjp[v], adjp[v + 1]
        nbr_parts = part[adjncy[a:b]]
        ws = adjwgt[a:b]
        gain = int(ws[nbr_parts == d].sum()) - int(ws[nbr_parts == s].sum())
        edge_scans += int(b - a)
        if gain <= 0:
            continue
        part[v] = d
        pweights[s] -= w
        pweights[d] += w
        committed += 1
        realised += gain
    return KwayPassResult(int(cand_v.shape[0]), committed, realised, edge_scans)


def rebalance_pass(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    k: int,
    max_pweight: float,
) -> int:
    """Evacuate overweight partitions by cheapest boundary moves.

    Moves vertices out of partitions above ``max_pweight`` into their
    best-connected underweight neighbor partition, preferring moves that
    damage the cut least.  Returns the number of moves committed.
    """
    moves = 0
    adjp, adjncy, adjwgt, vwgt = graph.adjp, graph.adjncy, graph.adjwgt, graph.vwgt
    for _ in range(k):  # at most k evacuation rounds
        heavy = np.where(pweights > max_pweight)[0]
        if heavy.size == 0:
            break
        heavy_set = set(heavy.tolist())
        candidates = np.where(np.isin(part, heavy))[0]
        if candidates.size == 0:
            break
        conn = kway_connectivity(graph, part, candidates, k)
        own = part[candidates]
        own_conn = conn[np.arange(candidates.shape[0]), own]
        masked = conn.copy()
        masked[np.arange(candidates.shape[0]), own] = -1
        best_dest = np.argmax(masked, axis=1)
        loss = own_conn - masked[np.arange(candidates.shape[0]), best_dest]
        order = np.argsort(loss, kind="stable")
        progressed = False
        for i in order:
            v = int(candidates[i])
            s = int(part[v])
            if s not in heavy_set or pweights[s] <= max_pweight:
                continue
            w = int(vwgt[v])
            # Destination: best-connected partition with headroom; fall
            # back to the globally lightest partition.
            a, b = adjp[v], adjp[v + 1]
            nbr_parts = part[adjncy[a:b]]
            ws = adjwgt[a:b]
            d = -1
            best_c = -1
            for p in np.unique(nbr_parts):
                if p == s:
                    continue
                if pweights[p] + w <= max_pweight:
                    c = int(ws[nbr_parts == p].sum())
                    if c > best_c:
                        best_c = c
                        d = int(p)
            if d < 0:
                d = int(np.argmin(pweights))
                if d == s or pweights[d] + w > max_pweight:
                    continue
            part[v] = d
            pweights[s] -= w
            pweights[d] += w
            moves += 1
            progressed = True
        if not progressed:
            break
    return moves


def enforce_balance(
    graph: CSRGraph, part: np.ndarray, k: int, ubfactor: float
) -> int | None:
    """The final balance guarantee: rebalance ``part`` in place when it is
    over the ``ubfactor`` tolerance.

    Returns the number of moves, or ``None`` when ``part`` was already
    balanced (callers charge their own clock only when it ran).
    """
    if not (k > 1 and imbalance(graph, part, k) > ubfactor):
        return None
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    ideal = graph.total_vertex_weight / k
    return rebalance_pass(graph, part, pweights, k, ubfactor * ideal)


def kway_refine(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float = 1.03,
    max_passes: int = 4,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, list[KwayPassResult]]:
    """Run refinement passes until no move commits or the pass budget ends."""
    rng = rng or np.random.default_rng(0)
    part = np.asarray(part, dtype=np.int64).copy()
    total = graph.total_vertex_weight
    ideal = total / k if k else 0.0
    max_pw = ubfactor * ideal
    # Metis floors partitions at (2 - ubfactor) x ideal so none empties out.
    min_pw = max(0.0, (2.0 - ubfactor) * ideal)
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    results: list[KwayPassResult] = []
    if k > 1 and pweights.max(initial=0.0) > max_pw:
        rebalance_pass(graph, part, pweights, k, max_pw)
    for _ in range(max_passes):
        res = kway_refine_pass(graph, part, pweights, k, max_pw, min_pw, rng)
        results.append(res)
        if res.moves_committed == 0:
            break
    return part, results
