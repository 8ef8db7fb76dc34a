"""The per-step sweep BOUNDHOLE walk, kept verbatim as a reference.

This is the construction :mod:`repro.protocols.boundhole` ran before
the rotation-column walk: one ``first_hit_cw`` angular sweep over
``Point`` objects per boundary step.  The golden digests in
``test_boundhole_golden.py`` were recorded with it, the differential
tests compare the rotation walk against it, and
``benchmarks/bench_construction.py`` times it as the baseline of the
BOUNDHOLE speedup pin.
"""

from __future__ import annotations

import math

from repro.geometry.angles import angle_of, ccw_angle_distance, first_hit_cw
from repro.network.graph import WasnGraph
from repro.network.node import NodeId
from repro.protocols.boundhole import HoleBoundarySet

__all__ = ["build_hole_boundaries", "tent_stuck_nodes"]

# TENT threshold: 120 degrees.
_TENT_GAP = 2.0 * math.pi / 3.0


def tent_stuck_nodes(graph: WasnGraph) -> set[NodeId]:
    """Nodes with an angular neighbour gap exceeding 120° (TENT rule).

    Nodes with no neighbours are skipped (they are unreachable, not
    stuck); a single-neighbour node has a full 360° gap and qualifies.
    """
    stuck: set[NodeId] = set()
    for u in graph.node_ids:
        neighbors = graph.neighbors(u)
        if not neighbors:
            continue
        pu = graph.position(u)
        angles = sorted(angle_of(pu, graph.position(v)) for v in neighbors)
        worst = 0.0
        for i, current in enumerate(angles):
            following = angles[(i + 1) % len(angles)]
            gap = ccw_angle_distance(current, following)
            if len(angles) == 1:
                gap = math.tau
            worst = max(worst, gap)
        if worst > _TENT_GAP:
            stuck.add(u)
    return stuck


def _widest_gap_edges(
    graph: WasnGraph, u: NodeId
) -> tuple[NodeId, NodeId] | None:
    """The neighbours bounding u's widest angular gap (cw edge, ccw edge)."""
    neighbors = graph.neighbors(u)
    if not neighbors:
        return None
    pu = graph.position(u)
    ordered = sorted(
        neighbors, key=lambda v: angle_of(pu, graph.position(v))
    )
    if len(ordered) == 1:
        return (ordered[0], ordered[0])
    best: tuple[NodeId, NodeId] | None = None
    best_gap = -1.0
    for i, v in enumerate(ordered):
        w = ordered[(i + 1) % len(ordered)]
        gap = ccw_angle_distance(
            angle_of(pu, graph.position(v)), angle_of(pu, graph.position(w))
        )
        if gap > best_gap:
            best_gap = gap
            best = (v, w)
    return best


def _trace_boundary(
    graph: WasnGraph, start: NodeId, max_steps: int
) -> tuple[NodeId, ...] | None:
    """Rim walk of the hole starting at ``start``.

    The first hop leaves along the *clockwise* edge of the widest gap
    (the hole lies inside the gap); each subsequent hop takes the
    first neighbour **clockwise** from the edge back to the previous
    node — the pairing that keeps the hole on a consistent side of the
    walk (a counter-clockwise sweep would immediately fold the walk
    back away from the hole into a degenerate triangle).  Returns the
    cycle when the walk comes back to ``start``; ``None`` when it
    degenerates (repeated directed edge elsewhere, or step budget
    exhausted).
    """
    gap = _widest_gap_edges(graph, start)
    if gap is None:
        return None
    prev, current = start, gap[0]
    walk = [start, current]
    seen_edges = {(start, current)}
    for _ in range(max_steps):
        if current == start:
            return tuple(walk[:-1])  # closed: drop the repeated start
        pc = graph.position(current)
        neighbors = graph.neighbors(current)
        nxt = first_hit_cw(
            pc,
            angle_of(pc, graph.position(prev)),
            neighbors,
            graph.position,
            exclusive=True,
        )
        if nxt is None:
            # Degenerate single-neighbour dead end: bounce back.
            nxt = prev
        edge = (current, nxt)
        if edge in seen_edges:
            return None  # walk trapped in a sub-cycle missing start
        seen_edges.add(edge)
        walk.append(nxt)
        prev, current = current, nxt
    return None


def build_hole_boundaries(
    graph: WasnGraph, max_steps_factor: float = 4.0
) -> HoleBoundarySet:
    """Detect stuck nodes (TENT) and trace their hole boundaries.

    ``max_steps_factor`` bounds each walk at ``factor * |V|`` hops.
    Stuck nodes already assigned to a traced boundary are not re-walked
    (connected stuck nodes share their hole's rim), which keeps
    construction cost proportional to total boundary length — the
    quantity the construction-cost benchmark reports.
    """
    stuck = tent_stuck_nodes(graph)
    max_steps = max(16, int(max_steps_factor * len(graph)))
    boundaries: list[tuple[NodeId, ...]] = []
    by_node: dict[NodeId, int] = {}
    for start in sorted(stuck):
        if start in by_node:
            continue
        cycle = _trace_boundary(graph, start, max_steps)
        if cycle is None:
            continue
        index = len(boundaries)
        boundaries.append(cycle)
        for node in cycle:
            by_node.setdefault(node, index)
    return HoleBoundarySet(boundaries=tuple(boundaries), _by_node=by_node)
