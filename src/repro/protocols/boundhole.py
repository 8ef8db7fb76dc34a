"""BOUNDHOLE: hole boundary detection (Fang, Gao, Guibas — ref [5]).

Section 5: "within the interest area, boundary information [5] is
constructed for GF routings" — the GF baseline recovers from local
minima by walking precomputed hole boundaries instead of discovering
detours on the fly.  This module builds that information:

1. **TENT rule** — a node is a *potential stuck node* when the angular
   gap between two consecutive neighbours (sorted by angle) exceeds
   120°: packets for destinations inside such a gap cannot advance
   greedily.  (This is the standard local simplification of the exact
   TENT construction, which intersects perpendicular bisectors; the
   gap form is what BOUNDHOLE deployments actually compute.)
2. **Boundary walk** — from each stuck node, the hole boundary is
   traced with the right-hand rule: enter the gap along its clockwise
   edge and keep taking the first neighbour counter-clockwise from the
   incoming edge until the walk returns to the start.  Connected stuck
   nodes end up on the same cycle; each node is assigned the first
   boundary that contains it.

Both run on the topology core's rotation system
(:meth:`~repro.network.core.TopologyCore.rotation`): each node's
neighbours pre-sorted by angle, with every directed edge paired to its
reverse.  A walk step is then one lookup — the neighbour just clockwise
of the incoming edge — instead of an angular sweep over all
neighbours; the few steps the lookup cannot decide exactly (angle
ties, duplicate positions) are re-decided by the ``first_hit_cw``
sweep itself, so the boundaries are those of the sweep walk, bit for
bit.

The result is deliberately exposed through the tiny
:class:`~repro.routing.greedy.HoleBoundaries` protocol so the router
layer stays decoupled from the construction.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

from repro.geometry.angles import _EPS, angle_of, first_hit_cw
from repro.network.core import Rotation, build_rotation
from repro.network.graph import WasnGraph
from repro.network.node import NodeId

__all__ = ["HoleBoundarySet", "build_hole_boundaries", "tent_stuck_nodes"]

# TENT threshold: 120 degrees.
_TENT_GAP = 2.0 * math.pi / 3.0


class _Rotated:
    """A graph's rotation system plus the id <-> index mapping."""

    __slots__ = ("graph", "rotation", "ids", "index_of", "xs", "ys")

    def __init__(self, graph: WasnGraph) -> None:
        self.graph = graph
        try:
            core = graph.core
        except ValueError:
            # Hand-built rows out of id order have no columnar core; the
            # same builder runs over the graph's own rows (in row order,
            # which is the order angle ties keep).
            self.ids = tuple(graph.node_ids)
            index = {u: i for i, u in enumerate(self.ids)}
            points = [graph.position(u) for u in self.ids]
            indptr = [0]
            indices = []
            for u in self.ids:
                indices.extend(index[v] for v in graph.neighbors(u))
                indptr.append(len(indices))
            self.rotation = build_rotation(points, indptr, indices)
            self.index_of = index.__getitem__
            self.xs = [p.x for p in points]
            self.ys = [p.y for p in points]
        else:
            self.rotation = core.rotation()
            self.ids = core.ids
            self.index_of = core.index_of
            self.xs = core.xs
            self.ys = core.ys


def _widest_gap(rotation: Rotation, i: int) -> tuple[int, float]:
    """Node ``i``'s widest angular gap: (slot of its cw edge, width).

    The first widest gap in rotation order wins; a single neighbour
    leaves a full turn.  Only called on nodes with neighbours.  Gaps
    are ``ccw_angle_distance`` values, with ``normalize_angle`` inlined
    (see :func:`_trace_boundary`).
    """
    lo = rotation.indptr[i]
    hi = rotation.indptr[i + 1]
    if hi - lo == 1:
        return lo, math.tau
    angles = rotation.angles
    tau = math.tau
    best = lo
    best_gap = -1.0
    for s in range(lo, hi):
        gap = angles[s + 1 if s + 1 < hi else lo] - angles[s]
        if gap < 0.0:
            gap += tau
            if gap >= tau:
                gap -= tau
        if gap > best_gap:
            best_gap = gap
            best = s
    return best, best_gap


def tent_stuck_nodes(graph: WasnGraph) -> set[NodeId]:
    """Nodes with an angular neighbour gap exceeding 120° (TENT rule).

    Nodes with no neighbours are skipped (they are unreachable, not
    stuck); a single-neighbour node has a full 360° gap and qualifies.
    """
    rotated = _Rotated(graph)
    indptr = rotated.rotation.indptr
    return {
        u
        for i, u in enumerate(rotated.ids)
        if indptr[i + 1] > indptr[i]
        and _widest_gap(rotated.rotation, i)[1] > _TENT_GAP
    }


@dataclass(frozen=True)
class HoleBoundarySet:
    """All detected hole boundaries, with per-node lookup.

    ``walks_ok``/``walks_degenerate`` count the boundary walks that
    closed and that did not (a repeated directed edge, or the step
    budget spent); ``walk_steps`` counts their steps (next-hop
    decisions, each an O(1) rotation lookup).  The counts are
    bookkeeping about the construction, not part of its value: they
    never enter equality.
    """

    boundaries: tuple[tuple[NodeId, ...], ...]
    _by_node: dict[NodeId, int] = field(repr=False)
    walks_ok: int = field(default=0, compare=False)
    walks_degenerate: int = field(default=0, compare=False)
    walk_steps: int = field(default=0, compare=False)

    def boundary_of(self, node: NodeId) -> tuple[NodeId, ...] | None:
        """The boundary cycle through ``node`` (or None)."""
        index = self._by_node.get(node)
        return self.boundaries[index] if index is not None else None

    def __len__(self) -> int:
        return len(self.boundaries)

    def nodes_on_boundaries(self) -> set[NodeId]:
        """Every node that lies on some traced boundary."""
        return set(self._by_node)

    def total_boundary_hops(self) -> int:
        """Total boundary edges — the message cost of the walks."""
        return sum(len(b) for b in self.boundaries)


def _trace_boundary(
    rotated: _Rotated, succ: array, start: int, max_steps: int
) -> tuple[list[int] | None, int]:
    """Rim walk of the hole starting at index ``start``; (cycle, steps).

    The first hop leaves along the *clockwise* edge of the widest gap
    (the hole lies inside the gap); each subsequent hop takes the
    first neighbour **clockwise** from the edge back to the previous
    node — the pairing that keeps the hole on a consistent side of the
    walk (a counter-clockwise sweep would immediately fold the walk
    back away from the hole into a degenerate triangle).  The cycle is
    ``None`` when the walk degenerates (repeated directed edge
    elsewhere, or step budget exhausted).

    Directed edges are rotation slots, so the seen-edge rule is a set
    of ints.  A step's next slot depends only on the slot it arrived
    by; ``succ`` memoises it (-1 = not yet decided) across the walks of
    one construction, whose degenerate walks retrace long stretches.
    """
    rotation = rotated.rotation
    order = rotation.order
    twin = rotation.twin
    first, _ = _widest_gap(rotation, start)
    current = order[first]
    walk = [start, current]
    seen_edges = {first}
    back = twin[first]  # the edge current -> prev, as a slot
    for steps in range(max_steps):
        if current == start:
            walk.pop()  # closed: drop the repeated start
            return walk, steps
        slot = succ[back]
        if slot < 0:
            slot = succ[back] = _next_slot(rotated, current, back)
        if slot in seen_edges:
            return None, steps + 1  # trapped in a sub-cycle missing start
        seen_edges.add(slot)
        current = order[slot]
        walk.append(current)
        back = twin[slot]
    return None, max_steps


def _next_slot(rotated: _Rotated, current: int, back: int) -> int:
    """The walk's step from ``current``, entered by the edge ``back``.

    ``back`` is the slot of the edge current -> prev.  The answer is
    ``c1``, the slot just clockwise of it, whenever the lookup is
    provably the ``first_hit_cw`` sweep's own answer.  Clockwise
    offsets ``normalize_angle(ref - a)`` from the incoming ray are
    weakly increasing along clockwise rotation order (offsets below
    ``_EPS``, prev's own among them, count as a full turn, as the sweep
    counts them).  So ``c1`` is the sweep's unique answer when its own
    offset is at least ``_EPS``, its position differs from the current
    node's, and the next slot's offset is strictly larger.  Every other
    step — an angle tie, a duplicate position — is re-decided by the
    sweep.  A degree-1 node bounces back to prev.

    ``normalize_angle`` is inlined: both angles lie in ``[0, tau)``, so
    their difference is strictly inside ``(-tau, tau)``, its ``fmod``
    is the identity, and the two corrections below are all it does.
    """
    rotation = rotated.rotation
    lo = rotation.indptr[current]
    hi = rotation.indptr[current + 1]
    slot = back - 1 if back > lo else hi - 1
    if slot == back:
        return back
    angles = rotation.angles
    tau = math.tau
    ref = angles[back]
    offset = ref - angles[slot]
    if offset < 0.0:
        offset += tau
        if offset >= tau:
            offset -= tau
    after = slot - 1 if slot > lo else hi - 1
    following = ref - angles[after]  # exactly 0 when after is prev
    if following < 0.0:
        following += tau
        if following >= tau:
            following -= tau
    if following < _EPS:
        following = tau
    nxt = rotation.order[slot]
    xs = rotated.xs
    ys = rotated.ys
    if _EPS <= offset < following and (
        xs[nxt] != xs[current] or ys[nxt] != ys[current]
    ):
        return slot
    return _redecide(rotated, current, back)


def _redecide(rotated: _Rotated, current: int, back: int) -> int:
    """The sweep walk's own step from ``current``, as a rotation slot.

    ``back`` is the slot of the edge back to the previous node.
    """
    graph = rotated.graph
    rotation = rotated.rotation
    ids = rotated.ids
    prev = ids[rotation.order[back]]
    pc = graph.position(ids[current])
    nxt = first_hit_cw(
        pc,
        angle_of(pc, graph.position(prev)),
        graph.neighbors(ids[current]),
        graph.position,
        exclusive=True,
    )
    if nxt is None:
        # Degenerate single-neighbour dead end: bounce back.
        return back
    target = rotated.index_of(nxt)
    order = rotation.order
    for slot in range(rotation.indptr[current], rotation.indptr[current + 1]):
        if order[slot] == target:
            return slot
    raise AssertionError("sweep chose a non-neighbour")  # pragma: no cover


def build_hole_boundaries(
    graph: WasnGraph, max_steps_factor: float = 4.0
) -> HoleBoundarySet:
    """Detect stuck nodes (TENT) and trace their hole boundaries.

    ``max_steps_factor`` bounds each walk at ``factor * |V|`` hops.
    Stuck nodes already assigned to a traced boundary are not re-walked
    (connected stuck nodes share their hole's rim).

    Cost: the rotation column, O(E) at bounded degree (see
    :func:`~repro.network.core.build_rotation`; built once per core and
    shared with its flag-variants), then O(1) per walk step.  A closed
    walk takes as many steps as its boundary is long; a degenerate walk
    takes up to ``max_steps``, however short the boundary it was after
    — with ``k`` degenerate walks the walks cost O(k |V|).
    """
    stuck = tent_stuck_nodes(graph)
    max_steps = max(16, int(max_steps_factor * len(graph)))
    rotated = _Rotated(graph)
    ids = rotated.ids
    succ = array("q", [-1]) * len(rotated.rotation.order)
    boundaries: list[tuple[NodeId, ...]] = []
    by_node: dict[NodeId, int] = {}
    walks_ok = walks_degenerate = walk_steps = 0
    for start in sorted(stuck):
        if start in by_node:
            continue
        cycle, steps = _trace_boundary(
            rotated, succ, rotated.index_of(start), max_steps
        )
        walk_steps += steps
        if cycle is None:
            walks_degenerate += 1
            continue
        walks_ok += 1
        index = len(boundaries)
        boundaries.append(tuple([ids[i] for i in cycle]))
        for i in cycle:
            by_node.setdefault(ids[i], index)
    return HoleBoundarySet(
        boundaries=tuple(boundaries),
        _by_node=by_node,
        walks_ok=walks_ok,
        walks_degenerate=walks_degenerate,
        walk_steps=walk_steps,
    )
