"""The rotation-column BOUNDHOLE walk against the sweep walk it replaced.

The reference is the per-step ``first_hit_cw`` sweep walk, kept
verbatim in ``_legacy_boundhole.py``.  The rotation walk must return
the same boundaries, the same first-boundary assignment and the same
stuck nodes on every graph — random fields, snapped lattices full of
exact angle ties, stacked (duplicate) positions and hand-built graphs
whose rows are out of id order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_boundhole as legacy
import repro.protocols.boundhole as boundhole
from repro.geometry import Point
from repro.network import WasnGraph, build_unit_disk_graph
from repro.network.node import Node
from repro.protocols import HoleBoundarySet, build_hole_boundaries
from repro.protocols.boundhole import tent_stuck_nodes


def assert_same_boundaries(graph):
    new = build_hole_boundaries(graph)
    old = legacy.build_hole_boundaries(graph)
    assert new.boundaries == old.boundaries
    assert new._by_node == old._by_node
    assert tent_stuck_nodes(graph) == legacy.tent_stuck_nodes(graph)
    return new


def shuffled_rows(graph, seed):
    """The same graph, hand-built with every row in a random order."""
    rng = random.Random(seed)
    nodes = [Node(u, graph.position(u)) for u in graph.node_ids]
    adjacency = {}
    for u in graph.node_ids:
        row = list(graph.neighbors(u))
        rng.shuffle(row)
        adjacency[u] = tuple(row)
    return WasnGraph(nodes, adjacency, graph.radius)


# Coordinates snapped to a coarse lattice collide and line up often:
# exact angle ties, collinear neighbours and stacked nodes.
snapped = st.builds(
    Point,
    st.integers(0, 8).map(lambda k: 5.0 * k),
    st.integers(0, 8).map(lambda k: 5.0 * k),
)
free = st.builds(
    Point,
    st.floats(0, 60, allow_nan=False, width=64),
    st.floats(0, 60, allow_nan=False, width=64),
)


@settings(max_examples=150, deadline=None)
@given(
    positions=st.lists(st.one_of(snapped, free), min_size=1, max_size=40),
    radius=st.sampled_from([6.0, 8.0, 11.0, 15.0]),
    seed=st.integers(0, 3),
)
def test_rotation_walk_matches_sweep_walk(positions, radius, seed):
    graph = build_unit_disk_graph(positions, radius)
    assert_same_boundaries(graph)
    assert_same_boundaries(shuffled_rows(graph, seed))


@settings(max_examples=60, deadline=None)
@given(
    positions=st.lists(free, min_size=2, max_size=60),
    radius=st.floats(4.0, 20.0),
    removed=st.sets(st.integers(0, 59), max_size=15),
)
def test_sparse_ids_match_sweep_walk(positions, radius, removed):
    graph = build_unit_disk_graph(positions, radius).without_nodes(removed)
    assert_same_boundaries(graph)


def test_random_fields_match_sweep_walk():
    for seed in range(6):
        rng = random.Random(seed)
        positions = [
            Point(rng.uniform(0, 120), rng.uniform(0, 120)) for _ in range(250)
        ]
        assert_same_boundaries(build_unit_disk_graph(positions, 12.0))


def test_duplicate_positions_take_the_slow_path(monkeypatch):
    # A ring with two nodes stacked on ring nodes.  At a stacked node
    # the clockwise-next slot can sit on the current position (the
    # sweep skips such candidates); at its ring neighbours the stacked
    # pair is an exact angle tie (the sweep breaks it by distance).
    # Only the sweep decides those steps.
    ring = [Point(10.0 * i, 0.0) for i in range(5)]
    ring += [Point(40.0, 10.0 * j) for j in range(1, 5)]
    ring += [Point(10.0 * i, 40.0) for i in range(3, -1, -1)]
    ring += [Point(0.0, 10.0 * j) for j in range(3, 0, -1)]
    positions = ring + [Point(20.0, 0.0), Point(40.0, 20.0)]
    graph = build_unit_disk_graph(positions, radius=11.0)
    calls = []
    sweep = boundhole.first_hit_cw

    def counting_sweep(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(boundhole, "first_hit_cw", counting_sweep)
    result = assert_same_boundaries(graph)
    assert result.walks_ok >= 1
    stacked = {Point(20.0, 0.0), Point(40.0, 20.0)}
    assert stacked & set(calls)


def test_clean_field_never_redecides(monkeypatch):
    rng = random.Random(3)
    positions = [
        Point(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(400)
    ]
    graph = build_unit_disk_graph(positions, 20.0)
    monkeypatch.setattr(boundhole, "first_hit_cw", None)  # would raise
    build_hole_boundaries(graph)


class TestWalkAccounting:
    def test_counts_cover_every_walk(self):
        rng = random.Random(0)
        positions = [
            Point(rng.uniform(0, 200), rng.uniform(0, 200)) for _ in range(600)
        ]
        graph = build_unit_disk_graph(positions, 20.0)
        result = build_hole_boundaries(graph)
        assert result.walks_ok == len(result)
        stuck = tent_stuck_nodes(graph)
        assert result.walks_ok + result.walks_degenerate <= len(stuck)
        assert result.walk_steps >= result.total_boundary_hops() - len(
            result
        )

    def test_counts_never_enter_equality(self):
        boundaries = ((0, 1, 2),)
        by_node = {0: 0, 1: 0, 2: 0}
        a = HoleBoundarySet(boundaries, by_node, 1, 0, 3)
        b = HoleBoundarySet(boundaries, dict(by_node), 5, 7, 9000)
        assert a == b
        assert HoleBoundarySet(boundaries, by_node) == a
