"""route_batch ≡ sequential route, bit for bit, for every scheme.

The batched executor (:mod:`repro.routing.batch`) is pure speed: its
results must be *indistinguishable* from per-pair :meth:`Router.route`
calls — same paths, same phase labels, same float lengths, same
counters, same failure reasons.  These tests pin that across both
deployment models, a pocketed grid (perimeter-heavy), every built-in
scheme's option surface, sparse networks (frequent recovery), and the
dynamic rebind lifecycle.  Grid fixtures matter here: their exact
coordinate ties exercise the tie-breaking paths of the angle sweep
and the greedy minimum.
"""

import gc
import random
import weakref

import pytest

from repro.core import InformationModel
from repro.geometry import Point, Rect
from repro.network import (
    DynamicTopology,
    EdgeDetector,
    UniformDeployment,
    build_unit_disk_graph,
)
from repro.protocols import build_hole_boundaries
from repro.routing import (
    GreedyRouter,
    LgfRouter,
    RoutingError,
    SlgfRouter,
    Slgf2Router,
)


def make_grid_graph(n=8, spacing=10.0, radius=15.0):
    """n x n grid (ids row-major) — exact coordinate ties everywhere."""
    positions = [
        Point(i * spacing, j * spacing)
        for j in range(n)
        for i in range(n)
    ]
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g), positions


def make_random_graph(n=400, seed=0, area=200.0, radius=20.0):
    rng = random.Random(seed)
    positions = UniformDeployment(Rect(0, 0, area, area)).sample(n, rng)
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g), positions


def sample_pairs(graph, count, seed):
    pool = sorted(graph.connected_components()[0])
    rng = random.Random(seed)
    return [tuple(rng.sample(pool, 2)) for _ in range(count)]


def all_routers(graph, model):
    """Every scheme across its option surface (one router per config)."""
    return [
        GreedyRouter(graph),
        GreedyRouter(graph, planarization="rng"),
        GreedyRouter(
            graph,
            recovery="boundhole",
            hole_boundaries=build_hole_boundaries(graph),
        ),
        LgfRouter(graph),
        LgfRouter(graph, candidate_scope="quadrant"),
        SlgfRouter(model),
        SlgfRouter(model, candidate_scope="quadrant"),
        Slgf2Router(model),
        Slgf2Router(model, candidate_scope="zone"),
        Slgf2Router(model, perimeter_mode="dfs"),
        Slgf2Router(model, perimeter_mode="dfs-bounded"),
        Slgf2Router(model, use_superseding=False, use_backup=False),
        Slgf2Router(model, perimeter_hand="either", adaptive_greedy=True),
        Slgf2Router(model, ttl=24),  # tight budget: mid-phase cutoffs
    ]


def assert_batch_equivalent(router, pairs):
    sequential = [router.route(s, d) for s, d in pairs]
    batched = router.route_batch(pairs)
    assert batched == sequential  # frozen dataclasses: exact floats


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_network(self, random_net, seed):
        graph, _, model = random_net
        pairs = sample_pairs(graph, 40, seed)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_obstacle_network(self, obstacle_net):
        graph, _, model = obstacle_net
        pairs = sample_pairs(graph, 40, seed=3)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_pocket_grid_exact_ties(self, pocket_grid):
        """Grid coordinates produce exact distance/angle ties — the
        tie-breaking paths of the sweep and the greedy minimum."""
        graph, _, model = pocket_grid
        pairs = sample_pairs(graph, 60, seed=4)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_sparse_network_recovery_heavy(self):
        """Low density: perimeter/backtracking on most routes."""
        graph, _ = make_random_graph(n=70, seed=9)
        model = InformationModel.build(graph)
        pairs = sample_pairs(graph, 50, seed=5)
        for router in all_routers(graph, model):
            assert_batch_equivalent(router, pairs)

    def test_batch_over_failure_restricted_graph(self, random_net):
        """Sparse ids (failures leave holes) take the padded views."""
        graph, _, _ = random_net
        survivor = graph.without_nodes(range(0, 400, 5))
        model = InformationModel.build(survivor)
        pairs = sample_pairs(survivor, 30, seed=6)
        for router in all_routers(survivor, model):
            assert_batch_equivalent(router, pairs)


class TestBatchContract:
    def test_empty_batch(self, random_net):
        graph, _, _ = random_net
        assert GreedyRouter(graph).route_batch([]) == []

    def test_validation_matches_route(self, random_net):
        graph, _, _ = random_net
        router = GreedyRouter(graph)
        u = graph.node_ids[0]
        with pytest.raises(RoutingError):
            router.route_batch([(u, u)])
        with pytest.raises(RoutingError):
            router.route_batch([(u, max(graph.node_ids) + 1)])

    @pytest.mark.parametrize("backend", ["scalar", "auto"])
    def test_routers_are_freed_without_the_cycle_collector(
        self, random_net, backend
    ):
        """A router caches its executor (and numpy kernel); those must
        not hold it back, or every session's routers, graph and model
        wait for a cyclic collection to be freed."""
        graph, _, model = random_net
        pairs = sample_pairs(graph, 5, seed=3)
        routers = all_routers(graph, model)
        gc.disable()
        try:
            while routers:
                router = routers.pop()
                router.route_batch(pairs, backend=backend)
                ref = weakref.ref(router)
                del router
                assert ref() is None
        finally:
            gc.enable()

    def test_subclasses_fall_back_to_sequential(self, random_net):
        """An overridden scheme must not inherit a fast path that no
        longer matches its behaviour."""
        from repro.routing.batch import executor_for

        graph, _, _ = random_net

        class Reversed(GreedyRouter):
            def _greedy_step(self, u, pu, pd):
                return None  # always a local minimum

        router = Reversed(graph)
        assert executor_for(router) is None
        pairs = sample_pairs(graph, 5, seed=7)
        assert router.route_batch(pairs) == [
            router.route(s, d) for s, d in pairs
        ]

    def test_executor_cached_then_invalidated_by_rebind(self):
        """rebind == fresh router holds for batches too: the cached
        executor must not outlive the topology it was built from."""
        graph, positions = make_grid_graph()
        router = Slgf2Router(InformationModel.build(graph))
        pairs = sample_pairs(graph, 10, seed=8)
        router.route_batch(pairs)
        first = router._batch_executor
        assert first is not None
        assert router._batch_executor is first  # reused across batches

        topology = DynamicTopology.from_graph(
            graph, edge_detector=EdgeDetector(strategy="convex")
        )
        topology.fail(27)
        router.rebind(topology.graph)
        assert router._batch_executor is None
        fresh = Slgf2Router(InformationModel.build(topology.graph))
        rebound_pairs = [
            (s, d) for s, d in pairs if s != 27 and d != 27
        ]
        assert router.route_batch(rebound_pairs) == fresh.route_batch(
            rebound_pairs
        )

    def test_unsorted_adjacency_falls_back(self):
        """Hand-built graphs without a columnar core still batch."""
        from repro.geometry import Point
        from repro.network import Node, WasnGraph
        from repro.routing.batch import executor_for

        nodes = [
            Node(0, Point(0, 0)),
            Node(1, Point(5, 0)),
            Node(2, Point(10, 0)),
        ]
        adjacency = {0: (2, 1), 1: (2, 0), 2: (0, 1)}
        graph = WasnGraph(nodes, adjacency, radius=12.0)
        router = GreedyRouter(graph)
        assert executor_for(router) is None
        assert router.route_batch([(0, 2)]) == [router.route(0, 2)]
