"""CONS-COST — information construction cost.

Section 5: "Note that the construction cost of safety information has
been proved to be the minimum in [7]."  The paper does not plot it;
this bench regenerates the comparison the claim rests on, for a
representative 400-node IA network:

* hello beacons (both schemes need them): n transmissions;
* safety + shape construction (distributed Algorithm 2): transmissions
  == nodes that changed status/shape, counted by the protocol engine;
* BOUNDHOLE: one walk per hole, total boundary hops as the message
  cost (each boundary edge carries the walk token once).

It also times the centralized constructions, which is the cost a
simulation user actually pays per generated network — and pins the
vectorized construction backend's speedup over the scalar reference
(``test_vectorized_construction_speedup``): the numpy kernels of
:mod:`repro.network.construct` must keep delivering at least
``PINNED_VECTOR_SPEEDUP * _TOLERANCE`` on the full columnar pipeline
(unit-disk build, lengths, both planarizations, safety labels) at
n=2000, with bit-identity asserted before any timing counts.

``test_boundhole_rotation_speedup`` pins the BOUNDHOLE construction the
same way: the rotation-column walk against the per-step sweep walk it
replaced (``tests/protocols/_legacy_boundhole.py``), on the IA n=800
network of the quick figure sweep, identity asserted first.
"""

from __future__ import annotations

import importlib.util
import os
import random
import time
from pathlib import Path

import pytest

from repro._optional import load_numpy
from repro.api import Scenario, Session
from repro.core import InformationModel, compute_safety, compute_shapes
from repro.experiments import QUICK_CONFIG
from repro.geometry import Rect
from repro.network import (
    EdgeDetector,
    TopologyCore,
    UniformDeployment,
    WasnGraph,
    build_unit_disk_graph,
)
from repro.protocols import (
    build_hole_boundaries,
    run_hello,
    run_safety_protocol,
)

_AREA = Rect(0, 0, 200, 200)

# Pinned when the vectorized construction backend landed (measured
# ~4.4x at n=2000); a run below threshold * _TOLERANCE is a
# regression.  The ISSUE acceptance floor (>= 3x) sits just below the
# tolerance band: tripping the band trips the floor.
PINNED_VECTOR_SPEEDUP = 3.4
_TOLERANCE = 0.9
assert PINNED_VECTOR_SPEEDUP * _TOLERANCE >= 3.0

# Pinned when the rotation-column walk landed (measured 31-34x on the
# quick sweep's IA n=800 network, Python 3.11 on a shared 2-vCPU x86
# host); the acceptance floor is 5x.
PINNED_BOUNDHOLE_SPEEDUP = 20.0
assert PINNED_BOUNDHOLE_SPEEDUP * _TOLERANCE >= 5.0


def _network(n=400, seed=11, radius=20.0):
    rng = random.Random(seed)
    positions = UniformDeployment(_AREA).sample(n, rng)
    g = build_unit_disk_graph(positions, radius)
    return EdgeDetector(strategy="convex").apply(g)


def test_centralized_safety_construction(benchmark):
    g = _network()
    safety = benchmark(compute_safety, g)
    assert len(safety.statuses) == 400


def test_centralized_shape_construction(benchmark):
    g = _network()
    safety = compute_safety(g)
    shapes = benchmark(compute_shapes, safety)
    assert shapes.graph is g


def test_full_information_model(benchmark):
    g = _network()
    model = benchmark(InformationModel.build, g)
    assert model.graph is g


def test_distributed_safety_protocol(benchmark):
    g = _network()
    engine, stats = benchmark(run_safety_protocol, g)
    assert stats.quiesced


def test_async_safety_protocol(benchmark):
    """The asynchronous variant (random link delays, same fixed point)."""
    from repro.protocols import AsyncEngine
    from repro.protocols.safety_protocol import SafetyProtocolNode

    g = _network()

    def run_async():
        engine = AsyncEngine(
            g,
            lambda u: SafetyProtocolNode(
                u, g.position(u), g.is_edge_node(u)
            ),
            seed=5,
        )
        return engine.run()

    stats = benchmark(run_async)
    assert stats.quiesced


def _legacy_boundhole():
    """The per-step sweep walk, loaded from the test suite's copy."""
    path = (
        Path(__file__).resolve().parents[1]
        / "tests"
        / "protocols"
        / "_legacy_boundhole.py"
    )
    spec = importlib.util.spec_from_file_location("_legacy_boundhole", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_boundhole_rotation_speedup(results_dir):
    """Rotation-column BOUNDHOLE vs the per-step sweep walk.

    Each timed rotation run starts from a fresh core, so it pays for
    the CSR and the rotation column as a cold Session does.
    """
    legacy = _legacy_boundhole()
    graph = Session(
        Scenario.from_config(QUICK_CONFIG, "IA", 800).with_(networks=1)
    ).graph
    core = graph.core

    def fresh_graph():
        return WasnGraph.from_core(
            TopologyCore(
                core.ids,
                core.xs,
                core.ys,
                core.radius,
                core.edge_flags,
                core.rows(),
            )
        )

    new = build_hole_boundaries(fresh_graph())
    old = legacy.build_hole_boundaries(graph)
    assert new.boundaries == old.boundaries
    assert new._by_node == old._by_node

    repeats = 5 if os.environ.get("REPRO_FULL", "") == "1" else 3
    sweep_s = _best_of(lambda: legacy.build_hole_boundaries(graph), repeats)
    rotation_s = float("inf")
    for _ in range(repeats):
        fresh = fresh_graph()
        start = time.perf_counter()
        build_hole_boundaries(fresh)
        rotation_s = min(rotation_s, time.perf_counter() - start)
    speedup = sweep_s / rotation_s

    floor = PINNED_BOUNDHOLE_SPEEDUP * _TOLERANCE
    report = "\n".join(
        [
            "BOUNDHOLE on the quick sweep's IA n=800 network "
            f"({len(new)} boundaries, {new.walks_degenerate} degenerate "
            f"walks, {new.walk_steps} walk steps)",
            f"per-step sweep walk: {1e3 * sweep_s:8.2f} ms",
            f"rotation column:     {1e3 * rotation_s:8.2f} ms",
            f"speedup:             {speedup:8.2f}x "
            f"(pinned {PINNED_BOUNDHOLE_SPEEDUP}x, floor {floor:.2f}x)",
        ]
    )
    (results_dir / "boundhole_rotation.txt").write_text(report + "\n")
    print()
    print(report)
    assert speedup >= floor, report


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorized_construction_speedup(results_dir):
    """numpy vs scalar over the full columnar construction pipeline.

    The workload materialises everything a Session's prepared network
    eventually touches: the unit-disk build, the lengths column, both
    planarization masks with their adjacency dicts, and the safety
    labeling.  Identity is asserted column for column before the
    timing loop — the speedup is only worth pinning because the
    results are bit-equal.
    """
    if load_numpy() is None:
        pytest.skip("numpy not installed; scalar backend is the only one")

    n, area, radius = 2000, 450.0, 30.0
    rng = random.Random(7)
    positions = UniformDeployment(Rect(0, 0, area, area)).sample(n, rng)

    def pipeline(backend):
        graph = build_unit_disk_graph(positions, radius, backend=backend)
        core = graph.core
        core.lengths
        for kind in ("gabriel", "rng"):
            core.planar_mask(kind)
            core.planar_adjacency(kind)
        return core, compute_safety(graph, backend=backend)

    core_s, safety_s = pipeline("scalar")
    core_n, safety_n = pipeline("numpy")
    assert core_s.xs.tobytes() == core_n.xs.tobytes()
    assert core_s.indptr.tobytes() == core_n.indptr.tobytes()
    assert core_s.indices.tobytes() == core_n.indices.tobytes()
    assert core_s.lengths.tobytes() == core_n.lengths.tobytes()
    for kind in ("gabriel", "rng"):
        assert bytes(core_s.planar_mask(kind)) == bytes(
            core_n.planar_mask(kind)
        )
        assert core_s.planar_adjacency(kind) == core_n.planar_adjacency(kind)
    assert safety_s.statuses == safety_n.statuses
    assert safety_s.rounds == safety_n.rounds

    repeats = 10 if os.environ.get("REPRO_FULL", "") == "1" else 5
    scalar_s = _best_of(lambda: pipeline("scalar"), repeats)
    numpy_s = _best_of(lambda: pipeline("numpy"), repeats)
    speedup = scalar_s / numpy_s if numpy_s else float("inf")

    floor = PINNED_VECTOR_SPEEDUP * _TOLERANCE
    report = "\n".join(
        [
            f"vectorized construction at n={n}, r={radius} "
            "(build + lengths + planarizations + safety)",
            f"scalar reference: {1e3 * scalar_s:8.2f} ms",
            f"numpy backend:    {1e3 * numpy_s:8.2f} ms",
            f"speedup:          {speedup:8.2f}x "
            f"(pinned {PINNED_VECTOR_SPEEDUP}x, floor {floor:.2f}x)",
        ]
    )
    (results_dir / "construction_backend.txt").write_text(report + "\n")
    print()
    print(report)
    assert speedup >= floor, report


def test_construction_cost_report(benchmark, results_dir):
    """Persist the message-cost comparison table."""
    g = _network()
    _, hello_stats = benchmark(run_hello, g)
    _, safety_stats = run_safety_protocol(g)
    boundaries = build_hole_boundaries(g)
    lines = [
        "CONS-COST: information construction message cost (IA, n=400)",
        f"hello beacons:            {hello_stats.transmissions} transmissions",
        (
            "safety+shape (Algo 2):    "
            f"{safety_stats.transmissions} transmissions over "
            f"{safety_stats.rounds} rounds"
        ),
        (
            "BOUNDHOLE walks:          "
            f"{boundaries.total_boundary_hops()} boundary hops over "
            f"{len(boundaries)} boundaries"
        ),
    ]
    (results_dir / "construction_cost.txt").write_text("\n".join(lines) + "\n")
    # The safety construction must quiesce and stay linear-ish in n:
    # every transmission corresponds to a (node, change) event.
    assert safety_stats.quiesced
    assert safety_stats.transmissions <= 6 * len(g)
