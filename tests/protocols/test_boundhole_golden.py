"""Golden BOUNDHOLE digests, recorded before the rotation-column walk.

Each case hashes everything :func:`build_hole_boundaries` decides —
the traced cycles in order and the first-boundary assignment of every
node — so any change to the stuck-node set, the widest-gap choice, a
single walk step or the walk budget shows up as a digest mismatch.
The digests were recorded with the per-step ``first_hit_cw`` sweep
walk (kept verbatim in ``_legacy_boundhole.py``); the rotation walk
must reproduce them bit for bit.

The cases cover the paper's IA/FA fields at three densities (including
the quick-sweep networks of config seed 2009), a rectangular obstacle
field, lattices with exact angle ties, duplicate and collinear
positions, degree-1 and isolated nodes, sparse node ids (failures),
and a hand-built graph whose unsorted rows have no columnar core.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.api import Scenario, Session
from repro.experiments import QUICK_CONFIG
from repro.geometry import Point, Rect
from repro.network import (
    RectObstacle,
    UniformDeployment,
    WasnGraph,
    build_unit_disk_graph,
)
from repro.network.node import Node
from repro.protocols import build_hole_boundaries


def boundary_digest(boundaries) -> str:
    payload = json.dumps(
        [
            [list(cycle) for cycle in boundaries.boundaries],
            sorted(boundaries._by_node.items()),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _field(model: str, n: int, seed: int) -> WasnGraph:
    scenario = Scenario.from_config(QUICK_CONFIG, model, n).with_(
        seed=seed, networks=1
    )
    return Session(scenario).graph


def _lattice(n=10, spacing=10.0, radius=15.0, hole=range(3, 7)):
    positions = [
        Point(i * spacing, j * spacing)
        for j in range(n)
        for i in range(n)
        if not (i in hole and j in hole)
    ]
    return build_unit_disk_graph(positions, radius)


def _obstacle_field():
    obstacle = RectObstacle(Rect(70, 70, 130, 130))
    positions = UniformDeployment(Rect(0, 0, 200, 200), (obstacle,)).sample(
        400, random.Random(0)
    )
    return build_unit_disk_graph(positions, radius=20.0)


def _degenerate_positions():
    # Duplicates (two stacked pairs), a collinear spoke, a degree-1
    # tail and an isolated node, around a small hole.
    positions = [
        Point(0.0, 0.0),
        Point(10.0, 0.0),
        Point(20.0, 0.0),
        Point(20.0, 10.0),
        Point(20.0, 20.0),
        Point(10.0, 20.0),
        Point(0.0, 20.0),
        Point(0.0, 10.0),
        Point(10.0, 0.0),  # duplicate of node 1
        Point(20.0, 20.0),  # duplicate of node 4
        Point(30.0, 0.0),  # collinear with 0-1-2
        Point(40.0, 0.0),  # degree-1 tail
        Point(90.0, 90.0),  # isolated
        Point(5.0, 5.0),
    ]
    return build_unit_disk_graph(positions, radius=11.0)


def _sparse_ids():
    graph = _field("IA", 400, 7)
    return graph.without_nodes(range(0, 400, 9))


def _coreless_lattice():
    # Reversed adjacency rows: no columnar core, and every angle tie
    # on the lattice breaks by the reversed row order.
    graph = _lattice(radius=25.0)
    nodes = [Node(u, graph.position(u)) for u in graph.node_ids]
    adjacency = {
        u: tuple(reversed(graph.neighbors(u))) for u in graph.node_ids
    }
    hand_built = WasnGraph(nodes, adjacency, graph.radius)
    with pytest.raises(ValueError):
        hand_built.core
    return hand_built


FIELD_SEEDS = (2009, 1, 2)

CASES = {
    **{
        f"{model}-{n}-{seed}": (lambda m=model, k=n, s=seed: _field(m, k, s))
        for model in ("IA", "FA")
        for n in (400, 600, 800)
        for seed in FIELD_SEEDS
    },
    "obstacle-400": _obstacle_field,
    "lattice-hole": _lattice,
    "lattice-hole-r25": lambda: _lattice(radius=25.0),
    "lattice-plain-r21": lambda: _lattice(n=6, radius=21.0, hole=()),
    "degenerate": _degenerate_positions,
    "sparse-ids": _sparse_ids,
    "coreless-lattice": _coreless_lattice,
}

GOLDEN = {
    "FA-400-1": "7ae81a16e56ef87f",
    "FA-400-2": "e336d31bb9c7f991",
    "FA-400-2009": "183e0b2eb89b0dc4",
    "FA-600-1": "315763517c231866",
    "FA-600-2": "f7652fa7692c7eb1",
    "FA-600-2009": "f3e781055cc68678",
    "FA-800-1": "9c1906efd456d40e",
    "FA-800-2": "2e44e006274fe441",
    "FA-800-2009": "43399f544ae034a8",
    "IA-400-1": "29b0abe711a710b1",
    "IA-400-2": "1befa7baec56351b",
    "IA-400-2009": "0729f992958fee6b",
    "IA-600-1": "457bf32f3f67cb13",
    "IA-600-2": "894f664464d5d91e",
    "IA-600-2009": "1b66fe912e70da19",
    "IA-800-1": "c05955953637e1f3",
    "IA-800-2": "afbb7cfefd8b4de5",
    "IA-800-2009": "848a0e158b0d931a",
    "coreless-lattice": "659388448340025a",
    "degenerate": "d8689c68917a1308",
    "lattice-hole": "8e1c56d853c6da8d",
    "lattice-hole-r25": "4cc4c651ae49d2f6",
    "lattice-plain-r21": "a809b08556a3f89e",
    "obstacle-400": "17fabb8581df843c",
    "sparse-ids": "2a5974f7f33c5d92",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_boundary_digest_matches_recording(case):
    graph = CASES[case]()
    assert boundary_digest(build_hole_boundaries(graph)) == GOLDEN[case]
