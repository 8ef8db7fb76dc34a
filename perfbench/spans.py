"""In-memory spans for the traced run, and the layer wrappers that record them.

A span is one call into a layer's public function: its name, start and
end (``time.monotonic``, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the benchmark and the server process) and the span
that was open on the same thread when it began.  Spans are kept in a
list and written out once, when the run ends.

:func:`install` wraps the public functions at the names their callers
look up (module globals such as ``repro.api.session.build_hole_boundaries``
and class attributes such as ``Router.route_batch``), so nothing under
``src/`` changes and an untraced run executes the library untouched.
It returns a function that puts every original back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

#: Router class -> the scheme name the paper (and the registry) uses.
SCHEMES = {
    "GreedyRouter": "GF",
    "LgfRouter": "LGF",
    "SlgfRouter": "SLGF",
    "Slgf2Router": "SLGF2",
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"spans": self.spans, "counters": self.counters}),
            encoding="utf-8",
        )

    @staticmethod
    def load(path: Path) -> "Tracer":
        data = json.loads(path.read_text(encoding="utf-8"))
        tracer = Tracer()
        tracer.spans = data["spans"]
        tracer.counters = data["counters"]
        return tracer

    def self_times(
        self, start: float = float("-inf"), stop: float = float("inf")
    ) -> dict[str, float]:
        """Per span name, the summed self time of spans begun in [start, stop).

        A span's self time is its duration minus that of its direct
        children; spans on one thread nest, so children never overlap.
        Spans still open (a server stopped mid-call) are left out.
        """
        child = [0.0] * len(self.spans)
        for name, begun, ended, parent in self.spans:
            if ended is not None and parent >= 0:
                child[parent] += ended - begun
        totals: dict[str, float] = {}
        for (name, begun, ended, _), inner in zip(self.spans, child):
            if ended is not None and start <= begun < stop:
                totals[name] = totals.get(name, 0.0) + (ended - begun - inner)
        return totals


def _patch(patches: list, owner, attr: str, value) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    patches.append((owner, attr, original))
    setattr(owner, attr, value)


def install(tracer: Tracer):
    """Wrap every traced layer function; returns the undo function."""
    import repro.api.session as session_mod
    import repro.api.study as study_mod
    import repro.protocols.boundhole as boundhole_mod
    import repro.serve.server as server_mod
    from repro.api.registry import RouterRegistry
    from repro.api.routeset import RouteSet
    from repro.core.model import InformationModel
    from repro.network.core import TopologyCore
    from repro.network.dynamic import DynamicTopology
    from repro.routing.base import Router, RouteResult
    from repro.serve.http import Request

    patches: list = []
    wrap = tracer.wrap

    def method(owner, attr: str, name: str) -> None:
        _patch(patches, owner, attr, wrap(name, owner.__dict__[attr]))

    def function(owner, attr: str, name: str) -> None:
        _patch(patches, owner, attr, wrap(name, getattr(owner, attr)))

    # network: deployment, unit-disk build + edge detection, churn,
    # planarization.
    function(session_mod, "deploy_uniform_model", "network.deploy")
    function(session_mod, "deploy_forbidden_area_model", "network.deploy")
    method(DynamicTopology, "__init__", "network.topology")
    snapshot = DynamicTopology.__dict__["graph"]
    _patch(
        patches,
        DynamicTopology,
        "graph",
        property(wrap("network.topology", snapshot.fget)),
    )
    for attr in ("move", "fail_many", "restore_many"):
        method(DynamicTopology, attr, "network.update")
    method(TopologyCore, "planar_mask", "network.planarize")
    method(TopologyCore, "planar_adjacency", "network.planarize")

    # core: the safety/shape information model (built and rebuilt).
    build = InformationModel.__dict__["build"].__func__
    _patch(
        patches,
        InformationModel,
        "build",
        classmethod(wrap("core.model", build)),
    )

    # protocols: BOUNDHOLE, with its stuck-node yield.  The TENT result
    # is captured where build_hole_boundaries looks it up.
    tent = boundhole_mod.tent_stuck_nodes
    local = threading.local()

    def capture_stuck(graph):
        local.stuck = tent(graph)
        return local.stuck

    boundhole = boundhole_mod.build_hole_boundaries

    def traced_boundhole(graph, *args, **kwargs):
        local.stuck = set()
        result = tracer.call(
            "protocols.boundhole", boundhole, graph, *args, **kwargs
        )
        stuck = local.stuck
        tracer.count("protocols.boundhole_calls")
        tracer.count("protocols.stuck", len(stuck))
        tracer.count(
            "protocols.stuck_on_boundary",
            len(stuck & result.nodes_on_boundaries()),
        )
        return result

    _patch(patches, boundhole_mod, "tent_stuck_nodes", capture_stuck)
    _patch(patches, boundhole_mod, "build_hole_boundaries", traced_boundhole)
    _patch(patches, session_mod, "build_hole_boundaries", traced_boundhole)

    # routing: every batch, per scheme.
    route_batch = Router.__dict__["route_batch"]

    def traced_route_batch(self, pairs, *args, **kwargs):
        pairs = list(pairs)
        scheme = SCHEMES.get(type(self).__name__, type(self).__name__)
        tracer.count(f"routing.routes.{scheme}", len(pairs))
        return tracer.call(
            f"routing.route.{scheme}",
            route_batch,
            self,
            pairs,
            *args,
            **kwargs,
        )

    _patch(patches, Router, "route_batch", traced_route_batch)

    # api: router construction, the per-cell facade, aggregation.
    method(RouterRegistry, "build", "api.router_build")
    function(study_mod, "run_scenario", "api.session")
    method(RouteSet, "point_result", "api.aggregate")
    method(RouteSet, "merge", "api.aggregate")

    # serve: answer encoding (to_dict and the JSON body) and request
    # decoding (the JSON body and the wire decoders).
    method(RouteSet, "to_dict", "serve.encode")
    method(RouteResult, "to_dict", "serve.encode")
    function(server_mod, "write_response", "serve.encode")
    method(Request, "json", "serve.decode")
    function(server_mod, "scenario_from_dict", "serve.decode")
    function(server_mod, "topology_events_from_dict", "serve.decode")

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()

    return undo
