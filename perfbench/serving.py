"""serve_query and serve_churn: the routing service under a closed loop.

Both workloads start ``repro.serve.RoutingServer`` in a subprocess
(``server_main.py``), load two resident sessions (IA and FA), warm every
scheme once, then drive it for the run's seconds with keep-alive
clients in a closed loop, each sending its next request only when the
previous one is answered - the way sinks issuing route queries behave.
Reads are ``route`` (random scheme, random pair) and ``route_pairs``
(all four schemes) at 3:1, as in ``tools/loadgen.py``.

* ``serve_query``: 2 clients on n=2000 networks at paper density (365 m
  field, r=20 m: the mean degree of n=600 in the 200 m field).
  BOUNDHOLE runs only in set-up; routing, micro-batching and the wire
  encoding do the work.
* ``serve_churn``: 1 client on n=600 networks in the 200 m field,
  alternating between the sessions.  Every 50 requests to a session end
  with a transient fault: a ``POST /topology`` write (fail or move), the
  write that undoes it, then a GF route across a hole.  This cycle is a
  synthetic assumption, not a measured write share (README.md gives the
  reason for each number, and what it leaves out: no read of the window
  meets a fault).  Every write
  rebinds all routers, so SLGF/SLGF2 rebuild their model and GF reruns
  BOUNDHOLE at that stuck packet.  One client, because the server's
  executor threads share one interpreter lock: with two, a rebuild for
  one session slowed the other client's reads part of the time, and
  read latency moved by half between seeds.

The networks are the paper configuration's (seed 2009); the benchmark
seed draws the traffic: the pair and scheme of each ``route``, the
order of reads and the event logs.  ``route_pairs`` always routes the
session's own 10 pairs (the server samples them from the scenario
seed).  Outputs are checked against in-process ``Session`` objects
after the server has stopped: sampled served answers (``serve_query``),
and answers read during and after a fault probe, against the replayed
event log (``serve_churn``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from loadgen import HttpClient, _pick_query
from spans import Tracer

SERVER_SCRIPT = Path(__file__).with_name("server_main.py")
#: Set-ups per run, each in a fresh server; ``setup_s`` is their median.
SETUP_REPEATS = 3
PAIR_COUNT = 10
READ_MIX = [("route", 3.0), ("route_pairs", 1.0)]
SAMPLE_SHARE = 0.05
SAMPLE_LIMIT = {"route": 150, "route_pairs": 12}
FINAL_ROUTES_PER_SCHEME = 5
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def scenario(model: str, nodes: int, side: float) -> dict:
    """A wire-form scenario document (``repro.serve.wire``)."""
    return {
        "deployment_model": model,
        "node_count": nodes,
        "area": [0.0, 0.0, side, side],
        "radius": 20.0,
        "seed": 2009,
    }


@dataclass(frozen=True)
class Workload:
    scenarios: tuple[dict, ...]
    clients: int
    #: Requests in one write cycle of a session (0: no writes); see Writes.
    write_every: int = 0


WORKLOADS = {
    "serve_query": Workload(
        (scenario("IA", 2000, 365.0), scenario("FA", 2000, 365.0)),
        clients=2,
    ),
    "serve_churn": Workload(
        (scenario("IA", 600, 200.0), scenario("FA", 600, 200.0)),
        clients=1,
        write_every=50,
    ),
}


# -- the server process --------------------------------------------------


class ServerProcess:
    """One ``server_main.py`` child; stopped with SIGINT, then reaped."""

    def __init__(self, root: Path, out_dir: Path, traced: bool) -> None:
        tag = f"{os.getpid()}-{time.monotonic_ns()}"
        self.trace_path = out_dir / f"server-trace-{tag}.json"
        self.log_path = out_dir / f"server-{tag}.log"
        command = [sys.executable, str(SERVER_SCRIPT)]
        if traced:
            command += ["--trace-out", str(self.trace_path)]
        self.traced = traced
        self._log = self.log_path.open("wb")
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], START_TIMEOUT_S
        )
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(
                f"server did not start: {line!r}; see {self.log_path}"
            )
        return int(line.rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)
        utime, stime = fields[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Tracer | None:
        """Shut the server down and wait for it; its spans when traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()
        if self.proc.returncode == 0:
            self.log_path.unlink()
        if self.traced and self.trace_path.exists():
            tracer = Tracer.load(self.trace_path)
            self.trace_path.unlink()
            return tracer
        return None


# -- HTTP ------------------------------------------------------------------


async def _call(
    client: HttpClient, method: str, path: str, body: dict | None = None
) -> dict:
    """One request that must succeed; its parsed answer."""
    status, answer = await asyncio.wait_for(
        client.request(method, path, body), REQUEST_TIMEOUT_S
    )
    if status not in (200, 201):
        raise RuntimeError(f"{method} {path} answered {status}: {answer}")
    return answer


# -- traffic ---------------------------------------------------------------


@dataclass
class Resident:
    session: str
    node_ids: list[int]
    routers: list[str]


@dataclass
class Churn:
    """A session's live state as its only writer sees it, and its log.

    Writes come in pairs: a transient fault (one node fails, or moves by
    up to 10 m) and then its undo.  The network keeps returning to its
    deployed shape, so the cost of what a write triggers (BOUNDHOLE on
    the changed graph) does not drift with the length of the run.
    """

    alive: list[int]
    positions: dict[int, tuple[float, float]]
    side: float
    undo: dict | None = None
    log: list[dict] = field(default_factory=list)

    @classmethod
    def of(cls, session) -> "Churn":
        graph = session.graph
        points = {u: graph.position(u) for u in graph.node_ids}
        return cls(
            alive=list(points),
            positions={u: (p.x, p.y) for u, p in points.items()},
            side=session.scenario.area.width,
        )

    def draw(self, rng: random.Random) -> dict:
        """The next write, applied to this shadow state."""
        if self.undo is not None:
            event, self.undo = self.undo, None
            if event["op"] == "restore":
                self.alive.extend(event["nodes"])
        elif rng.random() < 0.5:
            node = rng.choice(self.alive)
            self.alive.remove(node)
            event = {"op": "fail", "nodes": [node]}
            self.undo = {"op": "restore", "nodes": [node]}
        else:
            node = rng.choice(self.alive)
            x, y = self.positions[node]
            event = {
                "op": "move",
                "node": node,
                "x": min(self.side, max(0.0, x + rng.uniform(-10.0, 10.0))),
                "y": min(self.side, max(0.0, y + rng.uniform(-10.0, 10.0))),
            }
            self.undo = {"op": "move", "node": node, "x": x, "y": y}
        self.log.append(event)
        return event


def _read(rng: random.Random, resident: Resident, nodes: list[int]):
    """A ``tools/loadgen.py`` query: (kind, body)."""
    kind, _, body = _pick_query(
        rng, READ_MIX, nodes, resident.routers, resident.session, PAIR_COUNT
    )
    return kind, body


class Queries:
    """serve_query traffic: reads on a random session."""

    def __init__(self, residents: list[Resident]) -> None:
        self.residents = residents

    def at_boundary(self) -> bool:
        return True

    def next(self, rng: random.Random) -> tuple[int, str, dict]:
        which = rng.randrange(len(self.residents))
        resident = self.residents[which]
        return (which, *_read(rng, resident, resident.node_ids))


class Writes:
    """serve_churn traffic: reads, transient faults and GF re-queries.

    Each session's cycle of ``write_every`` requests ends with a write
    that makes a fault (a node fails or moves), a write that undoes it,
    and a GF route across a hole; the rest are reads.  ``stuck`` holds,
    per session, pairs whose GF route hits a local minimum on the
    deployed network, so each cycle makes GF rerun BOUNDHOLE once, on the
    deployed network: left to random packets the number of reruns in a
    run was random, and reruns on faulted networks cost 0.13-2.4 s
    against 0.5 s.  Reads between the two writes got GF stuck on the
    faulted network in about one cycle in five, which moved throughput
    by a quarter between seeds.  The pairs
    are drawn with a fixed seed because GF rarely gets stuck on the IA
    network (one pair in a thousand), and whether a run found such a
    pair moved its throughput by a third.
    """

    def __init__(
        self,
        residents: list[Resident],
        churn: list[Churn],
        stuck: list[list[tuple[int, int]]],
        write_every: int,
    ) -> None:
        self.residents = residents
        self.churn = churn
        self.stuck = stuck
        self.write_every = write_every
        self.sent = 0

    def at_boundary(self) -> bool:
        """Whether every session has finished a whole cycle.

        A run stops only here: a cycle's cost sits in its re-query, and
        cutting runs mid-cycle moved throughput by a tenth.
        """
        return self.sent % (self.write_every * len(self.residents)) == 0

    def next(self, rng: random.Random) -> tuple[int, str, dict]:
        which = self.sent % len(self.residents)
        step = self.sent // len(self.residents) % self.write_every
        self.sent += 1
        state = self.churn[which]
        if step in (self.write_every - 3, self.write_every - 2):
            return which, "topology", {"events": [state.draw(rng)]}
        if step == self.write_every - 1 and self.stuck[which]:
            source, destination = rng.choice(self.stuck[which])
            return which, "route", {
                "source": source,
                "destination": destination,
                "router": "GF",
            }
        return (which, *_read(rng, self.residents[which], state.alive))


def stuck_pairs(session, rng: random.Random, want: int = 20) -> list:
    """Up to ``want`` pairs whose GF route enters boundary recovery."""
    router = session.router("GF")
    nodes = list(session.graph.node_ids)
    pairs = []
    for _ in range(50 * want):
        source, destination = rng.sample(nodes, 2)
        if router.route(source, destination).perimeter_entries:
            pairs.append((source, destination))
            if len(pairs) == want:
                break
    return pairs


@dataclass(frozen=True)
class Probe:
    """A fault sent after the window, the reads made while it holds, its undo.

    Every read of the window runs on the deployed network: each fault is
    undone before the next read.  So the final answers alone would pass a
    server that answered writes but ignored them.  The probe fails one
    node in the middle of each scheme's route of a known pair (a GF-stuck
    one), and moves a node from the middle of the GF route of the first
    ``route_pairs`` pair to the field's farthest corner, more than 2r
    away, where it cannot link its old neighbours.  Each scheme's route
    of the pair, and the ``route_pairs`` answer, then differ from the
    deployed network's, so a server that ignored the write, or left a
    router or a cached column on the old network, fails the check
    against the replayed log.
    """

    fault: list[dict]
    undo: list[dict]
    reads: list[tuple[str, dict]]

    @classmethod
    def of(cls, session, stuck: list, routers: list[str]) -> "Probe":
        routes = session.sample_pairs(PAIR_COUNT)
        pair = stuck[0] if stuck else max(
            routes, key=lambda p: len(session.route(*p, "GF").path)
        )
        doomed = set()
        for router in routers:
            inner = [
                u
                for u in session.route(*pair, router).path[1:-1]
                if u not in pair
            ]
            if inner:
                doomed.add(inner[len(inner) // 2])
        fault = [{"op": "fail", "nodes": sorted(doomed)}]
        undo = [{"op": "restore", "nodes": sorted(doomed)}]
        movers = [
            u
            for u in session.route(*routes[0], "GF").path[1:-1]
            if u not in doomed and u not in pair and u not in routes[0]
        ]
        if movers:
            mover = movers[len(movers) // 2]
            point = session.graph.position(mover)
            area = session.scenario.area
            corner = max(
                (
                    (x, y)
                    for x in (area.x_min + 1.0, area.x_max - 1.0)
                    for y in (area.y_min + 1.0, area.y_max - 1.0)
                ),
                key=lambda c: math.dist(c, (point.x, point.y)),
            )
            fault.append(
                {"op": "move", "node": mover, "x": corner[0], "y": corner[1]}
            )
            undo.insert(
                0, {"op": "move", "node": mover, "x": point.x, "y": point.y}
            )
        reads = [("route_pairs", {"count": PAIR_COUNT})] + [
            (
                "route",
                {"source": pair[0], "destination": pair[1], "router": router},
            )
            for router in routers
        ]
        return cls(fault, undo, reads)


@dataclass
class Record:
    latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    failed: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    samples: list[tuple] = field(default_factory=list)
    started: float = 0.0
    stopped: float = 0.0


async def _client(
    index: int,
    port: int,
    residents: list[Resident],
    traffic,
    seed: int,
    deadline: float,
    record: Record,
) -> None:
    rng = random.Random(seed * 7919 + index)
    sampler = random.Random(seed * 104729 + index)
    sample = isinstance(traffic, Queries)
    client = HttpClient("127.0.0.1", port)
    loop = asyncio.get_running_loop()
    try:
        while loop.time() < deadline or not traffic.at_boundary():
            which, kind, body = traffic.next(rng)
            path = f"/sessions/{residents[which].session}/{kind}"
            began = time.perf_counter()
            try:
                status, answer = await asyncio.wait_for(
                    client.request("POST", path, body), REQUEST_TIMEOUT_S
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                status, answer = 0, {}
                await client.close()
            elapsed = time.perf_counter() - began
            record.latencies.append(elapsed)
            record.statuses[status] = record.statuses.get(status, 0) + 1
            if status != 200:
                record.failed += 1
            if kind == "topology":
                record.write_latencies.append(elapsed)
            elif (
                sample
                and status == 200
                and sampler.random() < SAMPLE_SHARE
                and sum(s[1] == kind for s in record.samples)
                < SAMPLE_LIMIT[kind]
            ):
                record.samples.append((which, kind, body, answer))
    finally:
        await client.close()


async def _set_up(port: int, workload: Workload) -> list[Resident]:
    """Load every session and route once through every scheme of each."""
    client = HttpClient("127.0.0.1", port)
    try:
        residents = []
        for document in workload.scenarios:
            created = await _call(
                client, "POST", "/sessions", {"scenario": document}
            )
            residents.append(
                Resident(
                    created["session"], created["node_ids"], created["routers"]
                )
            )
        for resident in residents:
            for router in resident.routers:
                await _call(
                    client,
                    "POST",
                    f"/sessions/{resident.session}/route",
                    {
                        "source": resident.node_ids[0],
                        "destination": resident.node_ids[-1],
                        "router": router,
                    },
                )
        return residents
    finally:
        await client.close()


async def _drive(
    port: int,
    residents: list[Resident],
    traffic,
    clients: int,
    seed: int,
    seconds: float,
) -> Record:
    record = Record()
    loop = asyncio.get_running_loop()
    record.started = time.monotonic()
    deadline = loop.time() + seconds
    await asyncio.gather(
        *(
            _client(i, port, residents, traffic, seed, deadline, record)
            for i in range(clients)
        )
    )
    record.stopped = time.monotonic()
    return record


async def _finish(
    port: int, residents: list[Resident], churn, probes, seed: int
):
    """Server counters, and (churn) the answers the output gate checks.

    For each churned session: the probe's reads while its fault holds,
    then, after the undo, ``route_pairs`` and ``FINAL_ROUTES_PER_SCHEME``
    routes per scheme.  Each answer comes with the length of the event
    log it must match.
    """
    client = HttpClient("127.0.0.1", port)
    try:
        stats = await _call(client, "GET", "/stats")
        answers = []
        rng = random.Random(seed * 31 + 7)
        churned = residents if churn is not None else []
        for which, resident in enumerate(churned):
            base = f"/sessions/{resident.session}"
            state, probe = churn[which], probes[which]
            finals = [("route_pairs", {"count": PAIR_COUNT})]
            for router in resident.routers:
                for _ in range(FINAL_ROUTES_PER_SCHEME):
                    source, destination = rng.sample(state.alive, 2)
                    finals.append(
                        (
                            "route",
                            {
                                "source": source,
                                "destination": destination,
                                "router": router,
                            },
                        )
                    )
            for events, reads in (
                (probe.fault, probe.reads),
                (probe.undo, finals),
            ):
                await _call(
                    client, "POST", f"{base}/topology", {"events": events}
                )
                state.log.extend(events)
                for kind, body in reads:
                    answer = await _call(
                        client, "POST", f"{base}/{kind}", body
                    )
                    answers.append(
                        ((which, len(state.log)), kind, body, answer)
                    )
        return stats, answers
    finally:
        await client.close()


# -- the output gate -------------------------------------------------------


def _expected(session, kind: str, body: dict) -> dict:
    if kind == "route":
        result = session.route(
            body["source"], body["destination"], body["router"]
        )
        return {"result": result.to_dict()}
    return {"routeset": session.route_pairs(count=body["count"]).to_dict()}


def _same(answer: dict, expected: dict) -> bool:
    return json.dumps(answer, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def check(sessions, answers) -> list[str]:
    """Served answers that differ from the in-process sessions' own.

    ``answers`` holds ``(key, kind, body, answer)``; ``sessions[key]``
    is the session that answer must match.
    """
    wrong = []
    for key, kind, body, answer in answers:
        if not _same(answer, _expected(sessions[key], kind, body)):
            wrong.append(f"{kind} {body}")
    return wrong


def replay(session, log: list[dict]):
    """The session after its event log, on an in-process DynamicTopology."""
    from repro.api import Session
    from repro.network.dynamic import DynamicTopology
    from repro.network.edges import EdgeDetector
    from repro.serve.wire import topology_events_from_dict

    topology = DynamicTopology.from_graph(
        session.graph,
        edge_detector=EdgeDetector(strategy="convex"),
        area=session.scenario.area,
    )
    for event in topology_events_from_dict({"events": log}) if log else ():
        if event[0] == "move":
            topology.move(event[1], event[2])
        elif event[0] == "fail":
            topology.fail_many(event[1])
        else:
            topology.restore_many(event[1], event[2])
    return Session.from_graph(
        topology.graph, session.scenario, seed=session.instance.seed
    )


# -- one pass --------------------------------------------------------------


def _stats(document: dict) -> dict:
    sessions = document["sessions"].values()
    batches = sum(s["batches"] for s in sessions)
    items = sum(s["batches"] * s["mean_batch_size"] for s in sessions)
    return {
        "batches": batches,
        "mean_batch_size": items / batches if batches else 0.0,
        "rejected": sum(s["rejected"] for s in sessions),
        "timeouts": sum(s["timeouts"] for s in sessions),
    }


def run_pass(
    root: Path,
    out_dir: Path,
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    repeat_setup: bool = True,
) -> dict:
    """Set up, drive for ``seconds``, stop the server, check the answers.

    ``repeat_setup=False`` sets up once: for the passes of a traced run,
    which report no ``setup_s`` and must end within the run's time limit.
    """
    from repro.api import Session
    from repro.serve.wire import scenario_from_dict

    local = [Session(scenario_from_dict(s)) for s in workload.scenarios]
    churn = None
    if workload.write_every:
        churn = [Churn.of(s) for s in local]
        stuck = [stuck_pairs(s, random.Random(2009)) for s in local]
    setups = []
    server = None
    tracer = None
    try:
        for _ in range(SETUP_REPEATS if repeat_setup else 1):
            if server is not None:
                server.stop()
                server = None
            began = time.perf_counter()
            server = ServerProcess(root, out_dir, traced)
            residents = asyncio.run(_set_up(server.port, workload))
            setups.append(time.perf_counter() - began)
        for resident, session in zip(residents, local):
            if resident.node_ids != list(session.graph.node_ids):
                raise RuntimeError("served network differs from the local one")
        probes = None
        if churn is not None:
            traffic = Writes(residents, churn, stuck, workload.write_every)
            probes = [
                Probe.of(s, pairs, r.routers)
                for s, pairs, r in zip(local, stuck, residents)
            ]
        else:
            traffic = Queries(residents)
        cpu_before = server.cpu_seconds()
        record = asyncio.run(
            _drive(
                server.port,
                residents,
                traffic,
                workload.clients,
                seed,
                seconds,
            )
        )
        cpu = server.cpu_seconds() - cpu_before
        peak_rss = server.peak_rss_mb()
        stats, finals = asyncio.run(
            _finish(server.port, residents, churn, probes, seed)
        )
    finally:
        if server is not None:
            tracer = server.stop()
    if churn is not None:
        replayed = {
            (which, length): replay(local[which], churn[which].log[:length])
            for which, length in {key for key, *_ in finals}
        }
        wrong = check(replayed, finals)
    else:
        wrong = check(local, record.samples)
    return {
        "setup_s": statistics.median(setups),
        "record": record,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss,
        "stats": _stats(stats),
        "tracer": tracer,
        "wrong": wrong,
        "checked": len(finals) if churn is not None else len(record.samples),
    }
