"""Smoke tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench/smoke.py -q

The file name keeps these tests out of the repository's default pytest
run; they start servers and run short workloads (about a minute).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tools")]

import run  # noqa: E402
import serving  # noqa: E402
import sweep  # noqa: E402
from repro.experiments import ExperimentConfig  # noqa: E402
from repro.geometry import Rect  # noqa: E402
from spans import Tracer, install  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_GRID = ExperimentConfig(
    area=Rect(0, 0, 80, 80),
    node_counts=(70, 90),
    networks_per_point=1,
    routes_per_network=4,
    min_obstacle_size=5.0,
    max_obstacle_size=10.0,
)


def _tiny(model: str, nodes: int) -> dict:
    document = serving.scenario(model, nodes, 90.0)
    document.update(min_obstacle_size=5.0, max_obstacle_size=10.0)
    return document


TINY_SERVE = {
    "serve_query": serving.Workload(
        (_tiny("IA", 120), _tiny("FA", 120)), clients=2
    ),
    "serve_churn": serving.Workload(
        (_tiny("IA", 120), _tiny("FA", 120)),
        clients=1,
        write_every=5,
    ),
}


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    reference = tmp_path / "reference.json"
    reference.write_text(
        json.dumps(
            {
                "config": sweep.describe(TINY_GRID),
                "cells": sweep.reference_cells(TINY_GRID),
            }
        ),
        encoding="utf-8",
    )
    monkeypatch.setattr(sweep, "GRID", TINY_GRID)
    monkeypatch.setattr(sweep, "REFERENCE", reference)
    monkeypatch.setattr(sweep, "SETUP_REPEATS", 2)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 2)
    monkeypatch.setattr(serving, "WORKLOADS", TINY_SERVE)


def _result(capsys, argv: list[str]) -> tuple[int, dict]:
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, result = _result(
        capsys,
        ["--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_sweep_gives_identical_results(tiny):
    study = sweep.Study.from_config(TINY_GRID, sweep.MODELS)
    plain = sweep.run_round(study)
    tracer = Tracer()
    undo = install(tracer)
    try:
        traced = sweep.run_round(study, tracer)
    finally:
        undo()
    assert tracer.spans
    assert {k: sweep.canonical(sweep.point_to_dict(r.point))
            for k, (r, _) in plain.items()} == {
        k: sweep.canonical(sweep.point_to_dict(r.point))
        for k, (r, _) in traced.items()
    }


def _answers(result: dict) -> dict:
    return {
        (which, kind, json.dumps(body, sort_keys=True)): answer
        for which, kind, body, answer in result["record"].samples
    }


def test_traced_server_gives_identical_answers(tiny, tmp_path):
    workload = TINY_SERVE["serve_query"]
    plain = serving.run_pass(ROOT, tmp_path, workload, 4, 1.0, traced=False)
    traced = serving.run_pass(ROOT, tmp_path, workload, 4, 1.0, traced=True)
    assert traced["tracer"] is not None and plain["tracer"] is None
    assert plain["wrong"] == [] and traced["wrong"] == []
    a, b = _answers(plain), _answers(traced)
    common = set(a) & set(b)
    assert common
    assert all(a[key] == b[key] for key in common)


def test_a_corrupted_served_answer_trips_the_gate(tiny, tmp_path):
    from repro.api import Session
    from repro.serve.wire import scenario_from_dict

    workload = TINY_SERVE["serve_query"]
    result = serving.run_pass(ROOT, tmp_path, workload, 6, 1.0, traced=False)
    samples = result["record"].samples
    assert samples and result["wrong"] == []
    sessions = [Session(scenario_from_dict(s)) for s in workload.scenarios]
    assert serving.check(sessions, samples) == []
    which, kind, body, answer = samples[0]
    answer = copy.deepcopy(answer)
    if kind == "route":
        route = answer["result"]
    else:
        route = answer["routeset"]["routes"][0]
    route["length"] += 1e-9
    corrupted = [(which, kind, body, answer)]
    corrupted += samples[1:]
    assert serving.check(sessions, corrupted) == [f"{kind} {body}"]


def test_a_wrong_sweep_result_trips_the_gate(tiny):
    reference = sweep.load_reference(TINY_GRID)
    key = sorted(reference)[0]
    reference[key] = reference[key].replace('"samples": 4', '"samples": 5')
    result = sweep.measure(TINY_GRID, reference, 0.0)
    assert set(result["mismatched"]) == {key}


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_churn_replay_matches_the_server(tiny, tmp_path):
    workload = TINY_SERVE["serve_churn"]
    result = serving.run_pass(ROOT, tmp_path, workload, 8, 1.5, traced=False)
    assert result["record"].write_latencies
    assert result["wrong"] == [] and result["checked"] > 0


STALE_SERVER = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from repro.serve.resident import ResidentSession


def answer_but_ignore(self, work):
    self._resolve(
        self._loop, work.future, {{"applied_events": 0}}, is_error=False
    )


ResidentSession._apply_topology = answer_but_ignore
import server_main
raise SystemExit(server_main.main(sys.argv[1:]))
"""


def test_a_server_that_ignores_writes_trips_the_churn_gate(
    tiny, tmp_path, monkeypatch
):
    script = tmp_path / "stale_server.py"
    script.write_text(
        STALE_SERVER.format(src=str(ROOT / "src"), here=str(HERE)),
        encoding="utf-8",
    )
    monkeypatch.setattr(serving, "SERVER_SCRIPT", script)
    workload = TINY_SERVE["serve_churn"]
    result = serving.run_pass(ROOT, tmp_path, workload, 8, 1.5, traced=False)
    assert result["record"].failed == 0
    # Every probe read runs on a network the stale server never saw.
    routers = ["GF", "LGF", "SLGF", "SLGF2"]
    assert len(result["wrong"]) >= len(workload.scenarios) * len(routers)
