"""sweep_cold: the quick figure grid through ``Study``, cold, in one process.

The grid is the paper's Figs. 5-7 sweep at quick scale: IA and FA
fields, n in {400, ..., 800}, all four schemes, ``jobs=1`` and no
result cache, one cold ``Session`` per network.  Its networks are the
quick configuration's own (config seed 2009, network 0 of every cell),
in the grid's own order, so every run does the same work.  The
benchmark seed is not used here: per-network cost ranges from 0.04 s to
2.7 s with the seed-dependent count of degenerate BOUNDHOLE walks, so
seed-drawn networks would move the rate by more than any usable bound,
and a seeded cell order moves peak memory by 10%.

Each round's ``StudyResult`` must equal, cell for cell and bit for bit,
the committed reference that ``make_reference.py`` computes through the
legacy ``evaluate_point`` pipeline (the pipeline the golden tests pin
Study against).
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.api import Study
from repro.experiments import QUICK_CONFIG, ExperimentConfig, ResultCache
from repro.experiments.cache import point_to_dict

GRID = dataclasses.replace(QUICK_CONFIG, networks_per_point=1)
MODELS = ("IA", "FA")
REFERENCE = Path(__file__).with_name("reference_sweep_cold.json")
SETUP_REPEATS = 9
#: Rounds a run makes however short its seconds.
MIN_ROUNDS = 4

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.api, repro.experiments; "
    "print(time.perf_counter() - t)"
)


def canonical(data) -> str:
    """One string per JSON value: NaN-safe, key-order-free equality."""
    return json.dumps(data, sort_keys=True)


def describe(config: ExperimentConfig) -> dict:
    return {
        "seed": config.seed,
        "node_counts": list(config.node_counts),
        "networks_per_point": config.networks_per_point,
        "routes_per_network": config.routes_per_network,
    }


def reference_cells(config: ExperimentConfig) -> dict[str, dict]:
    """Every cell's point through the legacy ``evaluate_point`` pipeline."""
    from repro.experiments import evaluate_point

    return {
        f"{model}/{n}": point_to_dict(evaluate_point(config, model, n))
        for model in MODELS
        for n in config.node_counts
    }


def load_reference(config: ExperimentConfig) -> dict[str, str]:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if data["config"] != describe(config):
        raise SystemExit(
            f"{REFERENCE.name} was made for {data['config']}, not "
            f"{describe(config)}; run perfbench/make_reference.py"
        )
    return {key: canonical(point) for key, point in data["cells"].items()}


def setup_seconds(root: Path, config: ExperimentConfig) -> float:
    """Median import time of a fresh interpreter plus median planning time."""
    imports = []
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        imports.append(float(probe.stdout))
    planning = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        Study.from_config(config, MODELS).plan()
        planning.append(time.perf_counter() - started)
    return statistics.median(imports) + statistics.median(planning)


def run_round(study: Study, tracer=None):
    """One cold pass over the grid: per cell, its result and its seconds."""
    results = {}
    root = tracer.begin("experiments.study") if tracer else None
    last = time.perf_counter()
    for cell, result in study.stream(jobs=1, cache=ResultCache.disabled()):
        now = time.perf_counter()
        key = f"{cell['deployment_model']}/{cell['node_count']}"
        results[key] = (result, now - last)
        last = now
    if tracer:
        tracer.end(root)
    return results


def measure(
    config: ExperimentConfig,
    reference: dict[str, str],
    seconds: float,
    tracer=None,
) -> dict:
    """Rounds over the grid until ``seconds`` have passed (at least four).

    Every round does the same work, so a cell's cost is its slowest
    round.  On a shared host a cell's time is bimodal: most rounds run in
    a steady contended state, and bursts of random length run about 1.7x
    faster (IA n=400 took 0.083-0.099 s or 0.044-0.058 s in one run).
    Statistics that read the bursts follow their luck; the slowest round
    reads the steady state.  Over ten 45-second runs the rate spread
    (quartiles over median) 5.6% by each cell's slowest round, 17% by
    the mean over the window, 25% by each cell's median round and 24% by
    its fastest; cut from 100 back-to-back rounds into runs of seven or
    eight, 7-8% by the slowest round and 10-14% by the mean.  The rate
    is the grid's network count over the sum of the cells' slowest
    seconds, and the latency samples are those seconds per network.
    Peak memory is read after round ``MIN_ROUNDS``: later rounds add a
    few MB now and then, and how many rounds fit depends on speed.
    """
    study = Study.from_config(config, MODELS)
    rounds = 0
    cell_seconds: dict[str, list[float]] = {}
    mismatched: list[str] = []
    started = time.monotonic()
    while True:
        results = run_round(study, tracer)
        rounds += 1
        if set(results) != set(reference):
            mismatched.append("cell set")
        for key, (result, spent) in results.items():
            cell_seconds.setdefault(key, []).append(spent)
            if canonical(point_to_dict(result.point)) != reference.get(key):
                mismatched.append(key)
        if rounds == MIN_ROUNDS:
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if rounds >= MIN_ROUNDS and time.monotonic() - started >= seconds:
            break
    stopped = time.monotonic()
    per_cell = config.networks_per_point
    slowest = [max(spent) for spent in cell_seconds.values()]
    return {
        "window": (started, stopped),
        "rounds": rounds,
        "networks": rounds * len(cell_seconds) * per_cell,
        "networks_per_s": len(cell_seconds) * per_cell / sum(slowest),
        "latencies_s": [s / per_cell for s in slowest],
        "cell_seconds": cell_seconds,
        "mismatched": mismatched,
        "peak_rss_mb": peak_rss_mb,
    }
