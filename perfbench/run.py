#!/usr/bin/env python3
"""The repository's benchmark of record.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 45 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``sweep_cold``  - the quick figure grid through ``Study``, cold, jobs=1;
* ``serve_churn`` - route queries plus topology writes on n=600 sessions;
* ``serve_query`` - route queries against two resident n=2000 sessions.
  Not in ``BENCHMARK.json``: the runs of all three did not fit the time
  the benchmark's runs may take at a run length that keeps the other two
  steady.  It runs the same way by hand.

Every run checks its outputs, prints a JSON line with the environment
and the raw counts, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``.  With ``--trace 1`` the run makes an untraced pass
and then a pass with the layer wrappers of ``spans.py`` installed, and
the metrics are the per-layer ones: layer self times, counts, and the
tracing overhead between the two passes.  The run exits non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMES = ("GF", "LGF", "SLGF", "SLGF2")
WORKLOADS = ("sweep_cold", "serve_query", "serve_churn")


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, as ``tools/loadgen.py`` reports it (0 if
    there are no values)."""
    from loadgen import _percentile

    return _percentile(sorted(values), p)


def _latencies(seconds: list[float]) -> dict:
    return {
        "latency_p50_ms": _percentile(seconds, 0.50) * 1e3,
        "latency_p99_ms": _percentile(seconds, 0.99) * 1e3,
    }


# -- one pass per workload ---------------------------------------------------


def sweep_pass(seconds: float, tracer=None) -> dict:
    import sweep

    reference = sweep.load_reference(sweep.GRID)
    setup = sweep.setup_seconds(ROOT, sweep.GRID)
    result = sweep.measure(sweep.GRID, reference, seconds, tracer)
    start, stop = result["window"]
    return {
        "end_to_end": {
            "setup_s": setup,
            "throughput_per_s": result["networks_per_s"],
            **_latencies(result["latencies_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": result["networks"],
        "failed": 0,
        "wrong": result["mismatched"],
        "window": (start, stop),
        "tracer": tracer,
        "detail": {
            "rounds": result["rounds"],
            "networks": result["networks"],
            "latency_samples": len(result["latencies_s"]),
            "cell_seconds": result["cell_seconds"],
        },
    }


def serve_pass(
    name: str, seed: int, seconds: float, traced: bool, repeat_setup: bool
) -> dict:
    import serving

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    result = serving.run_pass(
        ROOT,
        out_dir,
        serving.WORKLOADS[name],
        seed,
        seconds,
        traced,
        repeat_setup,
    )
    record = result["record"]
    elapsed = record.stopped - record.started
    done = len(record.latencies)
    writes = record.write_latencies
    return {
        "end_to_end": {
            "setup_s": result["setup_s"],
            "throughput_per_s": done / elapsed,
            **_latencies(record.latencies),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "attempted": done,
        "failed": record.failed,
        "wrong": result["wrong"],
        "window": (record.started, record.stopped),
        "tracer": result["tracer"],
        "serve": {
            **{f"serve.{k}": v for k, v in result["stats"].items()},
            "serve.cpu_s": result["cpu_s"],
            "serve.update_p50_ms": _percentile(writes, 0.5) * 1e3,
            "serve.update_p90_ms": _percentile(writes, 0.9) * 1e3,
        },
        "client_latency_s": sum(record.latencies),
        "detail": {
            "requests": done,
            "writes": len(writes),
            "statuses": record.statuses,
            "answers_checked": result["checked"],
            "latency_samples": done,
        },
    }


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, repeat_setup: bool
) -> dict:
    if name == "sweep_cold":
        tracer = None
        undo = None
        if traced:
            from spans import Tracer, install

            tracer = Tracer()
            undo = install(tracer)
        try:
            return sweep_pass(seconds, tracer)
        finally:
            if undo is not None:
                undo()
    return serve_pass(name, seed, seconds, traced, repeat_setup)


# -- per-layer metrics from a traced pass ------------------------------------


def layer_metrics(traced: dict, untraced: dict) -> dict:
    tracer = traced["tracer"]
    start, stop = traced["window"]
    # Layer totals cover the whole pass up to the end of the measured
    # window (set-up included, so BOUNDHOLE in set-up shows); the
    # window-only sums feed coverage and serve.outside_s.
    totals = tracer.self_times(stop=stop)
    in_window = tracer.self_times(start, stop)
    counters = tracer.counters

    def seconds(name: str) -> float:
        return totals.get(name, 0.0)

    stuck = counters.get("protocols.stuck", 0)
    metrics = {
        "protocols.boundhole_s": seconds("protocols.boundhole"),
        "protocols.boundhole_calls": counters.get(
            "protocols.boundhole_calls", 0
        ),
        "protocols.boundhole_yield": (
            counters.get("protocols.stuck_on_boundary", 0) / stuck
            if stuck
            else 0.0
        ),
        "network.deploy_s": seconds("network.deploy"),
        "network.topology_s": seconds("network.topology"),
        "network.planarize_s": seconds("network.planarize"),
        "network.update_s": seconds("network.update"),
        "core.model_s": seconds("core.model"),
        "api.router_build_s": seconds("api.router_build"),
        "api.session_s": seconds("api.session"),
        "api.aggregate_s": seconds("api.aggregate"),
        "experiments.study_overhead_s": seconds("experiments.study"),
        "serve.encode_s": seconds("serve.encode"),
        "serve.decode_s": seconds("serve.decode"),
    }
    for scheme in SCHEMES:
        metrics[f"routing.route_s.{scheme}"] = seconds(
            f"routing.route.{scheme}"
        )
        metrics[f"routing.routes.{scheme}"] = counters.get(
            f"routing.routes.{scheme}", 0
        )
    serve = {
        "serve.batches": 0,
        "serve.mean_batch_size": 0.0,
        "serve.rejected": 0,
        "serve.timeouts": 0,
        "serve.cpu_s": 0.0,
        "serve.update_p50_ms": 0.0,
        "serve.update_p90_ms": 0.0,
        "serve.outside_s": 0.0,
    }
    if "serve" in traced:
        serve.update(traced["serve"])
        # Write latency is an end-to-end quantity: read it untraced.
        for key in ("serve.update_p50_ms", "serve.update_p90_ms"):
            serve[key] = untraced["serve"][key]
        serve["serve.outside_s"] = traced["client_latency_s"] - sum(
            in_window.values()
        )
    metrics.update(serve)
    # The benchmark's own round span is not a layer: leave its self time
    # (all the work outside the layer spans) out of the coverage.
    layers = sum(
        spent
        for name, spent in in_window.items()
        if name != "experiments.study"
    )
    metrics["trace.coverage_frac"] = layers / (stop - start)
    metrics["trace_overhead_frac"] = (
        untraced["end_to_end"]["throughput_per_s"]
        / traced["end_to_end"]["throughput_per_s"]
        - 1.0
    )
    return metrics


# -- entry point -----------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run from "
            "the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import stamp

    env = stamp.environment(ROOT)
    # A traced run reports no setup_s: its passes set the server up once.
    repeat_setup = not args.trace
    first = run_pass(
        args.workload, args.seed, args.seconds, False, repeat_setup
    )
    passes = [first]
    if args.trace:
        passes.append(
            run_pass(args.workload, args.seed, args.seconds, True, False)
        )
        values = layer_metrics(passes[1], first)
        wanted = spec["per_layer"]
    else:
        values = first["end_to_end"]
        wanted = spec["end_to_end"]
    wrong = [w for p in passes for w in p["wrong"]]
    print(
        json.dumps(
            {
                "perfbench": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "environment": env,
                    "passes": [p["detail"] for p in passes],
                    "wrong": wrong[:20],
                }
            }
        )
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    correct = not wrong
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
