"""One benchmark for the program's four user paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenario-flood --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``scenario-flood``, ``service-replay``, ``metro-routes`` and
``paper-eval`` (see ``perfbench/README.md``).  With ``--trace 0`` the
run measures with nothing wrapped and reports the end-to-end metrics;
with ``--trace 1`` it runs one unmeasured warm-up round, then measures
the same number of rounds twice, untraced and then with every layer
wrapped, and reports the per-layer metrics, the share of measured time
the layers account for, and the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before
it give every figure under the workload's own name and a
``PERFBENCH_RECORD`` line with the host it ran on.  A failed output
check exits with code 1 and prints no result line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from harness import (  # noqa: E402
    E2E_UNITS,
    SRC,
    CheckFailed,
    Context,
    Speed,
    host_provenance,
    median,
    setup_probe,
)

#: Workload name -> module.  Each module has ``setup(seed) -> state`` and
#: ``run(state, seed, seconds, ctx, rounds=None, first_round=0) ->
#: RunResult``; the traced pass passes ``rounds`` to repeat the untraced
#: pass's round count and ``first_round`` to pick the rounds' inputs.
#: ``FRESH_ROUNDS`` marks a workload whose rounds must not repeat inputs
#: (the traced pass then takes the next rounds instead of replaying the
#: untraced pass's), ``SETUP_IN_RUN`` one that samples
#: ``setup_s`` itself, ``LOOPBACK`` one whose traffic crosses loopback.
#: Every workload reports ``peak_rss_mb`` itself, read before its first
#: output check so that the check's own memory is not counted.
WORKLOADS = {
    "scenario-flood": "scenario_flood",
    "service-replay": "service_replay",
    "metro-routes": "metro_routes",
    "paper-eval": "paper_eval",
}
#: Fresh-process set-ups per run; ``setup_s`` is their median.  A
#: workload module may ask for fewer with its own ``SETUP_SAMPLES``.
SETUP_SAMPLES = 3

#: Per-layer time metrics: metric -> interval names whose self time
#: it sums (see ``targets.py`` and ``layers.self_times``).
LAYER_TIMES = {
    "world.city_gen_s": ["world.city_gen"],
    "world.build_s": ["world.build"],
    "scenario.events_s": ["scenario.events"],
    "scenario.patch_s": ["scenario.patch"],
    "scenario.replan_s": ["scenario.replan"],
    "scenario.islands_s": ["scenario.islands"],
    "scenario.simulate_s": ["scenario.simulate"],
    "scenario.unattributed_s": ["scenario.epoch"],
    "buildgraph.graph_build_s": ["buildgraph.graph_build"],
    "buildgraph.plan_batch_s": ["buildgraph.plan_batch"],
    "buildgraph.plan_s": ["buildgraph.plan"],
    "buildgraph.patch_s": ["buildgraph.patch"],
    "mesh.find_islands_s": ["mesh.find_islands"],
    "mesh.extended_graph_s": ["mesh.extended_graph"],
    "mesh.reachability_s": ["mesh.reachability"],
    "sim.batch_s": ["sim.batch"],
    "sim.single_s": ["sim.single", "sim.fastpath"],
    "sim.scalar_loop_s": ["sim.scalar_loop"],
    "sim.kernel_s": ["sim.kernel"],
    "sim.frozen_epoch_s": ["sim.frozen_epoch"],
    "sim.verdict_s": ["sim.verdict"],
    "baselines.citymesh_s": ["baselines.citymesh"],
    "baselines.flood_s": ["baselines.flood"],
    "baselines.gossip_s": ["baselines.gossip"],
    "baselines.greedy_s": ["baselines.greedy"],
    "baselines.gpsr_s": ["baselines.gpsr"],
    "baselines.aodv_s": ["baselines.aodv"],
    "baselines.oracle_s": ["baselines.oracle"],
    "baselines.gabriel_s": ["baselines.gabriel"],
    "trials.delivery_s": ["trials.delivery"],
    "experiments.sample_pairs_s": ["experiments.sample_pairs"],
    "hierarchy.partition_s": ["hierarchy.partition"],
    "hierarchy.overlay_build_s": ["hierarchy.overlay_build", "hierarchy.reindex"],
    "hierarchy.plan_s": ["hierarchy.plan"],
    "hierarchy.terminal_s": ["hierarchy.terminal"],
    "hierarchy.search_s": ["hierarchy.search"],
    "hierarchy.expand_s": ["hierarchy.expand"],
    "service.trace_gen_s": ["service.trace_gen"],
}
#: Per-layer call counts: metric -> interval name.
LAYER_COUNTS = {
    "mesh.find_islands_calls": "mesh.find_islands",
    "sim.columnar_flows": "sim.kernel",
    "sim.scalar_loop_flows": "sim.scalar_loop",
}
#: Per-layer metrics a workload module reports itself (zero elsewhere).
WORKLOAD_LAYERS = [
    "world.import_s",
    "buildgraph.plan_batch_pairs",
    "buildgraph.route_cache_hit_ratio",
    "sim.transmissions_per_flow",
    "sim.program_columnar_flows",
    "sim.program_scalar_fallbacks",
    "trials.world_cache_hits",
    "trials.world_cache_misses",
    "hierarchy.overlay_settled_per_route",
    "hierarchy.nodes_expanded_per_route",
    "hierarchy.terminal_sssp_runs",
    "hierarchy.terminal_cache_hit_ratio",
    "hierarchy.expansion_cache_hit_ratio",
    "hierarchy.far.overlay_settled_per_route",
    "hierarchy.far.nodes_expanded_per_route",
    "hierarchy.far.terminal_sssp_runs",
    "hierarchy.far.terminal_cache_hit_ratio",
    "hierarchy.far.expansion_cache_hit_ratio",
    "service.dispatch_us.check",
    "service.dispatch_us.send",
    "service.dispatch_us.pushes",
    "service.dispatch_us.confirm",
    "service.dispatch_us.geocast_poll",
    "service.dispatch_us.geocast_publish",
    "service.dispatch_us.lookup",
    "service.transport_us",
    "service.inprocess_req_per_s",
    "service.server_cpu_us_per_req",
    "service.client_cpu_us_per_req",
    "service.server_busy_ratio",
    "service.shard_queue_depth_max",
    "service.shard_ops",
    "service.geoboard_scan",
    "service.geoboard_expired",
    "service.retries",
    "service.confirms",
]
#: How the traced run accounts for its measured time.
TRACE_LAYERS = [
    "trace.window_s",
    "trace.untraced_window_s",
    "trace.attributed_share",
    "trace.unattributed_s",
    "trace.overhead_s",
]
PER_LAYER = list(LAYER_TIMES) + list(LAYER_COUNTS) + WORKLOAD_LAYERS + TRACE_LAYERS
PER_LAYER_UNITS = {
    name: (
        "1/s" if name.endswith("_per_s")
        else "s" if name.endswith("_s")
        else "us" if "_us" in name
        else "ratio" if name.endswith(("_ratio", "_share"))
        else "count"
    )
    for name in PER_LAYER
}


def _scalar_loop(name: str, kids: list[str]) -> str:
    """A fastpath call with no columnar kernel inside ran the scalar loop."""
    if name == "sim.fastpath" and "sim.kernel" not in kids:
        return "sim.scalar_loop"
    return name


def _print_named(result) -> None:
    for name, (value, unit) in result.named.items():
        print(f"{name} {value:.6g} {unit}")


def _record(workload: str, seed: int, result, loopback: bool, extra: dict) -> None:
    record = {
        "workload": workload,
        "host": host_provenance(seed, loopback=loopback),
        "attempted": result.attempted,
        "failed": result.failed,
        "rounds": result.rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "facts": {**result.facts, **extra},
    }
    print("PERFBENCH_RECORD " + json.dumps(record, sort_keys=True))


def _timed_setup(wl, seed: int, t_args: float):
    """Set the workload up; return its state and ``setup_s``.

    ``setup_s`` is the time from the first line of this script to ready,
    leaving out anything between argument parsing and the set-up (the
    probes), at the reference host speed (see ``harness.Speed``), or
    raw for a workload whose ``SCALE_SETUP`` is false.
    """
    speed = Speed()
    before = speed.sample()
    t_start = time.perf_counter()
    state = wl.setup(seed)
    raw = (t_args - T0) + (time.perf_counter() - t_start)
    if not getattr(wl, "SCALE_SETUP", True):
        return state, raw
    return state, speed.scale(raw, before, speed.sample())


def _untraced(wl, args, t_args: float) -> int:
    samples = []
    if not getattr(wl, "SETUP_IN_RUN", False):
        samples = [
            setup_probe(args.workload, args.seed)
            for _ in range(getattr(wl, "SETUP_SAMPLES", SETUP_SAMPLES) - 1)
        ]
    state, setup_s = _timed_setup(wl, args.seed, t_args)
    samples.append(setup_s)
    result = wl.run(state, args.seed, args.seconds, Context())
    e2e = dict(result.e2e)
    if "setup_s" not in e2e:
        e2e["setup_s"] = median(samples)
        result.named["setup_s"] = (e2e["setup_s"], "s")
        result.facts["setup_samples_s"] = samples
    _print_named(result)
    _record(args.workload, args.seed, result, getattr(wl, "LOOPBACK", False), {})
    return _result_line(result, {k: (e2e[k], u) for k, u in E2E_UNITS.items()})


def _traced(wl, args) -> int:
    import targets
    from layers import LayerTracer, WINDOW, self_times
    from repro.obs import REGISTRY

    hooks_state = {"flows": 0, "tx": 0, "pairs": 0}

    def on_single(result, *args, **kwargs):
        hooks_state["flows"] += 1
        hooks_state["tx"] += result.transmissions

    def on_batch(results, *args, **kwargs):
        hooks_state["flows"] += len(results)
        hooks_state["tx"] += sum(r.transmissions for r in results)

    def on_plan_batch(result, graph, pairs, *args, **kwargs):
        hooks_state["pairs"] += len(pairs)

    hooks = {
        "sim.single": on_single,
        "sim.batch": on_batch,
        "buildgraph.plan_batch": on_plan_batch,
    }
    tracer = LayerTracer()
    t0 = time.perf_counter()
    targets.install(tracer, hooks)
    import_s = time.perf_counter() - t0
    try:
        state = wl.setup(args.seed)
    finally:
        tracer.close()
    # One unmeasured round first, so that both passes start as warm
    # (the first round in a process meets the program's lazy state).
    wl.run(state, args.seed, args.seconds, Context(), rounds=1)
    untraced = wl.run(state, args.seed, args.seconds, Context(), first_round=1)
    replayed = 1 + untraced.rounds if getattr(wl, "FRESH_ROUNDS", False) else 1
    # Registry counters from here on cover the traced pass alone.
    REGISTRY.reset()
    targets.install(tracer, hooks)
    try:
        traced = wl.run(
            state,
            args.seed,
            args.seconds,
            Context(tracer),
            rounds=untraced.rounds,
            first_round=replayed,
        )
    finally:
        tracer.close()
    self_s, counts = self_times(tracer.intervals, rename=_scalar_loop)
    layers = {name: 0.0 for name in PER_LAYER}
    for metric, names in LAYER_TIMES.items():
        layers[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric, name in LAYER_COUNTS.items():
        layers[metric] = counts.get(name, 0)
    snapshot = REGISTRY.snapshot()["counters"]
    layers["world.import_s"] = import_s
    layers["buildgraph.plan_batch_pairs"] = hooks_state["pairs"]
    if hooks_state["flows"]:
        layers["sim.transmissions_per_flow"] = hooks_state["tx"] / hooks_state["flows"]
    # The program's own counters, for comparison with the counts above.
    layers["sim.program_columnar_flows"] = snapshot.get("sim.columnar.flows", 0)
    layers["sim.program_scalar_fallbacks"] = snapshot.get("sim.columnar.scalar_fallbacks", 0)
    layers["trials.world_cache_hits"] = snapshot.get("trial_runner.world_cache_hits", 0)
    layers["trials.world_cache_misses"] = snapshot.get("trial_runner.world_cache_misses", 0)
    unattributed = self_s.get(WINDOW, 0.0)
    layers["trace.window_s"] = traced.wall_s
    layers["trace.untraced_window_s"] = untraced.wall_s
    layers["trace.unattributed_s"] = unattributed
    layers["trace.attributed_share"] = (
        (traced.wall_s - unattributed) / traced.wall_s if traced.wall_s else 0.0
    )
    # At the reference speed, so that host drift between the passes
    # does not read as tracing cost.
    layers["trace.overhead_s"] = traced.scaled_s - untraced.scaled_s
    layers.update(traced.layers)
    unknown = set(layers) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    _print_named(traced)
    for name in PER_LAYER:
        print(f"{name} {layers[name]:.6g} {PER_LAYER_UNITS[name]}")
    _record(
        args.workload,
        args.seed,
        traced,
        getattr(wl, "LOOPBACK", False),
        {"traced": True, "untraced_attempted": untraced.attempted},
    )
    return _result_line(
        traced, {k: (layers[k], PER_LAYER_UNITS[k]) for k in PER_LAYER}
    )


def _result_line(result, metrics: dict) -> int:
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    t_args = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_probe:
        print(json.dumps({"setup_s": _timed_setup(wl, args.seed, t_args)[1]}))
        return 0
    try:
        if args.trace:
            return _traced(wl, args)
        return _untraced(wl, args, t_args)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
