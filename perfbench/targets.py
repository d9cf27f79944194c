"""Which of the program's functions the traced run wraps, by layer.

Each entry names the module or class attribute to wrap and the
interval name its calls are recorded under.  A function imported by
name into another module is wrapped at that import site, since that
is the binding its callers look up.  Wrapping a function no workload
reaches costs nothing and reports zero.
"""

from __future__ import annotations

import importlib

from layers import LayerTracer

#: (module, attribute or Class.method, interval name)
TARGETS: list[tuple[str, str, str]] = [
    # world: city generation and world construction
    ("repro.city", "make_city", "world.city_gen"),
    ("repro.city", "grid_downtown", "world.city_gen"),
    ("repro.experiments.common", "make_city", "world.city_gen"),
    ("repro.service.loadgen", "make_city", "world.city_gen"),
    ("repro.experiments.common", "build_world_from_city", "world.build"),
    # buildgraph: the flat planner
    ("repro.buildgraph.graph", "BuildingGraph.__init__", "buildgraph.graph_build"),
    ("repro.buildgraph.graph", "BuildingGraph.plan_routes", "buildgraph.plan_batch"),
    ("repro.buildgraph.graph", "BuildingGraph.plan", "buildgraph.plan"),
    ("repro.buildgraph.graph", "BuildingGraph.patch", "buildgraph.patch"),
    # buildgraph.hierarchy: the metro router
    ("repro.buildgraph.hierarchy.router", "partition_regions", "hierarchy.partition"),
    ("repro.buildgraph.hierarchy.router", "build_overlay", "hierarchy.overlay_build"),
    ("repro.buildgraph.hierarchy.router", "MetroRouter._reindex", "hierarchy.reindex"),
    ("repro.buildgraph.hierarchy.router", "MetroRouter.plan", "hierarchy.plan"),
    ("repro.buildgraph.hierarchy.router", "MetroRouter._terminal", "hierarchy.terminal"),
    ("repro.buildgraph.hierarchy.router", "MetroRouter._search", "hierarchy.search"),
    ("repro.buildgraph.hierarchy.router", "MetroRouter._expand_leg", "hierarchy.expand"),
    # mesh
    ("repro.scenario.driver", "find_islands", "mesh.find_islands"),
    ("repro.mesh.graph", "APGraph.with_added_aps", "mesh.extended_graph"),
    ("repro.mesh.graph", "APGraph.buildings_reachable", "mesh.reachability"),
    # sim: single flows, epoch batches, and the kernels under both
    ("repro.experiments.common", "simulate_broadcast", "sim.single"),
    ("repro.baselines.citymesh_runner", "simulate_broadcast", "sim.single"),
    ("repro.scenario.driver", "simulate_broadcast", "sim.single"),
    ("repro.sim.fastpath", "simulate_broadcast_fast", "sim.fastpath"),
    ("repro.scenario.driver", "simulate_broadcast_batch", "sim.batch"),
    ("repro.sim.columnar", "frozen_epoch", "sim.frozen_epoch"),
    ("repro.sim.fastpath", "frozen_epoch", "sim.frozen_epoch"),
    ("repro.sim.columnar", "policy_verdict_array", "sim.verdict"),
    ("repro.sim.fastpath", "policy_verdict_array", "sim.verdict"),
    ("repro.sim.columnar", "run_columnar", "sim.kernel"),
    ("repro.sim.fastpath", "run_columnar", "sim.kernel"),
    # baselines, as the comparison experiment calls them
    ("repro.experiments.baselines_exp", "run_citymesh", "baselines.citymesh"),
    ("repro.experiments.baselines_exp", "run_flood", "baselines.flood"),
    ("repro.experiments.baselines_exp", "run_gossip", "baselines.gossip"),
    ("repro.experiments.baselines_exp", "greedy_geographic", "baselines.greedy"),
    ("repro.experiments.baselines_exp", "gpsr", "baselines.gpsr"),
    ("repro.experiments.baselines_exp", "aodv", "baselines.aodv"),
    ("repro.experiments.baselines_exp", "oracle_unicast", "baselines.oracle"),
    ("repro.experiments.baselines_exp", "gabriel_graph", "baselines.gabriel"),
    # experiments
    ("repro.experiments.parallel", "TrialRunner.run_deliveries", "trials.delivery"),
    ("repro.experiments.fig6", "sample_building_pairs", "experiments.sample_pairs"),
    ("repro.experiments.baselines_exp", "sample_building_pairs", "experiments.sample_pairs"),
    # service, in the benchmark's own process
    ("repro.service.loadgen", "generate_trace", "service.trace_gen"),
]

#: Modules whose ``span(...)`` regions are recorded as intervals.
SPAN_MODULES = ["repro.scenario.driver"]


def install(tracer: LayerTracer, hooks: dict | None = None) -> None:
    """Wrap every target; ``hooks`` maps interval names to ``on_call``."""
    hooks = hooks or {}
    # Import everything before patching anything: a module imported
    # after a patch would bind the wrapper under its own name.
    for module_name in [m for m, _, _ in TARGETS] + SPAN_MODULES:
        importlib.import_module(module_name)
    for module_name, attr, name in TARGETS:
        owner: object = importlib.import_module(module_name)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, on_call=hooks.get(name))
    for module_name in SPAN_MODULES:
        tracer.wrap_spans(importlib.import_module(module_name))
