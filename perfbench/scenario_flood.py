"""``scenario-flood``: the flood-and-bridge timeline on a 6,798-AP downtown.

The city and its mesh are fixed (a 16x16-block grid downtown, seed 0,
the world of ``benchmarks/bench_scenario.py``); the run's seed and the
round's index label the scenario's random streams, so they draw the
power profiles, the static flows and the mobile walkers.  Damage
drowns the two middle block rows at epoch 1 and operators bridge the
islands at epoch 2.  No grid outage and no congestion coupling: an
outage leaves almost nothing alive to simulate, and the coupling is a
different engine.

One round builds a fresh world (the driver patches the building graph
in place, so a world serves one timeline) and runs the timeline; every
epoch is timed on its own.  Every round draws its own flows: an
epoch's time depends mostly on which 64 flows it carries, and with one
flow set per run the median epoch time moved by up to a sixth between
seeds, against a twentieth between repeats of one seed.

``peak_rss_mb`` is this process's high-water mark after the first
timeline, read before its output check allocates anything.  The
captured island passes keep their alive sets as int32 arrays, a tenth
of a Python set's size, so the capture adds little to that peak.
"""

from __future__ import annotations

import contextlib
import random

from harness import RunResult, Speed, check, median, percentile, round_count, vm_hwm_mb

BLOCKS = 16
EPOCHS = 24
FLOWS = 48
MOBILE_FLOWS = 16
#: One timeline's time at the reference speed (see ``round_count``).
ROUND_S = 4.0
#: Flows per epoch re-run on the reference DES in the first round.
REFERENCE_SAMPLE = 1


def _flood_polygon():
    from repro.geometry import Point, Polygon

    # The two middle block rows (y in [728, 922] plus margins): the
    # halves left dry are > 200 m apart, far beyond the 50 m range.
    return Polygon(
        (Point(-50.0, 715.0), Point(1750.0, 715.0),
         Point(1750.0, 935.0), Point(-50.0, 935.0))
    )


def _spec(seed: int, round_index: int):
    from repro.experiments import WorldSpec
    from repro.scenario import Damage, DeployBridges, ScenarioSpec

    return ScenarioSpec(
        # The name is part of every seed stream's label.
        name=f"perfbench-flood:{round_index}",
        # Labels the seed streams only: the driver runs the injected
        # world (which has no spec of its own, so the runner is serial).
        world=WorldSpec("gridport", seed=seed),
        epochs=EPOCHS,
        epoch_hours=4.0,
        events=(
            Damage(epoch=1, area=_flood_polygon()),
            DeployBridges(epoch=2, min_island_size=5),
        ),
        flows=FLOWS,
        mobile_flows=MOBILE_FLOWS,
    )


def build(seed: int, round_index: int = 0):
    """City, mesh, router and driver: everything a round needs."""
    import repro.city
    from repro.experiments import common
    from repro.scenario import ScenarioDriver

    # Looked up on the defining modules, where the traced run wraps them.
    city = repro.city.grid_downtown(seed=0, blocks_x=BLOCKS, blocks_y=BLOCKS)
    world = common.build_world_from_city(city, seed=0)
    return ScenarioDriver(_spec(seed, round_index), world=world)


def setup(seed: int) -> dict:
    return {"driver": build(seed)}


class _Capture:
    """Hooks into the driver's epochs, from outside the program.

    Wraps three names the driver module looks up at call time: the
    island pass and the epoch batch, so the checks see the exact alive
    sets and trials the driver used, and ``span``, so that every epoch
    is preceded by a host-speed sample and is one measured window.
    """

    def __init__(self, speed, ctx) -> None:
        self.speed = speed
        self.ctx = ctx
        self.islands: list[tuple[object, object, int, list[int]]] = []
        self.batches: list[tuple[object, list]] = []
        self._restore: list[tuple[str, object]] = []

    def install(self) -> None:
        import numpy as np
        from repro.scenario import driver as mod

        find_islands = mod.find_islands
        epoch_batch = mod.scenario_epoch_batch
        span = mod.span

        def capture_islands(graph, min_size=2, alive=None):
            out = find_islands(graph, min_size=min_size, alive=alive)
            self.islands.append(
                (
                    graph,
                    np.fromiter(alive, dtype=np.int32, count=len(alive)),
                    min_size,
                    sorted(i.size for i in out),
                )
            )
            return out

        def capture_batch(world, batch):
            out = epoch_batch(world, batch)
            self.batches.append((batch, list(out)))
            return out

        @contextlib.contextmanager
        def epoch_span(name, **attrs):
            if name != "scenario.epoch":
                with span(name, **attrs):
                    yield
                return
            self.speed.sample()
            with self.ctx.window(), span(name, **attrs):
                yield

        self._restore = [
            ("find_islands", find_islands),
            ("scenario_epoch_batch", epoch_batch),
            ("span", span),
        ]
        mod.find_islands = capture_islands
        mod.scenario_epoch_batch = capture_batch
        mod.span = epoch_span

    def close(self) -> None:
        from repro.scenario import driver as mod

        for name, original in self._restore:
            setattr(mod, name, original)
        self._restore = []


def _components(graph, alive):
    """Component label per AP over the alive subgraph (-1 = dead).

    ``alive`` is an array of AP ids.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    indptr, indices = graph.csr()
    n = len(graph.aps)
    mask = np.zeros(n, dtype=bool)
    mask[alive] = True
    rows = np.repeat(np.arange(n), np.diff(indptr))
    keep = mask[rows] & mask[indices]
    adj = csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int8), (rows[keep], indices[keep])),
        shape=(n, n),
    )
    _, labels = connected_components(adj, directed=False)
    labels = labels.astype(np.int64)
    labels[~mask] = -1
    return labels


def _check_round(driver, result, capture: _Capture, reference: bool) -> None:
    import numpy as np
    from repro.core import conduits_for_waypoints
    from repro.scenario import extended_graph
    from repro.sim import ConduitPolicy, simulate_broadcast

    spec = driver.spec
    world = driver.world
    check(len(result.epochs) == spec.epochs, "epoch count")
    check(result.max_islands > 1, "the flood never split the mesh")
    check(result.total_deployed_aps > 0, "no bridge APs were deployed")
    # Every island pass (the bridge planner's too) against scipy; the
    # per-epoch passes (min_size 1) also against the epoch reports.
    epoch_passes = []
    for graph, alive, min_size, sizes in capture.islands:
        labels = _components(graph, alive)
        ref_sizes = sorted(np.bincount(labels[labels >= 0]).tolist())
        check(
            sizes == [s for s in ref_sizes if s >= min_size],
            "island sizes differ from connected components",
        )
        if min_size == 1:
            epoch_passes.append((alive, ref_sizes))
    check(len(epoch_passes) == spec.epochs, "one island pass per epoch")
    for report, (alive, ref_sizes) in zip(result.epochs, epoch_passes):
        check(report.alive_aps == len(alive), f"epoch {report.epoch}: alive count")
        counted = sum(1 for s in ref_sizes if s >= spec.min_island_size)
        check(report.islands == counted, f"epoch {report.epoch}: island count")
        check(
            report.largest_island == (ref_sizes[-1] if ref_sizes else 0),
            f"epoch {report.epoch}: largest island",
        )
    check(len(capture.batches) == spec.epochs, "one simulated batch per epoch")
    for report, (batch, outcomes) in zip(result.epochs, capture.batches):
        check(
            report.delivered_flows == sum(1 for ok, _ in outcomes if ok),
            f"epoch {report.epoch}: delivered count",
        )
        if not batch.trials:
            continue
        first = batch.trials[0]
        graph = extended_graph(world, first.deployed)
        alive = np.ones(len(graph.aps), dtype=bool)
        alive[list(first.dead_aps)] = False
        labels = _components(graph, np.flatnonzero(alive))
        for trial, (ok, _tx) in zip(batch.trials, outcomes):
            if not ok:
                continue
            dst = {labels[a] for a in graph.aps_in_building(trial.dst_building)}
            check(
                labels[trial.source_ap] in dst,
                f"epoch {report.epoch}: delivered across components",
            )
        if not reference:
            continue
        pick = random.Random(report.epoch).sample(
            range(len(batch.trials)), min(REFERENCE_SAMPLE, len(batch.trials))
        )
        for i in pick:
            trial = batch.trials[i]
            centroids = [world.city.building(b).centroid() for b in trial.waypoint_ids]
            policy = ConduitPolicy(
                conduits_for_waypoints(centroids, trial.conduit_width), world.city
            )
            ref = simulate_broadcast(
                graph,
                trial.source_ap,
                trial.dst_building,
                policy,
                random.Random(trial.seed),
                dead_aps=trial.dead_aps,
                fast=False,
            )
            check(
                (ref.delivered, ref.transmissions) == tuple(outcomes[i]),
                f"epoch {report.epoch}: reference DES disagrees",
            )


def run(state: dict, seed: int, seconds: float, ctx, rounds=None, first_round=0):
    """Whole timelines, as many as ``seconds`` holds (or ``rounds``).

    Every round runs the timeline on a fresh world, with the flows of
    round ``first_round + i``; the set-up built round 0's.  Epoch
    times are reported at the reference host speed (see
    :class:`harness.Speed`); the raw figures are in the record's facts.
    """
    speed = Speed()
    epoch_walls: list[float] = []
    raw_walls: list[float] = []
    timelines: list[float] = []
    hits = misses = 0
    done = 0
    capture = _Capture(speed, ctx)
    if rounds is None:
        rounds = round_count(seconds, ROUND_S)
    while done < rounds:
        index = first_round + done
        driver = state.pop("driver") if index == 0 else build(seed, index)
        capture.install()
        try:
            result = driver.run()
            speed.sample()
        finally:
            capture.close()
            driver.close()
        samples = speed.samples[-(EPOCHS + 1):]
        for i, (report, wall) in enumerate(zip(result.epochs, driver.epoch_wall_s)):
            scaled = speed.scale(wall, samples[i], samples[i + 1])
            raw_walls.append(wall)
            epoch_walls.append(scaled)
            hits += report.route_cache_hits
            misses += report.route_cache_misses
        timelines.append(sum(epoch_walls[-EPOCHS:]))
        with ctx.paused():
            if done == 0:
                # The program's peak, before any check allocates.
                peak_mb = vm_hwm_mb()
            _check_round(driver, result, capture, reference=done == 0)
        # Let the round's world go before the next one is built.
        capture.islands.clear()
        capture.batches.clear()
        del driver, result
        done += 1
    epochs = done * EPOCHS
    epochs_per_s = epochs / sum(epoch_walls)
    p50_ms = median(epoch_walls) * 1e3
    # The highest percentile with ten epochs beyond it in three rounds.
    tail_ms = percentile(epoch_walls, 85) * 1e3
    timeline_ms = median(timelines) * 1e3
    return RunResult(
        attempted=epochs,
        failed=0,
        e2e={
            "peak_rss_mb": peak_mb,
            "ops_per_s": epochs_per_s,
            "op_p50_ms": p50_ms,
            "op_tail_ms": tail_ms,
            "side_p50_ms": timeline_ms,
        },
        named={
            "peak_rss_mb": (peak_mb, "MB"),
            "epochs_per_s": (epochs_per_s, "epochs/s"),
            "epoch_p50_ms": (p50_ms, "ms"),
            "epoch_p85_ms": (tail_ms, "ms"),
            "timeline_p50_ms": (timeline_ms, "ms"),
        },
        layers={
            "buildgraph.route_cache_hit_ratio": hits / (hits + misses)
            if hits + misses
            else 0.0,
        },
        facts={
            "epochs_per_round": EPOCHS,
            "flows_per_epoch": FLOWS + MOBILE_FLOWS,
            "epoch_samples": len(epoch_walls),
            "wall_epochs_per_s": epochs / sum(raw_walls),
            "wall_epoch_p50_ms": median(raw_walls) * 1e3,
            "speed_sample_p50_s": median(speed.samples),
        },
        wall_s=sum(raw_walls),
        scaled_s=sum(epoch_walls),
        rounds=done,
    )
