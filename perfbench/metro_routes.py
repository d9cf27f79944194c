"""``metro-routes``: cold routes on the ``metro-100k`` preset.

The city (100,489 buildings on a 317x317 grid of lots, seed 0) and its
84-region hierarchy are fixed.  One round plans ``UNIFORM_PAIRS``
pairs, then ``FAR_PAIRS`` opposite-edge pairs (a source on the first
row of the grid, a destination on the last), which cross the most
regions.

A route's cost depends mostly on how far apart its ends are, so the
separations are fixed: the uniform pairs take the row and column
offsets of pairs drawn uniformly once (``SHAPE_SEED``), and the far
pairs the column offsets spread evenly over the grid's width.  The
run's seed places every pair: it draws where each one lies on the
grid, fresh in every round, so no route is served from the route
cache while the region caches (terminal trees, leg expansions) fill as
a long-running router's would.  Without the fixed separations, the
median of a hundred uniformly drawn routes moves by a tenth from seed
to seed.

Set-up is the whole path from a fresh process to a router ready to
plan: import, city generation, building graph, region partition and
every overlay.  ``peak_rss_mb`` is this process's high-water mark
once every route of the run is planned, read before the scipy
reference graph of the output check is built.
"""

from __future__ import annotations

import hashlib
import math
import random
import time

from harness import RunResult, Speed, check, median, percentile, round_count, vm_hwm_mb

#: A replayed pair would be served from the route cache, so the traced
#: pass plans rounds of its own (see ``run.py``).
FRESH_ROUNDS = True

#: Two fresh-process set-ups per run, not three: one lasts about 11 s,
#: longer than the measured rounds, and with three a run took about
#: 60 s, more than half of it set-up.  ``setup_s`` is their mean.
SETUP_SAMPLES = 2

PRESET = "metro-100k"
UNIFORM_PAIRS = 30
FAR_PAIRS = 12
#: One round's planning time at the reference speed (see ``round_count``).
ROUND_S = 4.0
#: Draws the uniform pairs' separations once, for every seed.
SHAPE_SEED = 0
#: Routes per round whose cost is compared with scipy's Dijkstra.
COST_SAMPLE_UNIFORM = 3
COST_SAMPLE_FAR = 1


def setup(seed: int) -> dict:
    import repro.city
    from repro.buildgraph import BuildingGraph, attach_hierarchy

    city = repro.city.make_city(PRESET, seed=0)
    graph = BuildingGraph(city)
    router = attach_hierarchy(graph, seed=0)
    router.build_overlays()
    return {"graph": graph, "router": router}


def _rng(seed: int, round_index: int) -> random.Random:
    digest = hashlib.blake2b(f"metro:{seed}:{round_index}".encode(), digest_size=8)
    return random.Random(int.from_bytes(digest.digest(), "big"))


def _pairs(graph, rng: random.Random) -> tuple[list, list]:
    # Building ids run row by row over a square grid of lots.
    ids = sorted(graph)
    side = math.isqrt(len(ids))
    check(side * side == len(ids), "the metro city is not a square grid")

    def at(row: int, col: int) -> int:
        return ids[row * side + col]

    shape = random.Random(SHAPE_SEED)
    uniform = []
    for _ in range(UNIFORM_PAIRS):
        dr = shape.randrange(side) - shape.randrange(side)
        dc = shape.randrange(side) - shape.randrange(side)
        row = rng.randrange(max(0, -dr), side - max(0, dr))
        col = rng.randrange(max(0, -dc), side - max(0, dc))
        uniform.append((at(row, col), at(row + dr, col + dc)))
    far = []
    for k in range(FAR_PAIRS):
        dc = (k * (side - 1)) // max(1, FAR_PAIRS - 1) - (side - 1) // 2
        col = rng.randrange(max(0, -dc), side - max(0, dc))
        far.append((at(0, col), at(side - 1, col + dc)))
    return uniform, far


def _plan_set(router, pairs, speed: Speed, ctx) -> tuple[list[float], list[float], list, dict]:
    """Plan ``pairs`` cold; raw and reference-speed latencies, routes, stats."""
    from repro.buildgraph import NoRouteError

    router.reset_stats()
    raw: list[float] = []
    routes: list = []
    for src, dst in pairs:
        speed.sample()
        with ctx.window():
            t0 = time.perf_counter()
            try:
                route = router.plan(src, dst)
            except NoRouteError:
                route = None
            raw.append(time.perf_counter() - t0)
        routes.append(route)
    speed.sample()
    samples = speed.samples[-(len(pairs) + 1):]
    scaled = [speed.scale(w, samples[i], samples[i + 1]) for i, w in enumerate(raw)]
    return raw, scaled, routes, router.stats()


class _Reference:
    """Building-graph distances computed with scipy, apart from the router."""

    def __init__(self, graph) -> None:
        import numpy as np
        from scipy.sparse import csr_matrix

        self.ids = sorted(graph)
        self.index = {b: i for i, b in enumerate(self.ids)}
        rows, cols, weights = [], [], []
        for b in self.ids:
            i = self.index[b]
            for nb, w in graph.neighbors(b).items():
                rows.append(i)
                cols.append(self.index[nb])
                weights.append(w)
        n = len(self.ids)
        self.matrix = csr_matrix(
            (np.asarray(weights, dtype=np.float64), (rows, cols)), shape=(n, n)
        )

    def distance(self, src: int, dst: int) -> float:
        from scipy.sparse.csgraph import dijkstra

        dist = dijkstra(self.matrix, directed=True, indices=self.index[src])
        return float(dist[self.index[dst]])


def _check_routes(graph, reference: _Reference, pairs, routes, sample: int, rng) -> None:
    for (src, dst), route in zip(pairs, routes):
        if route is None:
            check(
                math.isinf(reference.distance(src, dst)),
                f"no route {src}->{dst} on a connected pair",
            )
            continue
        check(route[0] == src and route[-1] == dst, f"route {src}->{dst} has wrong ends")
        for a, b in zip(route, route[1:]):
            check(b in graph.neighbors(a), f"route {src}->{dst} uses a missing edge {a}-{b}")
    for i in rng.sample(range(len(pairs)), sample):
        route = routes[i]
        if route is None:
            continue
        cost = sum(graph.neighbors(a)[b] for a, b in zip(route, route[1:]))
        want = reference.distance(*pairs[i])
        check(
            math.isclose(cost, want, rel_tol=1e-9, abs_tol=1e-9),
            f"route {pairs[i]} costs {cost}, scipy says {want}",
        )


def _per_route(stats: dict, routes: int, prefix: str) -> dict:
    def ratio(family: str) -> float:
        hits = stats[f"{family}_hits"]
        total = hits + stats[f"{family}_misses"]
        return hits / total if total else 0.0

    return {
        f"{prefix}.overlay_settled_per_route": stats["overlay_settled"] / routes,
        f"{prefix}.nodes_expanded_per_route": stats["nodes_expanded"] / routes,
        f"{prefix}.terminal_sssp_runs": stats["terminal_sssp_runs"],
        f"{prefix}.terminal_cache_hit_ratio": ratio("terminal_cache"),
        f"{prefix}.expansion_cache_hit_ratio": ratio("expansion_cache"),
    }


def run(state: dict, seed: int, seconds: float, ctx, rounds=None, first_round=0) -> RunResult:
    """Rounds of fresh uniform and far pairs, as many as ``seconds`` holds.

    Route times are reported at the reference host speed (see
    :class:`harness.Speed`).
    """
    graph = state["graph"]
    router = state["router"]
    speed = Speed()
    uniform_lat: list[float] = []
    far_lat: list[float] = []
    raw_uniform: list[float] = []
    raw_far: list[float] = []
    sums = {"uniform": {}, "far": {}}
    planned = []
    wall = 0.0

    if rounds is None:
        rounds = round_count(seconds, ROUND_S)
    while len(planned) < rounds:
        rng = _rng(seed, first_round + len(planned))
        uniform, far = _pairs(graph, rng)
        raw_u, lat_u, routes_u, stats_u = _plan_set(router, uniform, speed, ctx)
        raw_f, lat_f, routes_f, stats_f = _plan_set(router, far, speed, ctx)
        wall += sum(raw_u) + sum(raw_f)
        uniform_lat += lat_u
        far_lat += lat_f
        raw_uniform += raw_u
        raw_far += raw_f
        for key, stats in (("uniform", stats_u), ("far", stats_f)):
            for name, value in stats.items():
                sums[key][name] = sums[key].get(name, 0) + value
        planned.append((rng, uniform, routes_u, far, routes_f))
    done = len(planned)
    with ctx.paused():
        # The program's peak, before the scipy reference is built.
        peak_mb = vm_hwm_mb()
        reference = state.get("reference") or _Reference(graph)
        state["reference"] = reference
        for rng, uniform, routes_u, far, routes_f in planned:
            _check_routes(graph, reference, uniform, routes_u, COST_SAMPLE_UNIFORM, rng)
            _check_routes(graph, reference, far, routes_f, COST_SAMPLE_FAR, rng)
    routes_per_s = len(uniform_lat) / sum(uniform_lat)
    p50 = median(uniform_lat) * 1e3
    p95 = percentile(uniform_lat, 95) * 1e3
    far_p50 = median(far_lat) * 1e3
    layers = {
        **_per_route(sums["uniform"], len(uniform_lat), "hierarchy"),
        **_per_route(sums["far"], len(far_lat), "hierarchy.far"),
    }
    return RunResult(
        attempted=len(uniform_lat) + len(far_lat),
        failed=0,
        e2e={
            "peak_rss_mb": peak_mb,
            "ops_per_s": routes_per_s,
            "op_p50_ms": p50,
            "op_tail_ms": p95,
            "side_p50_ms": far_p50,
        },
        named={
            "peak_rss_mb": (peak_mb, "MB"),
            "routes_per_s": (routes_per_s, "routes/s"),
            "route_p50_ms": (p50, "ms"),
            "route_p95_ms": (p95, "ms"),
            "far_route_p50_ms": (far_p50, "ms"),
        },
        layers=layers if ctx.traced else {},
        facts={
            "buildings": len(graph),
            "regions": len(router.partition),
            "uniform_routes": len(uniform_lat),
            "far_routes": len(far_lat),
            "wall_route_p50_ms": median(raw_uniform) * 1e3,
            "wall_far_route_p50_ms": median(raw_far) * 1e3,
            "speed_sample_p50_s": median(speed.samples),
        },
        wall_s=wall,
        scaled_s=sum(uniform_lat) + sum(far_lat),
        rounds=done,
    )
