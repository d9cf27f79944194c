"""``service-replay``: the river-flood request trace against ``repro serve``.

Each round starts a fresh ``repro serve --workers 1`` subprocess (the
postbox state a replay leaves behind would change the next replay's
confirm traffic) on the load generator's CPU, replays the whole trace
closed-loop over two TCP connections in consecutive slices, and drains
every recipient's postbox with one final check.  After each slice it
times urgent sends until they arrive on a ``/v1/stream`` push
connection, so the push samples are spread over the whole round, not
taken in one short window whose host speed decides them all.  At most
two connections are open at a time.  The seed picks the trace
(``generate_trace`` of the ``river-flood`` scenario, 2000 phones) and
the city the server hosts.

``setup_s`` is the median time from starting a server process to its
first healthy ``/v1/healthz`` answer; ``peak_rss_mb`` is the median of
the servers' own high-water marks.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import os
import resource
import signal
import subprocess
import sys
import time

from harness import (
    HERE,
    ROOT,
    SRC,
    RunResult,
    Speed,
    check,
    cpu_seconds,
    median,
    percentile,
    round_count,
    vm_hwm_mb,
)

#: ``setup_s`` comes from the server starts inside each run.
SETUP_IN_RUN = True
#: The traffic crosses the loopback interface.
LOOPBACK = True

PHONES = 2000
CONNECTIONS = 2
#: Timed pushes after each trace slice.
PUSH_SAMPLES = 32
#: One round's replay time at the reference speed (see ``round_count``).
ROUND_S = 4.0
#: Consecutive trace slices per replay (see ``_parts``).
PARTS = 8
SHARDS = 8
HOST = "127.0.0.1"
#: Endpoint name in ``service.latency.*`` -> per-layer metric suffix.
ENDPOINTS = {
    "postbox.check": "check",
    "postbox.send": "send",
    "postbox.pushes": "pushes",
    "postbox.confirm": "confirm",
    "geocast.poll": "geocast_poll",
    "geocast.publish": "geocast_publish",
    "directory.lookup": "lookup",
}


def setup(seed: int) -> dict:
    from repro.scenario import make_scenario
    from repro.service import loadgen

    spec = make_scenario("river-flood", seed=seed)
    # Looked up on the defining module, where the traced run wraps it.
    return {"spec": spec, "trace": loadgen.generate_trace(spec, phones=PHONES)}


class RecordingClient:
    """A :class:`ServiceClient` that keeps every exchange for the audit."""

    def __init__(self, inner, log: list):
        self.inner = inner
        self.log = log
        self.busy_s = 0.0

    @property
    def retries(self) -> int:
        return self.inner.retries

    async def request(self, method, path, payload=None, idempotent=False):
        t0 = time.perf_counter()
        status, body = await self.inner.request(
            method, path, payload, idempotent=idempotent
        )
        took = time.perf_counter() - t0
        self.busy_s += took
        self.log.append((path, payload, status, body, took))
        return status, body

    async def close(self) -> None:
        await self.inner.close()


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, city: str, seed: int, traced: bool):
        program = (
            [os.path.join(HERE, "traced_serve.py")] if traced else ["-m", "repro"]
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *program, "serve", "--port", "0", "--workers", "1",
             "--city", city, "--seed", str(seed), "--shards", str(SHARDS)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        # The server shares the load generator's CPU (see ``run``), so
        # runs do not differ by where the scheduler put the two.
        os.sched_setaffinity(self.proc.pid, os.sched_getaffinity(0))
        line = self.proc.stdout.readline()
        marker = f"http://{HOST}:"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])

    async def wait_healthy(self) -> float:
        from repro.service import ServiceClient

        for _ in range(400):
            client = ServiceClient(HOST, self.port)
            try:
                status, out = await client.request("GET", "/v1/healthz")
                if status == 200 and out.get("started"):
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                await client.close()
            await asyncio.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=20)
        self.proc.stdout.close()
        return code


async def _push_phase(port: int, tag: str, samples: int) -> tuple[list[float], list]:
    """Timed urgent send -> stream push -> confirm, ``samples`` times."""
    from repro.service import PushStreamClient, ServiceClient

    owner = f"perfbench-push-{tag}"
    client = ServiceClient(HOST, port)
    stream = PushStreamClient(HOST, port, owner=owner)
    latencies: list[float] = []
    log: list = []
    try:
        # A first check caches the owner's location, so urgent
        # deliveries are pushed.
        status, _ = await client.request(
            "POST", "/v1/postbox/check", {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 0.0}
        )
        check(status == 200, f"push owner check answered {status}")
        await stream.connect()
        for i in range(samples):
            payload = base64.b64encode(f"push-probe-{tag}-{i}".encode()).decode()
            t0 = time.perf_counter()
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": owner, "payload": payload, "urgent": True, "now_s": float(i + 1)},
            )
            check(status == 200, f"urgent send answered {status}")
            push = await stream.next_push(timeout_s=10.0)
            latencies.append(time.perf_counter() - t0)
            confirmed = await stream.confirm(push["msg_id"])
            log.append((out["msg_id"], payload, push, confirmed))
        status, out = await client.request(
            "POST",
            "/v1/postbox/check",
            {"owner": owner, "x": 0.0, "y": 0.0, "now_s": float(samples + 1)},
        )
        check(status == 200, f"push owner drain answered {status}")
        log.append(("drain", out["messages"]))
    finally:
        await stream.close()
        await client.close()
    return latencies, log


def _audit(trace, log: list, drain: list, push_logs: list[list]) -> dict:
    """Checks the replay's responses against what was sent."""
    bad = [(p, s) for p, _, s, _, _ in log + drain if s >= 500 or s == 429]
    check(not bad, f"error responses: {bad[:5]}")
    published = {}
    for request in trace.requests:
        if request.kind == "directory_publish":
            published[request.owner] = request.body["address"]
    names = {}
    sends: dict[tuple[str, int], str] = {}
    delivered: dict[tuple[str, int], list[str]] = {}
    refused_confirms = []
    for path, body, status, out, _ in log + drain:
        if path == "/v1/directory/publish":
            check(status == 200, f"directory publish answered {status}")
            names[out["name"]] = body["address"]
        elif path == "/v1/directory/lookup":
            check(status == 200, f"lookup answered {status}")
            check(out["address"] == names.get(body["name"]), "lookup resolved elsewhere")
        elif path == "/v1/postbox/send":
            check(status == 200, f"send answered {status}")
            key = (body["owner"], out["msg_id"])
            check(key not in sends, f"msg_id reused: {key}")
            sends[key] = body["payload"]
        elif path == "/v1/postbox/check":
            check(status == 200, f"check answered {status}")
            for message in out["messages"]:
                delivered.setdefault((body["owner"], message["msg_id"]), []).append(
                    message["payload"]
                )
        elif path == "/v1/postbox/confirm":
            # A push whose message a check already returned is refused
            # (409): the message was delivered once, by the check.
            check(status in (200, 409), f"confirm answered {status}")
            if status == 409:
                refused_confirms.append((body["owner"], body["msg_id"]))
        else:
            check(status == 200, f"{path} answered {status}")
    check(len(names) == len(published), "not every well-known name was published")
    pushed_payloads = {}
    for path, body, status, out, _ in log:
        if path == "/v1/postbox/pushes":
            for push in out["pushes"]:
                pushed_payloads[(body["owner"], push["msg_id"])] = push["payload"]
    for path, body, status, out, _ in log:
        if path == "/v1/postbox/confirm" and status == 200:
            key = (body["owner"], body["msg_id"])
            delivered.setdefault(key, []).append(pushed_payloads[key])
    for key in refused_confirms:
        check(key in delivered, f"refused confirm of an undelivered message {key}")
    for key, payload in sends.items():
        got = delivered.get(key, [])
        check(len(got) == 1, f"message {key} delivered {len(got)} times")
        check(got[0] == payload, f"message {key} payload changed")
    unknown = set(delivered) - set(sends)
    check(not unknown, f"checks returned messages never sent: {sorted(unknown)[:5]}")
    for push_log in push_logs:
        *pushes, drain_entry = push_log
        for msg_id, payload, push, confirmed in pushes:
            check(push["msg_id"] == msg_id, "push stream delivered another message")
            check(push["payload"] == payload, "pushed payload changed")
            check(confirmed is True, f"push {msg_id} was not confirmed")
        check(drain_entry[1] == [], "confirmed pushes were handed out again")
    return {"sends": len(sends), "refused_confirms": len(refused_confirms)}


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def _stats(port: int) -> dict:
    from repro.service import ServiceClient

    client = ServiceClient(HOST, port)
    try:
        status, out = await client.request("GET", "/v1/stats")
    finally:
        await client.close()
    check(status == 200, f"stats answered {status}")
    return out


def _parts(trace) -> list:
    """The trace cut into ``PARTS`` consecutive slices, replayed in turn.

    Slices keep trace order, so each owner's requests still replay in
    order; the host speed is sampled between them.
    """
    size = -(-len(trace.requests) // PARTS)
    return [
        dataclasses.replace(trace, requests=trace.requests[i : i + size])
        for i in range(0, len(trace.requests), size)
    ]


async def _round(state: dict, ctx, tag: str, speed: Speed) -> dict:
    from repro.service import ServiceClient, run_loadgen

    spec = state["spec"]
    speed.sample()
    server = Server(spec.world.city_name, spec.world.seed, traced=ctx.traced)
    try:
        setup_s = await server.wait_healthy()
        speed.sample()
        log: list = []
        clients: list[RecordingClient] = []

        def factory(index: int) -> RecordingClient:
            client = RecordingClient(ServiceClient(HOST, server.port), log)
            clients.append(client)
            return client

        server_cpu = client_cpu = 0.0
        reports = []
        latencies: list[float] = []
        walls: list[float] = []
        push: list[float] = []
        push_logs: list[list] = []
        push_wall = 0.0
        for k, part in enumerate(_parts(state["trace"])):
            speed.sample()
            first = len(log)
            cpu0 = cpu_seconds(server.proc.pid)
            usage0 = _cpu_self()
            with ctx.window():
                report = await run_loadgen(part, factory, connections=CONNECTIONS)
            client_cpu += _cpu_self() - usage0
            server_cpu += cpu_seconds(server.proc.pid) - cpu0
            speed.sample()
            reports.append(report)
            walls.append(report.wall_s)
            latencies += [
                lat for path, _, _, _, lat in log[first:] if path != "/v1/directory/publish"
            ]
            t0 = time.perf_counter()
            with ctx.window():
                lat, push_log = await _push_phase(server.port, f"{tag}-{k}", PUSH_SAMPLES)
            push_wall += time.perf_counter() - t0
            speed.sample()
            push += lat
            push_logs.append(push_log)
        stats = await _stats(server.port)
        # One last check per recipient drains what the replay left.
        drain: list = []
        drainer = RecordingClient(ServiceClient(HOST, server.port), drain)
        end_s = max(r.t_s for r in state["trace"].requests) + 1.0
        try:
            for owner in sorted({b["owner"] for p, b, _, _, _ in log if p == "/v1/postbox/send"}):
                await drainer.request(
                    "POST", "/v1/postbox/check", {"owner": owner, "x": 0.0, "y": 0.0, "now_s": end_s}
                )
        finally:
            await drainer.close()
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        code = server.stop()
    check(code == 0, f"server exited with code {code}")
    with ctx.paused():
        audit = _audit(state["trace"], log, drain, push_logs)
    return {
        "setup_s": setup_s,
        "rss": rss,
        "requests": sum(r.requests for r in reports),
        "confirms": sum(r.confirms for r in reports),
        "retries": sum(r.retries for r in reports),
        "latencies": latencies,
        "replay_s": sum(walls),
        "push": push,
        "stats": stats,
        "server_cpu": server_cpu,
        "client_cpu": client_cpu,
        "client_busy": sum(c.busy_s for c in clients),
        "audit": audit,
        "window_s": sum(walls) + push_wall,
    }


async def _inprocess_rate(trace) -> float:
    from repro.service import InProcessClient, build_app, run_loadgen

    app = build_app(city_name=trace.city, seed=trace.seed, n_shards=SHARDS)
    await app.start()
    try:
        report = await run_loadgen(
            trace, lambda index: InProcessClient(app), connections=CONNECTIONS
        )
    finally:
        await app.close()
    check(report.errors == 0, "in-process replay answered 5xx")
    return report.req_per_s


def _layers(rounds: list[dict], inprocess_rate: float) -> dict:
    requests = sum(r["requests"] for r in rounds)
    wall = sum(r["replay_s"] for r in rounds)
    layers: dict[str, float] = {}
    dispatch_total = 0.0
    dispatch_count = 0
    for endpoint, suffix in ENDPOINTS.items():
        count = total = 0.0
        for r in rounds:
            timer = r["stats"]["metrics"]["timers"].get(f"service.latency.{endpoint}")
            if timer:
                count += timer["count"]
                total += timer["total_s"]
        layers[f"service.dispatch_us.{suffix}"] = total / count * 1e6 if count else 0.0
        dispatch_total += total
        dispatch_count += count
    client_mean = sum(r["client_busy"] for r in rounds) / requests
    layers["service.transport_us"] = (
        client_mean - dispatch_total / dispatch_count
    ) * 1e6 if dispatch_count else 0.0
    layers["service.inprocess_req_per_s"] = inprocess_rate
    layers["service.server_cpu_us_per_req"] = sum(r["server_cpu"] for r in rounds) / requests * 1e6
    layers["service.client_cpu_us_per_req"] = sum(r["client_cpu"] for r in rounds) / requests * 1e6
    layers["service.server_busy_ratio"] = sum(r["server_cpu"] for r in rounds) / wall
    counters = [r["stats"]["metrics"]["counters"] for r in rounds]
    gauges = [r["stats"]["metrics"]["gauges"] for r in rounds]
    layers["service.shard_queue_depth_max"] = max(
        g.get("perfbench.shard_queue_depth_max", 0.0) for g in gauges
    )
    layers["service.shard_ops"] = sum(sum(r["stats"]["store"]["shard_ops"]) for r in rounds)
    layers["service.geoboard_scan"] = sum(c.get("geoboard.scan", 0) for c in counters)
    layers["service.geoboard_expired"] = sum(c.get("geoboard.expired", 0) for c in counters)
    layers["service.retries"] = sum(r["retries"] for r in rounds)
    layers["service.confirms"] = sum(r["confirms"] for r in rounds)
    # The server's handlers run one at a time, so their summed time is
    # the part of the measured windows the server-side layers account
    # for; the rest is transport, parsing and the load generator.
    windows = sum(r["window_s"] for r in rounds)
    layers["trace.unattributed_s"] = windows - dispatch_total
    layers["trace.attributed_share"] = dispatch_total / windows
    return layers


def run(state: dict, seed: int, seconds: float, ctx, rounds=None, first_round=0) -> RunResult:
    """Fresh-server rounds, as many as ``seconds`` holds (or ``rounds``).

    Server and load generator share one CPU, so the host-speed samples
    taken between trace slices describe both.  Times are reported at
    the reference speed, scaled by the run's median sample (see
    :meth:`harness.Speed.run_scale`): a slice lasts about 0.7 s, and
    scaling each by the 10 ms samples around it added their noise (over
    ten runs, req/s spread 0.13 so scaled against 0.09 with one factor
    per run).
    """
    speed = Speed()
    done: list[dict] = []
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})

    if rounds is None:
        rounds = round_count(seconds, ROUND_S, minimum=2)
    try:
        while len(done) < rounds:
            tag = f"{first_round + len(done)}"
            done.append(asyncio.run(_round(state, ctx, tag, speed)))
    finally:
        os.sched_setaffinity(0, cpus)
    scale = speed.run_scale()
    requests = sum(r["requests"] for r in done)
    replay_s = sum(r["replay_s"] for r in done)
    req_per_s = requests / (replay_s * scale)
    latencies = [lat for r in done for lat in r["latencies"]]
    p50 = percentile(latencies, 50) * scale * 1e3
    # p95, not p99: over ten runs p99 spread 0.14 to 0.22 of its median,
    # p95 0.08.  p99 stays among the named figures.
    p95 = percentile(latencies, 95) * scale * 1e3
    p99 = percentile(latencies, 99) * scale * 1e3
    push_s = [t for r in done for t in r["push"]]
    push = median(push_s) * scale * 1e3
    setup_s = median([r["setup_s"] for r in done]) * scale
    rss = median([r["rss"] for r in done])
    layers = {}
    if ctx.traced:
        with ctx.paused():
            layers = _layers(done, asyncio.run(_inprocess_rate(state["trace"])))
    # Every replayed request, confirm and push probe is one operation.
    attempted = requests + sum(len(r["push"]) for r in done)
    return RunResult(
        attempted=attempted,
        failed=0,
        e2e={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "ops_per_s": req_per_s,
            "op_p50_ms": p50,
            "op_tail_ms": p95,
            "side_p50_ms": push,
        },
        named={
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "req_per_s": (req_per_s, "req/s"),
            "req_p50_ms": (p50, "ms"),
            "req_p95_ms": (p95, "ms"),
            "req_p99_ms": (p99, "ms"),
            "push_p50_ms": (push, "ms"),
        },
        layers=layers,
        facts={
            "trace_requests": len(state["trace"].requests),
            "connections": CONNECTIONS,
            "push_samples": sum(len(r["push"]) for r in done),
            "replay_walls_s": [r["replay_s"] for r in done],
            "wall_req_per_s": requests / replay_s,
            "confirms": sum(r["confirms"] for r in done),
            "refused_confirms": sum(r["audit"]["refused_confirms"] for r in done),
            "speed_sample_p50_s": median(speed.samples),
        },
        wall_s=sum(r["window_s"] for r in done),
        scaled_s=(replay_s + sum(push_s)) * scale,
        rounds=len(done),
    )
