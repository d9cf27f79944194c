"""Shared pieces of the benchmark: results, statistics, host facts."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metric units, by name (the order they are printed in).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "side_p50_ms": "ms",
}


class CheckFailed(Exception):
    """A workload's output disagreed with an independent computation."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    #: End-to-end metrics under the generic names of ``E2E_UNITS``.
    e2e: dict[str, float]
    #: The same figures under the workload's own names, with units.
    named: dict[str, tuple[float, str]]
    #: Per-layer metrics (``--trace 1`` only).
    layers: dict[str, float] = field(default_factory=dict)
    #: Free-form facts for the provenance record (sizes, counts).
    facts: dict[str, object] = field(default_factory=dict)
    #: Seconds inside measured windows, raw and at the reference speed,
    #: and the rounds they held.
    wall_s: float = 0.0
    scaled_s: float = 0.0
    rounds: int = 0


class Context:
    """What a workload run asks of the harness.

    ``window()`` marks a measured region and ``paused()`` an output
    check; both do nothing unless a tracer is attached.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def window(self):
        return self.tracer.window() if self.tracer else contextlib.nullcontext()

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


class Speed:
    """The host's speed, sampled between units of measured work.

    On a shared host the CPU's speed drifts by a quarter within seconds
    (a fixed loop's time moves between 0.17 s and 0.28 s over a
    minute).  A workload samples :meth:`sample` before every unit of
    work and once after the last; :meth:`scale` turns a unit's wall
    time into the time it would have taken at the reference speed,
    the speed at which the fixed loop takes ``REFERENCE_S``.
    """

    ITERATIONS = 150_000
    REFERENCE_S = 0.010

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(self.ITERATIONS):
            x += i * i
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def scale(self, wall_s: float, before_s: float, after_s: float) -> float:
        """``wall_s`` at the reference speed, given the samples around it."""
        return wall_s * self.REFERENCE_S * 2 / (before_s + after_s)

    def run_scale(self) -> float:
        """The factor to the reference speed from the median of every
        sample so far, for units too long for one sample to describe."""
        return self.REFERENCE_S / median(self.samples)


def round_count(seconds: float, round_s: float, minimum: int = 1) -> int:
    """Whole rounds a run makes: as many as ``seconds`` holds at
    ``round_s`` per round, the round's time at the reference speed.

    Fixing the count from ``--seconds`` alone (not from the clock)
    gives every run the same operations, whatever the host's speed.
    """
    return max(minimum, math.ceil(seconds / round_s))


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered)) // 100))
    return ordered[min(len(ordered), rank) - 1]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """A process's resident-set high-water mark (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def host_provenance(seed: int, loopback: bool) -> dict:
    """The facts a reader needs before comparing two records."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
        "loopback": loopback,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set the workload up in a fresh process; return its ``setup_s``.

    The child is this benchmark's own entry point in probe mode: it
    imports the program, builds the workload's state, prints the time
    from its first line to ready, and exits.
    """
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])

