"""Timing loops, order statistics, set-up timing and memory high-water marks."""

from __future__ import annotations

import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .hostspeed import HostSpeed

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: list[float]) -> float:
    """The value at the highest listed percentile that still leaves at
    least ten samples beyond it; the maximum when too few samples are
    there for any."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return percentile(values, pct)
    return max(values) if values else 0.0


@dataclass
class Loop:
    """Latencies and verdicts of a closed-loop run."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0
    #: The latencies at the reference host's speed, when the loop sampled it.
    at_reference: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


def closed_loop(seconds: float, operation: Callable[[int], float | None]) -> Loop:
    """Call ``operation(index)`` back to back until *seconds* have passed.

    The operation times itself and returns its wall seconds, or ``None``
    when it failed or its output checked wrong: a failed operation counts
    as attempted but never as a latency. At least one operation runs.
    """
    loop = Loop()
    started = time.perf_counter()
    index = 0
    while True:
        latency = operation(index)
        if latency is None:
            loop.failed += 1
        else:
            loop.latencies.append(latency)
        index += 1
        if time.perf_counter() - started >= seconds:
            break
    loop.elapsed = time.perf_counter() - started
    return loop


def subprocess_env(root: Path, workdir: Path) -> dict[str, str]:
    """Environment for the program's own processes: source tree on the
    path, temporary files kept inside the checkout.

    The bytecode cache is always allowed, as in an installed package:
    otherwise every interpreter recompiles the sources, and set-up time
    would depend on whether the caller's environment happened to set
    ``PYTHONDONTWRITEBYTECODE``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(workdir)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cli_setup_seconds(
    root: Path, workdir: Path, repeats: int, speed: HostSpeed
) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter importing the CLI and building
    its parser: what every ``repro-offtarget`` invocation pays before it
    can read its first input. *speed* is sampled before every timed
    start; the second list holds the same times at the reference host's
    speed.

    The child is reaped with a blocking wait. ``subprocess.run`` with a
    timeout polls with a sleep that grows to 50 ms, which would round
    every start up to that grid; a timer kills a child that hangs.
    """
    code = "import repro.cli; repro.cli.build_parser()"
    env = subprocess_env(root, workdir)
    times = []
    at_reference = []
    # One untimed start first: it writes the bytecode cache in a fresh checkout.
    for repeat in range(repeats + 1):
        factor = speed.sample() if repeat else 1.0
        started = time.perf_counter()
        process = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=root)
        guard = threading.Timer(60.0, process.kill)
        guard.start()
        try:
            returncode = process.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - started)
        at_reference.append(times[-1] * factor)
        if returncode != 0:
            raise RuntimeError(f"interpreter start exited {returncode}")
    return times[1:], at_reference[1:]


def timing_metrics(
    loop: Loop, setup: list[float], setup_at_reference: list[float], samples: dict
) -> tuple[dict[str, float], dict]:
    """The timing metrics at the reference host's speed, and the raw
    record behind them for the result file: the measured figures, every
    latency and set-up time both ways, and the reference *samples*."""
    scale = sum(loop.at_reference) / sum(loop.latencies) if loop.latencies else 1.0
    measured = {
        "setup_s": median(setup),
        "op_p50_ms": median(loop.latencies) * 1e3,
        "ops_per_s": len(loop.latencies) / loop.elapsed,
    }
    metrics = {
        "setup_s": median(setup_at_reference),
        "op_p50_ms": median(loop.at_reference) * 1e3,
        "ops_per_s": len(loop.latencies) / (loop.elapsed * scale),
    }
    raw = {
        "latencies": loop.latencies,
        "latencies_at_reference": loop.at_reference,
        "setup_s": setup,
        "setup_s_at_reference": setup_at_reference,
        "reference_s": samples,
        "measured": measured,
    }
    return metrics, raw


_HWM = re.compile(r"VmHWM:\s+(\d+)\s+kB")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Resident high-water mark of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = _HWM.search(handle.read())
    if match is None:
        raise RuntimeError(f"no VmHWM for process {pid}")
    return int(match.group(1)) / 1024.0


def reset_hwm() -> None:
    """Restart this process's resident high-water mark from its current size."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def children_max_rss_mb() -> float:
    """Largest resident high-water mark among waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
