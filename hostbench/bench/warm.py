"""``warm-routed``: warm queries through ``route`` to two ``serve`` backends.

All three processes are started from the CLI with default settings
(5 ms coalescing window, 64 virtual nodes, 2 replicas). Two client
threads, each with its own ``ServiceClient`` connection to the router,
send 3-guide panels (mismatches 2) back to back — a closed loop — for
the measured time. Every panel was queried once during set-up, so the
owning backend's compiled-guide cache is warm. Every response must equal
the in-process ``OffTargetSearch`` result for its panel.

Set-up is the time from launching the backends until the session is
loaded, the router is routing and every panel has been queried once; it
is repeated and the last cluster is the one measured.

Timings are reported at the reference host's speed (see
:mod:`bench.hostspeed`): a reference sample is taken before every
set-up, and before every one-second slice of the measured loop, while
the clients wait.
"""

from __future__ import annotations

import json
import select
import signal
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import OffTargetSearch, SearchBudget
from repro.cluster import HashRing, route_key
from repro.errors import ReproError
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide
from repro.service import ServiceClient
from repro.service.server import guide_from_wire, guide_to_wire, hit_from_wire

from . import measure
from .catalog import Outcome
from .hostspeed import HostSpeed, Reference
from .inputs import Inputs
from .trace import Tracer

BUDGET = SearchBudget(mismatches=2)
CLIENTS = 2
BACKENDS = 2
SETUP_REPEATS = 3
SLICE_SECONDS = 1.0
HOP_SAMPLES = 60
MAX_REQUESTS = 50_000
STARTUP_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
SESSION = "default"


@dataclass
class Cluster:
    """Two ``serve`` processes and the ``route`` process in front of them."""

    backends: list[subprocess.Popen] = field(default_factory=list)
    backend_ports: list[int] = field(default_factory=list)
    router: subprocess.Popen | None = None
    router_port: int = 0

    @property
    def processes(self) -> list[subprocess.Popen]:
        return self.backends + ([self.router] if self.router else [])

    def peak_rss_mb(self) -> float:
        return sum(measure.vm_hwm_mb(process.pid) for process in self.processes)

    def stop(self) -> list[int | None]:
        """SIGTERM (a graceful drain) to router then backends; wait for all.

        A process still running after the drain deadline is killed, and
        its exit code reads ``None``.
        """
        codes: list[int | None] = []
        for process in ([self.router] if self.router else []) + self.backends:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                codes.append(process.wait(timeout=STOP_TIMEOUT))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                codes.append(None)
            if process.stdout is not None:
                process.stdout.close()
        return codes


def _announced_port(process: subprocess.Popen, deadline: float) -> int:
    """The port in the process's announce line (``... on HOST:PORT``)."""
    assert process.stdout is not None
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.1)
        if ready:
            line = process.stdout.readline()
            if not line:
                break
            if " on " in line:
                return int(line.rsplit(":", 1)[1])
        elif process.poll() is not None:
            break
    raise RuntimeError(f"process {process.args[3]!r} did not announce a port")


class WarmRouted:
    def __init__(self, inputs: Inputs, root: Path, workdir: Path, inject_wrong: bool) -> None:
        self.inputs = inputs
        self.root = root
        self.workdir = workdir
        self.inject_wrong = inject_wrong
        self.outcome = Outcome(
            params={"mismatches": BUDGET.mismatches, "clients": CLIENTS, "backends": BACKENDS}
        )
        self.env = measure.subprocess_env(root, workdir)
        guides = [Guide(name, protospacer, "NGG") for name, protospacer in inputs.guides]
        self.panels = [tuple(guides[index] for index in panel) for panel in inputs.panels]
        genome = [Sequence.from_text(name, text) for name, text in inputs.records]
        self.oracle = [
            tuple(OffTargetSearch(panel, BUDGET).run(genome).hits) for panel in self.panels
        ]
        self.clusters: list[Cluster] = []
        self._lock = threading.Lock()

    def request_order(self, stream: str) -> list[int]:
        """The seeded sequence of panel indices one client sends."""
        rng = np.random.default_rng(
            np.random.SeedSequence((self.inputs.seed, zlib.crc32(stream.encode("ascii"))))
        )
        return rng.integers(0, len(self.panels), size=MAX_REQUESTS).tolist()

    # -- the cluster -----------------------------------------------------------

    def _spawn(self, args: list[str], log: str) -> subprocess.Popen:
        with open(self.workdir / log, "ab") as stderr:
            return subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )

    def start_cluster(self) -> tuple[Cluster, float]:
        """A started, warmed cluster and its set-up seconds."""
        cluster = Cluster()
        self.clusters.append(cluster)
        started = time.perf_counter()
        deadline = time.monotonic() + STARTUP_TIMEOUT
        session = str(self.inputs.files["session.fa"])
        cluster.backends = [
            self._spawn(["serve", session, "--session", SESSION], f"b{index}.log")
            for index in range(BACKENDS)
        ]
        cluster.backend_ports = [_announced_port(p, deadline) for p in cluster.backends]
        endpoints = [f"127.0.0.1:{port}" for port in cluster.backend_ports]
        cluster.router = self._spawn(["route", "--backends", *endpoints], "router.log")
        cluster.router_port = _announced_port(cluster.router, deadline)
        with ServiceClient(port=cluster.router_port) as client:
            for index in range(len(self.panels)):
                done = self.query(client, index, f"warmup-{index}")
                self.outcome.add(1, 0 if done else 1)
        return cluster, time.perf_counter() - started

    def stop_all(self) -> None:
        for cluster in self.clusters:
            codes = cluster.stop()
            if any(code != 0 for code in codes):
                self.outcome.fail(f"cluster processes exited {codes}, not all 0")
                self.outcome.add(0, 1)
        self.clusters = []

    # -- one query -------------------------------------------------------------

    def query(self, client: ServiceClient, index: int, label: str):
        """``(seconds, stats)`` of one checked query, or ``None`` if it failed."""
        started = time.perf_counter()
        try:
            result = client.query(self.panels[index], BUDGET, session_id=SESSION)
        except (ReproError, OSError) as error:
            self.outcome.fail(f"{label}: {type(error).__name__}: {error}")
            return None
        wall = time.perf_counter() - started
        hits = result.hits
        if self.inject_wrong and label == "op-0-0":
            hits = hits[1:] if hits else (None,)
        if tuple(hits) != self.oracle[index]:
            self.outcome.fail(f"{label}: panel {index} differs from the oracle")
            return None
        return wall, result.stats

    def closed_loop(self, port: int, seconds: float, tag: str, tracer: Tracer | None = None):
        """*CLIENTS* threads querying back to back until *seconds* have
        passed: ``(latencies, response stats, elapsed seconds)``."""
        latencies: list[float] = []
        stats: list[dict] = []
        counts = {"attempted": 0, "failed": 0}
        errors: list[Exception] = []
        started = time.perf_counter()
        deadline = started + seconds

        def client_thread(number: int) -> None:
            order = self.request_order(f"{tag}-{number}")
            try:
                with ServiceClient(port=port) as client:
                    for step, index in enumerate(order):
                        label = f"{tag}-{number}-{step}"
                        if tracer is None:
                            done = self.query(client, index, label)
                        else:
                            with tracer.span("request", op=label):
                                done = self.query(client, index, label)
                        with self._lock:
                            counts["attempted"] += 1
                            if done is None:
                                counts["failed"] += 1
                            else:
                                latencies.append(done[0])
                                stats.append(done[1])
                        if time.perf_counter() >= deadline:
                            break
            except Exception as error:  # reported below, never lost
                errors.append(error)

        threads = [threading.Thread(target=client_thread, args=(n,)) for n in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for error in errors:
            self.outcome.fail(f"{tag}: client thread raised {error!r}")
        self.outcome.add(counts["attempted"], counts["failed"] + len(errors))
        return latencies, stats, elapsed

    # -- runs --------------------------------------------------------------------

    def _setup(self, speed: HostSpeed) -> tuple[Cluster, list[float], list[float]]:
        """The measured cluster, and every set-up time as measured and at
        the reference host's speed."""
        times, at_reference = [], []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                self.stop_all()
            factor = speed.sample()
            cluster, seconds = self.start_cluster()
            times.append(seconds)
            at_reference.append(seconds * factor)
        return cluster, times, at_reference

    def sliced_loop(self, port: int, seconds: float, speed: HostSpeed) -> measure.Loop:
        """:meth:`closed_loop` in slices of *SLICE_SECONDS*, a reference
        sample before each; the loop's elapsed time is the time spent querying."""
        loop = measure.Loop()
        number = 0
        while number == 0 or loop.elapsed < seconds:
            factor = speed.sample()
            tag = f"op{number}" if number else "op"
            got, _, elapsed = self.closed_loop(
                port, min(SLICE_SECONDS, seconds - loop.elapsed), tag
            )
            loop.latencies += got
            loop.at_reference += [latency * factor for latency in got]
            loop.elapsed += elapsed
            number += 1
        return loop

    def measure(self, seconds: float, reference: Reference) -> Outcome:
        setup_speed, speed = HostSpeed(reference), HostSpeed(reference)
        try:
            cluster, *setup = self._setup(setup_speed)
            loop = self.sliced_loop(cluster.router_port, seconds, speed)
            peak = cluster.peak_rss_mb()
        finally:
            self.stop_all()
        self.outcome.metrics, self.outcome.raw = measure.timing_metrics(
            loop, *setup, {"loop": speed.samples, "setup": setup_speed.samples}
        )
        self.outcome.metrics["peak_rss_mb"] = peak
        self._tail(loop.latencies)
        return self.outcome

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        captured: list[tuple[dict, dict]] = []

        def capture(_record: dict, args: tuple, response: dict) -> None:
            if args[1].get("op") == "query" and len(captured) < 400:
                captured.append((args[1], response))

        try:
            cluster, _ = self.start_cluster()
            before = self._service_stats(cluster)
            plain, plain_stats, _ = self.closed_loop(cluster.router_port, seconds / 2, "op")
            with tracer.patched([(ServiceClient, "roundtrip", "client.roundtrip", capture)]):
                traced, traced_stats, _ = self.closed_loop(
                    cluster.router_port, seconds / 2, "traced", tracer
                )
            after = self._service_stats(cluster)
            hop = self._router_hop(cluster)
        finally:
            self.stop_all()
        plain_p50 = measure.median(plain)
        stats = plain_stats + traced_stats
        metrics = self._service_metrics(before, after)
        metrics.update(_wire_metrics(captured))
        metrics.update(
            {
                "scheduler.queue_ms": measure.median([s["queue_seconds"] for s in stats]) * 1e3,
                "scheduler.batch_ms": measure.median([s["batch_seconds"] for s in stats]) * 1e3,
                "scheduler.requests_per_batch": (
                    sum(s["batch_requests"] for s in stats) / len(stats) if stats else 0.0
                ),
                "router.hop_ms": hop,
                "trace.overhead": measure.median(traced) / plain_p50 - 1.0
                if plain_p50 and traced
                else 0.0,
            }
        )
        self.outcome.metrics = metrics
        self._tail(plain)
        return self.outcome

    def _tail(self, latencies: list[float]) -> None:
        self.outcome.metrics["op_tail_ms"] = measure.tail(latencies) * 1e3
        self.outcome.metrics["op_samples"] = len(latencies)

    # -- per-layer figures -----------------------------------------------------

    def _service_stats(self, cluster: Cluster) -> dict:
        ports = {"router": cluster.router_port}
        ports.update({f"b{i}": port for i, port in enumerate(cluster.backend_ports)})
        stats = {}
        for name, port in ports.items():
            with ServiceClient(port=port) as client:
                stats[name] = client.stats()
        return stats

    def _service_metrics(self, before: dict, after: dict) -> dict:
        backends = [name for name in after if name != "router"]

        def delta(name: str, *path: str) -> float:
            def pick(stats: dict) -> float:
                for key in path:
                    stats = stats[key]
                return float(stats)

            return pick(after[name]) - pick(before[name])

        lookups = sum(delta(b, "cache", "lookups") for b in backends)
        hits = sum(delta(b, "cache", "hits") for b in backends)
        completed = [delta(b, "requests", "completed") for b in backends]
        return {
            "scheduler.shed": sum(delta(b, "requests", "shed") for b in backends),
            "cache.hit_rate": hits / lookups if lookups else 0.0,
            "router.forwarded": delta("router", "forwarded"),
            "router.failovers": delta("router", "failovers"),
            "router.reissues": delta("router", "reissues"),
            "router.shed": delta("router", "shed"),
            "router.backend_share_max": max(completed) / sum(completed) if sum(completed) else 0.0,
        }

    def _router_hop(self, cluster: Cluster) -> float:
        """p50 routed minus p50 direct to the owning backend: one client,
        the same panels, each sent routed and then direct. Panels are
        taken backend by backend, so at most two connections are open."""
        ring = HashRing(tuple(f"b{i}" for i in range(BACKENDS)))
        order = self.request_order("hop")[:HOP_SAMPLES]
        owners = [ring.owner(route_key(SESSION, self.panels[i], BUDGET)) for i in order]
        routed: list[float] = []
        direct: list[float] = []
        with ServiceClient(port=cluster.router_port) as via_router:
            for number, port in enumerate(cluster.backend_ports):
                with ServiceClient(port=port) as to_owner:
                    for step, index in enumerate(order):
                        if owners[step] != f"b{number}":
                            continue
                        for client, sink in ((via_router, routed), (to_owner, direct)):
                            done = self.query(client, index, f"hop-{step}")
                            self.outcome.add(1, 0 if done else 1)
                            if done:
                                sink.append(done[0])
        return (measure.median(routed) - measure.median(direct)) * 1e3

def _wire_metrics(captured: list[tuple[dict, dict]]) -> dict:
    """The JSON-lines codec priced on captured query payloads: request
    encode (``guide_to_wire`` + ``json.dumps``) and response decode
    (``json.loads`` + ``hit_from_wire``), p50 per request."""
    encode, decode, request_bytes, response_bytes = [], [], [], []
    for payload, response in captured:
        guides = [guide_from_wire(wire) for wire in payload["guides"]]
        raw = json.dumps(response)
        started = time.perf_counter()
        line = json.dumps({**payload, "guides": [guide_to_wire(g) for g in guides]})
        encode.append(time.perf_counter() - started)
        started = time.perf_counter()
        decoded = json.loads(raw)
        [hit_from_wire(hit) for hit in decoded.get("hits", [])]
        decode.append(time.perf_counter() - started)
        request_bytes.append(len(line) + 1)
        response_bytes.append(len(raw) + 1)
    return {
        "wire.request_bytes": measure.median(request_bytes),
        "wire.response_bytes": measure.median(response_bytes),
        "wire.encode_ms": measure.median(encode) * 1e3,
        "wire.decode_ms": measure.median(decode) * 1e3,
    }

