"""The metric catalogue and the outcome every workload returns.

``END_TO_END`` and ``PER_LAYER`` are the names and units
``BENCHMARK.json`` declares; every workload prints every one of them.
A per-layer metric of a layer the workload does not reach reads 0 (a
count of zero work or a zero time), so a layer that starts doing work
on a workload shows up as a change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    # genome.fasta / alphabet: reading and encoding the reference
    "genome.read_fasta_s": "s",
    "alphabet.encode_s": "s",
    # core.parallel: sharding, the process pool, the merge
    "parallel.pack_s": "s",
    "parallel.execute_s": "s",
    "parallel.shard_cpu_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.merge_s": "s",
    "parallel.pool_spawns": "count",
    "parallel.shard_failures": "count",
    "parallel.speedup": "ratio",
    # core.bitparallel: code planes, the Shift-And scan, hit objects
    "bitparallel.planes_s": "s",
    "bitparallel.scan_s": "s",
    "bitparallel.pattern_msym_per_s": "Msym/s",
    "bitparallel.hit_build_s": "s",
    "bitparallel.blocks": "count",
    "bitparallel.bulged_blocks": "count",
    # grna.hit: dedupe
    "hit.dedupe_s": "s",
    "hit.pre_dedupe": "count",
    "hit.reported": "count",
    "hit.dedupe_ratio": "ratio",
    # analysis.report_io: the hits file
    "report_io.write_s": "s",
    "report_io.bytes": "B",
    # design: the guide-design pipeline
    "design.preflight_s": "s",
    "design.enumerate_s": "s",
    "design.vet_s": "s",
    "design.score_s": "s",
    "design.candidates": "count",
    "design.genome_passes": "count",
    # service.scheduler: the coalescing window
    "scheduler.queue_ms": "ms",
    "scheduler.batch_ms": "ms",
    "scheduler.requests_per_batch": "count",
    "scheduler.shed": "count",
    # service.cache: compiled guides
    "cache.hit_rate": "ratio",
    # service.server / client: the wire codec
    "wire.request_bytes": "B",
    "wire.response_bytes": "B",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    # cluster.router: the router hop
    "router.hop_ms": "ms",
    "router.forwarded": "count",
    "router.failovers": "count",
    "router.reissues": "count",
    "router.shed": "count",
    "router.backend_share_max": "ratio",
    # the host: median wall time of the fixed reference computation
    "host.reference_ms": "ms",
    # the operation as a whole, and the benchmark itself
    "op_tail_ms": "ms",
    "op_samples": "count",
    "error_rate": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record a wrong output (the caller counts the failed operation)."""
        if len(self.problems) < 20:
            self.problems.append(message)

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
