"""Shared pieces of the CLI workloads: the closed loop of in-process
``repro.cli.main`` calls with checked outputs (:class:`CliWorkload`),
the trace targets for the layers under the CLI, and per-layer figures
read from spans, ``--stats-json`` and ``ParallelSearch`` stats."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import time
from pathlib import Path
from typing import Any

import repro.alphabet
import repro.analysis.report_io
import repro.check
import repro.cli
import repro.core.bitparallel as bitparallel
import repro.core.parallel as parallel

from . import measure
from .catalog import Outcome
from .hostspeed import HostSpeed, Reference
from .inputs import Inputs
from .trace import Tracer

SETUP_REPEATS = 9
#: Seconds of operations per reference sample in a measured loop.
REFERENCE_EVERY = 1.0


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """``(exit code, wall seconds, stderr)`` of one in-process CLI call.

    The garbage of earlier calls is collected first, outside the timing,
    so each call starts from a heap like a fresh command's.
    """
    gc.collect()
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        code = repro.cli.main(argv)
        wall = time.perf_counter() - started
    return code, wall, stderr.getvalue()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_bed(path: Path) -> set[tuple[str, int, int, str, int, str]]:
    rows = set()
    with open(path, encoding="ascii") as handle:
        for line in handle:
            seq, start, end, name, score, strand = line.rstrip("\n").split("\t")
            rows.add((seq, int(start), int(end), name, int(score), strand))
    return rows


def _sized(record: dict, args: tuple, result: Any) -> None:
    record["n_in"] = len(args[0])
    record["n_out"] = len(result)


def _block(record: dict, args: tuple, _result: Any) -> None:
    panel, genome = args
    record["positions"] = len(genome)
    record["patterns"] = panel.num_patterns


def io_targets() -> list[tuple[Any, str, str, Any]]:
    """Reading, encoding and writing: parent-side layers of every CLI op."""
    return [
        (repro.cli, "read_fasta", "genome.read_fasta", None),
        (repro.alphabet, "encode", "alphabet.encode", None),
        (repro.analysis.report_io, "write_bed", "report_io.write", None),
    ]


def kernel_targets() -> list[tuple[Any, str, str, Any]]:
    """The kernel sub-layers; only meaningful where the kernel runs in
    this process (a ``--workers 1`` pass)."""
    return [
        (bitparallel.BitParallelPanel, "find_hits", "bitparallel.find_hits", _block),
        (bitparallel, "_BlockPlanes", "bitparallel.planes", None),
        (bitparallel, "_scan_strand", "bitparallel.scan", None),
        (bitparallel, "_scan_strand_bulged", "bitparallel.scan", None),
        (bitparallel, "dedupe_hits", "hit.dedupe", _sized),
        (parallel, "dedupe_hits", "hit.dedupe", _sized),
    ]


def preflight_target() -> tuple[Any, str, str, Any]:
    return (repro.check, "check_design_request", "design.preflight", None)


def pool_stats_target(log: list[dict]) -> tuple[Any, str, str, Any]:
    """Keeps the stats of every ``ParallelSearch.search_with_stats`` call."""

    def keep(_record: dict, _args: tuple, result: Any) -> None:
        log.append(result[1])

    return (parallel.ParallelSearch, "search_with_stats", "parallel.search", keep)


def kernel_counters() -> dict[str, float]:
    obs = bitparallel.KERNEL_OBS
    return {
        "bitparallel.blocks": obs.counter("kernel.bitparallel.blocks"),
        "bitparallel.bulged_blocks": obs.counter("kernel.bitparallel.bulged_blocks"),
    }


def counter_delta(before: dict[str, float]) -> dict[str, float]:
    """How far each kernel counter moved since *before* was taken."""
    after = kernel_counters()
    return {name: after[name] - before[name] for name in after}


def kernel_metrics(tracer: Tracer, counts: dict[str, float], ops: int) -> dict[str, float]:
    """Kernel and dedupe figures per operation from a traced in-process
    pass; *counts* are the kernel counters it moved."""
    scan = tracer.total_seconds("bitparallel.scan")
    blocks = [s for s in tracer.finished() if s["name"] == "bitparallel.find_hits"]
    block_ids = {s["id"] for s in blocks}
    symbols = sum(s["positions"] * s["patterns"] for s in blocks)
    dedupes = [s for s in tracer.finished() if s["name"] == "hit.dedupe"]
    pre_dedupe = sum(s["n_in"] for s in dedupes if s["parent"] in block_ids)
    # The last dedupe of an operation outside the kernel is its final merge.
    final: dict = {}
    for span in dedupes:
        if span["parent"] not in block_ids:
            final[span["op"]] = span["n_out"]
    reported = sum(final.values())
    return {
        "bitparallel.planes_s": tracer.total_seconds("bitparallel.planes") / ops,
        "bitparallel.scan_s": scan / ops,
        "bitparallel.pattern_msym_per_s": symbols / 1e6 / scan if scan else 0.0,
        "bitparallel.hit_build_s": tracer.self_seconds("bitparallel.find_hits") / ops,
        "bitparallel.blocks": counts["bitparallel.blocks"] / ops,
        "bitparallel.bulged_blocks": counts["bitparallel.bulged_blocks"] / ops,
        "hit.dedupe_s": tracer.total_seconds("hit.dedupe") / ops,
        "hit.pre_dedupe": pre_dedupe / ops,
        "hit.reported": reported / ops,
        "hit.dedupe_ratio": reported / pre_dedupe if pre_dedupe else 0.0,
    }


def io_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    return {
        "genome.read_fasta_s": tracer.self_seconds("genome.read_fasta") / ops,
        "alphabet.encode_s": tracer.total_seconds("alphabet.encode") / ops,
        "report_io.write_s": tracer.total_seconds("report_io.write") / ops,
    }


def _span_seconds(stats: dict, name: str) -> float:
    return sum(
        span["seconds"] for span in stats["obs"]["spans"] if span["name"] == name
    )


def parallel_metrics(rows: list[dict], ops: int, workers: int) -> dict[str, float]:
    """Pool figures per operation from the ``ParallelSearch`` stats of
    every ``search_with_stats`` call *ops* operations made."""
    execute = sum(_span_seconds(stats, "execute") for stats in rows)
    shard_cpu = sum(stats["total_shard_seconds"] for stats in rows)
    failures = 0
    for stats in rows:
        faults = stats["fault_tolerance"]
        failures += faults["retries"] + faults["timeouts"] + faults["pool_rebuilds"]
        failures += sum(faults["failures"].values())
    return {
        "parallel.pack_s": sum(_span_seconds(s, "shard_tasks") for s in rows) / ops,
        "parallel.execute_s": execute / ops,
        "parallel.shard_cpu_s": shard_cpu / ops,
        "parallel.efficiency": shard_cpu / (workers * execute) if execute else 0.0,
        "parallel.merge_s": sum(stats["merge_seconds"] for stats in rows) / ops,
        "parallel.pool_spawns": sum(1 for stats in rows if stats["pooled"]) / ops,
        "parallel.shard_failures": failures / ops,
    }


class CliWorkload:
    """A closed loop of one in-process CLI command with checked outputs.

    Subclasses build the command line and validate one output file from
    scratch; this class times the loop, accepts a later output by digest
    once one has validated, and turns the loop into end-to-end metrics.
    """

    output_kind = "output"

    def __init__(self, inputs: Inputs, root: Path, workdir: Path, inject_wrong: bool) -> None:
        self.inputs = inputs
        self.root = root
        self.workdir = workdir
        self.inject_wrong = inject_wrong
        self.good_digest: str | None = None
        self.outcome = Outcome()

    def run_op(
        self, label: str, tag: str, keep_stats: bool, **options: Any
    ) -> tuple[float, dict | None] | None:
        """Run and check one operation: ``(wall seconds, stats)`` or ``None``."""
        raise NotImplementedError

    def validate(self, path: Path, stats: dict | None) -> str | None:
        """What is wrong with an output never seen before, or ``None``."""
        raise NotImplementedError

    def call(self, argv: list[str], label: str, out: Path) -> float | None:
        """Wall seconds of one CLI call that exited 0, else ``None``."""
        code, wall, stderr = run_cli(argv)
        if code != 0:
            self.outcome.fail(f"{label}: exit {code}: {stderr.strip()[-300:]}")
            return None
        if self.inject_wrong and label == "op-0":
            out.write_text("", encoding="ascii")
        return wall

    def check(self, path: Path, label: str, stats: dict | None = None) -> bool:
        digest = file_digest(path)
        if digest == self.good_digest:
            return True
        problem = self.validate(path, stats)
        if problem is None and self.good_digest is None:
            self.good_digest = digest
            return True
        self.outcome.fail(f"{label}: {problem or self.output_kind + ' differs from an earlier run'}")
        return False

    def loop(
        self,
        seconds: float,
        tag: str,
        keep_stats: bool = False,
        speed: HostSpeed | None = None,
        **options: Any,
    ) -> measure.Loop:
        """A closed loop of untraced operations; *keep_stats* and
        *options* go to every :meth:`run_op` call. With *speed*,
        reference samples are taken before every operation, one for each
        started *REFERENCE_EVERY* seconds the operation before took; the
        time they took is left out of the loop's elapsed time."""
        last = 0.0
        at_reference: list[float] = []

        def operation(index: int) -> float | None:
            nonlocal last
            factor = 1.0
            if speed is not None:
                factor = speed.sample(max(1, math.ceil(last / REFERENCE_EVERY)))
            done = self.run_op(f"{tag}-{index}", tag, keep_stats, **options)
            if done is None:
                last = 0.0
                return None
            last = done[0]
            at_reference.append(last * factor)
            return last

        result = measure.closed_loop(seconds, operation)
        if speed is not None:
            result.elapsed -= speed.spent
            result.at_reference = at_reference
        self.outcome.add(result.attempted, result.failed)
        return result

    def paired_loop(
        self, seconds: float, tracer: Tracer, targets: list
    ) -> tuple[measure.Loop, measure.Loop, list[dict], dict[str, float]]:
        """Untraced and traced operations in turn until *seconds* have
        passed, every one with its stats written.

        Both kinds see the same stretch of the host and the same warm-up,
        so the ratio of their medians prices the tracing alone. Returns
        the untraced loop, the traced loop, the stats of every traced
        operation and the kernel counters the traced operations moved.
        """
        plain, traced = measure.Loop(), measure.Loop()
        kept: list[dict] = []
        counts = dict.fromkeys(kernel_counters(), 0.0)
        started = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - started < seconds:
            number = index // 2
            if index % 2 == 0:
                loop = plain
                done = self.run_op(f"op-{number}", "op", True)
            else:
                loop = traced
                label = f"traced-{number}"
                before = kernel_counters()
                with tracer.patched(targets), tracer.span("op", op=label):
                    done = self.run_op(label, "traced", True)
                for name, value in counter_delta(before).items():
                    counts[name] += value
                if done is not None:
                    kept.append(done[1])
            if done is None:
                loop.failed += 1
            else:
                loop.latencies.append(done[0])
            index += 1
        for loop in (plain, traced):
            self.outcome.add(loop.attempted, loop.failed)
        return plain, traced, kept, counts

    def measure(self, seconds: float, reference: Reference) -> Outcome:
        """The untraced run: end-to-end metrics only, timings at the
        reference host's speed (see :mod:`bench.hostspeed`)."""
        speed, setup_speed = HostSpeed(reference), HostSpeed(reference)
        measure.reset_hwm()
        loop = self.loop(seconds, "op", speed=speed)
        peak = measure.vm_hwm_mb() + measure.children_max_rss_mb()
        setup = measure.cli_setup_seconds(self.root, self.workdir, SETUP_REPEATS, setup_speed)
        self.outcome.metrics, self.outcome.raw = measure.timing_metrics(
            loop, *setup, {"loop": speed.samples, "setup": setup_speed.samples}
        )
        self.outcome.metrics["peak_rss_mb"] = peak
        self.finish(loop)
        return self.outcome

    def finish(self, loop: measure.Loop, traced: measure.Loop | None = None) -> None:
        metrics = self.outcome.metrics
        metrics["op_tail_ms"] = measure.tail(loop.latencies) * 1e3
        metrics["op_samples"] = len(loop.latencies)
        plain_p50 = measure.median(loop.latencies)
        if traced is not None and traced.latencies and plain_p50:
            metrics["trace.overhead"] = measure.median(traced.latencies) / plain_p50 - 1.0
        self.outcome.digests[self.output_kind] = self.good_digest or ""
