"""``cold-sparse`` and ``cold-repeats``: FASTA in, BED out, through the CLI.

One caller runs ``repro-offtarget search ref.fa guides.txt --mismatches 3
--workers 2 --format bed --out hits.bed`` back to back (a closed loop).
The two workloads differ only in hit density: the sparse genome makes
the scan do almost all the work, the repeat genome makes hit handling
(hit objects, pickling from the pool, merge, dedupe, BED writing) do
most of it.

Every hits file is checked: the first correct one must hold every
planted site with its planted edit profile and agree exactly with the
naive oracle on the oracle slice; every later one must have the same
digest.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import NaiveSearcher, SearchBudget
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide

from . import cliops, measure
from .catalog import Outcome
from .inputs import Inputs
from .trace import Tracer

MISMATCHES = 3
WORKERS = 2


class ColdSearch(cliops.CliWorkload):
    output_kind = "hits"

    def __init__(self, inputs: Inputs, root: Path, workdir: Path, inject_wrong: bool) -> None:
        super().__init__(inputs, root, workdir, inject_wrong)
        self.expected_slice = self._oracle_slice()
        self.outcome.params = {
            "mismatches": MISMATCHES,
            "workers": WORKERS,
            "oracle_slice_hits": len(self.expected_slice),
        }

    def _oracle_slice(self) -> set[tuple]:
        """The naive oracle's hits on the oracle slice, as BED rows."""
        record, start, end = self.inputs.oracle_slice
        text = dict(self.inputs.records)[record][start:end]
        guides = [Guide(name, protospacer, "NGG") for name, protospacer in self.inputs.guides]
        hits = NaiveSearcher(SearchBudget(mismatches=MISMATCHES)).search(
            Sequence.from_text(record, text), guides
        )
        return {
            (record, hit.start + start, hit.end + start, hit.guide_name, hit.mismatches, hit.strand)
            for hit in hits
        }

    def validate(self, path: Path, stats: dict | None) -> str | None:
        rows = cliops.read_bed(path)
        for site in self.inputs.planted:
            if site.bed_row() not in rows:
                return f"planted site missing or with another profile: {site}"
        record, start, end = self.inputs.oracle_slice
        in_slice = {r for r in rows if r[0] == record and r[1] >= start and r[2] <= end}
        if in_slice != self.expected_slice:
            return (
                f"oracle slice disagrees: {len(in_slice - self.expected_slice)} extra, "
                f"{len(self.expected_slice - in_slice)} missing"
            )
        return None

    def argv(self, out: Path, workers: int = WORKERS, stats: Path | None = None) -> list[str]:
        files = self.inputs.files
        argv = [
            "search", str(files["ref.fa"]), str(files["guides.txt"]),
            "--mismatches", str(MISMATCHES), "--workers", str(workers),
            "--format", "bed", "--out", str(out),
        ]
        if stats is not None:
            argv += ["--stats-json", str(stats)]
        return argv

    def run_op(self, label: str, tag: str, keep_stats: bool, workers: int = WORKERS):
        out = self.workdir / f"{tag}.bed"
        stats_path = self.workdir / f"{tag}.json" if keep_stats else None
        wall = self.call(self.argv(out, workers, stats_path), label, out)
        if wall is None or not self.check(out, label):
            return None
        stats = None
        if stats_path is not None:
            stats = json.loads(stats_path.read_text(encoding="ascii"))
        return wall, stats

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        """The traced run: per-layer metrics from untraced and traced
        pooled operations in turn (their ratio is the tracing overhead),
        an untraced serial loop for the pool's speedup, and one traced
        serial pass for the kernel layers."""
        plain, traced, kept, _ = self.paired_loop(seconds * 0.8, tracer, cliops.io_targets())
        serial = self.loop(seconds * 0.2, "serial", keep_stats=True, workers=1)
        ops = max(1, len(traced.latencies))
        metrics = cliops.io_metrics(tracer, ops)
        metrics.update(
            cliops.parallel_metrics([s for stats in kept for s in stats["parallel"]], ops, WORKERS)
        )
        serial_tracer = Tracer()
        before = cliops.kernel_counters()
        with serial_tracer.span("op", op="serial-traced"):
            with serial_tracer.patched(cliops.io_targets() + cliops.kernel_targets()):
                done = self.run_op("serial-traced", "serial-traced", False, workers=1)
        self.outcome.add(1, 0 if done else 1)
        metrics.update(cliops.kernel_metrics(serial_tracer, cliops.counter_delta(before), 1))
        tracer.absorb(serial_tracer)
        plain_p50 = measure.median(plain.latencies)
        serial_p50 = measure.median(serial.latencies)
        metrics["parallel.speedup"] = serial_p50 / plain_p50 if serial_p50 and plain_p50 else 0.0
        metrics["report_io.bytes"] = (self.workdir / "op.bed").stat().st_size if plain_p50 else 0
        self.outcome.metrics = metrics
        self.finish(plain, traced)
        return self.outcome
