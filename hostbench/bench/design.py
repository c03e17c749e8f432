"""``design-panel``: guide design for a 48-candidate region against a 250 kbp genome.

One caller runs ``repro-offtarget design region.fa --genome genome.fa
--mismatches 1 --rna-bulges 1 --dna-bulges 1 --out report.tsv
--stats-json stats.json`` back to back. Vetting folds the whole
candidate panel into one bulged pass of the diagonal-band engine, in
process (one worker), so this is the workload that prices that engine
and the design pipeline around it.

Each report is checked: the vet made exactly one genome pass, the
ranked rows are exactly the region's NGG sites on both strands (found
here independently), and every report has the same digest.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import cliops
from .catalog import Outcome
from .inputs import PROTOSPACER, Inputs, reverse_complement
from .trace import Tracer

BUDGET = {"mismatches": 1, "rna_bulges": 1, "dna_bulges": 1}


def region_sites(region: str) -> set[tuple[int, int, str]]:
    """``(start, end, strand)`` of every NGG site of *region*."""
    sites = set()
    length = PROTOSPACER + 3
    for start in range(len(region) - length + 1):
        window = region[start : start + length]
        if "N" in window:
            continue
        if window.endswith("GG"):
            sites.add((start, start + length, "+"))
        if reverse_complement(window).endswith("GG"):
            sites.add((start, start + length, "-"))
    return sites


class DesignPanel(cliops.CliWorkload):
    output_kind = "report"

    def __init__(self, inputs: Inputs, root: Path, workdir: Path, inject_wrong: bool) -> None:
        super().__init__(inputs, root, workdir, inject_wrong)
        self.outcome.params = {**BUDGET, "workers": 1}
        lines = inputs.files["region.fa"].read_text(encoding="ascii").splitlines()
        self.expected_sites = region_sites("".join(line.strip() for line in lines[1:]))

    def argv(self, out: Path, stats: Path) -> list[str]:
        files = self.inputs.files
        return [
            "design", str(files["region.fa"]), "--genome", str(files["genome.fa"]),
            "--mismatches", "1", "--rna-bulges", "1", "--dna-bulges", "1",
            "--out", str(out), "--stats-json", str(stats),
        ]

    def validate(self, path: Path, stats: dict | None) -> str | None:
        if stats is None:
            return "no run statistics"
        rows = path.read_text(encoding="ascii").splitlines()[1:]
        if len(rows) != stats["num_candidates"]:
            return f"{len(rows)} ranked rows for {stats['num_candidates']} candidates"
        fields = [row.split("\t") for row in rows]
        if [int(f[0]) for f in fields] != list(range(1, len(rows) + 1)):
            return "ranks are not 1..n"
        sites = {(int(f[3]), int(f[4]), f[5]) for f in fields}
        if sites != self.expected_sites:
            return (
                f"candidates disagree with the region's NGG sites: "
                f"{len(sites - self.expected_sites)} extra, "
                f"{len(self.expected_sites - sites)} missing"
            )
        return None

    def run_op(self, label: str, tag: str, keep_stats: bool):
        out = self.workdir / "report.tsv"
        stats_path = self.workdir / "stats.json"
        wall = self.call(self.argv(out, stats_path), label, out)
        if wall is None:
            return None
        stats = json.loads(stats_path.read_text(encoding="ascii"))
        if stats["genome_passes"] != 1:
            self.outcome.fail(f"{label}: vet made {stats['genome_passes']} genome passes, not 1")
            return None
        if not self.check(out, label, stats):
            return None
        return wall, stats if keep_stats else None

    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        """The traced run: every layer runs in process (one worker), so
        the kernel wrappers see the bulged engine directly."""
        pool_log: list[dict] = []
        targets = (
            cliops.io_targets()
            + cliops.kernel_targets()
            + [cliops.preflight_target(), cliops.pool_stats_target(pool_log)]
        )
        plain, traced, kept, counts = self.paired_loop(seconds, tracer, targets)
        ops = max(1, len(traced.latencies))
        metrics = cliops.io_metrics(tracer, ops)
        metrics.update(cliops.parallel_metrics(pool_log, ops, 1))
        metrics.update(cliops.kernel_metrics(tracer, counts, ops))

        def stage(name: str) -> float:
            return sum(
                span["seconds"]
                for stats in kept
                for span in stats["stats"]["obs"]["spans"]
                if span["name"] == name
            ) / ops

        last = kept[-1] if kept else {"num_candidates": 0, "genome_passes": 0}
        metrics.update(
            {
                "design.preflight_s": tracer.total_seconds("design.preflight") / ops,
                "design.enumerate_s": stage("design.enumerate"),
                "design.vet_s": stage("design.vet"),
                "design.score_s": stage("design.score"),
                "design.candidates": last["num_candidates"],
                "design.genome_passes": last["genome_passes"],
            }
        )
        self.outcome.metrics = metrics
        self.finish(plain, traced)
        return self.outcome
