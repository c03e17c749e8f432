"""F12 — Bit-parallel kernel throughput versus the byte-wise LUT scan.

The bit-parallel Shift-And kernel (`repro.core.bitparallel`) evaluates
64 genome start positions per machine word and shares the packed code
planes across the whole guide panel; the LUT matcher gathers one byte
per (pattern position, genome symbol). This table measures both
through the same ``StreamingSearch`` front end — identical chunking,
identical dedupe — so the ratio isolates the kernel, in symbols/s,
across panel sizes and mismatch budgets.

The table is measured at two chunk lengths: 64 KiB, where numpy
dispatch per block still weighs, and the production ``1 << 20``, so the
genome spans two production blocks. Each table's header stamps the git
SHA, core count, numpy version and chunk length.

Acceptance: >= 10x symbols/s over the matcher-backed stream on a
20-guide panel at mismatch budget 3, at every chunk length. Both
kernels' hit lists are asserted bit-identical before any timing is
trusted.
"""

import time

from repro import SearchBudget, StreamingSearch, random_genome, sample_guides_from_genome
from repro.analysis.tables import render_table

from _harness import provenance, save_experiment

GENOME_LENGTH = 1 << 21
PANEL_SIZES = (1, 5, 20)
BUDGETS = (1, 3)
CHUNKS = (1 << 16, 1 << 20)

#: The ISSUE acceptance cell: 20-guide panel, budget 3, >= 10x.
ACCEPTANCE_PANEL = 20
ACCEPTANCE_BUDGET = 3
ACCEPTANCE_FLOOR = 10.0


def _best_seconds(search, genome, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        search.search(genome)
        best = min(best, time.perf_counter() - started)
    return best


def _throughput_table(genome, donor, chunk):
    """The F12 table at one chunk length, plus the acceptance speedup."""
    rows = []
    acceptance_speedup = None
    for panel_size in PANEL_SIZES:
        guides = sample_guides_from_genome(donor, panel_size, seed=1204 + panel_size)
        for mismatches in BUDGETS:
            budget = SearchBudget(mismatches=mismatches)
            bitparallel = StreamingSearch(
                guides, budget, chunk_length=chunk, kernel="bitparallel"
            )
            matcher = StreamingSearch(
                guides, budget, chunk_length=chunk, kernel="matcher"
            )
            # Differential gate before timing: a fast wrong kernel is
            # not a result.
            assert bitparallel.search(genome) == matcher.search(genome)
            bp_seconds = _best_seconds(bitparallel, genome, 3)
            lut_seconds = _best_seconds(matcher, genome, 1)
            speedup = lut_seconds / bp_seconds
            if panel_size == ACCEPTANCE_PANEL and mismatches == ACCEPTANCE_BUDGET:
                acceptance_speedup = speedup
            rows.append(
                [
                    str(panel_size),
                    str(mismatches),
                    f"{GENOME_LENGTH / lut_seconds:,.0f}",
                    f"{GENOME_LENGTH / bp_seconds:,.0f}",
                    f"{speedup:.1f}x",
                ]
            )
    table = render_table(
        ["guides", "mm", "matcher sym/s", "bitparallel sym/s", "speedup"],
        rows,
        title=(
            f"F12: streaming throughput by kernel ({GENOME_LENGTH:,} bp; "
            f"{provenance(chunk)})"
        ),
    )
    return table, acceptance_speedup


def test_f12_bitparallel_throughput(benchmark):
    genome = random_genome(GENOME_LENGTH, seed=1202, name="chrF12")
    donor = random_genome(50_000, seed=1203, name="chrDonor")
    tables = []
    for chunk in CHUNKS:
        table, acceptance_speedup = _throughput_table(genome, donor, chunk)
        tables.append(table)
        assert acceptance_speedup is not None
        assert acceptance_speedup >= ACCEPTANCE_FLOOR, (
            f"bit-parallel kernel is only {acceptance_speedup:.1f}x the matcher "
            f"on the {ACCEPTANCE_PANEL}-guide/mm={ACCEPTANCE_BUDGET} panel at "
            f"chunk {chunk}; the F12 acceptance floor is {ACCEPTANCE_FLOOR}x"
        )
    save_experiment("f12_bitparallel_throughput", "\n\n".join(tables))

    # A measured number for the benchmark log: one cold+warm kernel
    # pass on the acceptance panel at the production chunk length.
    guides = sample_guides_from_genome(donor, ACCEPTANCE_PANEL, seed=1224)
    search = StreamingSearch(
        guides,
        SearchBudget(mismatches=ACCEPTANCE_BUDGET),
        chunk_length=CHUNKS[-1],
        kernel="bitparallel",
    )
    hits = benchmark.pedantic(search.search, args=(genome,), rounds=2, iterations=1)
    assert hits == StreamingSearch(
        guides, SearchBudget(mismatches=ACCEPTANCE_BUDGET), chunk_length=CHUNKS[-1],
        kernel="matcher",
    ).search(genome)
