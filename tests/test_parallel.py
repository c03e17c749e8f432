"""Differential tests pinning ParallelSearch to the serial paths.

The parallel executor's correctness story: for every genome, guide
set, budget, worker count, chunk size, and scheduling order, the
sharded search must produce the *identical* hit list as

* the whole-genome vectorised kernel (``matcher.find_hits``),
* the chunked serial path (``StreamingSearch``), and
* the independent ground-truth oracle (``NaiveSearcher``).

Property tests sweep randomised inputs (including adversarial chunk
lengths: barely above the overlap, prime-sized, longer than the
genome); deterministic regressions pin the chunk-boundary dedupe rule
(``hit.end <= chunk.overlap``) for the parallel merge, and the
degraded modes (``workers=1``, pool spawn failure) are exercised
explicitly.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    NaiveSearcher,
    OffTargetSearch,
    ParallelSearch,
    SearchBudget,
    StreamingSearch,
    random_genome,
    sample_guides_from_genome,
)
from repro.core import matcher
from repro.core import parallel as parallel_module
from repro.core.parallel import ShardTask, _search_shard, merge_shards
from repro.errors import EngineError
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide
from repro.grna.hit import dedupe_hits

from differential import (
    DifferentialCase,
    adversarial_chunk_length as _chunk_length_for,
    assert_engines_agree,
)
from helpers import assert_equivalent_hits, hit_multiset, hit_spans

protospacer = st.text(alphabet="ACGT", min_size=10, max_size=14)
genome_text = st.text(alphabet="ACGTN", min_size=0, max_size=260)


# -- the differential property suite ------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    text=genome_text,
    protos=st.lists(protospacer, min_size=1, max_size=2),
    mismatches=st.integers(min_value=0, max_value=2),
    workers=st.integers(min_value=1, max_value=4),
    chunk_choice=st.integers(min_value=0, max_value=4),
)
def test_parallel_equals_streaming_equals_oracle(
    text, protos, mismatches, workers, chunk_choice
):
    genome = Sequence.from_text("chr", text)
    guides = tuple(Guide(f"g{i}", proto) for i, proto in enumerate(protos))
    budget = SearchBudget(mismatches=mismatches)
    overlap = max(g.site_length for g in guides) + budget.dna_bulges - 1
    case = DifferentialCase(
        genome=genome,
        guides=guides,
        budget=budget,
        chunk_length=_chunk_length_for(overlap, len(genome), chunk_choice),
        workers=workers,
    )
    assert_engines_agree(
        case, engines=("streaming", "streaming-matcher", "bitparallel", "parallel")
    )


@settings(max_examples=8, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", min_size=0, max_size=160),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=1),
    rna=st.integers(min_value=0, max_value=1),
    dna=st.integers(min_value=0, max_value=1),
    workers=st.integers(min_value=1, max_value=3),
    chunk_choice=st.integers(min_value=0, max_value=4),
)
def test_parallel_equals_oracle_bulged(
    text, proto, mismatches, rna, dna, workers, chunk_choice
):
    genome = Sequence.from_text("chr", text)
    guides = [Guide("g", proto)]
    budget = SearchBudget(mismatches=mismatches, rna_bulges=rna, dna_bulges=dna)
    overlap = guides[0].site_length + budget.dna_bulges - 1
    chunk_length = _chunk_length_for(overlap, len(genome), chunk_choice)

    oracle = NaiveSearcher(budget).search(genome, guides)
    sharded = ParallelSearch(
        guides, budget, workers=workers, chunk_length=chunk_length
    ).search(genome)
    assert_equivalent_hits(oracle, sharded)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    order_seed=st.integers(min_value=0, max_value=10**6),
    chunk_choice=st.integers(min_value=0, max_value=4),
    batch_size=st.integers(min_value=1, max_value=3),
)
def test_merge_is_scheduling_order_independent(
    seed, order_seed, chunk_choice, batch_size
):
    # Execute the shards serially in a shuffled order and merge: the
    # result must be bit-identical to the canonical execution, which is
    # exactly the guarantee that makes pool completion order irrelevant.
    genome = random_genome(600, seed=seed, name="chrOrder")
    guides = sample_guides_from_genome(genome, 3, seed=seed + 1)
    budget = SearchBudget(mismatches=2)
    executor = ParallelSearch(
        guides,
        budget,
        workers=1,
        chunk_length=_chunk_length_for(25, len(genome), chunk_choice),
        guide_batch_size=batch_size,
    )
    tasks = executor.shard_tasks(genome)
    shuffled = list(tasks)
    random.Random(order_seed).shuffle(shuffled)
    merged = merge_shards(_search_shard(task) for task in shuffled)
    assert merged == executor.search(genome)
    assert merged == matcher.find_hits(genome, guides, budget)


@settings(max_examples=12, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", min_size=0, max_size=120),
    proto=protospacer,
    workers=st.integers(min_value=2, max_value=12),
)
def test_workers_exceeding_shard_count_is_invariant(text, proto, workers):
    # One guide and a chunk longer than the genome: at most one shard,
    # always fewer than the configured workers. The executor must run
    # it in-process and still match the oracle — including the empty
    # genome, where there are zero shards.
    genome = Sequence.from_text("chr", text)
    guides = [Guide("g", proto)]
    budget = SearchBudget(mismatches=1)
    overlap = guides[0].site_length + budget.dna_bulges - 1
    chunk_length = max(len(text), overlap + 1) + 5
    executor = ParallelSearch(
        guides, budget, workers=workers, chunk_length=chunk_length
    )
    hits, stats = executor.search_with_stats(genome)
    assert stats["num_shards"] <= 1
    assert stats["num_shards"] < workers
    if not text:
        assert stats["num_shards"] == 0
        assert hits == []
    assert_equivalent_hits(NaiveSearcher(budget).search(genome, guides), hits)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    workers=st.integers(min_value=4, max_value=10),
)
def test_pool_sized_to_shards_when_workers_exceed_them(seed, workers):
    # Three single-guide batches over one chunk: exactly three shards,
    # pooled with more workers configured than shards to fill. The
    # result must be identical to the serial kernel regardless.
    genome = random_genome(1200, seed=seed, name="chrWide")
    guides = sample_guides_from_genome(genome, 3, seed=seed + 1)
    budget = SearchBudget(mismatches=1)
    executor = ParallelSearch(
        guides,
        budget,
        workers=workers,
        chunk_length=4096,
        guide_batch_size=1,
    )
    hits, stats = executor.search_with_stats(genome)
    assert stats["num_shards"] == 3
    assert stats["num_shards"] < stats["workers"]
    assert_equivalent_hits(matcher.find_hits(genome, guides, budget), hits)


# -- chunk-boundary regressions (the `hit.end <= chunk.overlap` rule) ---------


class TestBoundaryStraddle:
    CHUNK = 200

    def _run(self, text, guide, workers=2):
        case = DifferentialCase(
            genome=Sequence.from_text("chrB", text),
            guides=(guide,),
            budget=SearchBudget(mismatches=0),
            chunk_length=self.CHUNK,
            workers=workers,
            label="boundary-straddle",
        )
        # The straddle genomes are crafted to stress the chunked paths,
        # so sweep the kernels too while we are here.
        return assert_engines_agree(case)

    def _genome_with_target_at(self, guide, position, total=600):
        target = guide.concrete_target()
        filler = random_genome(total, seed=7, name="f").text.replace("G", "A")
        # A/T-only filler cannot satisfy the NGG PAM, so the planted
        # target is the only hit and its position is fully controlled.
        filler = filler.replace("C", "T")
        return filler[:position] + target + filler[position + len(target):]

    def test_hit_straddles_chunk_boundary(self, guide):
        site = guide.site_length
        position = self.CHUNK - site // 2  # spans the first boundary
        hits = self._run(self._genome_with_target_at(guide, position), guide)
        assert [h.start for h in hits] == [position]

    def test_hit_wholly_inside_overlap_prefix(self, guide):
        # The site ends exactly at the first chunk's end, so chunk 2
        # sees it entirely inside its overlapped prefix (relative end
        # == overlap) and must drop it; chunk 1 reports it.
        site = guide.site_length
        position = self.CHUNK - site
        hits = self._run(self._genome_with_target_at(guide, position), guide)
        assert [h.start for h in hits] == [position]

    def test_hit_starting_at_position_zero_of_second_chunk(self, guide):
        # Chunk 2 starts at CHUNK - overlap; a site starting exactly
        # there has relative end == overlap + 1, one past the dedupe
        # threshold — the first span chunk 2 owns.
        overlap = guide.site_length - 1
        position = self.CHUNK - overlap
        hits = self._run(self._genome_with_target_at(guide, position), guide)
        assert [h.start for h in hits] == [position]

    def test_shard_filter_matches_streaming_rule(self, guide):
        # Every shard must apply exactly the streaming dedupe rule:
        # union of shard hits == streaming hits, with no duplicates.
        site = guide.site_length
        text = self._genome_with_target_at(guide, self.CHUNK - site + 3, total=700)
        genome = Sequence.from_text("chrB", text)
        budget = SearchBudget(mismatches=1)
        executor = ParallelSearch(
            [guide], budget, workers=1, chunk_length=self.CHUNK
        )
        shard_hits = []
        for task in executor.shard_tasks(genome):
            shard_hits.extend(_search_shard(task).hits)
        streamed = StreamingSearch(
            [guide], budget, chunk_length=self.CHUNK
        ).search(genome)
        assert hit_multiset(shard_hits) == hit_multiset(streamed)
        keys = [h.key for h in shard_hits]
        assert len(keys) == len(set(keys))


# -- degraded modes -----------------------------------------------------------


class TestDegradedModes:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(40_000, seed=31, name="chrPool")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 2, seed=32)

    def test_workers_one_never_spawns_a_pool(self, genome, guides, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not be called
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", boom)
        executor = ParallelSearch(
            guides, SearchBudget(mismatches=2), workers=1, chunk_length=9000
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["pooled"] is False
        assert stats["serial_fallback"] is False
        assert hit_spans(hits) == hit_spans(
            matcher.find_hits(genome, guides, SearchBudget(mismatches=2))
        )

    def test_pool_spawn_failure_falls_back_to_serial(self, genome, guides, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", broken)
        executor = ParallelSearch(
            guides, SearchBudget(mismatches=2), workers=4, chunk_length=9000
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["serial_fallback"] is True
        assert stats["pooled"] is False
        assert hits == matcher.find_hits(genome, guides, SearchBudget(mismatches=2))

    def test_single_shard_runs_in_process(self, genome, guides, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pooled")),
        )
        executor = ParallelSearch(
            guides,
            SearchBudget(mismatches=1),
            workers=4,
            chunk_length=1 << 20,  # one chunk
            guide_batch_size=len(list(guides)),  # one batch -> one shard
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["num_shards"] == 1
        assert stats["pooled"] is False
        assert hit_spans(hits) == hit_spans(
            matcher.find_hits(genome, guides, SearchBudget(mismatches=1))
        )


# -- executor mechanics -------------------------------------------------------


class TestExecutor:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(60_000, seed=41, name="chrExec")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 4, seed=42)

    def test_pooled_run_identical_to_serial(self, genome, guides):
        budget = SearchBudget(mismatches=3)
        serial = ParallelSearch(guides, budget, workers=1, chunk_length=16_000)
        pooled = ParallelSearch(guides, budget, workers=2, chunk_length=16_000)
        assert pooled.search(genome) == serial.search(genome)

    def test_stats_shape(self, genome, guides):
        executor = ParallelSearch(
            guides,
            SearchBudget(mismatches=2),
            workers=2,
            chunk_length=16_000,
            guide_batch_size=2,
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["workers"] == 2
        assert stats["num_guide_batches"] == 2
        assert stats["num_shards"] == stats["num_chunks"] * stats["num_guide_batches"]
        assert len(stats["shards"]) == stats["num_shards"]
        assert all(shard["seconds"] >= 0 for shard in stats["shards"])
        assert sum(shard["hits"] for shard in stats["shards"]) >= len(hits)
        assert stats["wall_seconds"] > 0
        assert stats["overlap"] == executor.overlap

    def test_guide_batches_partition_the_library(self, guides):
        executor = ParallelSearch(
            guides, SearchBudget(), workers=3, guide_batch_size=1
        )
        batches = executor.guide_batches(num_chunks=1)
        assert [g for batch in batches for g in batch] == list(guides)
        assert all(len(batch) == 1 for batch in batches)

    def test_search_many(self, guides):
        chr1 = random_genome(20_000, seed=43, name="chr1")
        chr2 = random_genome(20_000, seed=44, name="chr2")
        budget = SearchBudget(mismatches=3)
        sharded = ParallelSearch(
            guides, budget, workers=2, chunk_length=7000
        ).search_many([chr1, chr2])
        whole = matcher.find_hits(chr1, guides, budget) + matcher.find_hits(
            chr2, guides, budget
        )
        assert hit_multiset(sharded) == hit_multiset(whole)

    def test_empty_genome(self, guides):
        executor = ParallelSearch(guides, SearchBudget(), workers=2)
        hits, stats = executor.search_with_stats(Sequence.from_text("e", ""))
        assert hits == []
        assert stats["num_shards"] == 0

    def test_task_payloads_are_packed(self, genome, guides):
        executor = ParallelSearch(guides, SearchBudget(), workers=2, chunk_length=16_000)
        task = executor.shard_tasks(genome)[0]
        assert isinstance(task, ShardTask)
        assert isinstance(task.packed, bytes)
        # 2-bit packing: four bases per byte (plus the N bitmap).
        assert len(task.packed) == (task.chunk_length + 3) // 4

    def test_validation(self, guides):
        with pytest.raises(EngineError):
            ParallelSearch([], SearchBudget())
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), workers=0)
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), workers=2.5)
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), chunk_length=5)
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), guide_batch_size=0)


# -- one pool per run ----------------------------------------------------------


class TestOnePoolPerRun:
    """A multi-record run shards every record and uses one pool."""

    @pytest.fixture(scope="class")
    def records(self):
        return [
            random_genome(length, seed=60 + index, name=f"chr{index + 1}")
            for index, length in enumerate((21_000, 9_000, 0, 15_000))
        ]

    @pytest.fixture(scope="class")
    def guides(self, records):
        return sample_guides_from_genome(records[0], 3, seed=65)

    @pytest.fixture(scope="class")
    def expected(self, records, guides):
        budget = SearchBudget(mismatches=2)
        return [matcher.find_hits(record, guides, budget) for record in records]

    def test_four_records_spawn_one_pool(self, records, guides, expected, monkeypatch):
        spawned = []
        real = parallel_module.ProcessPoolExecutor

        def counting(*args, **kwargs):
            spawned.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", counting)
        executor = ParallelSearch(
            guides, SearchBudget(mismatches=2), workers=2, chunk_length=7000
        )
        hits, rows = executor.search_many_with_stats(records)
        assert len(spawned) == 1
        assert [row["sequence"] for row in rows] == [r.name for r in records]
        # The run's pool, spawn and execute time are counted once.
        assert [row["pooled"] for row in rows] == [True, False, False, False]
        executes = [
            span for row in rows for span in row["obs"]["spans"] if span["name"] == "execute"
        ]
        assert len(executes) == 1
        assert executes[0]["shards"] == sum(row["num_shards"] for row in rows)
        # Shard ids run on across records; each row holds its own shards.
        ids = [shard["shard"] for row in rows for shard in row["shards"]]
        assert ids == list(range(len(ids)))
        assert hits == dedupe_hits([hit for record in expected for hit in record])

    def test_default_layout_is_chunk_major_when_chunks_cover_workers(self, guides):
        executor = ParallelSearch(guides, SearchBudget(), workers=2, chunk_length=7000)
        assert executor.guide_batches(num_chunks=2) == [tuple(guides)]
        assert executor.guide_batches(num_chunks=9) == [tuple(guides)]
        # Fewer chunks than workers: split the panel so both work.
        assert [len(b) for b in executor.guide_batches(num_chunks=1)] == [2, 1]
        wide = ParallelSearch(guides, SearchBudget(), workers=4, chunk_length=7000)
        assert [len(b) for b in wide.guide_batches(num_chunks=3)] == [1, 1, 1]

    def test_layout_follows_the_runs_chunk_count(self, records, guides):
        # 21 kbp at 7000 bp chunks is 4 chunks: chunk-major with 2
        # workers; one short record alone (1 chunk) is guide-batched.
        executor = ParallelSearch(guides, SearchBudget(), workers=2, chunk_length=7000)
        _, rows = executor.search_many_with_stats(records)
        assert {row["num_guide_batches"] for row in rows} == {1}
        assert all(row["num_shards"] == row["num_chunks"] for row in rows)
        short = Sequence.from_text("short", records[1].text[:5000])
        _, stats = executor.search_with_stats(short)
        assert (stats["num_chunks"], stats["num_guide_batches"]) == (1, 2)

    @pytest.mark.parametrize("batch", [None, 1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_identical_for_every_worker_count_and_batch(
        self, records, guides, expected, workers, batch
    ):
        executor = ParallelSearch(
            guides,
            SearchBudget(mismatches=2),
            workers=workers,
            chunk_length=7000,
            guide_batch_size=batch,
        )
        hits, rows = executor.search_many_with_stats(records)
        assert hits == dedupe_hits([hit for record in expected for hit in record])
        if batch is not None:
            assert {row["num_guide_batches"] for row in rows} == {-(-3 // batch)}


# -- public API wiring --------------------------------------------------------


class TestOffTargetSearchWorkers:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(50_000, seed=51, name="chrApi")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 3, seed=52)

    def test_parallel_run_matches_serial_run(self, genome, guides):
        budget = SearchBudget(mismatches=2)
        serial = OffTargetSearch(guides, budget).run(genome, engine="fpga")
        pooled = OffTargetSearch(guides, budget, workers=2, chunk_length=16_000).run(
            genome, engine="fpga"
        )
        assert pooled.hits == serial.hits
        assert pooled.stats["parallel"]["workers"] == 2
        # Modeled platform time does not depend on the host-side path.
        assert pooled.modeled_seconds == serial.modeled_seconds

    def test_workers_validation(self, guides):
        with pytest.raises(EngineError):
            OffTargetSearch(guides, workers=0)

    def test_baselines_still_run(self, genome, guides):
        report = OffTargetSearch(
            guides, SearchBudget(mismatches=2), workers=2
        ).run(genome, engine="cas-offinder")
        assert report.engine == "cas-offinder"
