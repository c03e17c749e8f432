"""Parallel sharded off-target search across a host process pool.

The paper's platforms get their throughput from spatial parallelism:
every guide automaton consumes the symbol stream simultaneously. The
functional Python path is a single-threaded loop, so this module
recovers host-side parallelism the way multi-core DNA-scanning systems
do: shard the work, fan the shards across processes, merge.

Work is sharded along two axes:

* **genome chunks** — the overlap-correct windows of
  :func:`repro.core.streaming.iter_chunks`, so a site straddling a
  chunk boundary is still found exactly once (hits wholly inside a
  chunk's overlapped prefix were already reported by the previous
  chunk and are dropped, the same rule :class:`StreamingSearch` pins);
* **guide batches** — disjoint slices of the guide library, used only
  when a run has fewer chunks than workers (or an explicit
  ``guide_batch_size`` asks for them). A run with at least ``workers``
  chunks keeps the whole panel in one batch, so every chunk is decoded
  and packed into code planes exactly once.

:meth:`ParallelSearch.search_many_with_stats` shards every record of a
run up front and executes all the shards through **one** process pool,
then merges per record; spawning a pool per record would pay the
spawn again and leave workers idle at every record's tail.

Workers receive cheap-to-pickle payloads only: 2-bit packed chunk
codes (:class:`~repro.genome.sequence.TwoBitSequence` bytes), plain
guide records, the :class:`SearchBudget`, and the kernel name — never
automaton objects. Each worker compiles and runs the selected kernel
(:mod:`repro.core.bitparallel` by default) on its shard; the parent merges shard
results in shard order and canonically dedupes, so the final hit list
is **bit-identical** to :class:`StreamingSearch` and to the
whole-genome kernel regardless of worker count, chunk size, or
scheduling order — the property the differential test suite pins
against the :class:`~repro.core.reference.NaiveSearcher` oracle.

Fault tolerance
---------------

A worker that dies, stalls, or returns garbage must not take the
search down or silently degrade the result, so shard execution is a
small supervised scheduler rather than a bare ``pool.map``:

* every shard attempt carries a deadline (``shard_timeout``); an
  attempt that blows it is abandoned and the shard is **requeued onto
  the surviving workers**;
* failed attempts (worker death, timeout, corrupt payload) are retried
  with **exponential backoff** up to ``max_retries`` extra attempts;
* a worker death breaks the whole :class:`ProcessPoolExecutor`
  (CPython semantics), so the scheduler **rebuilds the pool** and
  requeues everything that was in flight;
* shards that exhaust their pooled retry budget fall back to a
  **last-resort in-process re-execution** of only those shards, with a
  fresh retry budget — the merge stays bit-identical because every
  recovery path re-runs the same deterministic kernel on the same
  shard payload;
* ``workers=1`` runs the shards serially in-process (no pool); a pool
  that fails to spawn degrades to the same serial path. Both are
  recorded in the returned stats rather than raised.

Every returned shard payload is validated against the shard's own
bounds and budget (:func:`validate_shard_result`), so a corrupt result
is caught and retried instead of silently merged.

Every degradation path is deterministic and therefore testable: a
:class:`FaultPlan` injects ``kill`` / ``hang`` / ``corrupt`` faults
for (shard, attempt) pairs plus pool-spawn failures, and
``tests/test_faults.py`` pins that each path still reproduces the
oracle hit set with the recovery visible in the run's stats.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from ..errors import EngineError
from ..genome.sequence import Sequence, TwoBitSequence
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit, dedupe_hits
from ..obs import Metrics
from . import bitparallel
from .compiler import SearchBudget
from .streaming import iter_chunks

#: Injectable fault kinds, in increasing order of subtlety.
FAULT_KINDS = ("kill", "hang", "corrupt")


class ShardError(EngineError):
    """One shard attempt failed; ``kind`` names the failure class."""

    def __init__(self, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.kind = kind
        # Keep *kind* in args so the exception survives pickling
        # across the process boundary.
        self.args = (message, kind)


class ShardTimeout(ShardError):
    """A shard attempt exceeded its deadline."""

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="timeout")
        self.args = (message,)


@dataclass(frozen=True)
class FaultSpec:
    """Inject one fault: *kind* on *attempt* of shard *shard_id*.

    Attempts are numbered from 1 and count every execution of the
    shard — pooled, serial, and the in-process rescue alike — so a
    plan describes a run's whole failure schedule deterministically.
    """

    shard_id: int
    attempt: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise EngineError("fault attempts are numbered from 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault-injection schedule for one search run.

    ``kill`` terminates the worker process mid-shard (in-process
    execution raises instead of exiting); ``hang`` stalls the worker
    for ``hang_seconds`` before it completes (observable only when a
    ``shard_timeout`` is configured); ``corrupt`` makes the shard
    return a payload that fails validation. ``pool_spawn_failures``
    makes that many pool creations fail, exercising the serial
    fallback and the mid-run rebuild path.
    """

    faults: tuple[FaultSpec, ...] = ()
    pool_spawn_failures: int = 0
    hang_seconds: float = 30.0

    @classmethod
    def kill(cls, shard_id: int, attempt: int = 1) -> "FaultPlan":
        return cls(faults=(FaultSpec(shard_id, attempt, "kill"),))

    @classmethod
    def hang(cls, shard_id: int, attempt: int = 1, *, hang_seconds: float = 30.0) -> "FaultPlan":
        return cls(
            faults=(FaultSpec(shard_id, attempt, "hang"),),
            hang_seconds=hang_seconds,
        )

    @classmethod
    def corrupt(cls, shard_id: int, attempt: int = 1) -> "FaultPlan":
        return cls(faults=(FaultSpec(shard_id, attempt, "corrupt"),))

    def fault_for(self, shard_id: int, attempt: int) -> str | None:
        """The fault kind scheduled for this (shard, attempt), if any."""
        for spec in self.faults:
            if spec.shard_id == shard_id and spec.attempt == attempt:
                return spec.kind
        return None


@dataclass(frozen=True)
class ShardTask:
    """One unit of worker work: a packed genome chunk × a guide batch.

    Every field pickles cheaply: the chunk travels as 2-bit packed
    bytes plus its ``N`` bitmap, guides as small frozen records, the
    budget as three ints, and the kernel as its registry name (the
    worker compiles it locally). The worker rebuilds the chunk
    :class:`Sequence` and runs the selected kernel on it.
    """

    shard_id: int
    sequence_name: str
    chunk_start: int
    chunk_overlap: int
    chunk_length: int
    packed: bytes
    n_mask: bytes
    guides: tuple[Guide, ...]
    budget: SearchBudget
    kernel: str = bitparallel.DEFAULT_KERNEL


@dataclass(frozen=True)
class ShardResult:
    """What one shard reports back: absolute-coordinate hits + timing."""

    shard_id: int
    hits: tuple[OffTargetHit, ...]
    seconds: float
    chunk_start: int
    chunk_length: int

    @property
    def num_hits(self) -> int:
        return len(self.hits)


def _search_shard(task: ShardTask) -> ShardResult:
    """Worker entry point (top-level so it pickles under any start method)."""
    started = time.perf_counter()
    packed = np.frombuffer(task.packed, dtype=np.uint8)
    n_mask = np.frombuffer(task.n_mask, dtype=np.uint8)
    chunk = TwoBitSequence(packed, n_mask, task.chunk_length).unpack(
        name=task.sequence_name
    )
    scan = bitparallel.make_kernel(task.kernel, task.guides, task.budget)
    hits: list[OffTargetHit] = []
    for hit in scan(chunk):
        # A hit wholly inside the overlapped prefix was already
        # reported by the previous chunk's shard (streaming.py rule).
        if task.chunk_overlap and hit.end <= task.chunk_overlap:
            continue
        hits.append(
            replace(
                hit,
                start=hit.start + task.chunk_start,
                end=hit.end + task.chunk_start,
            )
        )
    return ShardResult(
        shard_id=task.shard_id,
        hits=tuple(hits),
        seconds=time.perf_counter() - started,
        chunk_start=task.chunk_start,
        chunk_length=task.chunk_length,
    )


def _corrupted(result: ShardResult) -> ShardResult:
    """An injected-corruption payload: detectably violates every bound."""
    bogus = OffTargetHit("__corrupt__", "??", "?", -7, -3, -1)
    return replace(result, hits=result.hits + (bogus,))


def _run_shard(payload: tuple[ShardTask, str | None, float, int]) -> ShardResult:
    """Worker entry point with fault injection (top-level, picklable).

    *payload* is ``(task, fault_kind, hang_seconds, parent_pid)``. A
    ``kill`` fault exits the worker process abruptly (raising instead
    when running inside the parent, so in-process execution stays
    alive); a ``hang`` fault stalls before computing; ``corrupt``
    computes honestly and then mangles the payload.
    """
    task, fault, hang_seconds, parent_pid = payload
    if fault == "hang":
        time.sleep(hang_seconds)
    elif fault == "kill":
        if os.getpid() != parent_pid:
            os._exit(1)
        raise ShardError(f"injected kill of shard {task.shard_id}", kind="kill")
    result = _search_shard(task)
    if fault == "corrupt":
        return _corrupted(result)
    return result


def validate_shard_result(task: ShardTask, result: object) -> str | None:
    """Check a shard payload against its task's own invariants.

    Returns a human-readable defect description, or ``None`` when the
    payload is well-formed. Validation is what turns a corrupt worker
    response into a retryable failure instead of a silently wrong
    merge: every hit must lie inside the shard's chunk span, name a
    guide from the shard's batch, and respect the search budget.
    """
    if not isinstance(result, ShardResult):
        return f"payload is {type(result).__name__}, not ShardResult"
    if result.shard_id != task.shard_id:
        return f"shard_id {result.shard_id} != task {task.shard_id}"
    if not isinstance(result.hits, tuple):
        return "hits payload is not a tuple"
    if result.seconds < 0:
        return "negative shard wall time"
    names = {guide.name for guide in task.guides}
    low = task.chunk_start
    high = task.chunk_start + task.chunk_length
    budget = task.budget
    for hit in result.hits:
        if not isinstance(hit, OffTargetHit):
            return f"hit payload is {type(hit).__name__}"
        if hit.guide_name not in names:
            return f"hit names unknown guide {hit.guide_name!r}"
        if hit.strand not in ("+", "-"):
            return f"invalid strand {hit.strand!r}"
        if not (low <= hit.start < hit.end <= high):
            return (
                f"hit span [{hit.start}, {hit.end}) outside shard chunk "
                f"[{low}, {high})"
            )
        if not (
            0 <= hit.mismatches <= budget.mismatches
            and 0 <= hit.rna_bulges <= budget.rna_bulges
            and 0 <= hit.dna_bulges <= budget.dna_bulges
        ):
            return f"hit edits exceed budget: {hit}"
    return None


def merge_shards(results: Iterable[ShardResult]) -> list[OffTargetHit]:
    """Deterministic merge: shard order, then canonical dedupe + sort.

    Sorting by ``shard_id`` before deduplication makes the merge
    independent of pool scheduling/completion order; the canonical
    dedupe then yields the same sorted list the serial paths produce.
    """
    ordered = sorted(results, key=lambda result: result.shard_id)
    hits: list[OffTargetHit] = []
    for result in ordered:
        hits.extend(result.hits)
    return dedupe_hits(hits)


@dataclass
class _ShardState:
    """Parent-side bookkeeping for one shard across its attempts."""

    task: ShardTask
    metrics: Metrics  # the shard's record's metrics
    attempts: int = 0
    failures: list[str] = field(default_factory=list)
    timeouts: int = 0
    result: ShardResult | None = None
    recovery: str | None = None  # None | "retry" | "in_process"


class ParallelSearch:
    """Sharded multi-process off-target search with supervised recovery.

    Results are guaranteed identical to :class:`StreamingSearch` (and
    therefore to a whole-genome :func:`~repro.core.matcher.find_hits`)
    for every worker count, chunk size, and recovery path: the chunk
    axis reuses the streaming overlap semantics, the guide axis
    partitions disjoint hit keys, every retry re-runs the same
    deterministic kernel on the same payload, and the merge is
    order-canonical.

    Parameters
    ----------
    guides:
        The guide set (any iterable of :class:`Guide`).
    budget:
        Shared :class:`SearchBudget`.
    workers:
        Process count; ``None`` means ``os.cpu_count()``. ``1`` runs
        the shards serially in-process.
    chunk_length:
        Genome chunk size; must exceed the derived overlap.
    guide_batch_size:
        Guides per batch; ``None`` derives it per run (see
        :meth:`guide_batches`).
    shard_timeout:
        Per-attempt deadline in seconds; ``None`` (default) waits
        indefinitely. An attempt past its deadline is abandoned and
        the shard requeued onto the surviving workers.
    max_retries:
        Extra attempts per shard beyond the first, per execution arena
        (the pooled run and the in-process rescue each get this
        budget).
    backoff_seconds:
        Base of the exponential backoff between a shard's attempts
        (``backoff_seconds * 2**(failures - 1)``); ``0`` disables
        waiting.
    fault_plan:
        Deterministic fault injection for tests and drills; ``None``
        (default) injects nothing.
    kernel:
        Functional kernel each worker runs on its shard (see
        :data:`repro.core.bitparallel.KERNEL_NAMES`); every kernel is
        bit-identical, so this only changes throughput.
    """

    def __init__(
        self,
        guides: Iterable[Guide],
        budget: SearchBudget,
        *,
        workers: int | None = None,
        chunk_length: int = 1 << 20,
        guide_batch_size: int | None = None,
        shard_timeout: float | None = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        fault_plan: FaultPlan | None = None,
        kernel: str = bitparallel.DEFAULT_KERNEL,
    ) -> None:
        guide_list = list(guides)
        if not guide_list:
            raise EngineError("parallel search needs at least one guide")
        if workers is None:
            workers = os.cpu_count() or 1
        if not isinstance(workers, int) or workers < 1:
            raise EngineError(f"workers must be a positive integer, got {workers!r}")
        self._guides = guide_list
        self._budget = budget
        self._workers = workers
        max_site = max(g.site_length for g in guide_list) + budget.dna_bulges
        self._overlap = max_site - 1
        if chunk_length <= self._overlap:
            raise EngineError(
                f"chunk_length {chunk_length} must exceed the overlap {self._overlap}"
            )
        self._chunk_length = chunk_length
        if guide_batch_size is not None and guide_batch_size < 1:
            raise EngineError("guide_batch_size must be positive")
        self._guide_batch_size = guide_batch_size
        if shard_timeout is not None and not shard_timeout > 0:
            raise EngineError(
                f"shard_timeout must be positive or None, got {shard_timeout!r}"
            )
        self._shard_timeout = shard_timeout
        if not isinstance(max_retries, int) or max_retries < 0:
            raise EngineError(
                f"max_retries must be a non-negative integer, got {max_retries!r}"
            )
        self._max_retries = max_retries
        if backoff_seconds < 0:
            raise EngineError(f"backoff_seconds must be >= 0, got {backoff_seconds!r}")
        self._backoff_seconds = backoff_seconds
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise EngineError(f"fault_plan must be a FaultPlan, got {fault_plan!r}")
        self._fault_plan = fault_plan
        self._kernel = bitparallel.validate_kernel(kernel)

    # -- introspection -----------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def overlap(self) -> int:
        return self._overlap

    @property
    def chunk_length(self) -> int:
        return self._chunk_length

    @property
    def shard_timeout(self) -> float | None:
        return self._shard_timeout

    @property
    def max_retries(self) -> int:
        return self._max_retries

    @property
    def kernel(self) -> str:
        return self._kernel

    def guide_batches(self, num_chunks: int) -> list[tuple[Guide, ...]]:
        """The disjoint guide batches of a run of *num_chunks* chunks.

        An explicit ``guide_batch_size`` always applies. Otherwise a run
        with at least ``workers`` chunks keeps the whole panel in one
        batch (chunk-major: each chunk is decoded and packed once), and
        a shorter run splits the panel into at most ``workers`` equal
        batches so every worker still gets a shard.
        """
        size = self._guide_batch_size
        if size is None:
            if num_chunks >= self._workers:
                size = len(self._guides)
            else:
                size = -(-len(self._guides) // self._workers)  # ceil division
        return [
            tuple(self._guides[index : index + size])
            for index in range(0, len(self._guides), size)
        ]

    # -- sharding ----------------------------------------------------------

    def shard_tasks(self, genome: Sequence) -> list[ShardTask]:
        """All (chunk × guide-batch) shards for *genome*, in canonical order."""
        return self._shard_run([genome], [Metrics()])[0][0]

    def _shard_run(
        self, genomes: list[Sequence], record_metrics: list[Metrics]
    ) -> tuple[list[list[ShardTask]], int]:
        """Per record, its shards (ids run on across the records), and
        the run's guide batch count.

        Every chunk is packed first (a ``shard_tasks`` span per record),
        because the guide batching depends on the run's chunk count.
        """
        packed_records = []
        for genome, metrics in zip(genomes, record_metrics):
            with metrics.span("shard_tasks"):
                chunks = []
                for chunk in iter_chunks(
                    genome, chunk_length=self._chunk_length, overlap=self._overlap
                ):
                    two_bit = TwoBitSequence.pack(chunk.sequence)
                    chunks.append(
                        (
                            chunk.start,
                            chunk.overlap,
                            len(chunk),
                            two_bit.packed_bytes,
                            two_bit.n_mask_bytes,
                        )
                    )
                packed_records.append(chunks)
        batches = self.guide_batches(sum(len(chunks) for chunks in packed_records))
        record_tasks: list[list[ShardTask]] = []
        shard_id = 0
        for genome, chunks in zip(genomes, packed_records):
            tasks: list[ShardTask] = []
            for start, overlap, length, packed, n_mask in chunks:
                for batch in batches:
                    tasks.append(
                        ShardTask(
                            shard_id=shard_id,
                            sequence_name=genome.name,
                            chunk_start=start,
                            chunk_overlap=overlap,
                            chunk_length=length,
                            packed=packed,
                            n_mask=n_mask,
                            guides=batch,
                            budget=self._budget,
                            kernel=self._kernel,
                        )
                    )
                    shard_id += 1
            record_tasks.append(tasks)
        return record_tasks, len(batches)

    # -- fault and retry plumbing ------------------------------------------

    def _fault_for(self, shard_id: int, attempt: int) -> str | None:
        if self._fault_plan is None:
            return None
        return self._fault_plan.fault_for(shard_id, attempt)

    def _hang_seconds(self) -> float:
        return self._fault_plan.hang_seconds if self._fault_plan else 0.0

    def _record_failure(self, state: _ShardState, kind: str) -> None:
        state.failures.append(kind)
        if kind == "timeout":
            state.timeouts += 1
        state.metrics.incr("parallel.failures")
        state.metrics.incr(f"parallel.failures.{kind}")

    def _record_success(self, state: _ShardState, result: ShardResult) -> None:
        state.result = result
        state.metrics.incr("parallel.shards_completed")
        state.metrics.incr("parallel.kernel_positions", state.task.chunk_length)
        state.metrics.incr("parallel.report_events", result.num_hits)
        state.metrics.observe("parallel.shard_seconds", result.seconds)

    def _backoff_delay(self, nth_failure: int, run: dict, metrics: Metrics) -> float:
        """The wait before retry number *nth_failure* (1-based)."""
        if self._backoff_seconds <= 0:
            return 0.0
        delay = self._backoff_seconds * (2 ** (nth_failure - 1))
        run["backoff_waits"] += 1
        metrics.incr("parallel.backoff_waits")
        return delay

    def _spawn_pool(
        self, num_tasks: int, run: dict, metrics: Metrics
    ) -> ProcessPoolExecutor | None:
        """Create the process pool, honouring injected spawn failures."""
        if run["spawn_failures_left"] > 0:
            run["spawn_failures_left"] -= 1
            run["pool_spawn_failures"] += 1
            metrics.incr("parallel.pool_spawn_failures")
            return None
        try:
            return ProcessPoolExecutor(max_workers=min(self._workers, num_tasks))
        except (OSError, BrokenExecutor, RuntimeError):
            run["pool_spawn_failures"] += 1
            metrics.incr("parallel.pool_spawn_failures")
            return None

    # -- in-process execution (serial path and last-resort rescue) ---------

    def _in_process_attempts(
        self,
        state: _ShardState,
        run: dict,
        metrics: Metrics,
        *,
        recovery_label: str = "retry",
    ) -> bool:
        """Run one shard in-process with a fresh retry budget.

        An injected ``hang`` is only observable against a configured
        deadline, so with ``shard_timeout`` set it becomes an immediate
        (simulated) :class:`ShardTimeout`; without one the stall cannot
        be detected and the attempt simply completes.
        """
        parent_pid = os.getpid()
        for arena_attempt in range(1 + self._max_retries):
            attempt = state.attempts + 1
            state.attempts = attempt
            fault = self._fault_for(state.task.shard_id, attempt)
            try:
                if fault == "hang":
                    fault = None
                    if self._shard_timeout is not None:
                        raise ShardTimeout(
                            f"injected hang of shard {state.task.shard_id} "
                            f"(attempt {attempt}, in-process)"
                        )
                result = _run_shard((state.task, fault, 0.0, parent_pid))
                defect = validate_shard_result(state.task, result)
                if defect:
                    raise ShardError(
                        f"shard {state.task.shard_id} returned a corrupt payload: {defect}",
                        kind="corrupt_result",
                    )
            except ShardError as error:
                self._record_failure(state, error.kind)
                if arena_attempt < self._max_retries:
                    delay = self._backoff_delay(len(state.failures), run, metrics)
                    if delay:
                        time.sleep(delay)
                continue
            self._record_success(state, result)
            if state.failures:
                state.recovery = recovery_label
            return True
        return False

    def _execute_serial(
        self, states: list[_ShardState], run: dict, metrics: Metrics
    ) -> None:
        for state in states:
            if not self._in_process_attempts(state, run, metrics):
                raise EngineError(
                    f"shard {state.task.shard_id} failed after "
                    f"{state.attempts} attempt(s): {state.failures}"
                )

    # -- pooled execution ---------------------------------------------------

    def _execute_pooled(
        self, states: list[_ShardState], run: dict, metrics: Metrics
    ) -> None:
        by_id = {state.task.shard_id: state for state in states}
        pool = self._spawn_pool(len(states), run, metrics)
        if pool is None:
            # Pool failed to spawn: degrade to the serial path — same
            # shards, same merge, identical results.
            run["serial_fallback"] = True
            self._execute_serial(states, run, metrics)
            return
        run["pooled"] = True
        parent_pid = os.getpid()
        waiting: dict[int, float] = {shard_id: 0.0 for shard_id in sorted(by_id)}
        in_flight: dict = {}  # Future -> (shard_id, deadline)
        terminal: list[int] = []

        def schedule_failure(
            state: _ShardState, kind: str, *, consume_budget: bool = True
        ) -> None:
            # A broken-pool failure is collateral damage — the shard's
            # own attempt may have been perfectly healthy — so it
            # requeues immediately without consuming the shard's retry
            # budget; runaway kills are bounded by the rebuild cap
            # instead.
            self._record_failure(state, kind)
            if consume_budget and state.attempts >= 1 + self._max_retries:
                terminal.append(state.task.shard_id)
            else:
                delay = (
                    self._backoff_delay(len(state.failures), run, metrics)
                    if consume_budget
                    else 0.0
                )
                waiting[state.task.shard_id] = time.perf_counter() + delay

        try:
            while waiting or in_flight:
                now = time.perf_counter()
                broken = False
                # Submit every waiting shard whose backoff has elapsed.
                for shard_id in sorted(waiting):
                    if waiting[shard_id] > now:
                        continue
                    state = by_id[shard_id]
                    attempt = state.attempts + 1
                    fault = self._fault_for(shard_id, attempt)
                    payload = (state.task, fault, self._hang_seconds(), parent_pid)
                    try:
                        future = pool.submit(_run_shard, payload)
                    except (BrokenExecutor, RuntimeError):
                        broken = True
                        break
                    del waiting[shard_id]
                    state.attempts = attempt
                    deadline = (
                        now + self._shard_timeout
                        if self._shard_timeout is not None
                        else math.inf
                    )
                    in_flight[future] = (shard_id, deadline)

                if not broken:
                    if not in_flight:
                        # Everything left is backing off; sleep until the
                        # earliest shard becomes eligible again.
                        if waiting:
                            pause = min(waiting.values()) - time.perf_counter()
                            if pause > 0:
                                time.sleep(pause)
                        continue
                    horizon = min(deadline for _, deadline in in_flight.values())
                    if waiting:
                        horizon = min(horizon, min(waiting.values()))
                    timeout = None if horizon == math.inf else max(0.0, horizon - now)
                    done, _ = wait(
                        list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        shard_id, _ = in_flight.pop(future)
                        state = by_id[shard_id]
                        try:
                            result = future.result()
                        except BrokenExecutor:
                            broken = True
                            schedule_failure(state, "worker_death", consume_budget=False)
                            continue
                        except ShardError as error:
                            schedule_failure(state, error.kind)
                            continue
                        except Exception:
                            schedule_failure(state, "error")
                            continue
                        defect = validate_shard_result(state.task, result)
                        if defect:
                            schedule_failure(state, "corrupt_result")
                            continue
                        self._record_success(state, result)
                        if state.failures:
                            state.recovery = "retry"
                    # Abandon attempts past their deadline and requeue the
                    # shard onto the surviving workers; the stale future is
                    # simply ignored if it ever completes.
                    now = time.perf_counter()
                    for future, (shard_id, deadline) in list(in_flight.items()):
                        if now >= deadline:
                            del in_flight[future]
                            schedule_failure(by_id[shard_id], "timeout")

                if broken:
                    # A dead worker poisons the whole executor: every
                    # in-flight shard fails with it. Requeue them all and
                    # rebuild the pool.
                    for future, (shard_id, _) in list(in_flight.items()):
                        del in_flight[future]
                        schedule_failure(
                            by_id[shard_id], "pool_broken", consume_budget=False
                        )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    if run["pool_rebuilds"] < 1 + self._max_retries:
                        pool = self._spawn_pool(len(states), run, metrics)
                    if pool is None:
                        # Rebuild cap hit or respawn failed: everything
                        # unfinished goes to the in-process rescue below.
                        terminal.extend(sorted(waiting))
                        waiting.clear()
                        break
                    run["pool_rebuilds"] += 1
                    metrics.incr("parallel.pool_rebuilds")
        finally:
            if pool is not None:
                # Never block on a hung worker; cancelled tasks were
                # already requeued or rescued.
                pool.shutdown(wait=False, cancel_futures=True)

        # Last resort: re-execute only the failed shards in-process,
        # with a fresh retry budget. The kernel is deterministic, so
        # the merge stays bit-identical to an all-pooled run.
        for shard_id in sorted(set(terminal)):
            state = by_id[shard_id]
            if state.result is not None:
                continue
            if self._in_process_attempts(
                state, run, metrics, recovery_label="in_process"
            ):
                run["in_process_rescues"] += 1
                metrics.incr("parallel.in_process_rescues")
            else:
                raise EngineError(
                    f"shard {shard_id} failed after {state.attempts} attempt(s) "
                    f"including in-process rescue: {state.failures}"
                )

    # -- execution ---------------------------------------------------------

    def _execute(
        self, states: list[_ShardState], run: dict, metrics: Metrics
    ) -> None:
        if self._workers == 1 or len(states) <= 1:
            self._execute_serial(states, run, metrics)
        else:
            self._execute_pooled(states, run, metrics)

    def search(self, genome: Sequence) -> list[OffTargetHit]:
        """Search one sequence; identical to the serial/streaming paths."""
        hits, _ = self.search_with_stats(genome)
        return hits

    def search_with_stats(
        self, genome: Sequence
    ) -> tuple[list[OffTargetHit], dict]:
        """Search plus per-shard timing/retry/hit-count stats.

        The stats dict is what :class:`~repro.engines.base.EngineResult`
        carries under ``stats["parallel"]``, what the CLI's
        ``--stats-json`` emits, and what the scaling/fault benchmarks
        report: requested workers, shard counts along both axes,
        whether a pool actually ran (or fell back to serial), per-shard
        wall seconds / attempts / failure kinds / recovery paths, the
        fault-tolerance totals, and an :class:`~repro.obs.Metrics`
        snapshot of the run.
        """
        return self._search_run([genome])[0]

    def _search_run(
        self, genomes: list[Sequence]
    ) -> list[tuple[list[OffTargetHit], dict]]:
        """Shard every record, run all shards through one pool, merge per record.

        Each record gets its own hits and stats row. The figures of the
        run as a whole — whether a pool ran (``pooled``,
        ``serial_fallback``), the ``execute`` span and the pool-level
        fault counters — are reported on the first record's row only, so
        summing the rows counts the shared pool once.
        """
        if not genomes:
            return []
        record_metrics = [Metrics() for _ in genomes]
        record_tasks, num_batches = self._shard_run(genomes, record_metrics)
        record_states = [
            [_ShardState(task, metrics) for task in tasks]
            for tasks, metrics in zip(record_tasks, record_metrics)
        ]
        states = [state for record in record_states for state in record]
        run = {
            "pooled": False,
            "serial_fallback": False,
            "pool_rebuilds": 0,
            "pool_spawn_failures": 0,
            "spawn_failures_left": (
                self._fault_plan.pool_spawn_failures if self._fault_plan else 0
            ),
            "backoff_waits": 0,
            "in_process_rescues": 0,
        }
        run_metrics = record_metrics[0]
        with run_metrics.span("execute", shards=len(states)):
            self._execute(states, run, run_metrics)
        results = []
        for index, (metrics, record) in enumerate(zip(record_metrics, record_states)):
            merge_started = time.perf_counter()
            with metrics.span("merge"):
                hits = merge_shards(
                    state.result for state in record if state.result is not None
                )
            merge_seconds = time.perf_counter() - merge_started
            stats = self._record_stats(
                record, metrics, merge_seconds, num_batches, run if index == 0 else None
            )
            results.append((hits, stats))
        return results

    def _record_stats(
        self,
        states: list[_ShardState],
        metrics: Metrics,
        merge_seconds: float,
        num_batches: int,
        run: dict | None,
    ) -> dict:
        """One record's stats row; *run* carries the pool figures, or ``None``."""
        shard_rows = []
        for state in states:
            result = state.result
            shard_rows.append(
                {
                    "shard": state.task.shard_id,
                    "chunk_start": state.task.chunk_start,
                    "seconds": result.seconds if result else 0.0,
                    "hits": result.num_hits if result else 0,
                    "attempts": state.attempts,
                    "failures": list(state.failures),
                    "timeouts": state.timeouts,
                    "recovery": state.recovery,
                }
            )
        failure_totals: dict[str, int] = {}
        for state in states:
            for kind in state.failures:
                failure_totals[kind] = failure_totals.get(kind, 0) + 1
        snapshot = metrics.snapshot()
        run = run or {}
        return {
            "workers": self._workers,
            "kernel": self._kernel,
            "pooled": run.get("pooled", False),
            "serial_fallback": run.get("serial_fallback", False),
            "num_shards": len(states),
            "num_chunks": len(states) // num_batches,
            "num_guide_batches": num_batches,
            "chunk_length": self._chunk_length,
            "overlap": self._overlap,
            "shards": shard_rows,
            "total_shard_seconds": sum(
                state.result.seconds for state in states if state.result
            ),
            "merge_seconds": merge_seconds,
            "wall_seconds": sum(span["seconds"] for span in snapshot["spans"]),
            "kernel_positions": int(metrics.counter("parallel.kernel_positions")),
            "report_events": int(metrics.counter("parallel.report_events")),
            "fault_tolerance": {
                "shard_timeout": self._shard_timeout,
                "max_retries": self._max_retries,
                "backoff_seconds": self._backoff_seconds,
                "retries": sum(max(0, state.attempts - 1) for state in states),
                "timeouts": sum(state.timeouts for state in states),
                "failures": failure_totals,
                "pool_rebuilds": run.get("pool_rebuilds", 0),
                "pool_spawn_failures": run.get("pool_spawn_failures", 0),
                "backoff_waits": run.get("backoff_waits", 0),
                "in_process_rescues": run.get("in_process_rescues", 0),
            },
            "obs": snapshot,
        }

    def search_many(self, genomes: Iterable[Sequence]) -> list[OffTargetHit]:
        """Search several sequences (chromosomes), merged canonically."""
        hits, _ = self.search_many_with_stats(genomes)
        return hits

    def search_many_with_stats(
        self, genomes: Iterable[Sequence]
    ) -> tuple[list[OffTargetHit], list[dict]]:
        """Search several sequences through one pool; hits merged
        canonically, one stats row per sequence (see :meth:`_search_run`).

        A single sequence goes through :meth:`search_with_stats`, the
        executor's one-sequence entry point.
        """
        genome_list = list(genomes)
        if len(genome_list) == 1:
            runs = [self.search_with_stats(genome_list[0])]
        else:
            runs = self._search_run(genome_list)
        hits: list[OffTargetHit] = []
        per_sequence: list[dict] = []
        for genome, (sequence_hits, stats) in zip(genome_list, runs):
            hits.extend(sequence_hits)
            per_sequence.append({"sequence": genome.name, **stats})
        return dedupe_hits(hits), per_sequence
