"""Cross-engine differential harness.

One place for the oracle-comparison logic the suite used to duplicate
across ``test_parallel.py``, ``test_faults.py``, and ``test_chaos.py``:
every functional execution path — kernels, the chunked stream, the
sharded pool, the public search API — must produce **bit-identical**
results (same hits, positions, strands, mismatch counts, canonical
dedupe order) to the :class:`~repro.core.reference.NaiveSearcher`
ground truth.

The harness has three layers:

* ``run_engine(name, case)`` — execute one named engine on a
  :class:`DifferentialCase`; every engine returns a canonically sorted
  hit list, so exact ``==`` comparison checks order too.
* ``assert_engines_agree(case, engines=...)`` — run several engines on
  one case and assert bit-identity (exact list equality *and* the
  span multiset, so ordering bugs and boundary double-reports are
  both caught).
* ``differential_grid(...)`` / ``adversarial_chunk_length(...)`` —
  build the engine x genome x panel x budget sweep, including the
  adversarial chunk lengths (barely above the overlap, prime-sized,
  longer than the genome) that stress the block-boundary carry.
* ``bulged_differential_grid()`` / ``planted_bulge_cases()`` — the
  bulge-first layer: a grid sweep over (mismatch, rna, dna) budget
  shapes including saturating ones, plus deterministic constructed
  genomes with planted RNA/DNA bulges at the adversarial coordinates
  (straddling 64-bit word boundaries, at genome position 0, adjacent
  to the PAM, edit mixes that exactly saturate or exceed the budget).
* ``planted_compaction_cases()`` — the mismatch-only scan's edges:
  budget 0 or covering the protospacer, a budgeted run shorter than
  the compaction point, ``64k +- 1`` blocks with a hit on the last
  valid start, a genome ``N`` beside the PAM, an IUPAC PAM.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence as SequenceType

from repro import (
    NaiveSearcher,
    OffTargetSearch,
    ParallelSearch,
    SearchBudget,
    StreamingSearch,
    random_genome,
    sample_guides_from_genome,
)
from repro import alphabet
from repro.core import bitparallel, matcher
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide
from repro.grna.hit import OffTargetHit

from helpers import hit_multiset

#: Whole-genome kernels (no chunking involved).
KERNEL_ENGINES = ("naive", "matcher", "bitparallel")
#: Chunked/sharded/public paths (exercise the block-boundary carry).
CHUNKED_ENGINES = ("streaming", "streaming-matcher", "parallel", "search-api")
#: Every engine the harness can run.
ALL_ENGINES = KERNEL_ENGINES + CHUNKED_ENGINES

#: The ground truth everything else is pinned to.
ORACLE = "naive"


@dataclass(frozen=True)
class DifferentialCase:
    """One (genome, panel, budget) point of the differential grid."""

    genome: Sequence
    guides: tuple[Guide, ...]
    budget: SearchBudget
    chunk_length: Optional[int] = None  # None -> a default safely above overlap
    workers: int = 1
    label: str = ""

    @property
    def overlap(self) -> int:
        """The streaming/sharding overlap this case's panel derives."""
        return (
            max(g.site_length for g in self.guides)
            + self.budget.dna_bulges
            - 1
        )

    def resolved_chunk_length(self) -> int:
        if self.chunk_length is not None:
            return max(self.chunk_length, self.overlap + 1)
        return max(self.overlap + 1, 256)

    def describe(self) -> str:
        return (
            f"{self.label or self.genome.name}: {len(self.genome)} bp, "
            f"{len(self.guides)} guide(s), mm={self.budget.mismatches}, "
            f"chunk={self.resolved_chunk_length()}"
        )


def next_prime_above(n):
    """Smallest prime >= max(n, 2) — for never-divides chunk lengths."""
    candidate = max(n, 2)
    while any(candidate % p == 0 for p in range(2, int(candidate**0.5) + 1)):
        candidate += 1
    return candidate


def adversarial_chunk_length(overlap, total, choice):
    """Adversarial chunk lengths, scaled to the derived overlap.

    ``choice`` indexes a stable menu: the minimum legal chunk, one
    symbol of new content per chunk, a prime that never divides the
    genome, a chunk longer than the whole genome, and a fixed
    mid-sized prime.
    """
    options = [
        overlap + 1,
        overlap + 2,
        next_prime_above(overlap + 3),
        max(total, overlap + 1) + 7,
        61,
    ]
    length = options[choice % len(options)]
    return max(length, overlap + 1)


#: How many distinct adversarial chunk choices exist (for sweeps).
NUM_CHUNK_CHOICES = 5


def run_engine(name: str, case: DifferentialCase) -> list[OffTargetHit]:
    """Execute one named engine on *case*; canonically sorted hits."""
    genome, guides, budget = case.genome, list(case.guides), case.budget
    chunk = case.resolved_chunk_length()
    if name == "naive":
        return NaiveSearcher(budget).search(genome, guides)
    if name == "matcher":
        return matcher.find_hits(genome, guides, budget)
    if name == "bitparallel":
        return bitparallel.find_hits(genome, guides, budget)
    if name == "streaming":
        return StreamingSearch(guides, budget, chunk_length=chunk).search(genome)
    if name == "streaming-matcher":
        return StreamingSearch(
            guides, budget, chunk_length=chunk, kernel="matcher"
        ).search(genome)
    if name == "parallel":
        return ParallelSearch(
            guides,
            budget,
            workers=case.workers,
            chunk_length=chunk,
            backoff_seconds=0.0,
        ).search(genome)
    if name == "search-api":
        search = OffTargetSearch(guides, budget)
        if len(genome) == 0:
            return []
        return list(search.run(genome).hits)
    raise ValueError(f"unknown differential engine {name!r}; know {ALL_ENGINES}")


def assert_engines_agree(
    case: DifferentialCase,
    engines: SequenceType[str] = ALL_ENGINES,
    *,
    oracle: str = ORACLE,
) -> list[OffTargetHit]:
    """Run *engines* on *case*; assert each is bit-identical to *oracle*.

    Bit-identical means the exact same canonically-ordered hit list —
    positions, strands, mismatch counts, and dedupe order — plus the
    span multiset (which catches a path that double-reports a boundary
    site even if sorting would hide it). Returns the oracle hits so
    callers can make additional assertions.
    """
    expected = run_engine(oracle, case)
    expected_multiset = hit_multiset(expected)
    for name in engines:
        if name == oracle:
            continue
        actual = run_engine(name, case)
        assert hit_multiset(actual) == expected_multiset, (
            f"{name} != {oracle} (span multiset) on {case.describe()}"
        )
        assert actual == expected, (
            f"{name} != {oracle} (ordered hit list) on {case.describe()}"
        )
    return expected


@dataclass(frozen=True)
class GridSpec:
    """Parametrizes :func:`differential_grid`."""

    genome_lengths: tuple[int, ...] = (0, 90, 700, 2000)
    panel_sizes: tuple[int, ...] = (1, 3)
    mismatch_budgets: tuple[int, ...] = (0, 1, 2, 3)
    chunk_choices: tuple[int, ...] = (0, 2, 3)
    seed: int = 1729
    n_run_every: int = 3  # every n-th genome gets an N-run splice
    #: (rna_bulges, dna_bulges) shapes crossed with every mismatch
    #: budget; the default keeps the classic mismatch-only grid.
    bulge_shapes: tuple[tuple[int, int], ...] = ((0, 0),)


#: The bulge-first sweep: every budget shape the banded engines
#: distinguish (RNA-only, DNA-only, both, deep), crossed with
#: mismatch budgets 0-2 so ``mismatches + bulges`` saturates at both
#: ends. Sized so the naive oracle stays fast enough for the 2-core
#: CI job.
BULGED_GRID_SPEC = GridSpec(
    genome_lengths=(0, 90, 700),
    panel_sizes=(1,),
    mismatch_budgets=(0, 1, 2),
    chunk_choices=(0, 3),
    bulge_shapes=((1, 0), (0, 1), (1, 1), (2, 1)),
)


def differential_grid(spec: GridSpec = GridSpec()) -> Iterator[DifferentialCase]:
    """Yield the engine-agnostic genome x panel x budget x chunk grid.

    Deterministic for a fixed spec (cases derive from ``spec.seed``);
    each case carries a label that names its grid coordinates, so a
    failure message pinpoints the configuration to replay.
    """
    case_index = 0
    for g_index, length in enumerate(spec.genome_lengths):
        genome = random_genome(
            max(length, 1), seed=spec.seed + g_index, name=f"chrGrid{g_index}"
        )
        if length == 0:
            genome = Sequence.from_text(f"chrGrid{g_index}", "")
        elif spec.n_run_every and g_index % spec.n_run_every == 1 and length > 60:
            # Splice an N-run mid-genome: ambiguity codes must stream
            # through every engine identically.
            text = genome.text
            mid = length // 2
            genome = Sequence.from_text(
                genome.name, text[:mid] + "N" * 9 + text[mid + 9 :]
            )
        # Short genomes cannot donate a whole panel of distinct guides;
        # sample those panels from a fixed donor instead (the guides
        # still scan the short genome, which is the point of the case).
        donor = genome if length >= 500 else random_genome(600, seed=spec.seed)
        for panel_size in spec.panel_sizes:
            guides = tuple(
                sample_guides_from_genome(
                    donor, panel_size, seed=spec.seed + 31 * case_index
                )
            )
            for mismatches in spec.mismatch_budgets:
                for rna, dna in spec.bulge_shapes:
                    budget = SearchBudget(
                        mismatches=mismatches, rna_bulges=rna, dna_bulges=dna
                    )
                    overlap = (
                        max(g.site_length for g in guides)
                        + budget.dna_bulges
                        - 1
                    )
                    shape = f",r={rna},d={dna}" if (rna, dna) != (0, 0) else ""
                    for choice in spec.chunk_choices:
                        yield DifferentialCase(
                            genome=genome,
                            guides=guides,
                            budget=budget,
                            chunk_length=adversarial_chunk_length(
                                overlap, len(genome), choice
                            ),
                            label=(
                                f"grid[g={g_index},p={panel_size},"
                                f"mm={mismatches}{shape},c={choice}]"
                            ),
                        )
                case_index += 1


def case_from_seed(
    seed: int,
    *,
    genome_length: int = 3000,
    panel_size: int = 2,
    mismatches: int = 1,
    rna_bulges: int = 0,
    dna_bulges: int = 0,
    chunk_length: Optional[int] = None,
    workers: int = 1,
    name: str = "chrSeed",
) -> DifferentialCase:
    """One reproducible random case — the shape the ported suites use."""
    genome = random_genome(genome_length, seed=seed, name=name)
    guides = tuple(sample_guides_from_genome(genome, panel_size, seed=seed + 1))
    return DifferentialCase(
        genome=genome,
        guides=guides,
        budget=SearchBudget(
            mismatches=mismatches,
            rna_bulges=rna_bulges,
            dna_bulges=dna_bulges,
        ),
        chunk_length=chunk_length,
        workers=workers,
        label=f"seed={seed}",
    )


def bulged_differential_grid() -> Iterator[DifferentialCase]:
    """The bulge-shape grid sweep (:data:`BULGED_GRID_SPEC`)."""
    return differential_grid(BULGED_GRID_SPEC)


# -- planted-bulge adversaries -------------------------------------------------

#: The guide every planted case targets (NGG PAM; interior positions of
#: its 20-mer protospacer are 1..18 for RNA bulges, 1..19 for DNA).
PLANT_GUIDE = Guide("plantEMX1", "GAGTCCGAGCAGAAGAAGAA")

#: Concrete PAM used when planting sites (satisfies NGG).
_PLANT_PAM = "AGG"

#: PAM-free filler: no G or C, so neither strand can form an NGG/CCN
#: PAM inside it — every hit in a planted genome involves the plant.
_FILLER = "AT"


def _rna_bulged_site(skip: int) -> str:
    """A genomic site missing protospacer position *skip* (RNA bulge)."""
    proto = PLANT_GUIDE.protospacer
    return proto[:skip] + proto[skip + 1 :] + _PLANT_PAM


def _dna_bulged_site(insert: int, base: str) -> str:
    """A genomic site with *base* inserted before protospacer position
    *insert* (DNA bulge)."""
    proto = PLANT_GUIDE.protospacer
    return proto[:insert] + base + proto[insert:] + _PLANT_PAM


def _substituted(site: str, index: int) -> str:
    """Flip one base of *site* (A<->C, otherwise ->A)."""
    flip = "C" if site[index] == "A" else "A"
    return site[:index] + flip + site[index + 1 :]


def _planted_genome(name: str, site: str, offset: int, length: int = 230) -> Sequence:
    """PAM-free filler with *site* spliced in at *offset*."""
    filler = _FILLER * length
    right = max(length - offset - len(site), 0)
    return Sequence.from_text(name, filler[:offset] + site + filler[:right])


def planted_bulge_cases() -> Iterator[DifferentialCase]:
    """Deterministic bulge-adversarial cases for the full engine sweep.

    Every case plants one edited site of :data:`PLANT_GUIDE` into
    PAM-free filler at a chosen genome offset and pairs it with the
    minimum-legal chunk length, so the chunked engines slice straight
    through the planted site. The coordinates are the known sharp
    edges of the banded kernel: bulges whose site straddles a 64-bit
    word boundary, sites at genome position 0, bulges adjacent to the
    PAM, bulges at protospacer position 0 (where the interior-only
    rule forbids the bulge reading), and edit mixes that exactly
    saturate — or exceed by one — the budget. The naive oracle decides
    the truth; the sweep pins that all engines agree with it.
    """
    proto = PLANT_GUIDE.protospacer
    m = len(proto)
    # sub + RNA bulge + DNA bulge in one site: delete interior
    # protospacer position 2, insert a C before (original) position 10,
    # then flip one base well away from both edits.
    mixed = list(proto)
    del mixed[2]
    mixed.insert(9, "C")
    saturating = _substituted("".join(mixed) + _PLANT_PAM, 15)
    over_budget = _substituted(saturating, 6)
    entries: list[tuple[str, str, int, SearchBudget]] = [
        # One RNA bulge, site straddling the first 64-bit word boundary.
        ("rna-word-straddle", _rna_bulged_site(1), 55, SearchBudget(0, 1, 0)),
        # One RNA bulge straddling the second word boundary (bit 128).
        ("rna-word-straddle-128", _rna_bulged_site(9), 118, SearchBudget(1, 1, 0)),
        # RNA bulge dropped from the last interior position (PAM-adjacent).
        ("rna-pam-adjacent", _rna_bulged_site(m - 2), 100, SearchBudget(0, 1, 0)),
        # Deleting position 0 is NOT an interior RNA bulge; engines must
        # agree on whatever reading (if any) the budget still allows.
        ("rna-position0", _rna_bulged_site(0), 40, SearchBudget(1, 1, 0)),
        # RNA-bulged site at genome position 0 (no left context at all).
        ("rna-at-genome-start", _rna_bulged_site(1), 0, SearchBudget(0, 1, 0)),
        # One DNA bulge, site straddling the first word boundary.
        ("dna-word-straddle", _dna_bulged_site(1, "C"), 55, SearchBudget(0, 0, 1)),
        # DNA bulge inserted just before the PAM (i = m - 1).
        ("dna-pam-adjacent", _dna_bulged_site(m - 1, "C"), 100, SearchBudget(0, 0, 1)),
        # DNA-bulged site at genome position 0.
        ("dna-at-genome-start", _dna_bulged_site(1, "C"), 0, SearchBudget(0, 0, 1)),
        # The same planted bulge presented on the minus strand.
        (
            "dna-minus-strand",
            alphabet.reverse_complement(_dna_bulged_site(1, "C")),
            60,
            SearchBudget(0, 0, 1),
        ),
        # sub + RNA bulge + DNA bulge: exactly saturates mm=1,r=1,d=1.
        ("saturating-mix", saturating, 70, SearchBudget(1, 1, 1)),
        # One extra substitution: exceeds the saturating budget by one.
        ("over-budget-mix", over_budget, 70, SearchBudget(1, 1, 1)),
        # Bulge budgets larger than the edits present (headroom case).
        ("deep-budget-headroom", _rna_bulged_site(5), 90, SearchBudget(2, 2, 2)),
    ]
    for label, site, offset, budget in entries:
        overlap = PLANT_GUIDE.site_length + budget.dna_bulges - 1
        yield DifferentialCase(
            genome=_planted_genome(f"chrPlant_{label}", site, offset),
            guides=(PLANT_GUIDE,),
            budget=budget,
            chunk_length=overlap + 1,
            label=f"plant[{label}]",
        )


# -- compacted-scan adversaries ------------------------------------------------

#: A 6-nt guide: its budgeted run ends before the mismatch-only scan's
#: compaction point at every budget, and a budget of 6 covers it all.
SHORT_GUIDE = Guide("short6", "GATCCA", min_length=1)

#: The plant guide under the relaxed ``NRG`` PAM (an IUPAC PAM symbol).
NRG_GUIDE = Guide("plantNRG", PLANT_GUIDE.protospacer, pam="NRG")


def _at_end(name: str, site: str, length: int) -> Sequence:
    """PAM-free filler of *length* whose last bases are *site*, so the
    site starts on the block's last valid start."""
    return Sequence.from_text(name, (_FILLER * length)[: length - len(site)] + site)


def planted_compaction_cases() -> Iterator[DifferentialCase]:
    """Deterministic cases at the edges of the compacted mismatch scan.

    The bit-parallel scan folds the first ``budget + 7`` budgeted
    positions over the whole block and the rest over the words that
    still hold a live start, with the PAM board shared per block. These
    cases sit where that could go wrong: budget 0, a budget covering the
    whole protospacer (every start with a PAM survives), a budgeted run
    shorter than the compaction point, blocks shorter than one word or
    exactly one site long or ``64k +- 1`` long with the hit on the last
    valid start, a genome ``N`` beside the PAM, an IUPAC PAM, and two
    guide lengths sharing one PAM board key but not one valid length.
    """
    proto = PLANT_GUIDE.protospacer
    site = proto + _PLANT_PAM
    # Random background with SHORT_GUIDE sites at 0, 1 and 2 mismatches.
    background = random_genome(400, seed=4242, name="chrShortRun").text
    for offset, planted in ((50, "GATCCAAGG"), (200, "GTTCCATGG"), (300, "CATCCTCGG")):
        background = background[:offset] + planted + background[offset + 9 :]
    short = Sequence.from_text("chrShortRun", background)
    entries: list[tuple[str, Sequence, tuple[Guide, ...], SearchBudget]] = [
        ("mm0", _planted_genome("chrC_mm0", site, 97), (PLANT_GUIDE,), SearchBudget(0)),
        ("short-run-mm0", short, (SHORT_GUIDE,), SearchBudget(0)),
        ("short-run-mm2", short, (SHORT_GUIDE,), SearchBudget(2)),
        ("budget-covers-protospacer", short, (SHORT_GUIDE,), SearchBudget(6)),
        ("budget-over-protospacer", short, (SHORT_GUIDE,), SearchBudget(8)),
        (
            "n-in-protospacer-beside-pam",
            _planted_genome("chrC_nproto", proto[:-1] + "N" + _PLANT_PAM, 70),
            (PLANT_GUIDE,),
            SearchBudget(1),
        ),
        (
            "n-on-pam-wildcard",
            _planted_genome("chrC_npam", proto + "NGG", 70),
            (PLANT_GUIDE,),
            SearchBudget(0),
        ),
        (
            "n-after-pam",
            _planted_genome("chrC_nafter", site + "NN", 70),
            (PLANT_GUIDE,),
            SearchBudget(2),
        ),
        (
            "nrg-pam",
            _planted_genome(
                "chrC_nrg", _substituted(proto, 3) + "TAG" + "ATAT" + site, 40
            ),
            (NRG_GUIDE, PLANT_GUIDE),
            SearchBudget(2),
        ),
    ]
    # 5' PAM guides of two lengths share their exact positions (offsets
    # 0-3) but not their valid-start count: the long guide's first six
    # bases end the block, where it would overhang by six "mismatches".
    long_5p = Guide("long5p", "ACGTACGTACGT", pam="TTTV")
    short_5p = Guide("short5p", "GATCCA", pam="TTTV", min_length=1)
    entries.append(
        (
            "shared-pam-board-two-lengths",
            _at_end("chrC_5p", "TTTA" + long_5p.protospacer[:6], 90),
            (short_5p, long_5p),
            SearchBudget(6),
        )
    )
    for length in (40, len(site), 63, 64, 65, 127, 128, 129):
        entries.append(
            (
                f"last-valid-start-{length}",
                _at_end(f"chrC_end{length}", _substituted(site, 5), length),
                (PLANT_GUIDE,),
                SearchBudget(1),
            )
        )
    for label, genome, guides, budget in entries:
        overlap = max(g.site_length for g in guides) - 1
        yield DifferentialCase(
            genome=genome,
            guides=guides,
            budget=budget,
            chunk_length=overlap + 1,
            label=f"compact[{label}]",
        )


# -- prover-seeded counterexamples ---------------------------------------------


def case_from_counterexample(
    guide: Guide,
    budget: SearchBudget,
    word: str,
    *,
    label: str = "",
) -> DifferentialCase:
    """Plant an equivalence-prover counterexample as a differential case.

    When ``repro.check.prove`` refutes a compiled automaton, its EQV001
    finding carries the shortest genome input on which the automaton
    and the budget semantics disagree. Feeding that word through this
    helper turns the refutation into a permanent cross-engine
    regression: the word becomes the whole genome, the refuted guide
    the whole panel, and the minimum-legal chunk length slices straight
    through the disagreement position.
    """
    case = DifferentialCase(
        genome=Sequence.from_text(f"chrProver_{label or 'witness'}", word),
        guides=(guide,),
        budget=budget,
        label=f"prover[{label or word}]",
    )
    return DifferentialCase(
        genome=case.genome,
        guides=case.guides,
        budget=case.budget,
        chunk_length=case.overlap + 1,
        label=case.label,
    )


#: Counterexamples the prover has extracted, planted permanently.
#: Each entry is (guide, budget, witness word, label). The list is
#: empty while every compiled automaton proves equal — the mutation
#: tests in test_prove.py verify the plumbing stays live by planting
#: witnesses extracted from deliberately corrupted automata.
PROVER_SEEDED_CASES: tuple[DifferentialCase, ...] = ()


def oracle_hits(case: DifferentialCase) -> list[OffTargetHit]:
    """Ground-truth hits for *case* (convenience wrapper)."""
    return run_engine(ORACLE, case)


def duplicate_keys(hits) -> list:
    """Hit keys appearing more than once (should always be empty)."""
    counts = Counter(h.key for h in hits)
    return [key for key, count in counts.items() if count > 1]
