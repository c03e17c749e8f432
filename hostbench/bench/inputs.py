"""Seeded input generation for the four workloads.

Every input the program sees is written here as a plain file: FASTA
references and guide tables. The same ``(workload, seed, scale)`` gives
byte-identical files (recorded as :attr:`Inputs.digest`); another seed
gives different ones. Genomes come from the program's own
``SyntheticGenomeBuilder``; planting, guide sampling and the FASTA text
are done here, so a defect in the program's writers cannot hide in the
inputs.

Besides the files, each generator returns the ground truth its checks
need: planted sites with their exact edit profile and, for the cold
workloads, the slice the naive oracle re-derives at set-up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import SyntheticGenomeBuilder

GC_CONTENT = 0.41
PROTOSPACER = 20
FASTA_WIDTH = 60
ORACLE_SLICE = 1000
_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")


def reverse_complement(text: str) -> str:
    return text.translate(_COMPLEMENT)[::-1]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, tag)).generate_state(1)[0])


@dataclass(frozen=True)
class Site:
    """A planted (or sampled) site: one expected BED row."""

    record: str
    start: int
    end: int
    guide: str
    mismatches: int
    strand: str

    def bed_row(self) -> tuple[str, int, int, str, int, str]:
        return (self.record, self.start, self.end, self.guide, self.mismatches, self.strand)


@dataclass
class Inputs:
    """What one workload's generator wrote, plus its ground truth."""

    files: dict[str, Path]
    records: list[tuple[str, str]]
    guides: list[tuple[str, str]]
    params: dict
    planted: list[Site] = field(default_factory=list)
    oracle_slice: tuple[str, int, int] | None = None
    panels: list[tuple[int, ...]] = field(default_factory=list)
    seed: int = 0

    @property
    def genome_bp(self) -> int:
        return sum(len(text) for _, text in self.records)

    @property
    def digest(self) -> str:
        """sha256 over every generated file, in name order."""
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(name.encode("ascii"))
            digest.update(self.files[name].read_bytes())
        return digest.hexdigest()


def write_fasta(path: Path, records: list[tuple[str, str]]) -> Path:
    with open(path, "w", encoding="ascii") as handle:
        for name, text in records:
            handle.write(f">{name}\n")
            for offset in range(0, len(text), FASTA_WIDTH):
                handle.write(text[offset : offset + FASTA_WIDTH])
                handle.write("\n")
    return path


def write_guides(path: Path, guides: list[tuple[str, str]]) -> Path:
    with open(path, "w", encoding="ascii") as handle:
        for name, protospacer in guides:
            handle.write(f"{name}\t{protospacer}\n")
    return path


def _background(seed: int, tag: int, length: int) -> str:
    builder = SyntheticGenomeBuilder(seed=_sub_seed(seed, tag), gc_content=GC_CONTENT)
    return builder.add_background(length).build().text


def _is_ngg_site(window: str) -> bool:
    return (
        len(window) == PROTOSPACER + 3
        and "N" not in window
        and window[PROTOSPACER + 1 :] == "GG"
    )


def _sample_guides(
    rng: np.random.Generator,
    records: list[tuple[str, str]],
    count: int,
    prefix: str,
) -> list[tuple[str, str]]:
    """*count* distinct guides whose NGG sites occur on the + strand."""
    guides: list[tuple[str, str]] = []
    seen: set[str] = set()
    while len(guides) < count:
        _, text = records[int(rng.integers(len(records)))]
        start = int(rng.integers(0, len(text) - PROTOSPACER - 3))
        window = text[start : start + PROTOSPACER + 3]
        if _is_ngg_site(window) and window[:PROTOSPACER] not in seen:
            seen.add(window[:PROTOSPACER])
            guides.append((f"{prefix}{len(guides):02d}", window[:PROTOSPACER]))
    return guides


def _planted_text(rng: np.random.Generator, protospacer: str, mismatches: int) -> str:
    """The guide's NGG target with *mismatches* protospacer substitutions."""
    chars = list(protospacer + "ACGT"[int(rng.integers(4))] + "GG")
    for position in rng.choice(PROTOSPACER, size=mismatches, replace=False):
        current = chars[int(position)]
        options = [base for base in "ACGT" if base != current]
        chars[int(position)] = options[int(rng.integers(3))]
    return "".join(chars)


class _Planter:
    """Writes guide sites into mutable record texts, never overlapping."""

    def __init__(self, records: list[tuple[str, str]], seed: int) -> None:
        self.texts = {name: bytearray(text, "ascii") for name, text in records}
        self.order = [name for name, _ in records]
        self.rng = _rng(seed, 99)
        self.sites: list[Site] = []
        self._taken: dict[str, list[tuple[int, int]]] = {name: [] for name in self.order}

    def free(self, record: str, start: int, end: int) -> bool:
        return all(end <= s or start >= e for s, e in self._taken[record])

    def plant(
        self,
        guide: tuple[str, str],
        mismatches: int,
        record: str,
        start: int | None = None,
        strand: str | None = None,
    ) -> Site:
        site_length = PROTOSPACER + 3
        limit = len(self.texts[record]) - site_length
        if start is None:
            while True:
                start = int(self.rng.integers(0, limit))
                if self.free(record, start - 30, start + site_length + 30):
                    break
        if not self.free(record, start, start + site_length):
            raise ValueError(f"planted site overlaps another at {record}:{start}")
        if strand is None:
            strand = "+" if self.rng.random() < 0.5 else "-"
        text = _planted_text(self.rng, guide[1], mismatches)
        if strand == "-":
            text = reverse_complement(text)
        self.texts[record][start : start + site_length] = text.encode("ascii")
        self._taken[record].append((start, start + site_length))
        site = Site(record, start, start + site_length, guide[0], mismatches, strand)
        self.sites.append(site)
        return site

    def records(self) -> list[tuple[str, str]]:
        return [(name, self.texts[name].decode("ascii")) for name in self.order]


def cold_sparse(seed: int, scale: float, workdir: Path) -> Inputs:
    """8 Mbp of i.i.d. genome in four 2 Mbp records, 20 sampled guides."""
    record_bp = max(20_000, int(2_000_000 * scale))
    records = [
        (f"chr{index + 1}", _background(seed, index, record_bp)) for index in range(4)
    ]
    guides = _sample_guides(_rng(seed, 10), records, 20, "s")
    slice_start = record_bp // 2
    planter = _Planter(records, seed)
    # Three sites inside the oracle slice, then sixteen spread over all records.
    for k in range(3):
        planter.plant(guides[k], k + 1, "chr1", start=slice_start + 100 + 300 * k, strand="+-+"[k])
    for k in range(16):
        planter.plant(guides[3 + k], k % 4, records[k % 4][0])
    records = planter.records()
    files = {
        "ref.fa": write_fasta(workdir / "ref.fa", records),
        "guides.txt": write_guides(workdir / "guides.txt", guides),
    }
    return Inputs(
        files=files,
        records=records,
        guides=guides,
        params={
            "records": len(records),
            "record_bp": record_bp,
            "guides": len(guides),
            "planted": len(planter.sites),
            "gc": GC_CONTENT,
        },
        planted=planter.sites,
        oracle_slice=("chr1", slice_start, slice_start + ORACLE_SLICE),
    )


def _family_guides(unit: str, offset: int, family: str, copies: int) -> list[tuple[str, int]]:
    """Every NGG protospacer on either strand of one repeat copy that
    at least half the family's copies hold exactly.

    A site that a mutation made in this copy alone would be hit by only
    the few copies with the same mutation, and the seed would then
    decide how much hit handling the workload does.
    """
    found: list[tuple[str, int]] = []
    for start in range(len(unit) - PROTOSPACER - 2):
        window = unit[start : start + PROTOSPACER + 3]
        if family.count(window) < copies // 2:
            continue
        for site in (window, reverse_complement(window)):
            if _is_ngg_site(site):
                found.append((site[:PROTOSPACER], offset + start))
    return found


def cold_repeats(seed: int, scale: float, workdir: Path) -> Inputs:
    """~4 Mbp: two Alu-like families of 300 bp units in i.i.d. background.

    The guides come from inside the first copy of each family, so each
    one hits most of its family's copies: about 100k hits in all.
    """
    unit_length = 300
    copies = max(40, int(5200 * scale))
    flank = max(5000, int(50_000 * scale))
    builder = SyntheticGenomeBuilder(seed=_sub_seed(seed, 20), gc_content=GC_CONTENT)
    builder.add_background(flank)
    families = []
    for _ in range(2):
        start = len(builder.build())
        builder.add_repeats(count=1, unit_length=unit_length, copies=copies, divergence=0.01)
        families.append((start, len(builder.build())))
        builder.add_background(flank)
    text = builder.build().text
    unique = {
        protospacer: position
        for start, end in families
        for protospacer, position in _family_guides(
            text[start : start + unit_length], start, text[start:end], copies
        )
    }
    if len(unique) < 20:
        raise ValueError(f"repeat units hold only {len(unique)} distinct NGG sites")
    chosen = sorted(unique.items(), key=lambda item: item[1])
    picks = sorted(_rng(seed, 21).choice(len(chosen), size=20, replace=False).tolist())
    guides = [(f"r{k:02d}", chosen[index][0]) for k, index in enumerate(picks)]
    cut = -(-len(text) // 4)
    records = [
        (f"chrR{index + 1}", text[index * cut : (index + 1) * cut]) for index in range(4)
    ]
    # The oracle slice straddles the first family's start: background
    # with planted sites, then the first repeat copies.
    slice_start = families[0][0] - 400
    planter = _Planter(records, seed)
    for k in range(3):
        planter.plant(guides[k], k + 1, "chrR1", start=slice_start + 20 + 120 * k, strand="+-+"[k])
    for k in range(8):
        planter.plant(guides[3 + k], k % 4, "chrR1", start=1000 + 400 * k)
    records = planter.records()
    files = {
        "ref.fa": write_fasta(workdir / "ref.fa", records),
        "guides.txt": write_guides(workdir / "guides.txt", guides),
    }
    return Inputs(
        files=files,
        records=records,
        guides=guides,
        params={
            "records": len(records),
            "families": 2,
            "unit_length": unit_length,
            "copies_per_family": copies,
            "divergence": 0.01,
            "flank_bp": flank,
            "guides": len(guides),
            "planted": len(planter.sites),
            "gc": GC_CONTENT,
        },
        planted=planter.sites,
        oracle_slice=("chrR1", slice_start, slice_start + ORACLE_SLICE),
    )


def _region_end(genome: str, start: int, candidates: int) -> int:
    """The shortest region end past *start* whose region holds exactly
    *candidates* NGG sites on its two strands."""
    length = PROTOSPACER + 3
    found = 0
    end = start + length - 1
    while found < candidates:
        end += 1
        window = genome[end - length : end]
        found += window.endswith("GG") + reverse_complement(window).endswith("GG")
    return end


def design_panel(seed: int, scale: float, workdir: Path) -> Inputs:
    """A target region holding 48 NGG candidates, cut from a 250 kbp genome.

    The region is cut to a fixed candidate count rather than a fixed
    length, so every seed gives the vetting pass the same panel size.
    """
    genome_bp = max(50_000, int(250_000 * scale))
    candidates = 48
    genome = _background(seed, 30, genome_bp)
    start = int(_rng(seed, 31).integers(0, genome_bp // 2))
    end = _region_end(genome, start, candidates)
    records = [("chrD", genome)]
    files = {
        "genome.fa": write_fasta(workdir / "genome.fa", records),
        "region.fa": write_fasta(workdir / "region.fa", [("target", genome[start:end])]),
    }
    return Inputs(
        files=files,
        records=records,
        guides=[],
        params={
            "genome_bp": genome_bp,
            "candidates": candidates,
            "region_bp": end - start,
            "region_start": start,
        },
    )


def warm_routed(seed: int, scale: float, workdir: Path) -> Inputs:
    """A 250 kbp session and sixteen 3-guide panels from a 48-guide pool."""
    genome_bp = max(20_000, int(250_000 * scale))
    records = [("chrW", _background(seed, 40, genome_bp))]
    guides = _sample_guides(_rng(seed, 41), records, 48, "w")
    order = _rng(seed, 42).permutation(len(guides)).tolist()
    panels = [tuple(order[index : index + 3]) for index in range(0, len(order), 3)]
    files = {"session.fa": write_fasta(workdir / "session.fa", records)}
    return Inputs(
        files=files,
        records=records,
        guides=guides,
        params={"genome_bp": genome_bp, "guide_pool": len(guides), "panels": len(panels)},
        panels=panels,
        seed=seed,
    )


GENERATORS = {
    "cold-sparse": cold_sparse,
    "cold-repeats": cold_repeats,
    "design-panel": design_panel,
    "warm-routed": warm_routed,
}
