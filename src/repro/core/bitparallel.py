"""Bit-parallel (Shift-And) off-target matching kernel.

This is the dense, hardware-friendly execution form the automata
literature arrives at when it trades compile time for symbol-rate: the
mismatch-counting grid of :mod:`repro.core.hamming` collapses into a
handful of machine-word bitboards, and one numpy pass over packed
words evaluates 64 genome start positions at once. It replaces the
byte-wise LUT scan of :mod:`repro.core.matcher` as the default
functional kernel for **every** budget shape — mismatch-only budgets
run the thermometer-plane scan, bulged budgets run the diagonal-band
engine below — so the matcher remains selectable
(``kernel="matcher"``) purely as an independent implementation, not as
a fallback.

Bit-plane layout
----------------
A genome block of ``n`` symbols becomes five *code planes* — one
bitboard per symbol code (A, C, G, T, N), ``bit p`` set when position
``p`` carries that code — stored as little-endian ``uint64`` words so
word ``w`` holds positions ``[64w, 64w + 64)``. The planes are built
once per block (`numpy.packbits`) and shared by every guide, strand,
and pattern position of the panel.

For one strand pattern (protospacer + PAM segments, already oriented
by :func:`repro.core.compiler._segments`), position ``t``'s *match
board* is the OR of the code planes selected by the symbol's 5-bit
IUPAC mask (:func:`repro.alphabet.iupac_code_mask` — so a genome ``N``
matches only a pattern ``N``, exactly as the oracle counts it).
Shifting the board down by ``t`` bits aligns it with candidate *start*
positions: after the shift, ``bit s`` answers "does the site starting
at ``s`` match at pattern offset ``t``?".

Counting uses thermometer bit-planes, one plane per mismatch-budget
level: ``ge[j]`` has ``bit s`` set when start ``s`` has accumulated at
least ``j + 1`` mismatches, and one more plane (``exceed``) saturates
at budget + 1. Folding pattern position ``t``'s mismatch board ``x``
into the counters is ``k + 1`` word-ops::

    exceed |= ge[k-1] & x
    ge[j]  |= ge[j-1] & x      # j = k-1 .. 1
    ge[0]  |= x

Exact (PAM) positions skip the counters and AND into a single ``ok``
board instead. A start is a hit when ``ok & ~exceed`` — and its exact
mismatch count is the number of ``ge`` planes with its bit set (the
thermometer cannot saturate below ``exceed``), so hits carry the same
counts the oracle reports, for free.

The folds commute, so the scan orders them for cost. The ``ok`` board
comes first and is cached on the block, keyed by the exact positions
and the valid-start count: every guide sharing a PAM side shares one
board per block. The first ``budget + 7`` (:data:`_COMPACT_SLACK`)
budgeted positions fold over the whole block into preallocated planes
(``out=`` buffers, no temporaries); the scan then keeps only the
64-start words that still hold a live start (``ok & ~exceed``) and
folds the remaining positions on those words alone, gathering each
shifted word from the block's zero-padded match board. On an i.i.d.
genome a few percent of words survive, so the tail of the pattern
costs almost nothing. Positions whose mask matches every code (a
pattern ``N``) can never miss and are skipped.

Diagonal bulge bands
--------------------
A bulged budget (``r`` RNA bulges, ``d`` DNA bulges, ``k``
mismatches) runs a Wu-Manber-style banded engine instead: one
Shift-And state plane per ``(rna, dna, mismatch)`` coordinate of
:mod:`repro.core.bulge`'s grid, held as one
``(r+1, d+1, k+1, nwords)`` array of bitboards. A cell ``(r', d')``
always sits on diagonal band ``d' - r'`` — its genome offset is the
pattern position plus that band — so aligning pattern position ``i``
needs only ``r + d + 1`` shifted copies of one match board, gathered
per cell by band index. Each step folds three transition families, in
exactly :func:`repro.core.bulge._build_grid`'s order and with its
interior-only rules:

* **DNA bulge** (:func:`_band_transfer`): band ``d'`` feeds band
  ``d' + 1`` within the layer, chained ascending so bulges can stack,
  only between interior pattern positions (``1 <= i <= m - 1``);
* **match / mismatch**: AND with the band-aligned match board advances
  the layer; ANDNOT advances it one mismatch plane up (planes above
  the budget simply do not exist — exceeding paths fall off the
  array, which is the saturation rule);
* **RNA bulge**: the layer advances without consuming a genome symbol
  — plane ``(r', d')`` ORs into ``(r' + 1, d')`` — for interior
  positions only (``0 < i < m - 1``).

Acceptance masks each final plane by its delta's exact-segment (PAM)
board — PAM positions after the protospacer shift by ``delta = d' -
r'`` — and by a per-delta bounds prefix, then keeps the best profile
per (start, delta) under the canonical order (fewest total edits,
then fewest bulges, then fewest mismatches), which is bit-identical
to the banded-DP matcher and the naive oracle.

Block boundaries
----------------
The kernel is windowed, so blocks compose exactly like the streaming
path: scan blocks that overlap by ``max_site_length - 1`` symbols (the
carry — every site straddling a boundary lies wholly inside one block;
for bulged budgets the longest site is ``site_length + dna_bulges``)
and drop hits whose end falls inside a block's overlapped prefix.
:class:`~repro.core.streaming.StreamingSearch` and
:class:`~repro.core.parallel.ParallelSearch` both drive this kernel
through exactly that rule, so every execution path stays bit-identical
to the whole-genome scan and to the :class:`~repro.core.reference`
oracle — the property ``tests/differential.py`` pins across the full
engine x genome x panel x budget grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence as SequenceType, Tuple

import numpy as np

from .. import alphabet
from ..errors import EngineError
from ..genome.sequence import Sequence
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit, dedupe_hits
from ..obs import Metrics
from . import matcher
from .compiler import SearchBudget, _segments

#: Selectable functional kernels, in preference order.
KERNEL_BITPARALLEL = "bitparallel"
KERNEL_MATCHER = "matcher"
KERNEL_NAMES: Tuple[str, ...] = (KERNEL_BITPARALLEL, KERNEL_MATCHER)

#: The kernel used when the caller does not pick one.
DEFAULT_KERNEL = KERNEL_BITPARALLEL

#: A compiled per-panel kernel: genome block in, deduplicated hits out.
KernelFn = Callable[[Sequence], List[OffTargetHit]]

#: Process-wide kernel-selection counters. Every block scan increments
#: ``kernel.<name>.blocks`` (plus ``kernel.bitparallel.bulged_blocks``
#: for bulged budgets), so tests and operators can assert *which*
#: kernel actually executed — the regression surface for the removed
#: bulged-budget fallback.
KERNEL_OBS = Metrics()

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: A pattern symbol matching every genome code (IUPAC ``N``) never misses.
_ANY_CODE = (1 << alphabet.NUM_CODES) - 1

#: The mismatch-only scan folds ``budget + _COMPACT_SLACK`` budgeted
#: positions over the whole block, then compacts to the words that still
#: hold a live start. By then a live start has matched at least
#: seven of them; on an i.i.d. genome a few percent of the words survive.
_COMPACT_SLACK = 7


def validate_kernel(name: str) -> str:
    """Return *name* if it is a known kernel, else raise :class:`EngineError`."""
    if name not in KERNEL_NAMES:
        raise EngineError(
            f"unknown kernel {name!r}; available kernels: {list(KERNEL_NAMES)}"
        )
    return name


def make_kernel(
    name: str, guides: Iterable[Guide], budget: SearchBudget
) -> KernelFn:
    """Compile *guides* + *budget* into a reusable block-scan callable.

    The returned callable has the contract of
    ``matcher.find_hits(block, guides, budget)`` with the panel bound:
    same hits, positions, strands, edit profiles, and canonical dedupe
    order. ``"bitparallel"`` precompiles the panel's pattern masks once
    so per-block work is pure vector passes — for every budget shape,
    bulged budgets included; ``"matcher"`` returns the byte-wise LUT /
    banded-DP scan unchanged.
    """
    validate_kernel(name)
    guide_list = list(guides)
    if name == KERNEL_MATCHER:
        def scan(genome: Sequence) -> List[OffTargetHit]:
            KERNEL_OBS.incr("kernel.matcher.blocks")
            return matcher.find_hits(genome, guide_list, budget)

        return scan
    return BitParallelPanel(guide_list, budget).find_hits


def find_hits(
    genome: Sequence, guides: Iterable[Guide], budget: SearchBudget
) -> list[OffTargetHit]:
    """One-shot bit-parallel scan (API parity with ``matcher.find_hits``)."""
    return make_kernel(KERNEL_BITPARALLEL, guides, budget)(genome)


# -- pattern compilation -------------------------------------------------------


@dataclass(frozen=True)
class _StrandPattern:
    """One guide strand flattened into per-position IUPAC code masks."""

    guide: Guide
    strand: str
    masks: tuple[int, ...]  # 5-bit genome-code mask per pattern position
    budgeted: tuple[bool, ...]  # does this position spend the mismatch budget?
    # (offset, mask) of the positions that can fail, exact (PAM) and
    # budgeted; a pattern ``N`` matches every code and is left out.
    exact: tuple[tuple[int, int], ...]
    counted: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return len(self.masks)


def _compile_strand(guide: Guide, strand: str) -> _StrandPattern:
    masks: list[int] = []
    budgeted: list[bool] = []
    for segment in _segments(guide, reverse=strand == "-"):
        for symbol in segment.text:
            masks.append(alphabet.iupac_code_mask(symbol))
            budgeted.append(segment.budgeted)
    can_fail = [
        (offset, mask, spends)
        for offset, (mask, spends) in enumerate(zip(masks, budgeted))
        if mask != _ANY_CODE
    ]
    return _StrandPattern(
        guide=guide,
        strand=strand,
        masks=tuple(masks),
        budgeted=tuple(budgeted),
        exact=tuple((offset, mask) for offset, mask, spends in can_fail if not spends),
        counted=tuple((offset, mask) for offset, mask, spends in can_fail if spends),
    )


@dataclass(frozen=True)
class _BulgeLayout:
    """One strand pattern split for the diagonal-band engine.

    ``_segments`` guarantees exactly one budgeted segment (the
    protospacer), so the budgeted positions form one contiguous run at
    offset ``b_off``; exact (PAM) positions after that run shift with
    the site's length delta, positions before it do not.
    """

    b_off: int  # pattern offset of the budgeted run
    budgeted_masks: tuple[int, ...]
    exact: tuple[tuple[int, int, bool], ...]  # (offset, mask, shifts with delta)


def _bulge_layout(pattern: _StrandPattern) -> _BulgeLayout:
    b_off = pattern.budgeted.index(True)
    budgeted_masks: list[int] = []
    exact: list[tuple[int, int, bool]] = []
    for offset, (mask, is_budgeted) in enumerate(zip(pattern.masks, pattern.budgeted)):
        if is_budgeted:
            budgeted_masks.append(mask)
        else:
            exact.append((offset, mask, offset > b_off))
    return _BulgeLayout(
        b_off=b_off, budgeted_masks=tuple(budgeted_masks), exact=tuple(exact)
    )


# -- bitboard primitives -------------------------------------------------------


def _pack_code_planes(codes: np.ndarray) -> np.ndarray:
    """``(NUM_CODES, nwords)`` little-endian bitboards: bit p == (codes[p] == c)."""
    n = int(codes.size)
    nwords = (n + 63) // 64
    planes = np.zeros((alphabet.NUM_CODES, nwords), dtype=np.uint64)
    for code in range(alphabet.NUM_CODES):
        bits = np.packbits(codes == code, bitorder="little")
        padded = np.zeros(nwords * 8, dtype=np.uint8)
        padded[: bits.size] = bits
        planes[code] = padded.view(np.uint64)
    return planes


def _shift_down(words: np.ndarray, t: int) -> np.ndarray:
    """Logical right-shift of a bitboard by *t* positions (bit s := bit s+t)."""
    if t == 0:
        return words
    whole, rem = divmod(t, 64)
    out = np.zeros_like(words)
    keep = words.size - whole
    if keep <= 0:
        return out
    if rem == 0:
        out[:keep] = words[whole:]
    else:
        out[:keep] = words[whole:] >> np.uint64(rem)
        if keep > 1:
            out[: keep - 1] |= words[whole + 1 :] << np.uint64(64 - rem)
    return out


def _shift_into(padded: np.ndarray, t: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """``out := padded`` shifted down by *t* bits, without temporaries.

    *padded* is a board plus one trailing zero word, so the carry from
    the next word reads zero past the block; *scratch* is ``out``-sized.
    """
    whole, rem = divmod(t, 64)
    keep = max(0, min(out.size, padded.size - 1 - whole))
    if rem == 0:
        out[:keep] = padded[whole : whole + keep]
    else:
        np.right_shift(padded[whole : whole + keep], np.uint64(rem), out=out[:keep])
        np.left_shift(
            padded[whole + 1 : whole + 1 + keep], np.uint64(64 - rem), out=scratch[:keep]
        )
        np.bitwise_or(out[:keep], scratch[:keep], out=out[:keep])
    out[keep:] = 0


def _gather_shift(padded: np.ndarray, words: np.ndarray, t: int) -> np.ndarray:
    """Words *words* of *padded* shifted down by *t* bits (zero past the block)."""
    whole, rem = divmod(t, 64)
    beyond = padded.size - 1  # index of the trailing zero word
    low = np.minimum(words + whole, beyond) if whole else words
    out = padded[low]
    if rem:
        high = np.minimum(low + 1, beyond)
        out >>= np.uint64(rem)
        out |= padded[high] << np.uint64(64 - rem)
    return out


def _fold_miss(ge: np.ndarray, miss: np.ndarray, scratch: np.ndarray) -> None:
    """Fold one position's miss board into the thermometer planes in place.

    ``ge[j] |= ge[j - 1] & miss`` for every ``j >= 1`` reads the planes
    as they were before this position (*scratch* holds the products),
    then ``ge[0] |= miss``; the last plane saturates at budget + 1.
    """
    if ge.shape[0] > 1:
        np.bitwise_and(ge[:-1], miss, out=scratch)
        np.bitwise_or(ge[1:], scratch, out=ge[1:])
    np.bitwise_or(ge[0], miss, out=ge[0])


def _prefix_mask(nwords: int, count: int) -> np.ndarray:
    """Bitboard with exactly bits ``[0, count)`` set."""
    mask = np.zeros(nwords, dtype=np.uint64)
    whole, rem = divmod(count, 64)
    mask[:whole] = _ALL_ONES
    if rem and whole < nwords:
        mask[whole] = np.uint64((1 << rem) - 1)
    return mask


def _board_starts(board: np.ndarray) -> np.ndarray:
    """Sorted positions of the set bits of a little-endian bitboard."""
    hot_words = np.flatnonzero(board)
    if hot_words.size == 0:
        return np.zeros(0, dtype=np.int64)
    lanes = np.unpackbits(
        board[hot_words].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).astype(bool)
    return (hot_words[:, None] * 64 + np.arange(64, dtype=np.int64)[None, :])[lanes]


def _popcount(board: np.ndarray) -> int:
    """Total number of set bits in *board*."""
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return int(bitwise_count(board).sum())
    return int(np.unpackbits(board.view(np.uint8)).sum())


class _BlockPlanes:
    """One genome block's code planes plus match- and PAM-board caches.

    Every distinct IUPAC mask in the panel resolves to one OR-combined
    board per block, shared across guides, strands, and positions; every
    distinct set of exact (PAM) positions resolves to one accepted-start
    board per valid length. Cached boards are read-only.
    """

    def __init__(self, codes: np.ndarray) -> None:
        self.length = int(codes.size)
        self.nwords = (self.length + 63) // 64
        self._planes = _pack_code_planes(codes)
        self._boards: dict[int, np.ndarray] = {}
        self._exact: dict[tuple[tuple[tuple[int, int], ...], int], np.ndarray] = {}

    def padded_board(self, mask: int) -> np.ndarray:
        """:meth:`match_board` plus one trailing zero word."""
        board = self._boards.get(mask)
        if board is None:
            board = np.zeros(self.nwords + 1, dtype=np.uint64)
            for code in range(alphabet.NUM_CODES):
                if (mask >> code) & 1:
                    board[:-1] |= self._planes[code]
            self._boards[mask] = board
        return board

    def match_board(self, mask: int) -> np.ndarray:
        """Bitboard of positions whose code satisfies the 5-bit *mask*."""
        return self.padded_board(mask)[:-1]

    def exact_board(self, exact: tuple[tuple[int, int], ...], valid: int) -> np.ndarray:
        """Starts below *valid* whose exact ``(offset, mask)`` positions all match."""
        key = (exact, valid)
        board = self._exact.get(key)
        if board is None:
            board = _prefix_mask(self.nwords, valid)
            for offset, mask in exact:
                board &= _shift_down(self.match_board(mask), offset)
            self._exact[key] = board
        return board


# -- the mismatch-only scan ----------------------------------------------------


def _scan_strand(
    planes: _BlockPlanes, pattern: _StrandPattern, max_mismatches: int
) -> tuple[np.ndarray, np.ndarray]:
    """All (starts, mismatch counts) of *pattern* in the block, sorted."""
    valid = planes.length - pattern.total + 1
    empty = np.zeros(0, dtype=np.int64)
    if valid <= 0:
        return empty, empty
    ok = planes.exact_board(pattern.exact, valid)
    counted = pattern.counted
    nwords = planes.nwords
    # ge[j]: starts with >= j + 1 mismatches so far (thermometer planes);
    # the last plane is ``exceed``, saturating at budget + 1.
    ge = np.zeros((max_mismatches + 1, nwords), dtype=np.uint64)
    scratch = np.empty((max_mismatches, nwords), dtype=np.uint64)
    miss = np.empty(nwords, dtype=np.uint64)
    carry = np.empty(nwords, dtype=np.uint64)
    head = max_mismatches + _COMPACT_SLACK
    for index, (offset, mask) in enumerate(counted[:head]):
        _shift_into(planes.padded_board(mask), offset, miss, carry)
        np.invert(miss, out=miss)
        # After `index` positions no start can have more mismatches.
        active = min(index, max_mismatches) + 1
        _fold_miss(ge[:active], miss, scratch[: active - 1])
    # Compact to the words that still hold a live start.
    words = np.flatnonzero(ok & ~ge[-1])
    if words.size == 0:
        return empty, empty
    live = ok[words]
    ge = ge[:, words]
    scratch = scratch[:, : words.size]
    for offset, mask in counted[head:]:
        miss = _gather_shift(planes.padded_board(mask), words, offset)
        np.invert(miss, out=miss)
        _fold_miss(ge, miss, scratch)
    selected = live & ~ge[-1]
    hot = np.flatnonzero(selected)
    if hot.size == 0:
        return empty, empty
    lanes = np.unpackbits(
        selected[hot].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).astype(bool)
    bits = np.broadcast_to(np.arange(64, dtype=np.uint64), lanes.shape)[lanes]
    rows = np.broadcast_to(hot[:, None], lanes.shape)[lanes]
    starts = words[rows] * 64 + bits.astype(np.int64)
    counts = np.zeros(starts.size, dtype=np.int64)
    for plane in ge[:-1]:
        counts += ((plane[rows] >> bits) & np.uint64(1)).astype(np.int64)
    return starts, counts


# -- the diagonal-band bulged scan ---------------------------------------------


def _band_transfer(reach: np.ndarray) -> None:
    """In-place DNA-bulge closure of one pattern layer.

    *reach* has shape ``(rna + 1, dna + 1, mm + 1, nwords)``. Band
    ``d`` feeds band ``d + 1``, chained ascending so one layer can
    spend several DNA bulges back-to-back — the chained any-symbol
    edges of :func:`repro.core.bulge._build_grid`. The genome offset
    step is implicit: cell ``(r, d)`` always reads offset
    ``i + d - r``, so moving to ``d + 1`` *is* consuming one symbol.
    """
    for d in range(reach.shape[1] - 1):
        reach[:, d + 1] |= reach[:, d]


def _bulged_reach(
    planes: _BlockPlanes, layout: _BulgeLayout, budget: SearchBudget
) -> np.ndarray:
    """Final-layer reachability planes ``reach[r, d, j]`` over all starts.

    Bit ``s`` of ``reach[r, d, j]`` is set when some alignment of the
    budgeted segment starting at genome position ``s + b_off`` uses
    exactly ``j`` mismatches, ``r`` RNA bulges and ``d`` DNA bulges —
    the grid of :func:`repro.core.bulge._build_grid`, one bitboard per
    state row, evaluated for 64 starts per word.
    """
    rna, dna, mm = budget.rna_bulges, budget.dna_bulges, budget.mismatches
    m = len(layout.budgeted_masks)
    nwords = planes.nwords
    reach = np.zeros((rna + 1, dna + 1, mm + 1, nwords), dtype=np.uint64)
    reach[0, 0, 0] = _ALL_ONES
    # Gather index: cell (r, d) reads the shifted board of its band
    # d - r (offset by +rna into the stacked board array).
    band_index = (np.arange(dna + 1)[None, :] - np.arange(rna + 1)[:, None]) + rna
    zero = np.zeros(nwords, dtype=np.uint64)
    for i, mask in enumerate(layout.budgeted_masks):
        if dna and 1 <= i <= m - 1:
            _band_transfer(reach)
        base = planes.match_board(mask)
        boards = np.stack(
            [
                _shift_down(base, layout.b_off + i + band) if i + band >= 0 else zero
                for band in range(-rna, dna + 1)
            ]
        )
        aligned = boards[band_index][:, :, None, :]
        nxt = reach & aligned
        if mm:
            nxt[:, :, 1:] |= reach[:, :, :mm] & ~aligned
        if rna and 0 < i < m - 1:
            nxt[1:] |= reach[:rna]
        reach = nxt
    return reach


def _bulged_accept_boards(
    planes: _BlockPlanes,
    pattern: _StrandPattern,
    layout: _BulgeLayout,
    budget: SearchBudget,
) -> Dict[Tuple[int, int, int], np.ndarray]:
    """Accepted-start bitboards per exact ``(mismatches, rna, dna)`` profile.

    Each final reach plane is masked by its delta's exact-segment (PAM)
    board — positions after the protospacer shift by ``delta = d - r``
    — and by the per-delta bounds prefix (a site of length ``total +
    delta`` must end inside the block), mirroring the matcher's
    per-delta ``pam_ok`` arrays. Empty boards are dropped.
    """
    rna, dna, mm = budget.rna_bulges, budget.dna_bulges, budget.mismatches
    total = pattern.total
    if planes.length < total - rna:
        return {}
    reach = _bulged_reach(planes, layout, budget)
    nwords = planes.nwords
    ok: dict[int, np.ndarray] = {}
    for delta in range(-rna, dna + 1):
        limit = planes.length - (total + delta) + 1
        board = _prefix_mask(nwords, min(max(limit, 0), planes.length))
        for offset, mask, shifts in layout.exact:
            shift = offset + (delta if shifts else 0)
            if shift < 0:
                # Only possible when the RNA budget exceeds the
                # protospacer's interior — those bands are unreachable.
                board = np.zeros(nwords, dtype=np.uint64)
                break
            board = board & _shift_down(planes.match_board(mask), shift)
        ok[delta] = board
    accepted: Dict[Tuple[int, int, int], np.ndarray] = {}
    for r in range(rna + 1):
        for d in range(dna + 1):
            pam = ok[d - r]
            for j in range(mm + 1):
                selected = reach[r, d, j] & pam
                if selected.any():
                    accepted[(j, r, d)] = selected
    return accepted


def _scan_strand_bulged(
    planes: _BlockPlanes,
    pattern: _StrandPattern,
    layout: _BulgeLayout,
    budget: SearchBudget,
) -> List[Tuple[np.ndarray, int, int, int, int]]:
    """Best-profile rows ``(starts, mismatches, rna, dna, delta)``.

    Per (start, delta) only the canonically best profile is kept —
    fewest total edits, then fewest bulges, then fewest mismatches —
    exactly the matcher's and the oracle's selection rule.
    """
    accepted = _bulged_accept_boards(planes, pattern, layout, budget)
    rows: List[Tuple[np.ndarray, int, int, int, int]] = []
    for delta in range(-budget.rna_bulges, budget.dna_bulges + 1):
        profiles = sorted(
            (key for key in accepted if key[2] - key[1] == delta),
            key=lambda key: (key[0] + key[1] + key[2], key[1] + key[2], key[0]),
        )
        chosen: np.ndarray | None = None
        for j, r, d in profiles:
            selected = accepted[(j, r, d)]
            if chosen is not None:
                selected = selected & ~chosen
            starts = _board_starts(selected)
            if starts.size == 0:
                continue
            chosen = selected if chosen is None else chosen | selected
            rows.append((starts, j, r, d, delta))
    return rows


class BitParallelPanel:
    """A guide panel compiled for the bit-parallel kernel.

    Compile once (pattern masks for every guide x strand, plus the
    diagonal-band layouts when the budget allows bulges), then call
    :meth:`find_hits` per genome block: the block's code planes and
    match boards are built once and shared by the whole panel, which is
    what makes the per-block work a handful of dense vector passes.
    Bulged budgets run the banded engine natively — there is no
    matcher fallback.
    """

    def __init__(self, guides: Iterable[Guide], budget: SearchBudget) -> None:
        guide_list = list(guides)
        if not guide_list:
            raise EngineError("bit-parallel kernel needs at least one guide")
        self._budget = budget
        self._patterns: tuple[_StrandPattern, ...] = tuple(
            _compile_strand(guide, strand)
            for guide in guide_list
            for strand in ("+", "-")
        )
        self._layouts: tuple[_BulgeLayout, ...] = (
            tuple(_bulge_layout(pattern) for pattern in self._patterns)
            if budget.has_bulges
            else ()
        )

    @property
    def budget(self) -> SearchBudget:
        return self._budget

    @property
    def num_patterns(self) -> int:
        return len(self._patterns)

    def find_hits(self, genome: Sequence) -> list[OffTargetHit]:
        """All hits of the panel in *genome*, canonically deduped + sorted."""
        bulged = self._budget.has_bulges
        KERNEL_OBS.incr("kernel.bitparallel.blocks")
        if bulged:
            KERNEL_OBS.incr("kernel.bitparallel.bulged_blocks")
        if len(genome) == 0:
            return []
        planes = _BlockPlanes(genome.codes)
        text = ""  # decoded on the first hit: most blocks have none
        hits: list[OffTargetHit] = []
        for index, pattern in enumerate(self._patterns):
            reverse = pattern.strand == "-"
            if bulged:
                for starts, mismatches, rna, dna, delta in _scan_strand_bulged(
                    planes, pattern, self._layouts[index], self._budget
                ):
                    length = pattern.total + delta
                    text = text or genome.text
                    for start in starts.tolist():
                        site = text[start : start + length]
                        if reverse:
                            site = alphabet.reverse_complement(site)
                        hits.append(
                            OffTargetHit(
                                guide_name=pattern.guide.name,
                                sequence_name=genome.name,
                                strand=pattern.strand,
                                start=start,
                                end=start + length,
                                mismatches=mismatches,
                                rna_bulges=rna,
                                dna_bulges=dna,
                                site=site,
                            )
                        )
                continue
            starts_array, counts = _scan_strand(
                planes, pattern, self._budget.mismatches
            )
            total = pattern.total
            if starts_array.size:
                text = text or genome.text
            for start, mismatches in zip(starts_array.tolist(), counts.tolist()):
                site = text[start : start + total]
                if reverse:
                    site = alphabet.reverse_complement(site)
                hits.append(
                    OffTargetHit(
                        guide_name=pattern.guide.name,
                        sequence_name=genome.name,
                        strand=pattern.strand,
                        start=start,
                        end=start + total,
                        mismatches=mismatches,
                        site=site,
                    )
                )
        return dedupe_hits(hits)

    def count_report_rows(self, genome: Sequence) -> int:
        """Pre-dedup report events for this panel over *genome*.

        For bulged budgets this counts every feasible edit profile per
        (start, delta) — the accept-row activations the spatial
        reporting models charge for — matching the matcher's
        ``all_profiles`` enumeration bit for bit.
        """
        if len(genome) == 0:
            return 0
        planes = _BlockPlanes(genome.codes)
        events = 0
        for index, pattern in enumerate(self._patterns):
            if self._budget.has_bulges:
                boards = _bulged_accept_boards(
                    planes, pattern, self._layouts[index], self._budget
                )
                events += sum(_popcount(board) for board in boards.values())
            else:
                starts, _ = _scan_strand(planes, pattern, self._budget.mismatches)
                events += int(starts.size)
        return events


def count_report_rows(
    genome: Sequence, guides: SequenceType[Guide], budget: SearchBudget
) -> int:
    """Pre-dedup report events (API parity with ``matcher.count_report_rows``)."""
    guide_list = list(guides)
    if not guide_list:
        return 0
    return BitParallelPanel(guide_list, budget).count_report_rows(genome)
