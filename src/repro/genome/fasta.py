"""FASTA reading and writing.

Supports multi-record files, arbitrary line wrapping, blank lines, and
``;`` comment lines (an old but still-encountered FASTA dialect). The
reader validates symbols through :mod:`repro.alphabet`, so a malformed
reference fails loudly at load time rather than mid-search.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from ..errors import FastaError
from .sequence import Sequence

PathOrHandle = Union[str, Path, IO[str]]


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: identifier, free-text description, sequence."""

    identifier: str
    description: str
    sequence: Sequence

    @classmethod
    def from_parts(cls, header: str, body: str) -> "FastaRecord":
        identifier, _, description = header.partition(" ")
        if not identifier:
            raise FastaError("FASTA record has an empty identifier")
        if not body:
            raise FastaError(f"FASTA record {identifier!r} has an empty sequence")
        return cls(identifier, description.strip(), Sequence.from_text(identifier, body))


#: Characters read per bulk step.
_BLOCK = 1 << 18

#: What a bulk-joined body must not hold: ASCII whitespace other than
#: the newline (lines are stripped) and ``;`` (it may start a comment).
_IRREGULAR = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f;"


def _line_blocks(handle: IO[str]) -> Iterator[str]:
    """The text of *handle* in blocks of whole lines."""
    pending: list[str] = []
    while True:
        block = handle.read(_BLOCK)
        if not block:
            break
        cut = block.rfind("\n") + 1
        if not cut:
            pending.append(block)
            continue
        pending.append(block[:cut])
        yield "".join(pending)
        pending = [block[cut:]]
    tail = "".join(pending)
    if tail:
        yield tail


def _blocks(source: PathOrHandle) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="ascii") as handle:
            yield from _line_blocks(handle)
    else:
        yield from _line_blocks(source)


def _data_lines(text: str) -> Iterator[str]:
    """The stripped sequence lines of *text*: no blank or ``;`` lines."""
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line and not line.startswith(";"):
            yield line.strip()


def _body(text: str) -> str:
    """Whole lines of a record body joined in bulk, or line by line when
    a line could need stripping or be a ``;`` comment."""
    joined = text.replace("\n", "")
    if joined.isascii() and not any(symbol in joined for symbol in _IRREGULAR):
        return joined
    return "".join(_data_lines(text))


def _header_starts(text: str) -> list[int]:
    """Offsets of the lines that start with ``>``."""
    starts = []
    found = text.find(">")
    while found >= 0:
        if found == 0 or text[found - 1] == "\n":
            starts.append(found)
        found = text.find(">", found + 1)
    return starts


def parse_fasta(source: PathOrHandle) -> Iterator[FastaRecord]:
    """Yield :class:`FastaRecord` objects from a path or open handle.

    The text is read in blocks of whole lines, and the lines between two
    headers are joined in bulk; only a stretch holding a ``;`` or
    whitespace other than newlines (CRLF, comment lines, padded lines)
    is re-read line by line.
    """
    header: str | None = None
    pieces: list[str] = []
    for block in _blocks(source):
        starts = _header_starts(block)
        edges = starts + [len(block)]
        lead = block[: edges[0]]  # continues the record before this block
        if header is not None:
            pieces.append(_body(lead))
        elif any(True for _ in _data_lines(lead)):  # "" (a blank-padded line) counts
            raise FastaError("FASTA stream has sequence data before any '>' header")
        for start, stop in zip(starts, edges[1:]):
            if header is not None:
                yield FastaRecord.from_parts(header, "".join(pieces))
            newline = block.find("\n", start, stop)
            if newline < 0:
                newline = stop
            header = block[start + 1 : newline].strip()
            pieces = [_body(block[newline + 1 : stop])]
    if header is None:
        raise FastaError("FASTA stream contains no records")
    yield FastaRecord.from_parts(header, "".join(pieces))


def read_fasta(source: PathOrHandle) -> list[FastaRecord]:
    """Read every record from a FASTA path or handle into a list."""
    return list(parse_fasta(source))


def write_fasta(
    records: Iterable[Union[FastaRecord, Sequence]],
    destination: PathOrHandle,
    *,
    width: int = 70,
) -> None:
    """Write records (or bare sequences) to FASTA with *width*-wrapped lines."""
    if width <= 0:
        raise FastaError("line width must be positive")

    def emit(handle: IO[str]) -> None:
        for record in records:
            if isinstance(record, Sequence):
                header = record.name
                text = record.text
            else:
                header = record.identifier
                if record.description:
                    header = f"{header} {record.description}"
                text = record.sequence.text
            handle.write(f">{header}\n")
            for start in range(0, len(text), width):
                handle.write(text[start : start + width] + "\n")

    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="ascii") as handle:
            emit(handle)
    else:
        emit(destination)
