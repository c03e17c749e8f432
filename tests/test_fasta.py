"""Unit tests for repro.genome.fasta."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FastaError
from repro.genome import fasta
from repro.genome.fasta import FastaRecord, parse_fasta, read_fasta, write_fasta
from repro.genome.sequence import Sequence


def test_single_record():
    records = read_fasta(io.StringIO(">chr1 test chromosome\nACGT\nACGT\n"))
    assert len(records) == 1
    assert records[0].identifier == "chr1"
    assert records[0].description == "test chromosome"
    assert records[0].sequence.text == "ACGTACGT"


def test_multi_record():
    records = read_fasta(io.StringIO(">a\nAC\n>b\nGT\n>c\nNN\n"))
    assert [record.identifier for record in records] == ["a", "b", "c"]
    assert [record.sequence.text for record in records] == ["AC", "GT", "NN"]


def test_blank_lines_and_comments_skipped():
    records = read_fasta(io.StringIO(";comment\n>a\n\nAC\n;mid\nGT\n\n"))
    assert records[0].sequence.text == "ACGT"


def test_lowercase_normalised():
    records = read_fasta(io.StringIO(">a\nacgt\n"))
    assert records[0].sequence.text == "ACGT"


def test_crlf_handled():
    records = read_fasta(io.StringIO(">a\r\nACGT\r\n"))
    assert records[0].sequence.text == "ACGT"


def test_no_description():
    records = read_fasta(io.StringIO(">a\nACGT\n"))
    assert records[0].description == ""


def test_empty_stream_rejected():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO(""))


def test_sequence_before_header_rejected():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO("ACGT\n>a\nACGT\n"))


def test_empty_record_rejected():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO(">a\n>b\nACGT\n"))


def test_empty_identifier_rejected():
    with pytest.raises(FastaError):
        read_fasta(io.StringIO("> \nACGT\n"))


def test_bad_symbols_rejected():
    with pytest.raises(Exception):
        read_fasta(io.StringIO(">a\nACXT\n"))


def test_parse_is_lazy():
    stream = io.StringIO(">a\nAC\n>b\nGT\n")
    iterator = parse_fasta(stream)
    first = next(iterator)
    assert first.identifier == "a"


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "out.fa"
    records = [
        FastaRecord("a", "desc one", Sequence.from_text("a", "ACGT" * 30)),
        FastaRecord("b", "", Sequence.from_text("b", "NNNACGT")),
    ]
    write_fasta(records, path, width=50)
    back = read_fasta(path)
    assert [r.identifier for r in back] == ["a", "b"]
    assert back[0].description == "desc one"
    assert back[0].sequence.text == "ACGT" * 30
    assert back[1].sequence.text == "NNNACGT"


def test_write_bare_sequences():
    buffer = io.StringIO()
    write_fasta([Sequence.from_text("x", "ACGT")], buffer)
    assert buffer.getvalue() == ">x\nACGT\n"


def test_write_wraps_lines():
    buffer = io.StringIO()
    write_fasta([Sequence.from_text("x", "A" * 25)], buffer, width=10)
    lines = buffer.getvalue().splitlines()
    assert lines[1:] == ["A" * 10, "A" * 10, "A" * 5]


def test_write_rejects_bad_width():
    with pytest.raises(FastaError):
        write_fasta([Sequence.from_text("x", "ACGT")], io.StringIO(), width=0)


# -- dialect rules the bulk body join must keep --------------------------------


def _line_by_line(text):
    """The reader's rules applied one line at a time: the reference the
    bulk join of ``parse_fasta`` must agree with."""
    header, chunks, records = None, [], []
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if not line or line.startswith(";"):
            continue
        if line.startswith(">"):
            if header is not None:
                records.append(FastaRecord.from_parts(header, "".join(chunks)))
            header, chunks = line[1:].strip(), []
        elif header is None:
            raise FastaError("FASTA stream has sequence data before any '>' header")
        else:
            chunks.append(line.strip())
    if header is None:
        raise FastaError("FASTA stream contains no records")
    records.append(FastaRecord.from_parts(header, "".join(chunks)))
    return records


def _outcome(read, text):
    try:
        return [
            (r.identifier, r.description, r.sequence.text) for r in read(text)
        ]
    except Exception as error:  # the typed error is part of the contract
        return (type(error).__name__, str(error))


def test_comment_lines_inside_and_after_records():
    records = read_fasta(io.StringIO(">a\nAC\n;one\nGT\n>b\n;two\nTT\n;tail\n"))
    assert [r.sequence.text for r in records] == ["ACGT", "TT"]


def test_crlf_multi_record_with_blank_lines():
    records = read_fasta(io.StringIO(">a x\r\nAC\r\n\r\nGT\r\n>b\r\nTT\r\n"))
    assert [(r.identifier, r.description) for r in records] == [("a", "x"), ("b", "")]
    assert [r.sequence.text for r in records] == ["ACGT", "TT"]


def test_crlf_file_on_disk(tmp_path):
    path = tmp_path / "crlf.fa"
    path.write_bytes(b">a\r\nAC\r\nGT\r\n>b\r\nTT")
    assert [r.sequence.text for r in read_fasta(path)] == ["ACGT", "TT"]


def test_each_line_is_stripped():
    records = read_fasta(io.StringIO(">a\n  AC \t\n\tGT\x0b\nTT \n"))
    assert records[0].sequence.text == "ACGTTT"


def test_unicode_whitespace_from_a_handle_is_stripped():
    records = read_fasta(io.StringIO(">a\nAC\u00a0\nGT\n"))
    assert records[0].sequence.text == "ACGT"


def test_inner_whitespace_is_not_stripped():
    with pytest.raises(Exception, match="non-genomic symbol ' '"):
        read_fasta(io.StringIO(">a\nAC GT\n"))


def test_semicolon_inside_a_line_is_data():
    with pytest.raises(Exception, match="non-genomic symbol ';'"):
        read_fasta(io.StringIO(">a\nAC;GT\n"))


def test_gt_inside_a_line_is_data():
    with pytest.raises(Exception, match="non-genomic symbol '>'"):
        read_fasta(io.StringIO(">a\nAC>GT\n"))


def test_comment_only_preamble_accepted():
    records = read_fasta(io.StringIO(";c1\n\n;c2\n>a\nAC\n"))
    assert records[0].sequence.text == "AC"


def test_whitespace_line_before_header_is_data():
    with pytest.raises(FastaError, match="before any '>' header"):
        read_fasta(io.StringIO("  \n>a\nAC\n"))


def test_comment_only_stream_has_no_records():
    with pytest.raises(FastaError, match="no records"):
        read_fasta(io.StringIO(";only\n\n"))


def test_record_of_comments_is_empty():
    with pytest.raises(FastaError, match="'b' has an empty sequence"):
        read_fasta(io.StringIO(">a\nAC\n>b\n;nothing here\n\n>c\nGT\n"))


def test_final_header_without_newline_is_empty():
    with pytest.raises(FastaError, match="'b' has an empty sequence"):
        read_fasta(io.StringIO(">a\nAC\n>b"))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [">a", ">b c", "> ", "ACGT", "acgtn", "\n", "\r\n", "\r", ";", " ", "\t",
             "x", "\u00a0", "GG\n", "\n>", "\n;c\n"]
        ),
        max_size=14,
    )
)
def test_bulk_join_agrees_with_line_by_line(parts):
    # Tiny read blocks put block edges inside lines, headers and CRLFs.
    text = "".join(parts)
    expected = _outcome(_line_by_line, text)
    with pytest.MonkeyPatch.context() as patch:
        for block in (1, 2, 5, 1 << 20):
            patch.setattr(fasta, "_BLOCK", block)
            assert _outcome(lambda t: read_fasta(io.StringIO(t)), text) == expected, block


def test_long_lines_span_read_blocks(monkeypatch, tmp_path):
    monkeypatch.setattr(fasta, "_BLOCK", 3)
    path = tmp_path / "long.fa"
    path.write_text(">a\n" + "ACGT" * 5 + "\n>b\n" + "GT" * 7, encoding="ascii")
    assert [r.sequence.text for r in read_fasta(path)] == ["ACGT" * 5, "GT" * 7]
