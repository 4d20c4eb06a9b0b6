"""File format round-trips and the command line surface, exit codes included."""

import dataclasses
import os
import re
import string
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skewlat
from skewlat.census import canonicalize, enumerate_skew_lattices
from skewlat import cli
from skewlat.cli import FORMAT_TAG, FORMAT_VERSION, ParseError, StructureFile, emit, entry, main, parse
from skewlat.core import (
    BUILD_CAP_ENV,
    CapExceededError,
    FiniteSkewLattice,
    StructureError,
    Table,
    _check_cap,
    check_symmetric,
)
from skewlat.models import build_pfn_algebra, diamond_m3, om_window

NON_NORMAL_TABLES = (((0, 0, 0), (0, 1, 2), (2, 2, 2)), ((0, 1, 2), (1, 1, 1), (0, 1, 2)))

# the four classes of order 7 that are not symmetric, in canonical form: the
# smallest skew lattices on which the ladder gives no verdict
NON_SYMMETRIC_ORDER_SEVEN = (
    (
        ((0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1, 1), (0, 0, 2, 0, 2, 0, 2), (3, 3, 3, 3, 3, 3, 3),
         (3, 3, 4, 3, 4, 3, 4), (3, 5, 3, 3, 3, 5, 5), (0, 1, 2, 3, 4, 5, 6)),
        ((0, 1, 2, 3, 4, 5, 6), (1, 1, 6, 5, 6, 5, 6), (2, 6, 2, 4, 4, 6, 6), (0, 1, 2, 3, 4, 5, 6),
         (2, 6, 2, 4, 4, 6, 6), (1, 1, 6, 5, 6, 5, 6), (6, 6, 6, 6, 6, 6, 6)),
    ),
    (
        ((0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 1, 1), (0, 0, 2, 2, 0, 2, 2), (0, 0, 3, 3, 0, 3, 3),
         (0, 4, 0, 0, 4, 4, 4), (0, 1, 2, 2, 1, 5, 5), (0, 4, 3, 3, 4, 6, 6)),
        ((0, 1, 2, 3, 4, 5, 6), (1, 1, 5, 6, 4, 5, 6), (2, 5, 2, 3, 6, 5, 6), (3, 5, 2, 3, 6, 5, 6),
         (4, 1, 5, 6, 4, 5, 6), (5, 5, 5, 6, 6, 5, 6), (6, 5, 5, 6, 6, 5, 6)),
    ),
    (
        ((0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 1, 5, 5), (0, 0, 2, 3, 2, 0, 3), (0, 0, 2, 3, 2, 0, 3),
         (0, 1, 2, 3, 4, 5, 6), (0, 1, 0, 0, 1, 5, 5), (0, 1, 2, 3, 4, 5, 6)),
        ((0, 1, 2, 3, 4, 5, 6), (1, 1, 4, 4, 4, 1, 4), (2, 4, 2, 2, 4, 4, 4), (3, 6, 3, 3, 6, 6, 6),
         (4, 4, 4, 4, 4, 4, 4), (5, 5, 6, 6, 6, 5, 6), (6, 6, 6, 6, 6, 6, 6)),
    ),
    (
        ((0, 0, 0, 0, 4, 4, 4), (0, 1, 0, 1, 4, 4, 6), (0, 0, 2, 2, 4, 5, 4), (0, 1, 2, 3, 4, 5, 6),
         (0, 0, 0, 4, 4, 4, 4), (0, 0, 2, 5, 4, 5, 4), (0, 1, 0, 6, 4, 4, 6)),
        ((0, 1, 2, 3, 0, 2, 1), (1, 1, 3, 3, 1, 3, 1), (2, 3, 2, 3, 2, 2, 3), (3, 3, 3, 3, 3, 3, 3),
         (4, 6, 5, 3, 4, 5, 6), (5, 3, 5, 3, 5, 5, 3), (6, 6, 3, 3, 6, 3, 6)),
    ),
)

CHAIN2_TEXT = "skewlat 1\nn 2\nzero 0\nmeet\n0 0\n0 1\njoin\n0 1\n1 1\n"

LADDER_YES = ["join-complete yes", "bounded-above yes", "extends-to-sections yes", "section-exists yes"]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- the reference parser ----------------------------------------------------

class _Token(NamedTuple):
    text: str
    line: int
    col: int
    quoted: bool


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if ch == '"':
                i += 1
                parts: list[str] = []
                while True:
                    if i >= len(raw):
                        raise ParseError("unterminated quoted string", lineno, col)
                    ch = raw[i]
                    if ch == '"':
                        i += 1
                        break
                    if ch == "\\":
                        code = raw[i + 2:i + 6]  # a \u escape: four hex digits name the character
                        if raw[i + 1:i + 2] == "u" and len(code) == 4 and all(h in string.hexdigits for h in code):
                            parts.append(chr(int(code, 16)))
                            i += 6
                            continue
                        if i + 1 >= len(raw) or raw[i + 1] not in _ESCAPES:
                            raise ParseError("unknown escape in quoted string", lineno, i + 1)
                        parts.append(_ESCAPES[raw[i + 1]])
                        i += 2
                        continue
                    parts.append(ch)
                    i += 1
                tokens.append(_Token("".join(parts), lineno, col, quoted=True))
                continue
            j = i
            while j < len(raw) and raw[j] not in ' \t\r#"':
                j += 1
            tokens.append(_Token(raw[i:j], lineno, col, quoted=False))
            i = j
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", 1, 1, False)
            raise ParseError(f"expected {what}, got end of file", last.line, last.col)
        self.pos += 1
        return tok

    def expect_word(self, word: str) -> _Token:
        tok = self.take(f"'{word}'")
        if tok.quoted or tok.text != word:
            raise ParseError(f"expected '{word}', got {tok.text!r}", tok.line, tok.col)
        return tok

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and not tok.quoted and tok.text == word

    def take_int(self, what: str, lo: int, hi: float) -> int:
        tok = self.take(what)
        if tok.quoted:
            raise ParseError(f"expected {what}, got quoted string", tok.line, tok.col)
        if not re.fullmatch("-?[0-9]+", tok.text):  # ASCII digits only: no "+", "_" or other digit
            raise ParseError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
        value = int(tok.text)
        if not lo <= value <= hi:
            raise ParseError(f"{what} {value} out of range [{lo}, {hi}]", tok.line, tok.col)
        return value


def _parse_oracle(text: str) -> StructureFile:
    """The token-at-a-time parser that ``parse`` must agree with, kept as the reference."""
    cur = _Cursor(_tokenize(text))
    cur.expect_word(FORMAT_TAG)
    tok = cur.take("format version")
    if tok.quoted or tok.text != str(FORMAT_VERSION):
        raise ParseError(f"unsupported format version {tok.text!r}", tok.line, tok.col)
    cur.expect_word("n")
    order = cur.take_int("order", 1, float("inf"))
    _check_cap(order, "structure file order", op="parse", env=BUILD_CAP_ENV)
    zero = None
    if cur.at_word("zero"):
        cur.take("'zero'")
        zero = cur.take_int("zero id", 0, order - 1)
    tables: list[Table] = []
    for section in ("meet", "join"):
        cur.expect_word(section)
        rows = []
        for _ in range(order):
            rows.append(
                tuple(cur.take_int(f"{section} entry", 0, order - 1) for _ in range(order))
            )
        tables.append(tuple(rows))
    labels: tuple[str, ...] | None = None
    if cur.at_word("labels"):
        cur.take("'labels'")
        got = []
        for _ in range(order):
            tok = cur.take("label string")
            if not tok.quoted:
                raise ParseError(f"labels must be quoted, got {tok.text!r}", tok.line, tok.col)
            got.append(tok.text)
        labels = tuple(got)
    stray = cur.peek()
    if stray is not None:
        raise ParseError(f"unexpected token {stray.text!r}", stray.line, stray.col)
    return StructureFile(order, tables[0], tables[1], zero=zero, labels=labels)


# --- parsing ----------------------------------------------------------------

def test_parse_reads_every_section():
    sf = parse(CHAIN2_TEXT + 'labels\n"lo"  "hi"\n')
    assert sf == StructureFile(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=0, labels=("lo", "hi"))


def test_comments_and_layout_are_free():
    wild = "# header\n  skewlat   1 n 2 # inline\nmeet 0 0 0 1\njoin\n0 1 1 1"
    assert parse(wild) == parse("skewlat 1\nn 2\nmeet\n0 0\n0 1\njoin\n0 1\n1 1\n")


@pytest.mark.parametrize(
    "text, fragment, line, col",
    [
        ("skewlon 1", "expected 'skewlat'", 1, 1),
        ("skewlat 2", "unsupported format version", 1, 9),
        ("skewlat 1\nmeet", "expected 'n'", 2, 1),
        ("skewlat 1\nn 0", "order 0 out of range", 2, 3),
        ("skewlat 1\nn 2\nzero 5", "zero id 5 out of range [0, 1]", 3, 6),
        ("skewlat 1\nn 2\nmeet\n0 0\n0 5", "meet entry 5 out of range", 5, 3),
        ("skewlat 1\nn 2\nmeet\n0 0\n0 x", "expected meet entry, got 'x'", 5, 3),
        ("skewlat 1\nn 2\nmeet\n0 0\n0", "expected meet entry, got end of file", 5, 1),
        (CHAIN2_TEXT + "labels\n\"a\" oops", "labels must be quoted", 11, 5),
        (CHAIN2_TEXT + 'labels\n"a\n"b"', "unterminated quoted string", 11, 1),
        (CHAIN2_TEXT + 'labels\n"a\\qb" "c"', "unknown escape", 11, 3),
        (CHAIN2_TEXT + 'labels\n"a\\u00g0" "c"', "unknown escape", 11, 3),
        ("skewlat 1\nn +2", "expected order, got '+2'", 2, 3),
        ("skewlat 1\nn 2\nzero 0_0", "expected zero id, got '0_0'", 3, 6),
        ("skewlat 1\nn 2\nmeet\n0 0\n0 \uff11", "expected meet entry, got '\uff11'", 5, 3),
        (CHAIN2_TEXT + "extra", "unexpected token 'extra'", 10, 1),
    ],
)
def test_rejections_carry_positions(text, fragment, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)
    assert _outcome(parse, text) == _outcome(_parse_oracle, text)


def test_a_declared_order_past_the_build_cap_is_refused_before_any_table(tmp_path, capsys, monkeypatch):
    with pytest.raises(CapExceededError, match=r"^structure file order 5000 > cap 4096; set SKEWLAT_BUILD_CAP to override$"):
        parse("skewlat 1\nn 5000\nmeet\n")  # no table follows
    corrupted = CHAIN2_TEXT.replace("n 2", "n 9999")
    assert _outcome(parse, corrupted) == _outcome(_parse_oracle, corrupted) == (
        "structure file order 9999 > cap 4096; set SKEWLAT_BUILD_CAP to override")
    monkeypatch.setenv("SKEWLAT_BUILD_CAP", "1")
    with pytest.raises(CapExceededError, match=r"^structure file order 2 > cap 1; "):
        parse(CHAIN2_TEXT)
    code, out, err = _run(capsys, "theorem", _write(tmp_path, "c.skl", CHAIN2_TEXT))
    assert (code, out) == (2, "")
    assert err.endswith("error: structure file order 2 > cap 1; set SKEWLAT_BUILD_CAP to override\n")
    monkeypatch.setenv("SKEWLAT_BUILD_CAP", "2")
    assert parse(CHAIN2_TEXT).order == 2


def test_emit_round_trips_the_census():
    for n in (1, 2, 3):
        for S in enumerate_skew_lattices(n):
            back = parse(emit(S))
            assert back == StructureFile.from_structure(S)
            assert emit(back) == emit(S)


@pytest.mark.parametrize(
    "meet, fragment",
    [
        (((0, -1), (0, 1)), r"^meet table entry -1 at row 0 is out of range 0\.\.1$"),
        (((0, 0), (2, 1)), r"^meet table entry 2 at row 1 is out of range 0\.\.1$"),
        (((0,), (0, 1, 5)), r"^meet table row 0 has 1 entries, expected 2$"),
    ],
    ids=["negative", "out of range", "ragged"],
)
def test_a_structure_file_is_checked_by_the_constructor(meet, fragment):
    with pytest.raises(StructureError, match=fragment):
        StructureFile(2, meet, ((0, 1), (1, 1)))


# the bulk layout, and one whose meet table goes through the token-by-token path
_TABLE_PATHS = {"bulk": CHAIN2_TEXT, "token by token": CHAIN2_TEXT.replace("\n0 1\njoin", " 0 1 # a comment\njoin")}


@pytest.mark.parametrize("text", _TABLE_PATHS.values(), ids=_TABLE_PATHS.keys())
def test_a_parsed_file_holds_read_only_arrays_and_equals_a_tuple_built_one(text):
    sf = parse(text)
    for table in (sf._m, sf._j):
        assert isinstance(table, np.ndarray) and table.dtype == np.intp and not table.flags.writeable
    built = StructureFile(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), zero=0)
    assert sf == built and hash(sf) == hash(built)
    assert sf != StructureFile(2, ((0, 0), (0, 1)), ((0, 1), (1, 1))) and sf != StructureFile(2, built.meet_table, built.meet_table, zero=0)
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in sf.meet_table + sf.join_table)
    assert (sf.meet_table, sf.join_table) == (built.meet_table, built.join_table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sf.zero = 1


# with every character at which str.splitlines ends a line: emit writes all but "\n" as \u escapes
_LABEL_ALPHABET = sorted(set(
    string.ascii_letters + string.digits + string.punctuation + " \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.text(_LABEL_ALPHABET), st.text(_LABEL_ALPHABET)))
def test_labels_survive_quoting(labels):
    S = FiniteSkewLattice(2, ((0, 0), (0, 1)), ((0, 1), (1, 1)), labels=labels)
    assert parse(emit(S)).labels == labels


# --- the bulk parser against the reference ---------------------------------

def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as err:
        return str(err), err.line, err.col
    except CapExceededError as err:  # a declared order past the build cap, before any table is read
        return str(err)


def _source_tokens(sf: StructureFile) -> list[str]:
    """The tokens of ``emit(sf)`` as they are written, quotes and escapes included."""
    words = [FORMAT_TAG, str(FORMAT_VERSION), "n", str(sf.order)]
    if sf.zero is not None:
        words += ["zero", str(sf.zero)]
    for section, table in (("meet", sf.meet_table), ("join", sf.join_table)):
        words += [section, *(str(v) for row in table for v in row)]
    if sf.labels is not None:
        words += ["labels", *emit(sf).split("\nlabels\n")[1].splitlines()]
    return words


_PARSE_CORPUS = [S for n in (1, 2, 3) for S in enumerate_skew_lattices(n)] + [build_pfn_algebra(2, 2), build_pfn_algebra(3, 1)]
# whitespace between tokens: tabs, line breaks anywhere (inside rows too) and
# comments, some holding a quote or a bad escape that only a comment may hold
_SEPARATORS = (
    " ", " ", "  ", "\t", " \t ", "\n", "\r\n", "\n\n", " # note\n", "\t# a \"quote\n", "#\\q\n", "# 1 2 3\n",
    # the other line ends of str.splitlines
    "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " # x\r", "\r\r\n",
)
_LABEL_TEXT = st.text(sorted(set(string.ascii_letters + string.digits + ' #"\\\n')), max_size=6)
_CORRUPTIONS = (
    "x", "1.5", "0x1", "-1", "+1", "1_0", "١", "0\x1f1", "1\x1f", "9999", "~n", None, "extra",
    '"0"', '""', '"0"1', '1"0"', '"a\\qb"', '"ab\\', '"ab', '"a\\"', '"#"#"',
)


@st.composite
def _laid_out(draw, corrupt: bool):
    S = draw(st.sampled_from(_PARSE_CORPUS))
    labels = draw(st.one_of(st.none(), st.lists(_LABEL_TEXT, min_size=S.order, max_size=S.order)))
    sf = StructureFile(S.order, S.meet_table, S.join_table, zero=S.zero, labels=labels and tuple(labels))
    words = _source_tokens(sf)
    if corrupt:
        k = draw(st.integers(0, len(words) - 1))
        bad = draw(st.sampled_from(_CORRUPTIONS))
        if bad is None:
            del words[k]
        elif bad == "extra":
            words.insert(k, "0")
        else:
            words[k] = str(S.order) if bad == "~n" else bad
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(words), max_size=len(words)))
    return sf, "".join(w + s for w, s in zip(words, seps))


@settings(max_examples=150, deadline=None)
@given(_laid_out(corrupt=False))
def test_bulk_parse_matches_the_reference_on_valid_layouts(case):
    sf, text = case
    assert parse(text) == _parse_oracle(text) == sf


@settings(max_examples=400, deadline=None)
@given(_laid_out(corrupt=True))
def test_bulk_parse_matches_the_reference_on_corrupted_tokens(case):
    _, text = case
    assert _outcome(parse, text) == _outcome(_parse_oracle, text)


# --- the layout emit writes, where each table is decoded from its lines unsplit ------

_P22_TEXT = emit(build_pfn_algebra(2, 2))
# 2**64 + 3: as a uint64 it would wrap to 3, a valid entry; it must be out of range
_HUGE = "18446744073709551619"


def _cell_edited(text: str, section: str, bad: str | None) -> str:
    """``text`` with one cell of the table ``section`` (row 4, column 3) corrupted as in ``_CORRUPTIONS``."""
    lines = text.split("\n")
    at = lines.index(section) + 5
    cells = lines[at].split(" ")
    if bad is None:
        del cells[3]
    elif bad == "extra":
        cells.insert(3, "0")
    else:
        cells[3] = str(len(cells)) if bad == "~n" else bad
    lines[at] = " ".join(cells)
    return "\n".join(lines)


def _rows_edited(text: str, edit) -> str:
    """``text`` with ``edit`` applied to every table row, the lines of digits and spaces."""
    return "\n".join(edit(line) if line[:1].isdigit() and " " in line else line for line in text.split("\n"))


_EMITTED_CASES = {
    **{f"{section} {bad!r}": _cell_edited(_P22_TEXT, section, bad)
       for bad in (*_CORRUPTIONS, _HUGE) for section in ("meet", "join")},
    "valid": _P22_TEXT,
    "tab-separated rows": _rows_edited(_P22_TEXT, lambda line: line.replace(" ", "\t")),
    "blanks around rows": _rows_edited(_P22_TEXT, lambda line: f" \t{line}  "),
    "a comment after each table": _P22_TEXT.replace("\njoin\n", "\n# the join table\njoin\n").replace(
        "\nlabels\n", "\n# labels follow\nlabels\n"),
    "a comment after the section word": _P22_TEXT.replace("\nmeet\n", "\nmeet # rows are x\n"),
    "ends after the meet table": _P22_TEXT.split("join\n")[0],
    "ends after the meet table, no newline": _P22_TEXT.split("\njoin\n")[0],
    "ends after the join table": _P22_TEXT.split("labels\n")[0],
    "ends after the join table and a comment": _P22_TEXT.split("labels\n")[0] + "# end\n",
    "a blank line inside a table": _P22_TEXT.replace("\n0 1 1 3 4 4 3 4 4\n", "\n\n0 1 1 3 4 4 3 4 4\n"),
    "a row split in two": _P22_TEXT.replace("\n0 1 1 3 4 4 3 4 4\n", "\n0 1 1 3\n4 4 3 4 4\n"),
    "a table one row short": _P22_TEXT.replace("\n0 1 1 3 4 4 3 4 4\n", "\n"),
    "a blank line for a one-element table": "skewlat 1\nn 1\nmeet\n \n0\njoin\n0\n",
    "a one-element table": "skewlat 1\nn 1\nmeet\n0\njoin\n0\n",
    "leading zeros": _rows_edited(_P22_TEXT, lambda line: line.replace("1", "001")),
    # more comments in a row than one match of the token and quote patterns takes
    "200 comment lines before a table": _P22_TEXT.replace("\nmeet\n", "\n" + "# c\n" * 200 + "meet\n"),
    "a quote, then 200 comment lines": _P22_TEXT.replace("\nmeet\n", '\n# "q"\n' + "# c\n" * 200 + "meet\n"),
    "200 comment lines, then a cut-short label": _P22_TEXT.replace("\nlabels\n", "\n" + "# c\n" * 200 + 'labels\n"a\n'),
    "crlf line ends": _P22_TEXT.replace("\n", "\r\n"),
    "crlf line ends, one table cut short": _P22_TEXT.replace("\n", "\r\n").split("\r\njoin\r\n")[0],
}


@pytest.mark.parametrize("text", _EMITTED_CASES.values(), ids=_EMITTED_CASES.keys())
def test_emitted_layout_matches_the_reference(text):
    assert _outcome(parse, text) == _outcome(_parse_oracle, text)


def test_emitted_tables_are_decoded_without_splitting(monkeypatch):
    # in the layout emit writes, the one-by-one path reads only the order and the zero
    took = []
    take_int = cli._Tokens.take_int
    monkeypatch.setattr(cli._Tokens, "take_int", lambda self, what, lo, hi: took.append(what) or take_int(self, what, lo, hi))
    assert parse(_P22_TEXT) == StructureFile.from_structure(build_pfn_algebra(2, 2))
    assert took == ["order", "zero id"]


def test_tables_with_crlf_line_ends_are_decoded_without_splitting(monkeypatch):
    expected = parse(_P22_TEXT)
    took = []
    take_int = cli._Tokens.take_int
    monkeypatch.setattr(cli._Tokens, "take_int", lambda self, what, lo, hi: took.append(what) or take_int(self, what, lo, hi))
    assert parse(_P22_TEXT.replace("\n", "\r\n")) == expected
    assert took == ["order", "zero id"]


def test_parse_and_emit_render_no_tuple_table(monkeypatch):
    # parse hands its arrays to the constructor, and emit writes a structure's rows from its arrays
    def unread(S):
        raise AssertionError("a tuple table was read")

    for cls in (StructureFile, FiniteSkewLattice):
        monkeypatch.setattr(cls, "meet_table", property(unread))
        monkeypatch.setattr(cls, "join_table", property(unread))
    S = build_pfn_algebra(2, 2)
    for text in (_P22_TEXT, _P22_TEXT.replace("\njoin\n", " # a comment\njoin\n")):
        T = parse(text).to_structure()
        assert T == S and T.labels == S.labels
        assert emit(T) == emit(parse(text)) == _P22_TEXT
    monkeypatch.undo()
    assert "meet_table" not in S.__dict__ and "join_table" not in S.__dict__


@pytest.fixture(scope="module")
def p42_text():
    return emit(build_pfn_algebra(4, 2))


def _p42_corruptions(text):
    lines = text.split("\n")
    meet_at, join_at = lines.index("meet"), lines.index("join")

    def edit(row_line, col, value):
        copy = list(lines)
        copy[row_line] = " ".join(value if j == col else v for j, v in enumerate(copy[row_line].split(" ")))
        return "\n".join(copy)

    # the comment swallows the rest of join row 50, so every later entry shifts
    # by 80 tokens and "labels" is read as a join entry
    swallowed = list(lines)
    swallowed[join_at + 51] = swallowed[join_at + 51].replace(" ", " # ", 1)
    return {
        "got '9x'": edit(join_at + 72, 40, "9x"),
        "join entry 81 out of range": edit(join_at + 81, 79, "81"),
        "got quoted string": edit(meet_at + 31, 12, '"7"'),
        "got 'labels'": "\n".join(swallowed),
    }


def test_large_file_rejections_match_the_reference(p42_text, tmp_path, capsys):
    assert parse(p42_text) == _parse_oracle(p42_text)
    assert _run(capsys, "check", _write(tmp_path, "p42.skl", p42_text))[0] == 0
    lines = p42_text.split("\n")
    row = lines.index("join") + 40
    lines[row] = lines[row].replace(" ", " # a row may break anywhere\n", 1)
    split = "\n".join(lines)
    assert parse(split) == _parse_oracle(split) == parse(p42_text)
    for name, text in _p42_corruptions(p42_text).items():
        expected = _outcome(_parse_oracle, text)
        assert name in expected[0], name
        assert _outcome(parse, text) == expected, name
        code, out, err = _run(capsys, "check", _write(tmp_path, "bad.skl", text))
        assert code == 2 and out == "", name
        assert f"line {expected[1]}, column {expected[2]}:" in err, name


# --- check and classify ----------------------------------------------------

def test_check_accepts_a_valid_file(tmp_path, capsys):
    code, out, _ = _run(capsys, "check", _write(tmp_path, "c.skl", CHAIN2_TEXT))
    assert code == 0
    assert out == "valid skew lattice (order 2, zero 0)\n"


def test_check_names_the_broken_law(tmp_path, capsys):
    # min for both operations parses fine but cannot absorb
    bad = "skewlat 1\nn 2\nmeet\n0 0\n0 1\njoin\n0 0\n0 1\n"
    path = _write(tmp_path, "bad.skl", bad)
    for command in ("check", "classify"):
        code, out, _ = _run(capsys, command, path)
        assert (code, out) == (1, "not a skew lattice: absorption x∧(x∨y)=x fails at (1, 0)\n"), command


def test_classify_prints_the_full_table(tmp_path, capsys):
    code, out, _ = _run(capsys, "classify", _write(tmp_path, "c.skl", CHAIN2_TEXT))
    assert code == 0
    assert out.splitlines() == [
        "order 2",
        "zero 0",
        "commutative yes",
        "regular yes",
        "normal yes",
        "distributive yes",
        "strongly-distributive yes",
        "left-handed yes",
        "right-handed yes",
        "symmetric yes",
        "join-complete yes",
        "bounded-above yes",
        "extends-to-sections yes",
        "section-exists yes",
    ]


def test_classify_marks_unguarded_checks(tmp_path, capsys):
    S = FiniteSkewLattice(3, *NON_NORMAL_TABLES)
    code, out, _ = _run(capsys, "classify", _write(tmp_path, "nn.skl", emit(S)))
    assert code == 0
    assert "normal no" in out.splitlines()
    assert out.count("n/a (needs normal and symmetric)") == 4


@pytest.mark.parametrize("tables", NON_SYMMETRIC_ORDER_SEVEN, ids=range(len(NON_SYMMETRIC_ORDER_SEVEN)))
def test_classify_gives_no_ladder_verdict_on_a_non_symmetric_class(tmp_path, capsys, tables):
    S = FiniteSkewLattice(7, *tables)
    assert S.validity.ok and not check_symmetric(S).ok
    cf = canonicalize(S)
    assert (cf.meet_table, cf.join_table) == tables
    code, out, _ = _run(capsys, "classify", _write(tmp_path, "ns7.skl", emit(S)))
    assert code == 0
    assert "symmetric no" in out.splitlines()
    assert out.count("n/a (needs normal and symmetric)") == 4


def test_classify_answers_past_the_subset_cap(tmp_path, capsys):
    # order 16 is normal and symmetric, and every ladder check is decided by a
    # lemma; extends-to-sections used to stop at the commuting-subset cap
    _, text, _ = _run(capsys, "paper", "pfn", "--sizes", "2,3")
    code, out, _ = _run(capsys, "classify", _write(tmp_path, "p23.skl", text))
    assert code == 0
    lines = out.splitlines()
    assert "normal yes" in lines and "symmetric yes" in lines
    assert "n/a" not in out and "capped" not in out
    assert lines[-4:] == LADDER_YES


def test_classify_answers_on_p42(tmp_path, capsys, p42_text):
    # order 81: the whole ladder is decided by lemmas, no subset is walked
    code, out, _ = _run(capsys, "classify", _write(tmp_path, "p42.skl", p42_text))
    assert code == 0
    assert out.splitlines()[-4:] == LADDER_YES


def test_reports_are_reproducible(tmp_path, capsys):
    path = _write(tmp_path, "c.skl", CHAIN2_TEXT)
    first = _run(capsys, "classify", path)
    assert _run(capsys, "classify", path) == first


# --- quotient, sup, sections ------------------------------------------------

def test_quotient_collapses_to_the_boolean_image(tmp_path, capsys, p22):
    path = _write(tmp_path, "p22.skl", emit(p22))
    code, out, _ = _run(capsys, "quotient", path)
    assert code == 0
    shadow = parse(out).to_structure()
    assert shadow.order == 4 and shadow.validity.ok
    assert shadow.labels == ("{{}}", "{{1:0},{1:1}}", "{{0:0},{0:1}}", "{{0:0,1:0},{0:0,1:1},{0:1,1:0},{0:1,1:1}}")


def test_quotient_writes_to_a_file(tmp_path, capsys, p22):
    path = _write(tmp_path, "p22.skl", emit(p22))
    dest = tmp_path / "shadow.skl"
    code, out, _ = _run(capsys, "quotient", path, "-o", str(dest))
    assert code == 0 and out == ""
    assert parse(dest.read_text()).order == 4


def test_sup_reports_the_witnessing_element(tmp_path, capsys, p22):
    path = _write(tmp_path, "p22.skl", emit(p22))
    code, out, _ = _run(capsys, "sup", path, "--elements", "1,3")
    assert code == 0
    assert out == 'sup 4 "{0:0,1:0}"\n'


def test_sup_explains_a_missing_least_upper_bound(tmp_path, capsys):
    path = _write(tmp_path, "w1.skl", emit(om_window(1)))
    code, out, _ = _run(capsys, "sup", path, "--elements", "2,3")
    assert code == 1
    assert out == "no supremum of {2, 3}; upper bounds {} have no least element\n"


def test_sup_lists_the_upper_bounds_that_have_no_least(tmp_path, capsys):
    # 1 and 2 are incomparable, and both lie above 0 and 3
    S = FiniteSkewLattice(
        4,
        ((0, 0, 0, 0), (0, 1, 1, 3), (0, 2, 2, 3), (3, 3, 3, 3)),
        ((0, 1, 2, 3), (1, 1, 2, 1), (2, 1, 2, 2), (0, 1, 2, 3)),
    )
    path = _write(tmp_path, "two.skl", emit(S))
    code, out, _ = _run(capsys, "sup", path, "--elements", "3,0,3")
    assert code == 1
    assert out == "no supremum of {0, 3}; upper bounds {1, 2} have no least element\n"


def test_sup_rejects_ids_out_of_range(tmp_path, capsys):
    path = _write(tmp_path, "c.skl", CHAIN2_TEXT)
    code, _, err = _run(capsys, "sup", path, "--elements", "0,9")
    assert code == 2
    assert "out of range" in err


def test_sections_lists_every_transversal(tmp_path, capsys, p22):
    path = _write(tmp_path, "p22.skl", emit(p22))
    code, out, _ = _run(capsys, "sections", path)
    assert code == 0
    assert out.splitlines() == [
        "section 0 1 3 4",
        "section 0 1 6 7",
        "section 0 2 3 5",
        "section 0 2 6 8",
    ]


# --- census ------------------------------------------------------------------

def test_census_count_only(capsys):
    code, out, _ = _run(capsys, "census", "--order", "2", "--count-only")
    assert (code, out) == (0, "3\n")


def test_census_emits_numbered_parseable_structures(capsys):
    code, out, _ = _run(capsys, "census", "--order", "2")
    assert code == 0
    blocks = out.split("# structure ")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["1 of 3, order 2", "2 of 3, order 2", "3 of 3, order 2"]
    for block in blocks:
        body = "\n".join(block.splitlines()[1:]) + "\n"
        assert parse(body).to_structure().validity.ok


def test_census_filters_compose(capsys):
    args = ("census", "--order", "2", "--count-only", "--filter")
    assert _run(capsys, *args, "left-handed=yes,commutative=no")[:2] == (0, "1\n")
    code, out, _ = _run(capsys, *args, "left-handed=yes", "--filter", "commutative=no")
    assert (code, out) == (0, "1\n")
    assert _run(capsys, "census", "--order", "3", "--filter", "distributive=no", "--count-only")[:2] == (0, "0\n")


@pytest.mark.parametrize(
    "filt, fragment",
    [
        ("frobnicates=yes", "bad filter"),
        ("left-handed", "bad filter"),
        ("left-handed=maybe", "bad filter value"),
    ],
)
def test_census_rejects_bad_filters(capsys, filt, fragment):
    code, _, err = _run(capsys, "census", "--order", "2", "--filter", filt)
    assert code == 2 and fragment in err


def test_census_respects_the_order_cap(capsys):
    code, _, err = _run(capsys, "census", "--order", "6")
    assert code == 2 and "census order 6 > cap 5; set SKEWLAT_CENSUS_CAP to override" in err


# --- the worked example families ----------------------------------------------

def test_paper_pfn_emits_the_nine_element_algebra(capsys, p22):
    code, out, _ = _run(capsys, "paper", "pfn")
    assert code == 0
    assert parse(out).labels == p22.labels


def test_bad_ids_and_sizes_are_usage_errors(tmp_path, capsys):
    path = _write(tmp_path, "c.skl", CHAIN2_TEXT)
    for argv, message in (
        (("sup", path, "--elements", "a,b"), "argument --elements: expected comma-separated ids, got 'a,b'"),
        (("sup", path, "--elements", ","), "argument --elements: expected at least one id"),
        (("paper", "pfn", "--sizes", "2"), "argument --sizes: expected two comma-separated sizes, got '2'"),
        (("paper", "pfn", "--sizes", "x,2"), "argument --sizes: expected integer sizes, got 'x,2'"),
        (("paper", "pfn", "--sizes", "8,2"), "partial-function algebra would have order 6561 > cap 4096; "
                                             "set SKEWLAT_BUILD_CAP to override"),
    ):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "") and err.splitlines()[-1].endswith(f"error: {message}"), argv


def test_paper_pfn_verifies(capsys):
    code, out, _ = _run(capsys, "paper", "pfn", "--verify", "--sizes", "3,2")
    assert code == 0
    assert "partial functions 3 -> 2: order 27" in out
    assert "FAILED" not in out
    assert "commutative image boolean of size 8 ok" in out


def test_paper_omega_emits_a_window(capsys):
    code, out, _ = _run(capsys, "paper", "omega", "--window", "2")
    assert code == 0
    assert parse(out).to_structure().order == 5


def test_paper_omega_verifies_the_missing_bounds(capsys):
    code, out, _ = _run(capsys, "paper", "omega", "--verify", "--window", "3")
    assert code == 0
    assert "window axioms ok" in out
    assert "the chain of naturals has no least upper bound: ok" in out
    assert "the two tops have no greatest lower bound: ok" in out


def test_paper_finimg_traces_image_growth(capsys):
    code, out, _ = _run(capsys, "paper", "finimg", "--window", "4", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "one-point joins, chain length 4"
    assert lines[1:5] == [f"step {i} image-size {i + 1}" for i in range(4)]
    assert lines[5].endswith("ok")


# --- theorem -------------------------------------------------------------------

def test_theorem_confirms_the_equivalence(tmp_path, capsys, p22):
    path = _write(tmp_path, "p22.skl", emit(p22))
    code, out, _ = _run(capsys, "theorem", path)
    assert code == 0
    assert out.splitlines()[0] == "noncommutative frame: yes"
    assert out.splitlines()[-1] == "verdict: equivalence holds"


def test_theorem_answers_past_the_subset_cap(tmp_path, capsys):
    # order 16 used to stop at the commuting-subset cap and exit 2
    _, text, _ = _run(capsys, "paper", "pfn", "--sizes", "2,3")
    code, out, _ = _run(capsys, "theorem", _write(tmp_path, "p23.skl", text))
    assert code == 0
    assert out.splitlines()[-1] == "verdict: equivalence holds"


def test_theorem_refuses_structures_outside_its_scope(tmp_path, capsys):
    path = _write(tmp_path, "m3.skl", emit(diamond_m3()))
    code, _, err = _run(capsys, "theorem", path)
    assert code == 2 and "error:" in err


# --- process level -----------------------------------------------------------

def test_missing_file_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "check", "/no/such/file.skl")
    assert code == 2 and "error:" in err


def test_bare_invocation_is_a_usage_error(capsys):
    assert _run(capsys, )[0] == 2


def test_help_exits_cleanly(capsys):
    assert _run(capsys, "--help")[0] == 0


def test_console_script_is_wired():
    # the installed script is generated from [project.scripts]; check that
    # table and run the same entry point through `python -m skewlat`, which
    # needs no installation
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject.read_text(), re.M | re.S)
    assert scripts is not None
    assert re.findall(r'^(\S+)\s*=\s*"(.*)"$', scripts.group(1), re.M) == [("skewlat", "skewlat.cli:entry")]
    assert callable(entry)
    env = dict(os.environ)
    src = str(Path(skewlat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "skewlat", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run("--help").startswith("usage: skewlat")
    assert run("census", "--order", "2", "--count-only") == "3\n"
