"""Command line front end and the on-disk structure format.

A structure file is whitespace-separated tokens with ``#`` comments:

    skewlat 1
    n 3
    zero 0          # optional
    meet
    0 0 0
    0 1 1
    0 1 2
    join
    0 1 2
    1 1 2
    2 2 2
    labels          # optional, one quoted string per element
    "bottom"
    "mid"
    "top"

Sections appear in exactly that order; rows of a table are the left
operand.  The format is plain enough to diff and emitting is bit-exact,
so ``parse(emit(S))`` reproduces the structure.  ``parse`` decodes each
table into a read-only intp array, which :class:`StructureFile` keeps
and ``to_structure`` hands to the :class:`FiniteSkewLattice`
constructor; ``emit`` writes a structure's rows from its arrays.  No
table is rendered as tuples on either path.

Exit codes: 0 for a true verdict or successful emission, 1 for a false
verdict (the certificate is printed), 2 for usage, parse and
precondition errors.  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import re
import sys
from functools import cached_property
from typing import Any

import numpy as np

from .core import (
    FiniteSkewLattice,
    IDENTITY_NAMES,
    PreconditionError,
    SkewLatticeError,
    StructureError,
    Table,
    _Frozen,
    check_identity,
    detect_zero,
    natural_leq,
    quotient,
)
from .completeness import lattice_sections, sup_natural
from .census import PREDICATES, CensusFilter, enumerate_skew_lattices
from .frames import check_theorem_ncframes
from .models import (
    build_pfn_algebra,
    fi_one_point_chain,
    is_boolean_lattice,
    om_verify_no_infimum_of_infs,
    om_verify_no_join_of_naturals,
    om_window,
)

__all__ = ["ParseError", "StructureFile", "parse", "emit", "main", "entry"]

FORMAT_TAG = "skewlat"
FORMAT_VERSION = 1


class ParseError(SkewLatticeError):
    """Structure file rejected, with the offending line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}
_WORD = re.compile(r'[^ \t\r#"]+')
# a word, a quoted string (its closing quote missing if it is cut short) or a comment;
# only blanks fall between the matches
_LEXEME = re.compile(r'([^ \t\r#"]+)|"((?:[^"\\]|\\[\\"n])*)("?)|#')
_ESCAPE_SEQ = re.compile(r"\\(.)")


def _scan_line(raw: str, lineno: int) -> list[tuple[int, str, bool]]:
    """``(col, text, quoted)`` for each token of one line, quoted strings unescaped."""
    found = []
    for m in _LEXEME.finditer(raw):
        if m[0] == "#":
            break
        if m[1] is not None:
            found.append((m.start() + 1, m[1], False))
        elif m[3]:
            found.append((m.start() + 1, _ESCAPE_SEQ.sub(lambda e: _ESCAPES[e[1]], m[2]), True))
        elif m.end() == len(raw):
            raise ParseError("unterminated quoted string", lineno, m.start() + 1)
        else:  # stopped at a backslash that starts no escape
            raise ParseError("unknown escape in quoted string", lineno, m.end() + 1)
    return found


class _Tokens:
    """The token texts of a structure file and a read position.

    Lines are split into tokens only when the read position reaches them,
    and a table laid out as whole lines of digits is decoded from the
    text without being split (``take_table``).  Tokens are plain strings,
    with the indices of the quoted ones in a set; a token's line and
    column are worked out only when an error names it, by rescanning its
    line.
    """

    def __init__(self, text: str):
        self.lines = text.splitlines()
        # only a line holding a quote can fail to split; each is scanned now, so
        # the first such fault in the file is raised before any other
        self.scanned = {i: _scan_line(raw, i + 1) for i, raw in enumerate(self.lines) if '"' in raw}
        self.words: list[str] = []
        self.quoted: set[int] = set()
        self.line_first: list[int] = []  # index of each line's first token, for the lines passed so far
        self.pos = 0

    def more(self) -> bool:
        """Whether a token is left at the read position, splitting lines up to it."""
        words = self.words
        while self.pos == len(words):
            i = len(self.line_first)
            if i == len(self.lines):
                return False
            self.line_first.append(len(words))
            if i not in self.scanned:
                words += _WORD.findall(self.lines[i].partition("#")[0])
                continue
            for _, word, quoted in self.scanned[i]:
                if quoted:
                    self.quoted.add(len(words))
                words.append(word)
        return True

    def error(self, message: str, k: int) -> ParseError:
        line = bisect.bisect_right(self.line_first, k)
        col = _scan_line(self.lines[line - 1], line)[k - self.line_first[line - 1]][0]
        return ParseError(message, line, col)

    def at_word(self, word: str) -> bool:
        return self.more() and self.words[self.pos] == word and self.pos not in self.quoted

    def take(self, what: str) -> int:
        if not self.more():
            # at the file's last token, which may sit in a table decoded unsplit
            for line in range(len(self.lines), 0, -1):
                found = _scan_line(self.lines[line - 1], line)
                if found:
                    raise ParseError(f"expected {what}, got end of file", line, found[-1][0])
            raise ParseError(f"expected {what}, got end of file", 1, 1)
        self.pos += 1
        return self.pos - 1

    def expect_word(self, word: str) -> None:
        k = self.take(f"'{word}'")
        if k in self.quoted or self.words[k] != word:
            raise self.error(f"expected '{word}', got {self.words[k]!r}", k)

    def take_int(self, what: str, lo: int, hi: int) -> int:
        k = self.take(what)
        if k in self.quoted:
            raise self.error(f"expected {what}, got quoted string", k)
        try:
            value = int(self.words[k])
        except ValueError:
            raise self.error(f"expected {what}, got {self.words[k]!r}", k) from None
        if not lo <= value <= hi:
            raise self.error(f"{what} {value} out of range [{lo}, {hi}]", k)
        return value

    def take_table(self, what: str, order: int) -> np.ndarray:
        """The next order² entries as a read-only order×order intp array.

        When the read position ends its line and the next ``order`` lines
        hold only digits and blanks, they are decoded in one numpy call,
        and taken if they hold exactly order² entries, each below
        ``order``.  An entry too large for an intp saturates, so it fails
        that test too.  Anything else is taken entry by entry, which
        raises at the first fault.
        """
        first = len(self.line_first)
        if self.pos == len(self.words) and first + order <= len(self.lines):
            block = "\n".join(self.lines[first : first + order])
            # digits and blanks only, and at least one digit: np.fromstring reads a blank block as [0]
            if block.encode().translate(None, b" \t\n").isdigit():
                values = np.fromstring(block, dtype=np.intp, sep=" ")
                if values.size == order * order and values.max() < order:
                    self.line_first += [len(self.words)] * order  # lines passed, no tokens split
                    return _read_only(values.reshape(order, order))
        values = np.array([self.take_int(what, 0, order - 1) for _ in range(order * order)], dtype=np.intp)
        return _read_only(values.reshape(order, order))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


def _rows(table: Any) -> Table:
    # an array's rows as tuples of ints; a hand-built table is already tuple rows
    return tuple(map(tuple, table.tolist())) if isinstance(table, np.ndarray) else table


class StructureFile(_Frozen):
    """Parsed structure file: order, tables, optional zero and labels.

    ``parse`` and ``from_structure`` keep each table as the read-only
    intp array they hold, and ``to_structure`` hands those arrays
    straight to the :class:`FiniteSkewLattice` constructor, which checks
    them.  A hand-built file takes any rows, negative, out-of-range or
    ragged, and keeps them as tuples; it is not validated.
    ``meet_table``/``join_table`` read either kind as tuple rows, an
    array rendered on first read.  Equality and hashing are on order,
    table contents, zero and labels, so a parsed file equals one built
    from the same tuples.
    """

    def __init__(
        self, order: int, meet_table: Any, join_table: Any, zero: int | None = None, labels: tuple[str, ...] | None = None
    ) -> None:
        object.__setattr__(self, "order", order)
        for name, table in (("_m", meet_table), ("_j", join_table)):
            object.__setattr__(self, name, table if isinstance(table, np.ndarray) else tuple(map(tuple, table)))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "labels", labels)

    meet_table = cached_property(lambda self: _rows(self._m))
    join_table = cached_property(lambda self: _rows(self._j))

    def _key(self) -> tuple:
        return self.order, self.meet_table, self.join_table, self.zero, self.labels

    def __repr__(self) -> str:
        return f"StructureFile(order={self.order}, zero={self.zero}, labels={self.labels!r})"

    def to_structure(self) -> FiniteSkewLattice:
        return FiniteSkewLattice(self.order, self._m, self._j, zero=self.zero, labels=self.labels)

    @classmethod
    def from_structure(cls, S: FiniteSkewLattice) -> "StructureFile":
        return cls(S.order, S._m, S._j, zero=S.zero, labels=S.labels)


def parse(text: str) -> StructureFile:
    """Parse structure-file text; raises :class:`ParseError` with position."""
    toks = _Tokens(text)
    toks.expect_word(FORMAT_TAG)
    k = toks.take("format version")
    if k in toks.quoted or toks.words[k] != str(FORMAT_VERSION):
        raise toks.error(f"unsupported format version {toks.words[k]!r}", k)
    toks.expect_word("n")
    order = toks.take_int("order", 1, 10**6)
    zero = None
    if toks.at_word("zero"):
        toks.take("'zero'")
        zero = toks.take_int("zero id", 0, order - 1)
    tables = []
    for section in ("meet", "join"):
        toks.expect_word(section)
        tables.append(toks.take_table(f"{section} entry", order))
    labels: tuple[str, ...] | None = None
    if toks.at_word("labels"):
        toks.take("'labels'")
        got = []
        for _ in range(order):
            k = toks.take("label string")
            if k not in toks.quoted:
                raise toks.error(f"labels must be quoted, got {toks.words[k]!r}", k)
            got.append(toks.words[k])
        labels = tuple(got)
    if toks.more():
        raise toks.error(f"unexpected token {toks.words[toks.pos]!r}", toks.pos)
    return StructureFile(order, tables[0], tables[1], zero=zero, labels=labels)


def _quote(label: str) -> str:
    out = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{out}"'


def emit(source: FiniteSkewLattice | StructureFile) -> str:
    """Render a structure in the file format; inverse of :func:`parse`."""
    sf = source if isinstance(source, StructureFile) else StructureFile.from_structure(source)
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}", f"n {sf.order}"]
    if sf.zero is not None:
        lines.append(f"zero {sf.zero}")
    names = [str(v) for v in range(sf.order)]

    def ids_text(row) -> str:
        return " ".join([names[v] for v in row])

    def row_text(row) -> str:
        # a row of ids joins their names; StructureFile does not validate, so any other row goes cell by cell
        return ids_text(row) if len(row) and 0 <= min(row) and max(row) < sf.order else " ".join(map(str, row))

    for section, table in (("meet", sf._m), ("join", sf._j)):
        lines.append(section)
        if isinstance(table, np.ndarray):
            # read a row at a time, so the cells are never all Python ints at once; the ids are checked once
            write = ids_text if table.size and 0 <= table.min() and table.max() < sf.order else row_text
            lines.extend(map(write, map(np.ndarray.tolist, table)))
        else:
            lines.extend(map(row_text, table))
    if sf.labels is not None:
        lines.append("labels")
        lines.extend(_quote(lab) for lab in sf.labels)
    return "\n".join(lines) + "\n"


def _load(path: str) -> FiniteSkewLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read()).to_structure()


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _print_invalid(S: FiniteSkewLattice) -> int:
    law, where = S.validity.witness
    print(f"not a skew lattice: {law} fails at {where}")
    return 1


# --- subcommand handlers --------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    S = _load(args.file)
    if not S.validity.ok:
        return _print_invalid(S)
    tail = f", zero {S.zero}" if S.zero is not None else ""
    print(f"valid skew lattice (order {S.order}{tail})")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    S = _load(args.file)
    if not S.validity.ok:
        return _print_invalid(S)
    print(f"order {S.order}")
    z = detect_zero(S)
    print(f"zero {z if z is not None else 'none'}")
    ladder = ("join_complete", "bounded_above", "extends_to_sections", "section_exists")
    for key in ("commutative", *IDENTITY_NAMES, "symmetric", *ladder):
        label = key.replace("_", "-")
        try:
            print(f"{label} {_yesno(PREDICATES[key](S))}")
        except PreconditionError:
            # only the ladder checks have a precondition beyond validity
            print(f"{label} n/a (needs normal and symmetric)")
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    S = _load(args.file)
    text = emit(quotient(S).lattice)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_sup(args: argparse.Namespace) -> int:
    S = _load(args.file)
    members = args.elements
    s = sup_natural(S, members)
    if s is None:
        ubs = [u for u in range(S.order) if all(natural_leq(S, c, u) for c in members)]
        print(f"no supremum of {{{', '.join(str(c) for c in sorted(set(members)))}}};"
              f" upper bounds {{{', '.join(str(u) for u in ubs)}}} have no least element")
        return 1
    tail = f' "{S.labels[s]}"' if S.labels is not None else ""
    print(f"sup {s}{tail}")
    return 0


def _cmd_sections(args: argparse.Namespace) -> int:
    S = _load(args.file)
    found = lattice_sections(S)
    if not found:
        print("no lattice section")
        return 1
    for sec in found:
        print("section " + " ".join(str(i) for i in sec))
    return 0


def _filter_keys() -> str:
    return ", ".join(sorted(key.replace("_", "-") for key in PREDICATES))


def _parse_filter(parts: list[str]) -> CensusFilter:
    values: dict[str, bool] = {}
    for chunk in parts:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, val = item.partition("=")
            field = key.strip().replace("-", "_")
            if not sep or field not in PREDICATES:
                raise PreconditionError(f"bad filter {item!r}; use key=yes|no with keys: {_filter_keys()}")
            val = val.strip().lower()
            if val in ("yes", "true"):
                values[field] = True
            elif val in ("no", "false"):
                values[field] = False
            else:
                raise PreconditionError(f"bad filter value {val!r} for {key!r}; use yes or no")
    return CensusFilter(**values)


def _cmd_census(args: argparse.Namespace) -> int:
    filt = _parse_filter(args.filter)
    found = list(enumerate_skew_lattices(args.order, filt))
    if args.count_only:
        print(len(found))
        return 0
    for i, S in enumerate(found, start=1):
        print(f"# structure {i} of {len(found)}, order {args.order}")
        sys.stdout.write(emit(S))
    return 0


def _print_certificate(cert) -> None:
    print(f"{cert.checked}: {'ok' if cert.ok else 'violated'}")
    if cert.witness is not None:
        print(f"  witness {cert.witness}")


def _cmd_paper_pfn(args: argparse.Namespace) -> int:
    m, b = args.sizes
    S = build_pfn_algebra(m, b)
    if not args.verify:
        sys.stdout.write(emit(S))
        return 0
    print(f"partial functions {m} -> {b}: order {S.order}")
    failures = 0
    for line, ok in (
        ("axioms", S.validity.ok),
        ("strongly-distributive", check_identity(S, "strongly_distributive").ok),
        ("left-handed", check_identity(S, "left_handed").ok),
        ("zero", detect_zero(S) is not None),
    ):
        print(f"{line} {'ok' if ok else 'FAILED'}")
        failures += not ok
    shadow = quotient(S).lattice
    boolean = is_boolean_lattice(shadow) and shadow.order == 2**m
    print(f"commutative image boolean of size {2 ** m} {'ok' if boolean else 'FAILED'}")
    failures += not boolean
    return 1 if failures else 0


def _cmd_paper_omega(args: argparse.Namespace) -> int:
    k = args.window
    S = om_window(k)
    if not args.verify:
        sys.stdout.write(emit(S))
        return 0
    print(f"chain with two tops, window depth {k} (order {S.order})")
    print(f"window axioms {'ok' if S.validity.ok else 'FAILED'}")
    no_join = om_verify_no_join_of_naturals(k)
    no_inf = om_verify_no_infimum_of_infs(k)
    _print_certificate(no_join)
    _print_certificate(no_inf)
    return 0 if S.validity.ok and no_join.ok and no_inf.ok else 1


def _cmd_paper_finimg(args: argparse.Namespace) -> int:
    k = args.window
    steps = fi_one_point_chain(k)
    print(f"one-point joins, chain length {k}")
    for step, size in steps:
        print(f"step {step} image-size {size}")
    if not args.verify:
        return 0
    expected = [(i, i + 1) for i in range(k)]
    ok = steps == expected
    print(f"image sizes strictly increasing, size k+1 at step k: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_paper(args: argparse.Namespace) -> int:
    return {"pfn": _cmd_paper_pfn, "omega": _cmd_paper_omega, "finimg": _cmd_paper_finimg}[
        args.family
    ](args)


def _cmd_theorem(args: argparse.Namespace) -> int:
    S = _load(args.file)
    res = check_theorem_ncframes(S)
    evidence = dict(res.witness)
    print(f"noncommutative frame: {_yesno(evidence['ncframe'])}")
    if evidence["ncframe_evidence"] is not None:
        print(f"  evidence {evidence['ncframe_evidence']}")
    print(f"commutative image is a frame: {_yesno(evidence['shadow_is_frame'])}")
    if evidence["shadow_evidence"] is not None:
        print(f"  evidence {evidence['shadow_evidence']}")
    if res.ok:
        print("verdict: equivalence holds")
        return 0
    print("verdict: equivalence FAILS on this structure")
    return 1


# --- argument parsing ------------------------------------------------------

def _ids_arg(text: str) -> list[int]:
    try:
        ids = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ids, got {text!r}") from None
    if not ids:
        raise argparse.ArgumentTypeError("expected at least one id")
    return ids


def _sizes_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated sizes, got {text!r}")
    try:
        m, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer sizes, got {text!r}") from None
    return m, b


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewlat",
        description="Check, transform and enumerate finite skew lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate the axioms of a structure file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("classify", help="print the full predicate table of a structure")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("quotient", help="emit the maximal commutative image")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("sup", help="supremum of elements in the natural order")
    p.add_argument("file")
    p.add_argument("--elements", type=_ids_arg, required=True, metavar="i,j,k")
    p.set_defaults(handler=_cmd_sup)

    p = sub.add_parser("sections", help="list all lattice sections")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_sections)

    p = sub.add_parser("census", help="enumerate structures of one order up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--filter",
        action="append",
        default=[],
        metavar="key=yes|no,...",
        help="require or forbid properties: " + _filter_keys(),
    )
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("paper", help="rebuild the worked example families")
    p.add_argument("family", choices=("pfn", "omega", "finimg"))
    p.add_argument("--window", type=int, default=None, help="depth for omega, chain length for finimg")
    p.add_argument("--sizes", type=_sizes_arg, default=(2, 2), metavar="A,B", help="domain,codomain for pfn")
    p.add_argument("--verify", action="store_true", help="run the certificates instead of emitting")
    p.set_defaults(handler=_cmd_paper)

    p = sub.add_parser("theorem", help="frame equivalence between a structure and its image")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "paper" and args.window is None:
        args.window = 6 if args.family == "omega" else 50
    try:
        return args.handler(args)
    except (ParseError, StructureError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
