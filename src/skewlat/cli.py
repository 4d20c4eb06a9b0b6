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
so ``parse(emit(S))`` reproduces the structure.  ``parse`` reads the
text at an offset, never splitting it into lines, and decodes each
table into an intp array for the :class:`FiniteSkewLattice`
constructor, which checks it; ``emit`` writes a structure's rows from
its arrays.  No table is rendered as tuples on either path.  A file's
order is held to the build cap, as a builder's is, before any table is
read.

Exit codes: 0 for a true verdict or successful emission, 1 for a false
verdict (the certificate is printed), 2 for usage, parse and
precondition errors.  Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .core import (
    BUILD_CAP_ENV,
    FiniteSkewLattice,
    IDENTITY_NAMES,
    PreconditionError,
    SkewLatticeError,
    StructureError,
    _check_cap,
    _decimal,
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
# an escape: one of _ESCAPES, or \u and four hex digits for the code point, as _quote writes the other line ends
_ESCAPE_SEQ = re.compile(r"\\(u[0-9a-fA-F]{4}|.)")
# the characters at which str.splitlines ends a line; no token, comment or quoted string runs across one
_EOL = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# a quoted string, short of its closing quote; each character matches one way only, so a failing
# match backs off in linear time (Python 3.10 has no atomic groups)
_OPEN_QUOTE = rf'"[^"\\{_EOL}]*(?:\\(?:[\\"n]|u[0-9a-fA-F]{{4}})[^"\\{_EOL}]*)*'
# blanks, line ends and up to 64 comments (the engine keeps state for each repeat of a group, so ``_Tokens._next``
# takes a longer run 64 at a time), then the next token if any: a word (group 1) or a quoted string (group 2)
_NEXT = re.compile(rf'[ \t{_EOL}]*(?:#[^{_EOL}]*[ \t{_EOL}]*){{0,64}}(?:([^ \t#"{_EOL}]+)|({_OPEN_QUOTE}"))?')
# up to 64 comments and well-formed quoted strings with anything between them: a match that takes nothing
# stops at the first faulty quote, or at the end of the text
_QUOTES_OK = re.compile(rf'[^"#]*(?:(?:#[^{_EOL}]*(?![^{_EOL}])|{_OPEN_QUOTE}")[^"#]*){{0,64}}')
_QUOTE_BODY = re.compile(_OPEN_QUOTE)
# for _quote: \\, " and \n as their escapes, and the other line ends as \u escapes, so no quoted string holds one
_QUOTED = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"} | {c: f"\\u{ord(c):04x}" for c in _EOL[1:]})


def _position(text: str, offset: int) -> tuple[int, int]:
    """The line and column of ``offset``, with lines numbered as ``str.splitlines`` splits them."""
    lines = (text[:offset] + "x").splitlines()  # the "x" opens a line when the text before ends one
    return len(lines), len(lines[-1])


def _check_quotes(text: str) -> None:
    """Raise the first fault of a quoted string in ``text``, if there is one."""
    first = text.find('"')
    if first < 0:
        return
    # from the last "\n" before it: a line start, where no comment or quoted string is open
    end = text.rfind("\n", 0, first) + 1
    while (stop := _QUOTES_OK.match(text, end).end()) > end:
        end = stop
    if end < len(text):  # the string opened at end meets a line end, the end of the text or a bad escape
        stop = _QUOTE_BODY.match(text, end).end()
        if text.startswith("\\", stop):
            raise ParseError("unknown escape in quoted string", *_position(text, stop))
        raise ParseError("unterminated quoted string", *_position(text, end))


class _Tokens:
    """A structure file's text and a read offset, advanced a token at a time by ``_NEXT``.

    Quoted strings are checked up front, so their faults come first.  A
    token's line and column are worked out from its offset only when an
    error names it.
    """

    def __init__(self, text: str):
        _check_quotes(text)
        self.text = text
        self.pos = 0
        self.last = 0  # offset of the last token read: errors, the end-of-file one too, name it

    def error(self, message: str) -> ParseError:
        return ParseError(message, *_position(self.text, self.last))

    def _next(self) -> re.Match:
        """``_NEXT`` matched from the read offset to the next token, or to the end of the text."""
        m = _NEXT.match(self.text, self.pos)
        while m.lastindex is None and m.end() < len(self.text):  # stopped after 64 comments
            m = _NEXT.match(self.text, m.end())
        return m

    def more(self) -> bool:
        return self._next().lastindex is not None

    def at_word(self, word: str) -> bool:
        return self._next()[1] == word

    def take(self, what: str) -> tuple[str, bool]:
        """The next token, unescaped if quoted, and whether it was quoted."""
        m = self._next()
        if m.lastindex is None:
            raise self.error(f"expected {what}, got end of file")
        self.pos, self.last = m.end(), m.start(m.lastindex)
        if m[1] is not None:
            return m[1], False
        return _ESCAPE_SEQ.sub(lambda e: _ESCAPES.get(e[1]) or chr(int(e[1][1:], 16)), m[2][1:-1]), True

    def expect_word(self, word: str) -> None:
        got, quoted = self.take(f"'{word}'")
        if quoted or got != word:
            raise self.error(f"expected '{word}', got {got!r}")

    def take_int(self, what: str, lo: int, hi: float) -> int:
        word, quoted = self.take(what)
        if quoted:
            raise self.error(f"expected {what}, got quoted string")
        if (value := _decimal(word)) is None:
            raise self.error(f"expected {what}, got {word!r}")
        if not lo <= value <= hi:
            raise self.error(f"{what} {value} out of range [{lo}, {hi}]")
        return value

    def take_table(self, what: str, order: int) -> np.ndarray:
        """The next order² entries as an order×order intp array.

        The slice of the text that holds the ``order`` lines from the next
        token on, if only digits and blanks, is decoded in one numpy call
        and taken if it holds exactly order² entries, each below ``order``
        (an entry too large for an intp saturates).  Anything else is taken
        entry by entry, which raises at the first fault.
        """
        text = self.text
        m = self._next()
        if m[1] is not None:
            start = end = m.start(1)
            for _ in range(order):
                end = text.find("\n", end + 1)
                if end < 0:
                    end = len(text)
                    break
            block = text[start:end]
            # digits and blanks only, and at least one digit: np.fromstring reads a blank block as [0]
            if block.encode().translate(None, b" \t\r\n").isdigit():
                values = np.fromstring(block, dtype=np.intp, sep=" ")
                if values.size == order * order and values.max() < order:
                    # the last token read is the block's last entry, the digits after its last blank; in emit's
                    # layout that is a space or a line end near the end, so the other blanks are sought after it
                    tail = block.rstrip()
                    blank = max(tail.rfind(" "), tail.rfind("\n"))
                    blank = max(blank, tail.rfind("\t", blank + 1), tail.rfind("\r", blank + 1))
                    self.pos, self.last = end, start + blank + 1
                    return values.reshape(order, order)
        values = [self.take_int(what, 0, order - 1) for _ in range(order * order)]
        return np.array(values, dtype=np.intp).reshape(order, order)


class StructureFile(FiniteSkewLattice):
    """A structure read from or written to a structure file.

    It is a :class:`FiniteSkewLattice`, built and checked by the same
    constructor; ``parse`` returns one.  ``to_structure`` and
    ``from_structure`` convert between the two classes, which never
    compare equal to each other.
    """

    def to_structure(self) -> FiniteSkewLattice:
        return FiniteSkewLattice(self.order, self._m, self._j, zero=self.zero, labels=self.labels)

    @classmethod
    def from_structure(cls, S: FiniteSkewLattice) -> "StructureFile":
        return cls(S.order, S._m, S._j, zero=S.zero, labels=S.labels)


def parse(text: str) -> StructureFile:
    """Parse structure-file text; raises :class:`ParseError` with position, ``CapExceededError`` past the build cap."""
    toks = _Tokens(text)
    toks.expect_word(FORMAT_TAG)
    version, quoted = toks.take("format version")
    if quoted or version != str(FORMAT_VERSION):
        raise toks.error(f"unsupported format version {version!r}")
    toks.expect_word("n")
    order = toks.take_int("order", 1, float("inf"))
    _check_cap(order, "structure file order", op="parse", env=BUILD_CAP_ENV)
    zero = None
    if toks.at_word("zero"):
        toks.take("'zero'")
        zero = toks.take_int("zero id", 0, order - 1)
    tables = []
    for section in ("meet", "join"):
        toks.expect_word(section)
        tables.append(toks.take_table(f"{section} entry", order))
    labels = None
    if toks.at_word("labels"):
        toks.take("'labels'")
        labels = []
        for _ in range(order):
            label, quoted = toks.take("label string")
            if not quoted:
                raise toks.error(f"labels must be quoted, got {label!r}")
            labels.append(label)
    if toks.more():
        stray, _ = toks.take("")
        raise toks.error(f"unexpected token {stray!r}")
    return StructureFile(order, *tables, zero=zero, labels=labels)


def _quote(label: str) -> str:
    return f'"{label.translate(_QUOTED)}"'


def emit(S: FiniteSkewLattice) -> str:
    """Render a structure in the file format; inverse of :func:`parse`."""
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}", f"n {S.order}"]
    if S.zero is not None:
        lines.append(f"zero {S.zero}")
    names = [str(v) for v in range(S.order)]

    def ids_text(row: list[int]) -> str:
        return " ".join([names[v] for v in row])

    for section, table in (("meet", S._m), ("join", S._j)):
        lines.append(section)
        # a row at a time, each freed once written, so the cells are never all Python ints at once
        lines.extend(map(ids_text, map(np.ndarray.tolist, table)))
    if S.labels is not None:
        lines.append("labels")
        lines.extend(map(_quote, S.labels))
    return "\n".join(lines) + "\n"


def _load(path: str) -> FiniteSkewLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


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
