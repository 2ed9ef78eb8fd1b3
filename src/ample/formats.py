"""Bracketed plain-text documents for semigroups and groupoids.

Grammar (comments run from '#' to end of line; an identifier is a run of
letters, digits, and the characters . _ + @):

    semigroup { elements { IDENT+ }
                zero IDENT
                table { IDENT* } }          # n*n products, row-major

    groupoid  { units { IDENT* }
                arrows { (IDENT : IDENT -> IDENT)* }
                compose { (IDENT IDENT = IDENT)* }
                inverse { (IDENT = IDENT)* } }

Units double as arrows with themselves as source and range, so the arrows
section lists only non-unit arrows, and compositions or inverses that
involve a unit are implied and may be omitted.  Parse errors carry line
and column; documents that parse but break an axiom raise ValidationError
wrapping the algebraic witness.

Scanning.  A table document is millions of identifiers, so the scanner
does no per-token work on identifier lists and never copies one whole.
It keeps only an offset; line and column are counted from the text when
an error is raised.  Structural tokens are read one at a time, each
with the whitespace and comments in front of it, by one regex match.
A table of one name width and at least _SMALL entries is read by
fixed-size cells (_cells) when its run has the layout semigroup_lines
writes: a block of about _CHUNK characters of rows is checked by one
translate and one comparison, and its keys are read through strided
views, with no search for where names start.  Any other run, or one with
an unknown entry, is read from its start as below.
An identifier list (elements, table, units) is otherwise read as one run,
in pieces cut from the text itself at whitespace about _CHUNK characters
apart, up to the first '}'.  A piece is taken whole when it is ASCII and
one bytes.translate finds nothing in it but identifier characters and
whitespace; otherwise _RUN_RE finds where it stops.  At a '#' the run
goes on after the comment, which one piece holds whole, blanked to as
many spaces (so offsets in a piece are text offsets, and a '}' or a
non-ASCII character in a comment changes nothing); any other character
ends the run.  Table entries go into one int32 array a piece at a time,
looked up on the bytes by _NameIndex (no string per entry) or, in a
small table, through a dict.  The first unknown entry is located by
reading the run again, on the error path only.  The token after a run is
read by the ordinary scanner, so a bad character there is reported where
a token-at-a-time scan would meet it.

A groupoid document is read a row at a time: each row of arrows,
compose and inverse is one compiled match, which takes the gaps in front
of its tokens with it, and its names go through one dict into a flat
array of indices as it is read (so no row outlives its match), and
compose is filled by one fancy assignment.  A row the match cannot read
is read by the scanner, which raises its error; array checks over the
whole document find the other faults, and only then, or before a
ParseError, are the rows matched again to raise the first fault where a
token-at-a-time reading meets it.  The table is written a block of rows
at a time: when every name is ASCII and of one width, a block of about
2^16 characters is one gather of fixed-size "name " cells, and other
names are joined per row.
"""

from __future__ import annotations

import re
from array import array
from itertools import islice, repeat

import numpy as np

from .errors import CheckFailed, ParseError, ValidationError
from .groupoids import FiniteGroupoid, validate_groupoid
from .semigroups import (
    FiniteInverseSemigroup,
    adjoin_zero,
    row_blocks,
    validate_inverse_semigroup,
)

# The whitespace and comments in front of a token, then the token, if any.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
        (?P<arrow>->)
      | (?P<lbrace>\{)
      | (?P<rbrace>\})
      | (?P<colon>:)
      | (?P<equals>=)
      | (?P<ident>[A-Za-z0-9_.+@]+)
    )?
""",
    re.VERBOSE,
)
# What follows the first name of a row, per groupoid section: each
# token's kind and what an error calls it.  It builds the row's match and
# drives the scanner through a row the match cannot read.
_ROWS = {
    "arrows": (
        ("colon", "':'"), ("ident", "source unit"), ("arrow", "'->'"), ("ident", "range unit")
    ),
    "compose": (("ident", "right factor"), ("equals", "'='"), ("ident", "product arrow")),
    "inverse": (("equals", "'='"), ("ident", "inverse arrow")),
}
# A row with the gaps in front of its tokens.  A gap splits only one way
# (a comment runs to its newline), so a row that does not match is given
# up in time linear in its length; the lookahead keeps a run of
# identifier characters one name.
_GAP = r"[ \t\r\n]*(?:#[^\n]*(?:\n|\Z)[ \t\r\n]*)*"
_NAME = r"([A-Za-z0-9_.+@]+)(?![A-Za-z0-9_.+@])"
_ROW_RE = {
    key: re.compile(_GAP + _NAME + "".join(
        _GAP + (_NAME if kind == "ident" else re.escape(what.strip("'"))) for kind, what in row))
    for key, row in _ROWS.items()
}
_UNKNOWN = (-1, -1, -1)  # the index of a name the dict does not hold
# Identifiers and whitespace up to the next comment or other token.
_RUN_RE = re.compile(r"[A-Za-z0-9_.+@ \t\r\n]*")
_COMMENT_RE = re.compile(r"#[^\n]*")
_IDENT_RE = re.compile(r"[A-Za-z0-9_.+@]+")
_RUN_BYTES = bytes(c for c in range(128) if _RUN_RE.fullmatch(chr(c)))
# A table run in cells: whitespace to the first newline, then a row's indent.
_HEAD_RE = re.compile(r"[ \t\r]*\n([ \t]*)")
# Each byte's class in a row of cells: 1 identifier, 0 whitespace, 2 any other.
_CLASSES = bytes(1 if _IDENT_RE.fullmatch(chr(c)) else 0 if chr(c) in " \t\r\n" else 2
                 for c in range(256))
# An identifier list is read in pieces of about _CHUNK characters, which
# bounds the temporaries; under _SMALL entries a dict costs less than
# _NameIndex.
_CHUNK = 1 << 15
_SMALL = 1 << 12
_MULT = 0x9E3779B97F4A7C15  # odd, so its powers are too
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


class _Scanner:
    """Tokens as (kind, text, offset), with one token of lookahead."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos
        self._peeked = None

    def error(self, message: str, pos: int) -> ParseError:
        """A ParseError located at offset pos (line and column from 1)."""
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def _next_raw(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        self.pos, kind = m.end(), m.lastgroup
        if kind is not None:
            return (kind, m.group(kind), m.start(kind))
        if self.pos < len(self.text):
            raise self.error(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return ("eof", "", self.pos)

    def peek(self):
        if self._peeked is None:
            self._peeked = self._next_raw()
        return self._peeked

    def next(self):
        tok = self.peek()
        self._peeked = None
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def expect_keyword(self, word: str):
        tok = self.expect("ident", f"'{word}'")
        if tok[1] != word:
            raise self.error(f"expected '{word}', found {tok[1]!r}", tok[2])
        return tok


def _run(sc: _Scanner):
    """'{' IDENT* '}' read as one run, with no copy of it.

    Yields (offset, piece) pairs: the run's text cut at whitespace into
    pieces of about _CHUNK characters, each comment blanked to as many
    spaces and held whole by one piece.  Once they are all taken, the
    scanner stands at the run's end and has read the '}' there.
    """
    sc.expect("lbrace", "'{'")
    text, pos = sc.text, sc.pos
    end = text.find("}", pos) % (len(text) + 1)  # no '}': the end of the text
    while pos < end:
        stop = min(pos + _CHUNK, end)
        cut = _IDENT_RE.match(text, stop, end)  # move the cut past the identifier it splits
        stop = cut.end() if cut else stop
        piece = text[pos:stop]
        if piece.isascii() and not piece.encode("ascii").translate(None, _RUN_BYTES):
            yield pos, piece
            pos = stop
            continue
        # the run goes on after each comment, to the cut or past the comment
        # that holds it, and ends at any other character
        run_end = _RUN_RE.match(text, pos, stop).end()
        while text.startswith("#", run_end):
            run_end = _COMMENT_RE.match(text, run_end).end()
            if run_end > end:  # the '}' was in the comment
                end = text.find("}", run_end) % (len(text) + 1)
            run_end = _RUN_RE.match(text, run_end, max(run_end, stop)).end()
        yield pos, _COMMENT_RE.sub(lambda m: " " * len(m.group()), text[pos:run_end])
        pos = run_end
        if run_end < stop:
            break
    sc.pos = pos
    sc.expect("rbrace", "'}'")


def _nth_ident(pieces, k: int) -> tuple[int, str]:
    """Offset and text of the k-th identifier of the (offset, piece) pairs."""
    found = ((lo + m.start(), m.group()) for lo, piece in pieces for m in _IDENT_RE.finditer(piece))
    return next(islice(found, k, None))


class _NameIndex:
    """Exact lookup of identifiers by their bytes as little-endian uint64 words.

    A key is ceil(w/8) words, w the longest name, zero past the name's end;
    identifier bytes are never 0, so equal keys are equal strings, and an
    entry longer than every name gets key word 0 = 0, which no name has.
    A one-word key hashes to the top bits of one multiply, into tables of
    at least 32n slots; a longer key is folded word by word and mixed once
    more, into tables of at least 8n slots.  The names a table has no room
    for go into one more table with the next multiplier.  A table only
    proposes a name, which an entry takes when every key word agrees, so no
    hash decides a lookup.  An empty slot proposes a sentinel key of 0xFF
    bytes, which no identifier has.
    """

    def __init__(self, names: list[str]):
        self.words = -(-max(map(len, names)) // 8)
        # masks[j][length]: the bytes of key word j of an identifier of that
        # length; take(mode="clip") reads any longer one as 8·words + 1
        lengths = np.arange(8 * self.words + 2)
        self.masks = _MASKS[np.clip(lengths - 8 * np.arange(self.words)[:, None], 0, 8)]
        self.masks[0, -1] = 0
        sentinel = np.full((self.words, 1), np.iinfo(np.uint64).max, dtype=np.uint64)
        # word j of name i at [j, i]; the sentinel is name len(names)
        self.keys = np.hstack([self._keys(" ".join(names)), sentinel])
        bits = ((32 if self.words == 1 else 8) * len(names) - 1).bit_length()
        self.shift = np.uint64(64 - bits)
        self.tables = []
        left, mult = np.arange(len(names)), np.uint64(_MULT)
        while left.size:  # each table places one name of every slot it is given
            slots = self._slots(self.keys[:, left], mult)
            table = np.full(1 << bits, len(names), dtype=np.int32)
            table[slots] = left
            self.tables.append((mult, table))
            left = left[table[slots] != left]
            mult = np.uint64(int(mult) * _MULT % 2**64)

    def _keys(self, chunk: str) -> np.ndarray:
        """The keys of the identifiers in chunk (ASCII identifiers and
        whitespace), in order, one column each."""
        padded = b" " + chunk.encode("ascii") + bytes(8 * self.words)
        inside = np.frombuffer(padded, dtype=np.uint8) > 32
        edges = np.flatnonzero(inside[1:] != inside[:-1]) + 1
        starts = edges[0::2]
        lengths = edges[1::2] - starts
        # the 8 bytes from every offset; fancy indexing, as take() copies the source
        window = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
        keys = np.empty((self.words, len(starts)), dtype=np.uint64)
        for j, masks in enumerate(self.masks):
            np.bitwise_and(window[starts + 8 * j], masks.take(lengths, mode="clip"), out=keys[j])
        return keys

    def _slots(self, keys: np.ndarray, mult: np.uint64) -> np.ndarray:
        h = keys[0] * mult
        for word in keys[1:]:
            h ^= word
            h *= mult
        if len(keys) > 1:  # high bits mixed into low
            h ^= h >> np.uint64(32)
            h *= mult
        h >>= self.shift
        return h.view(np.int64)

    def _differ(self, cand: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Per column, whether keys differs from the key of name cand."""
        differ = np.zeros(len(cand), dtype=bool)
        for own, word in zip(self.keys, keys):
            differ |= own.take(cand) != word
        return differ

    def find(self, chunk: str, out: np.ndarray) -> int:
        """Write the indices of chunk's identifiers to out, in order, with -1
        for an unknown one; returns their count, and writes nothing when
        they do not fit."""
        keys = self._keys(chunk)
        count = keys.shape[1]
        if count <= len(out):
            self.lookup(keys, out[:count])
        return count

    def lookup(self, keys: np.ndarray, found: np.ndarray) -> None:
        """Write the index of the name of each key column to found, -1 for a
        key that no name has."""
        (mult, table), *more = self.tables
        table.take(self._slots(keys, mult), out=found, mode="clip")
        todo = np.flatnonzero(self._differ(found, keys))
        for mult, table in more:  # only the misses ask the later tables
            if not todo.size:
                break
            asked = keys[:, todo]
            cand = table.take(self._slots(asked, mult))
            hit = ~self._differ(cand, asked)
            found[todo[hit]] = cand[hit]
            todo = todo[~hit]
        found[todo] = -1


def _names(sc: _Scanner, what: str) -> list[str]:
    """'{' IDENT* '}' as a list of names, none of them twice."""
    pieces = list(_run(sc))
    names = [name for _, piece in pieces for name in piece.split()]
    seen = set()
    for k, name in enumerate(names):
        if name in seen:
            raise sc.error(f"duplicate {what} {name!r}", _nth_ident(pieces, k)[0])
        seen.add(name)
    return names


def _cells(sc: _Scanner, index: _NameIndex, n: int, width: int) -> np.ndarray | None:
    """'{' IDENT* '}' read by fixed-size cells into n*n indices, when the run
    has the layout semigroup_lines writes and every entry is a name.

    That layout is whitespace up to the first newline, then n rows of one
    indent and n cells, each of width identifier bytes and one whitespace
    byte, then '}' as the next token.  A block of rows is checked by one
    translate to byte classes and one comparison, and its keys are read
    through strided views.  For any other run it returns None and leaves
    the scanner where it was.
    """
    text = sc.text
    brace = _TOKEN_RE.match(text, sc.pos)
    head = brace.lastgroup == "lbrace" and _HEAD_RE.match(text, brace.end())
    if not head:
        return None
    indent, start = len(head[1]), head.start(1)
    stride = indent + n * (width + 1)  # the bytes of one row
    end = start + n * stride
    if end > len(text) or (close := _TOKEN_RE.match(text, end)).lastgroup != "rbrace":
        return None
    rows = max(1, _CHUNK // stride)
    pattern = (bytes(indent) + (b"\1" * width + b"\0") * n) * rows
    keys = np.empty((index.words, rows * n), dtype=np.uint64)
    table = np.empty(n * n, dtype=np.int32)
    for lo in range(start, end, rows * stride):
        piece = text[lo : min(lo + rows * stride, end)]
        if not piece.isascii():
            return None
        block = piece.encode("ascii")
        if not pattern.startswith(block.translate(_CLASSES)):
            return None
        block += bytes(8)  # the last cell's word
        shape = (len(piece) // stride, n)
        count, at = shape[0] * n, (lo - start) // stride * n
        for j, mask in enumerate(index.masks[:, width]):
            cells = np.ndarray(shape, dtype="<u8", buffer=block, offset=indent + 8 * j,
                               strides=(stride, width + 1))
            np.bitwise_and(cells, mask, out=keys[j, :count].reshape(shape))
        index.lookup(keys[:, :count], table[at : at + count])
        if table[at : at + count].min() < 0:
            return None
    sc.pos = close.end()
    return table


def _table(sc: _Scanner, names: list[str], seen: dict[str, int]) -> np.ndarray:
    """'{' IDENT* '}' as the n*n indices of its entries in one int32 array,
    which validation takes over without a copy."""
    text, n = sc.text, len(names)
    if n * n >= _SMALL:
        index = _NameIndex(names)
        width = len(names[0])
        if all(len(name) == width for name in names):
            table = _cells(sc, index, n, width)
            if table is not None:
                return table
        find = index.find
    else:
        def find(chunk, out):
            found = np.fromiter(map(seen.get, chunk.split(), repeat(-1)), np.int32)
            out[: len(found)] = found[: len(out)]
            return len(found)
    # filled piece by piece; the text holds at most len(text)//2+1 entries
    table = np.empty(min(n * n, len(text) // 2 + 1), dtype=np.int32)
    count, at = 0, sc.pos
    for _, piece in _run(sc):
        count += find(piece, table[count:])
    if count != n * n:
        raise sc.error(f"table has {count} entries, expected {n * n}", sc.peek()[2])
    if table.min() < 0:  # read the run again, up to the first unknown entry
        offset, entry = _nth_ident(_run(_Scanner(text, at)), int(np.argmax(table < 0)))
        raise sc.error(f"unknown element {entry!r} in table", offset)
    return table


def parse_semigroup(text: str, adjoin_missing_zero: bool = False) -> FiniteInverseSemigroup:
    """Parse and validate a semigroup document."""
    sc = _Scanner(text)
    sc.expect_keyword("semigroup")
    sc.expect("lbrace", "'{'")

    sc.expect_keyword("elements")
    names = _names(sc, "element")
    seen = {name: i for i, name in enumerate(names)}
    if not names:
        raise sc.error("element list is empty", sc.peek()[2])

    sc.expect_keyword("zero")
    ztok = sc.expect("ident", "zero element name")
    if ztok[1] not in seen:
        raise sc.error(f"unknown zero element {ztok[1]!r}", ztok[2])

    sc.expect_keyword("table")
    n = len(names)
    table = _table(sc, names, seen).reshape(n, n)

    sc.expect("rbrace", "'}'")
    tail = sc.next()
    if tail[0] != "eof":
        raise sc.error("unexpected trailing input", tail[2])

    element_names: tuple[str, ...] = tuple(names)
    if adjoin_missing_zero:
        element_names, table = adjoin_zero(element_names, table)
    try:
        sg = validate_inverse_semigroup(element_names, table)
    except ValidationError as exc:
        raise ValidationError(f"semigroup document is invalid: {exc}", reason=exc) from exc
    if len(sg) == n and sg.elements[sg.zero] != ztok[1]:  # no zero was adjoined
        raise ValidationError(
            f"declared zero {ztok[1]!r} is not the absorbing element "
            f"({sg.elements[sg.zero]!r} is)"
        )
    return sg


def _row_fault(text: str, read, index: dict, n_units: int, default=None):
    """The first fault of the rows read whole, where a token-at-a-time
    reading meets it; else default, or CheckFailed when the array checks
    found a fault that no row shows.

    read holds each section's key and the text offsets its rows span;
    they are matched again, and each row's names looked up in index.
    """
    sc, pairs, inverse = _Scanner(text), set(), {u: u for u in range(n_units)}
    for key, pos, stop in read:
        while pos < stop:
            m = _ROW_RE[key].match(text, pos)
            pos = m.end()
            ids = [index.get(name, -1) for name in m.groups()]
            if key == "arrows":  # its source and range must be units
                for g in (2, 3):
                    if not 0 <= ids[g - 1] < n_units:
                        return sc.error(f"unknown unit {m[g]!r}", m.start(g))
                continue
            for g, i in enumerate(ids, 1):
                if i < 0:
                    return sc.error(f"unknown arrow {m[g]!r}", m.start(g))
            if key == "compose":
                if (ids[0], ids[1]) in pairs:
                    return sc.error(f"duplicate composition {m[1]} {m[2]}", m.start(1))
                pairs.add((ids[0], ids[1]))
            elif inverse.setdefault(ids[0], ids[1]) != ids[1]:
                return sc.error(f"conflicting inverse for {m[1]!r}", m.start(1))
    return default or CheckFailed("the array checks found a fault that no row shows")


def _read_groupoid(text: str):
    """The arguments of validate_groupoid that a groupoid document gives.

    The scanner reads the header, the units and each section's keyword and
    braces, and each row is one _ROW_RE match.  Every error is the one a
    token-at-a-time reading meets first, with its line and column: the
    faults of rows read whole come before a later ParseError, an unknown
    unit only once the arrows are closed, and a missing inverse last.
    """
    sc = _Scanner(text)
    sc.expect_keyword("groupoid")
    sc.expect("lbrace", "'{'")
    sc.expect_keyword("units")
    names = _names(sc, "unit")
    n_units, flat, ends, read = len(names), array("q"), [], []
    index = dict(zip(names, range(n_units)))  # then each arrow as its row is read
    try:
        for key, row in _ROW_RE.items():
            sc.expect_keyword(key)
            sc.expect("lbrace", "'{'")
            pos = sc.pos
            while m := row.match(text, pos):
                if key == "arrows":
                    k = len(index)
                    if index.setdefault(m[1], k) != k:
                        break  # a duplicate arrow id, which the scanner raises
                flat.extend(map(index.get, m.groups(), _UNKNOWN))
                pos = m.end()
            read.append((key, sc.pos, pos))
            sc.pos = pos
            if sc.peek()[0] == "ident":  # a row the match cannot read
                tok = sc.next()
                if key == "arrows" and tok[1] in index:
                    raise sc.error(f"duplicate arrow id {tok[1]!r}", tok[2])
                for kind, what in _ROWS[key]:
                    sc.expect(kind, what)
                raise CheckFailed(f"the row at offset {tok[2]} reads as tokens but not as a match")
            close = sc.expect("rbrace", "'}'")
            ends.append(len(flat))
        sc.expect("rbrace", "'}'")
        tail = sc.next()
        if tail[0] != "eof":
            raise sc.error("unexpected trailing input", tail[2])
    except ParseError as exc:
        if not ends:  # the arrows' units are looked up once their section is closed
            raise
        raise _row_fault(text, read, index, n_units, exc) from None

    n, (a, c, _) = len(index), ends  # where the compose rows and the inverse rows start
    flat = np.array(flat, dtype=np.intp)
    units = np.arange(n_units)
    d, r = (np.concatenate([units, v]) for v in flat[:a].reshape(-1, 3)[:, 1:].T)
    if flat.min(initial=0) < 0 or max(d.max(initial=-1), r.max(initial=-1)) >= n_units:
        raise _row_fault(text, read, index, n_units)  # an unknown name or unit
    left, right, value = flat[a:c].reshape(-1, 3).T
    # the products with a unit that the unit laws imply, then the declared
    # ones over them, each first as its row number to find a duplicate
    compose = np.full((n, n), -1, dtype=np.int32)
    arrows = np.arange(n, dtype=np.int32)
    compose[arrows, d] = compose[r, arrows] = arrows
    rows = np.arange(len(left), dtype=np.int32)
    compose[left, right] = rows
    if (compose[left, right] != rows).any():
        raise _row_fault(text, read, index, n_units)  # a later row took an earlier one's place
    compose[left, right] = value
    arrow, inverse = (np.concatenate([units, v]) for v in flat[c:].reshape(-1, 2).T)
    inv = np.full(n, -1, dtype=np.intp)
    inv[arrow] = inverse  # the units' own rows first, so a later row that differs shows
    if (inv[arrow] != inverse).any():
        raise _row_fault(text, read, index, n_units)  # a conflicting inverse
    names = list(index)
    if inv.min(initial=0) < 0:
        missing = names[int(np.argmax(inv < 0))]
        raise sc.error(f"missing inverse for arrow {missing!r}", close[2])
    return names, range(n_units), d.tolist(), r.tolist(), compose, inv.tolist()


def parse_groupoid(text: str) -> FiniteGroupoid:
    """Parse and validate a groupoid document."""
    parts = _read_groupoid(text)  # the reading's arrays are freed before validation allocates
    try:
        return validate_groupoid(*parts)
    except ValidationError as exc:
        raise ValidationError(f"groupoid document is invalid: {exc}", reason=exc) from exc


def parse_document(text: str):
    """Sniff the document kind and parse; returns ('semigroup'|'groupoid', value)."""
    sc = _Scanner(text)
    tok = sc.peek()
    if tok[0] == "ident" and tok[1] == "semigroup":
        return "semigroup", parse_semigroup(text)
    if tok[0] == "ident" and tok[1] == "groupoid":
        return "groupoid", parse_groupoid(text)
    raise sc.error("expected 'semigroup' or 'groupoid'", tok[2])


def semigroup_lines(S: FiniteInverseSemigroup):
    """The lines of S's semigroup document, each with its newline.

    The table comes one row a line, so a caller that writes the lines as
    they come never holds the whole document.  When every name is ASCII
    and of one width, as the zero-padded names of abstract_table are, a
    block of rows is one gather of fixed-size "name " cells; other names
    are joined a row at a time.
    """
    joined = " ".join(S.elements)
    yield "semigroup {\n"
    yield "  elements { " + joined + " }\n"
    yield f"  zero {S.elements[S.zero]}\n"
    yield "  table {\n"
    n, widths = len(S), set(map(len, S.elements))
    if len(widths) == 1 and joined.isascii():
        cells = np.frombuffer(f"{joined} ".encode("ascii"), dtype=f"S{widths.pop() + 1}")
        width = len(joined) + 1  # the characters of one row's cells
        for rows in row_blocks(n, width):
            text = cells.take(S.table[rows]).tobytes().decode("ascii")
            for k in range(0, len(text), width):
                yield "    " + text[k : k + width - 1] + "\n"
    else:
        names = np.array(S.elements, dtype=object)
        for row in S.table:
            yield "    " + " ".join(names[row].tolist()) + "\n"
    yield "  }\n"
    yield "}\n"


def write_semigroup(S: FiniteInverseSemigroup) -> str:
    """S's semigroup document: the lines of :func:`semigroup_lines`, joined."""
    return "".join(semigroup_lines(S))


def write_groupoid(G: FiniteGroupoid) -> str:
    names = G.arrows
    non_units = [a for a in range(len(names)) if not G.is_unit(a)]
    lines = ["groupoid {"]
    lines.append("  units { " + " ".join(names[u] for u in G.units) + " }")
    lines.append("  arrows {")
    for a in non_units:
        lines.append(f"    {names[a]} : {names[G.d[a]]} -> {names[G.r[a]]}")
    lines.append("  }")
    lines.append("  compose {")
    left, right = np.nonzero(G.compose >= 0)
    for a, b, c in zip(left.tolist(), right.tolist(), G.compose[left, right].tolist()):
        if not G.is_unit(a) and not G.is_unit(b):
            lines.append(f"    {names[a]} {names[b]} = {names[c]}")
    lines.append("  }")
    lines.append("  inverse {")
    for a in non_units:
        lines.append(f"    {names[a]} = {names[G.inverse[a]]}")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
