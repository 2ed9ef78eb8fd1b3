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
does no per-token work on identifier lists.  It keeps only an offset;
line and column are counted from the text when an error is raised.
Structural tokens are read one at a time with one regex.  An identifier
list (elements, table, units) is read as one run: a character-class
match over identifiers and whitespace that hops over each '#' comment
and goes on.  A regex alternation over whitespace, comment and identifier
would do the same in one match, but Python's re keeps a backtracking
frame per repetition, which costs more memory than the names.  Comments
in the run are blanked to spaces, so it is ASCII and its byte offsets
are text offsets.  Table entries go into one int32 array _CHUNK
characters at a time, looked up on the bytes by _NameIndex (no string
per entry) or, in a small table, through a dict.  The first unknown entry
is located by rescanning the run, on the error path only.  The token
after a run is read by the ordinary scanner, so a bad character there is
reported where a token-at-a-time scan would meet it.
"""

from __future__ import annotations

import re
from itertools import islice, repeat

import numpy as np

from .errors import ParseError, ValidationError
from .groupoids import FiniteGroupoid, validate_groupoid
from .semigroups import FiniteInverseSemigroup, adjoin_zero, validate_inverse_semigroup

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<colon>:)
  | (?P<equals>=)
  | (?P<ident>[A-Za-z0-9_.+@]+)
""",
    re.VERBOSE,
)
# Identifiers and whitespace up to the next comment or other token.
_RUN_RE = re.compile(r"[A-Za-z0-9_.+@ \t\r\n]*")
_COMMENT_RE = re.compile(r"#[^\n]*")
_IDENT_RE = re.compile(r"[A-Za-z0-9_.+@]+")
# A table run is looked up _CHUNK characters at a time, which bounds the
# temporaries; under _SMALL entries a dict costs less than _NameIndex.
_CHUNK = 1 << 15
_SMALL = 1 << 12
_MULT = 0x9E3779B97F4A7C15  # odd, so its powers are too
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


class _Scanner:
    """Tokens as (kind, text, offset), with one token of lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked = None

    def error(self, message: str, pos: int) -> ParseError:
        """A ParseError located at offset pos (line and column from 1)."""
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def _next_raw(self):
        text = self.text
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if m is None:
                raise self.error(f"unexpected character {text[self.pos]!r}", self.pos)
            start, self.pos = self.pos, m.end()
            kind = m.lastgroup
            if kind not in ("ws", "comment"):
                return (kind, m.group(), start)
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


def _ident_list(sc: _Scanner) -> tuple[int, str]:
    """'{' IDENT* '}' read as one run.

    Returns its offset and its text, each comment blanked to as many spaces.
    """
    sc.expect("lbrace", "'{'")
    text = sc.text
    start = sc.pos
    end = _RUN_RE.match(text, start).end()
    while text.startswith("#", end):
        end = _RUN_RE.match(text, _COMMENT_RE.match(text, end).end()).end()
    sc.pos = end
    sc.expect("rbrace", "'}'")
    run = text[start:end]
    if "#" in run:
        run = _COMMENT_RE.sub(lambda m: " " * len(m.group()), run)
    return start, run


def _offset(run: str, k: int) -> int:
    """Offset in run of its k-th identifier."""
    return next(islice(_IDENT_RE.finditer(run), k, None)).start()


class _NameIndex:
    """Exact lookup of identifiers by their bytes as little-endian uint64 words.

    A key is ceil(w/8) words, w the longest name, zero past the name's end;
    identifier bytes are never 0, so equal keys are equal strings.  Names
    hash into tables of at least 8n slots; those that collide go into one
    more table with the next multiplier.  A table only proposes a name, which
    an entry takes when every key word agrees, so no hash decides a lookup.
    """

    def __init__(self, names: list[str]):
        self.words = -(-max(map(len, names)) // 8)
        padded = (name.encode("ascii").ljust(8 * self.words, b"\0") for name in names)
        self.keys = np.frombuffer(b"".join(padded), "<u8").reshape(len(names), -1)
        bits = (8 * len(names) - 1).bit_length()
        self.shift = np.uint64(64 - bits)
        self.tables = []
        left, mult = np.arange(len(names)), np.uint64(_MULT)
        while left.size:  # each table places the first name of every slot
            slots, first = np.unique(self._slots(self.keys[left], mult), return_index=True)
            table = np.full(1 << bits, -1, dtype=np.int32)
            table[slots] = left[first]
            self.tables.append((mult, table))
            left = np.delete(left, first)
            mult = np.uint64(int(mult) * _MULT % 2**64)

    def _slots(self, keys: np.ndarray, mult: np.uint64) -> np.ndarray:
        h = keys[:, 0] * mult
        for j in range(1, self.words):
            h = (h ^ keys[:, j]) * mult
        return (h ^ h >> np.uint64(32)) * mult >> self.shift  # high bits mixed into low

    def find(self, chunk: str) -> np.ndarray:
        """Indices of the identifiers in chunk (ASCII identifiers and
        whitespace), in order, with -1 for an unknown one."""
        padded = b" " + chunk.encode("ascii") + bytes(8 * self.words)
        inside = np.frombuffer(padded, dtype=np.uint8) > 32
        edges = np.flatnonzero(inside[1:] != inside[:-1]) + 1
        starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
        # the 8 bytes from every offset; fancy indexing, as take() copies the source
        window = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
        keys = np.empty((len(starts), self.words), dtype=np.uint64)
        for j in range(self.words):
            keys[:, j] = window[starts + 8 * j] & _MASKS[np.clip(lengths - 8 * j, 0, 8)]
        keys[lengths > 8 * self.words, 0] = 0  # too long: no name's first word is 0
        found = np.full(len(starts), -1, dtype=np.int32)
        todo, asked = np.arange(len(starts)), keys
        for mult, table in self.tables:
            cand = table[self._slots(asked, mult)]
            hit = (self.keys[cand] == asked).all(axis=1) & (cand >= 0)
            found[todo[hit]] = cand[hit]
            todo = todo[~hit & (cand >= 0)]
            asked = keys[todo]
        return found


def _first_duplicate(names: list[str]) -> int | None:
    seen = set()
    for k, name in enumerate(names):
        if name in seen:
            return k
        seen.add(name)
    return None


def parse_semigroup(text: str, adjoin_missing_zero: bool = False) -> FiniteInverseSemigroup:
    """Parse and validate a semigroup document."""
    sc = _Scanner(text)
    sc.expect_keyword("semigroup")
    sc.expect("lbrace", "'{'")

    sc.expect_keyword("elements")
    start, run = _ident_list(sc)
    names = run.split()
    seen = {name: i for i, name in enumerate(names)}
    if len(seen) != len(names):
        k = _first_duplicate(names)
        raise sc.error(f"duplicate element {names[k]!r}", start + _offset(run, k))
    if not names:
        raise sc.error("element list is empty", sc.peek()[2])

    sc.expect_keyword("zero")
    ztok = sc.expect("ident", "zero element name")
    if ztok[1] not in seen:
        raise sc.error(f"unknown zero element {ztok[1]!r}", ztok[2])

    sc.expect_keyword("table")
    start, run = _ident_list(sc)
    n = len(names)
    find = _NameIndex(names).find if n * n >= _SMALL else (
        lambda chunk: np.fromiter(map(seen.get, chunk.split(), repeat(-1)), np.int32))
    # one int32 array, which validation takes over without a copy, filled
    # by chunks cut at whitespace; the run holds at most len(run)//2+1 entries
    table = np.empty(min(n * n, len(run) // 2 + 1), dtype=np.int32)
    count = pos = 0
    while pos < len(run):
        cut = _IDENT_RE.match(run, pos + _CHUNK)
        end = cut.end() if cut else pos + _CHUNK
        found = find(run[pos:end])
        if count + len(found) <= len(table):
            table[count : count + len(found)] = found
        count += len(found)
        pos = end
    if count != n * n:
        raise sc.error(f"table has {count} entries, expected {n * n}", sc.peek()[2])
    unknown = np.flatnonzero(table < 0)
    if unknown.size:
        entry = _IDENT_RE.match(run, _offset(run, int(unknown[0])))
        raise sc.error(f"unknown element {entry.group()!r} in table", start + entry.start())
    del run
    table = table.reshape(n, n)

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


def parse_groupoid(text: str) -> FiniteGroupoid:
    """Parse and validate a groupoid document."""
    sc = _Scanner(text)
    sc.expect_keyword("groupoid")
    sc.expect("lbrace", "'{'")

    sc.expect_keyword("units")
    start, run = _ident_list(sc)
    names = run.split()
    seen = {name: i for i, name in enumerate(names)}
    if len(seen) != len(names):
        k = _first_duplicate(names)
        raise sc.error(f"duplicate unit {names[k]!r}", start + _offset(run, k))
    n_units = len(names)

    sc.expect_keyword("arrows")
    sc.expect("lbrace", "'{'")
    raw_arrows = []
    while sc.peek()[0] == "ident":
        atok = sc.next()
        if atok[1] in seen:
            raise sc.error(f"duplicate arrow id {atok[1]!r}", atok[2])
        seen[atok[1]] = len(names)
        names.append(atok[1])
        sc.expect("colon", "':'")
        dtok = sc.expect("ident", "source unit")
        sc.expect("arrow", "'->'")
        rtok = sc.expect("ident", "range unit")
        raw_arrows.append((atok, dtok, rtok))
    sc.expect("rbrace", "'}'")

    d = list(range(n_units)) + [0] * len(raw_arrows)
    r = list(range(n_units)) + [0] * len(raw_arrows)
    for k, (atok, dtok, rtok) in enumerate(raw_arrows):
        for tok, target in ((dtok, d), (rtok, r)):
            if tok[1] not in seen or seen[tok[1]] >= n_units:
                raise sc.error(f"unknown unit {tok[1]!r}", tok[2])
            target[n_units + k] = seen[tok[1]]

    sc.expect_keyword("compose")
    sc.expect("lbrace", "'{'")
    n = len(names)
    compose = np.full((n, n), -1, dtype=np.int32)
    while sc.peek()[0] == "ident":
        ltok = sc.next()
        rtok = sc.expect("ident", "right factor")
        sc.expect("equals", "'='")
        vtok = sc.expect("ident", "product arrow")
        for tok in (ltok, rtok, vtok):
            if tok[1] not in seen:
                raise sc.error(f"unknown arrow {tok[1]!r}", tok[2])
        key = (seen[ltok[1]], seen[rtok[1]])
        if compose[key] >= 0:
            raise sc.error(f"duplicate composition {ltok[1]} {rtok[1]}", ltok[2])
        compose[key] = seen[vtok[1]]
    sc.expect("rbrace", "'}'")

    sc.expect_keyword("inverse")
    sc.expect("lbrace", "'{'")
    inverse: dict[int, int] = {u: u for u in range(n_units)}
    while sc.peek()[0] == "ident":
        ltok = sc.next()
        sc.expect("equals", "'='")
        vtok = sc.expect("ident", "inverse arrow")
        for tok in (ltok, vtok):
            if tok[1] not in seen:
                raise sc.error(f"unknown arrow {tok[1]!r}", tok[2])
        a = seen[ltok[1]]
        v = seen[vtok[1]]
        if a in inverse and inverse[a] != v:
            raise sc.error(f"conflicting inverse for {ltok[1]!r}", ltok[2])
        inverse[a] = v
    close = sc.expect("rbrace", "'}'")

    sc.expect("rbrace", "'}'")
    tail = sc.next()
    if tail[0] != "eof":
        raise sc.error("unexpected trailing input", tail[2])

    for a in range(n):
        if a not in inverse:
            raise sc.error(f"missing inverse for arrow {names[a]!r}", close[2])

    # Unit-involving compositions are implied by the unit laws; fill any the
    # document left out, but never overwrite what it said.
    for a in range(n):
        for key in ((a, d[a]), (r[a], a)):
            if compose[key] < 0:
                compose[key] = a

    try:
        return validate_groupoid(
            names, range(n_units), d, r, compose, [inverse[a] for a in range(n)]
        )
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


def write_semigroup(S: FiniteInverseSemigroup) -> str:
    lines = ["semigroup {"]
    lines.append("  elements { " + " ".join(S.elements) + " }")
    lines.append(f"  zero {S.elements[S.zero]}")
    lines.append("  table {")
    names = np.array(S.elements, dtype=object)
    for row in S.table:
        lines.append("    " + " ".join(names[row].tolist()))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
