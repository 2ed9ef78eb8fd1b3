import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ample import (
    abstract_table,
    bisection_semigroup,
    corpus,
    disjoint_union,
    enumerate_bisections,
    pair_groupoid,
    parse_document,
    parse_groupoid,
    parse_semigroup,
    semigroup_lines,
    units_groupoid,
    validate_groupoid,
    write_groupoid,
    write_semigroup,
)
from ample import formats
from ample.errors import ParseError, ValidationError

from oracles import (
    parse_groupoid_by_tokens,
    parse_semigroup_by_tokens,
    semigroup_document_by_join,
)

DATA = Path(__file__).parent / "data"

# Identifier, whitespace, structural, comment and illegal characters.
MUTATION_CHARS = "a0x1_.+@ \t\r\n{}:=->#?;\x0cé"
IDENT = r"[A-Za-z0-9_.+@]+"
# Comments that hold what ends a row or a section, or opens one.
ROW_COMMENTS = ("# }", "#}", "# a -> b", "# = c", "#compose {", "# inverse {", "#\x0c0compose {")


def mutate(text, rng):
    """One seeded edit: 1-3 characters inserted, deleted or copied, or an
    edit aimed at rows: two identifiers run together or one split in two,
    a comment holding a brace, '->', '=' or a section keyword, CRLF line
    ends, or the rows of a stretch packed onto one line."""
    k = rng.randint(1, 3)
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(7)
    if op == 0:
        return text[:i] + "".join(rng.choice(MUTATION_CHARS) for _ in range(k)) + text[i:]
    if op == 1:
        return text[:i] + text[i + k :]
    if op == 2:
        j = rng.randrange(len(text))
        return text[:i] + text[j : j + k] + text[i:]
    if op == 3:
        gaps = [m.span(1) for m in re.finditer(f"{IDENT}([ \t]+)(?={IDENT})", text)]
        names = [m.span() for m in re.finditer(IDENT, text) if len(m.group()) > 1]
        if gaps and (rng.random() < 0.5 or not names):  # run two together
            lo, hi = rng.choice(gaps)
            return text[:lo] + text[hi:]
        if names:  # split one in two
            lo, hi = rng.choice(names)
            cut = rng.randrange(lo + 1, hi)
            return text[:cut] + " " + text[cut:]
        return text
    if op == 4:
        comment = rng.choice(ROW_COMMENTS)
        ends = [m.start() for m in re.finditer("\n", text)]
        if ends and rng.random() < 0.5:  # at the end of a line
            i = rng.choice(ends)
            return text[:i] + " " + comment + text[i:]
        return text[:i] + comment + "\n" + text[i:]
    if op == 5:
        return text.replace("\n", "\r\n")
    j = rng.randrange(i, len(text) + 1)
    return text[:i] + text[i:j].replace("\n", " ") + text[j:]


def ample_table(G):
    return abstract_table(bisection_semigroup(G, enumerate_bisections(G)))[0]


def ample_table_document(G):
    return write_semigroup(ample_table(G))


def renamed(doc, suffix):
    """doc with every element name lengthened by suffix."""
    names = set(doc.split("elements {")[1].split("}")[0].split())
    return re.sub(r"[A-Za-z0-9_.+@]+", lambda m: m.group() + suffix * (m.group() in names), doc)


def outcome(parse, text, *args):
    """The parsed value, or the error's type, message and position."""
    try:
        return parse(text, *args)
    except (ParseError, ValidationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def test_parse_pair2_fixture():
    G = parse_groupoid((DATA / "pair2.gpd").read_text())
    assert len(G.arrows) == 4
    assert len(G.units) == 2
    assert G.compose[(G.index["a01"], G.index["a10"])] == G.index["u1"]


def test_groupoid_roundtrip_corpus():
    for name, G in corpus().items():
        assert parse_groupoid(write_groupoid(G)) == G, name


def test_write_groupoid_lists_products_in_row_major_order():
    text = (DATA / "pair2.gpd").read_text()
    assert write_groupoid(parse_groupoid(text)) == text
    G = disjoint_union(pair_groupoid(3), corpus()["z3"])
    block = write_groupoid(G).split("compose {")[1].split("}")[0]
    pairs = [(G.index[x], G.index[y]) for x, y, *_ in map(str.split, block.strip().split("\n"))]
    assert len(pairs) == 6 * 2 + 2 * 2 and pairs == sorted(pairs)


def test_semigroup_roundtrip():
    S = parse_semigroup((DATA / "chain.sgp").read_text())
    assert parse_semigroup(write_semigroup(S)) == S


def test_duplicate_arrow_id():
    text = """
groupoid {
  units { u }
  arrows {
    g : u -> u
    g : u -> u
  }
  compose { }
  inverse { }
}
"""
    with pytest.raises(ParseError) as exc:
        parse_groupoid(text)
    assert "duplicate arrow" in str(exc.value)
    assert exc.value.line == 6


def test_duplicate_element():
    with pytest.raises(ParseError):
        parse_semigroup("semigroup { elements { a a } zero a table { a a a a } }")


def test_right_zero_fixture_fails_validation():
    with pytest.raises(ValidationError) as exc:
        parse_semigroup((DATA / "right_zero.sgp").read_text())
    assert isinstance(exc.value.reason, ValidationError)
    assert exc.value.reason.witness == ("a", ("a", "b"))
    assert str(exc.value.reason) == "element a has 2 generalized inverse(s): ('a', 'b')"


def test_bad_assoc_fixture_carries_witness():
    with pytest.raises(ValidationError) as exc:
        parse_semigroup((DATA / "bad_assoc.sgp").read_text())
    assert isinstance(exc.value.reason, ValidationError)
    assert exc.value.reason.witness == ("a", "a", "a")
    assert str(exc.value.reason) == "associativity fails at (a, a, a)"


def test_wrong_zero_declaration():
    text = "semigroup { elements { 0 e } zero e table { 0 0 0 e } }"
    with pytest.raises(ValidationError):
        parse_semigroup(text)


def test_table_size_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_semigroup("semigroup { elements { a b } zero a table { a a a } }")
    assert "3 entries" in str(exc.value)


def test_unknown_element_in_table():
    with pytest.raises(ParseError):
        parse_semigroup("semigroup { elements { a } zero a table { q } }")


def test_unknown_unit_in_arrow():
    text = """
groupoid {
  units { u }
  arrows { g : v -> u }
  compose { }
  inverse { g = g }
}
"""
    with pytest.raises(ParseError):
        parse_groupoid(text)


def test_missing_inverse_entry():
    text = """
groupoid {
  units { u0 u1 }
  arrows {
    a : u0 -> u1
    b : u1 -> u0
  }
  compose {
    a b = u1
    b a = u0
  }
  inverse { a = b }
}
"""
    with pytest.raises(ParseError) as exc:
        parse_groupoid(text)
    assert "missing inverse" in str(exc.value)


def test_missing_composition_is_a_validation_error():
    text = """
groupoid {
  units { u0 u1 }
  arrows {
    a : u0 -> u1
    b : u1 -> u0
  }
  compose { a b = u1 }
  inverse { a = b  b = a }
}
"""
    with pytest.raises(ValidationError):
        parse_groupoid(text)


def test_declared_products_are_kept_and_duplicates_rejected():
    z2 = (
        "groupoid {{ units {{ e }} arrows {{ c : e -> e }}"
        " compose {{ {} }} inverse {{ c = c }} }}"
    )
    G = parse_groupoid(z2.format("c c = e"))
    assert parse_groupoid(z2.format("c c = e  c e = c  e e = e")) == G
    # a declared unit product is checked, never overwritten by the implied one
    with pytest.raises(ValidationError, match="unit laws fail at arrow c"):
        parse_groupoid(z2.format("c c = e  c e = e"))
    # the first product has value 0, the index of the unit e
    with pytest.raises(ParseError, match="duplicate composition c c"):
        parse_groupoid(z2.format("c c = e  c c = e"))


def test_adjoin_zero_option():
    text = "semigroup { elements { e g } zero e table { e g g e } }"
    with pytest.raises(ValidationError):
        parse_semigroup(text)
    S = parse_semigroup(text, adjoin_missing_zero=True)
    assert len(S) == 3
    assert S.elements[S.zero] == "0"


def test_parse_document_sniffs_kind():
    kind, value = parse_document((DATA / "pair2.gpd").read_text())
    assert kind == "groupoid"
    kind, value = parse_document((DATA / "chain.sgp").read_text())
    assert kind == "semigroup"
    with pytest.raises(ParseError):
        parse_document("lattice { }")


def test_comments_and_error_positions():
    text = "# leading comment\nsemigroup {\n  elements { a }\n  zero b\n"
    with pytest.raises(ParseError) as exc:
        parse_semigroup(text)
    assert exc.value.line == 4


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse_semigroup("semigroup ? { }")


def test_bulk_scan_agrees_with_token_scan_on_mutated_documents():
    rng = random.Random(5)
    small = [write_groupoid(G) for G in corpus().values()]
    small += [path.read_text() for path in sorted(DATA.iterdir())]
    small.append(ample_table_document(pair_groupoid(3)))
    small.append("groupoid { units { } arrows { } compose { } inverse { } }\n")
    large = [
        ample_table_document(pair_groupoid(4)),
        ample_table_document(disjoint_union(pair_groupoid(2), pair_groupoid(3))),
        # 64 elements, so above the dict cutoff, with names of 3 key words
        renamed(ample_table_document(units_groupoid(6)), "_idempotent.of.units6"),
    ]
    kinds, groupoids = Counter(), Counter()
    for docs, edits in ((small, 250), (large, 12)):
        for doc in docs:
            for k in range(edits):
                text = doc if k == 0 else mutate(doc, rng)
                adjoin = k % 2 == 1
                got = outcome(parse_semigroup, text, adjoin)
                assert got == outcome(parse_semigroup_by_tokens, text, adjoin), text
                kinds[got[0] if isinstance(got, tuple) else "ok"] += 1
                got = outcome(parse_groupoid, text)
                assert got == outcome(parse_groupoid_by_tokens, text), text
                kinds[got[0] if isinstance(got, tuple) else "ok"] += 1
                if text.startswith("groupoid"):  # read whole, or rejected with a ParseError
                    groupoids[isinstance(got, tuple) and got[0] == "ParseError"] += 1
    assert kinds["ok"] and kinds["ParseError"] and kinds["ValidationError"], kinds
    assert groupoids[False] > 1000 and groupoids[True] > 1000, groupoids


IDENT_CHARS = "abyz0189_.+@"


def random_name(rng, length):
    return "".join(rng.choice(IDENT_CHARS) for _ in range(length))


def stress_names(rng, width):
    """Names of 1-width bytes; some agree on their first width-1, 8 or 16 bytes."""
    names = {random_name(rng, rng.randint(1, width)) for _ in range(40)}
    for stem in (random_name(rng, 8)[: width - 1], random_name(rng, 16)[: width - 1]):
        names |= {stem + random_name(rng, k)[: width - len(stem)] for k in range(1, 9)}
    names = sorted(names)
    rng.shuffle(names)
    return names


def near_misses(rng, names):
    """Every name, a prefix and an extension of each, entries longer than
    every name, and random entries; shuffled."""
    longest = max(map(len, names))
    entries = names + [name[:-1] for name in names if len(name) > 1]
    entries += [name + rng.choice(IDENT_CHARS) for name in names]
    entries += [random_name(rng, longest + k) for k in (1, 8, 9)] + [names[0] * 25]
    entries += [random_name(rng, rng.randint(1, longest)) for _ in range(60)]
    rng.shuffle(entries)
    return entries


@pytest.mark.parametrize("one_slot", [False, True])
def test_name_index_agrees_with_dict_lookup(monkeypatch, one_slot):
    if one_slot:  # a zero multiplier hashes every name to slot 0
        monkeypatch.setattr(formats, "_MULT", 0)
    rng = random.Random(11)
    # one-word keys (widths 3, 5 and 8) take the single-multiply hash into
    # 32n slots, longer ones the folded hash into 8n
    for width in (3, 5, 8, 16, 24):
        names = stress_names(rng, width)
        seen = {name: i for i, name in enumerate(names)}
        index = formats._NameIndex(names)
        assert index.words == -(-width // 8)
        assert len(index.tables[0][1]) >= (32 if width <= 8 else 8) * len(names)
        if one_slot:  # one name per table
            assert len(index.tables) == len(names)
        for _ in range(3):
            entries = near_misses(rng, names)
            chunk = "".join(e + rng.choice((" ", "\t", "\r\n", "\n   ")) for e in entries)
            out = np.full(len(entries) + 1, -2, dtype=np.int32)
            assert index.find(chunk, out) == len(entries)
            assert out.tolist() == [seen.get(e, -1) for e in entries] + [-2]
            # entries that do not fit are counted, and nothing is written
            assert index.find(chunk, out[2:]) == len(entries)
            assert out.tolist() == [seen.get(e, -1) for e in entries] + [-2]


# separators between table entries: tabs, CRLF, and comments (one non-ASCII)
SEPARATORS = (" ", "\t", "\r\n", "  # row é\n", "# x y\r\n  ", "\n\t")


def chain_document(names, rng):
    """The semilattice min(i, j) on names, entries split by random separators."""
    n = len(names)
    entries = [names[min(i, j)] for i in range(n) for j in range(n)]
    table = "".join(e + rng.choice(SEPARATORS) for e in entries)
    return (f"semigroup {{\r\n  elements {{ {' '.join(names)} }}\n  zero {names[0]}\n"
            f"  table {{ # é\n{table}}}\n}}\n")


def corruptions(text, names, rng):
    """text, then each kind of bad table entry swapped in for a random one."""
    start = text.index("table {")
    blanked = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text[start:])
    spans = [m.span() for m in re.finditer(r"[A-Za-z0-9_.+@]+", blanked)][1:]
    yield text
    longest = max(map(len, names))
    for bad in ("q", names[3][:-1], names[3] + "a", "a" * (longest + 1), "#", "", "x y"):
        i, j = spans[rng.randrange(len(spans))]
        yield text[: start + i] + bad + text[start + j :]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 1 << 15])
def test_chunked_table_lookup_agrees_with_token_scan(monkeypatch, chunk):
    monkeypatch.setattr(formats, "_SMALL", 0)
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for width in (3, 12, 20):  # the names differ only in their last 2 bytes
        names = [f"{i:0{width}d}" for i in range(12)]
        for text in corruptions(chain_document(names, rng), names, rng):
            assert outcome(parse_semigroup, text) == outcome(parse_semigroup_by_tokens, text)


@pytest.mark.parametrize("n", [63, 64])
def test_tables_either_side_of_the_dict_cutoff(n):
    assert (n * n >= formats._SMALL) == (n == 64)
    rng = random.Random(n)
    names = [f"idempotent.number.{i}" for i in range(n)]
    rng.shuffle(names)
    for k, text in enumerate(corruptions(chain_document(names, rng), names, rng)):
        got = outcome(parse_semigroup, text)
        assert got == outcome(parse_semigroup_by_tokens, text)
        assert (k == 0) == (not isinstance(got, tuple))


def run_edges(names):
    """Documents whose table run ends, or seems to end, in every way the
    reader has to tell apart."""
    n = len(names)
    entries = [names[min(i, j)] for i in range(n) for j in range(n)]
    head = f"semigroup {{\n  elements {{ {' '.join(names)} }}\n  zero {names[0]}\n  table {{\n"

    def table(rows, tail="  }\n}\n"):
        return head + "\n".join("    " + " ".join(row) for row in rows) + "\n" + tail

    rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    middle = n * n // 2
    flat = entries[:middle], entries[middle:]
    yield table(rows)
    # comments before the table's brace that hold '}', '{' or a non-ASCII character
    for comment in ("# } here", "# {}}{", "# née }", "#}", "# = { é"):
        yield table(rows[:1] + [rows[1] + [comment]] + rows[2:])
        yield table([*rows[:-1], rows[-1] + [comment]])
    yield head + "# } first\n" + table(rows)[len(head):]
    # a '#' only after the brace
    yield table(rows, "  } # done }\n} # {\n")
    yield table(rows, "  }\n}\n# é }")
    # a non-ASCII character, '=' or '{' in the middle of the table
    for bad in ("é", "=", "{", "->", ":", "\x0c", "?"):
        yield table([flat[0] + [bad] + flat[1]])
        yield table([flat[0] + [bad + flat[1][0]] + flat[1][1:]])
    # no closing brace, with and without a comment at the end
    yield head + " ".join(entries)
    yield head + " ".join(entries) + " # no brace }"
    yield head + " ".join(entries) + "\n# no brace"
    # a bad character right after n² entries
    for bad in ("é", "=", "{", "?", "#é\n?"):
        yield head + " ".join(entries) + bad + " }\n}\n"
        yield head + " ".join(entries) + " " + bad + "\n  }\n}\n"


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 1 << 15])
@pytest.mark.parametrize("small", [0, 1 << 12])
def test_table_run_edges_agree_with_token_scan(monkeypatch, chunk, small):
    monkeypatch.setattr(formats, "_SMALL", small)
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    names = [f"e{i}" for i in range(6)]
    kinds = Counter()
    for text in run_edges(names):
        got = outcome(parse_semigroup, text)
        assert got == outcome(parse_semigroup_by_tokens, text), text
        kinds[got[1].split(" (at")[0] if isinstance(got, tuple) else "ok"] += 1
    assert kinds["ok"] == 14 and kinds["expected '}', found 'end of input'"] == 3, kinds


def test_comments_are_blanked_inside_pieces_of_full_size(monkeypatch):
    # a comment is held whole by one piece, so comments after a third of the
    # entries do not cut the run into pieces of a row or less
    monkeypatch.setattr(formats, "_CHUNK", 256)
    text = chain_document([f"e{i}" for i in range(40)], random.Random(3))
    start = text.index("table {") + len("table")
    sc = formats._Scanner(text, start)
    pieces = list(formats._run(sc))
    run = text[start + 2 : sc.pos - 1]  # between the braces
    assert run.count("#") > 400
    assert "".join(piece for _, piece in pieces) == re.sub(
        r"#[^\n]*", lambda m: " " * len(m.group()), run)
    assert pieces[0][0] == start + 2
    assert all(lo + len(piece) == after for (lo, piece), (after, _) in zip(pieces, pieces[1:]))
    assert len(pieces) <= len(run) // 256 + 1


def cell_mutants(doc, rng):
    """(edit, text, whether the cells read it) for a document laid out as
    semigroup_lines writes it: the document itself, then one seeded edit of
    each kind.  Only edits that keep every byte's class (identifier or
    whitespace) leave it to the cells."""
    lines = doc.split("\n")
    names = lines[1].split()[2:-1]
    width, rows = len(names[0]), range(4, len(lines) - 3)  # the table's lines

    def at(i, lo, hi, new):
        return "\n".join(lines[:i] + [lines[i][:lo] + new + lines[i][hi:]] + lines[i + 1 :])

    def cell(i):
        lo = 4 + rng.randrange(len(names)) * (width + 1)
        return i, lo, lo + width

    def space(i):  # a byte of the indent, or the one after a cell but the row's last
        k = rng.choice([*range(4), *range(4 + width, len(lines[i]), width + 1)])
        return i, k, k + 1

    i = rng.choice(rows)
    blanks = [m.start() for m in re.finditer(r"\s", doc[doc.index("table {") + 8 : -6])]
    k = doc.index("table {") + 8 + rng.choice(blanks)
    yield "pristine", doc, True
    yield "tab for a space", at(*space(i), "\t"), True
    yield "whitespace swapped", doc[:k] + rng.choice(" \t\r\n") + doc[k + 1 :], True
    row, lo, hi = cell(i)
    j = lo + rng.randrange(width)
    yield "unknown name", at(row, j, j + 1, "@"), False
    yield "longer name", at(row, lo, hi, lines[row][lo:hi] + "0"), False
    yield "shorter name", at(row, lo, hi, lines[row][lo : hi - 1]), False
    yield "identifier byte for a space", at(*space(i), rng.choice("0x_")), False
    yield "CRLF rows", doc.replace("\n", "\r\n"), False
    yield "extra cell", at(i, len(lines[i]), len(lines[i]), " " + rng.choice(names)), False
    yield "missing row", "\n".join(lines[:i] + lines[i + 1 :]), False
    yield "extra row", "\n".join(lines[:i] + [lines[i]] + lines[i:]), False
    yield "comment", at(i, len(lines[i]), len(lines[i]), "  # row"), False
    yield "non-ASCII byte", at(*space(i), "\u00e9"), False
    yield "other ASCII byte for a space", at(*space(i), rng.choice("=?\x0c")), False
    yield "form feed before the first newline", doc.replace("table {\n", "table {\x0c\n"), False
    yield "no closing brace", "\n".join(lines[:-3] + [""]), False


def test_cell_reader_agrees_with_token_scan_on_mutated_writer_layouts(monkeypatch):
    cells, read = formats._cells, []

    def spy(*args):
        table = cells(*args)
        read.append(table is not None)
        return table

    monkeypatch.setattr(formats, "_cells", spy)
    units6 = ample_table_document(units_groupoid(6))
    docs = [units6, ample_table_document(pair_groupoid(4)), renamed(units6, "_12.bytes")]
    assert [len(doc.split()[4]) for doc in docs] == [3, 4, 12]  # one name width each
    rng, kinds = random.Random(37), Counter()
    for doc in docs:
        for _ in range(2):
            for edit, text, by_cells in cell_mutants(doc, rng):
                read.clear()
                got = outcome(parse_semigroup, text)
                assert got == outcome(parse_semigroup_by_tokens, text), edit
                assert read == [by_cells], edit
                kinds[edit, got[0] if isinstance(got, tuple) else "ok"] += 1
    read_whole = {"pristine", "tab for a space", "whitespace swapped", "CRLF rows", "comment"}
    assert all((got == "ok") == (edit in read_whole) for edit, got in kinds), kinds


def test_reading_a_table_makes_no_copy_of_the_document(monkeypatch):
    # the table run is read piece by piece from the text itself, so the
    # parse holds the table and about one piece at a time, never a second
    # copy of the run (validation, which has its own temporaries, is stubbed)
    text = ample_table_document(units_groupoid(10))
    got = {}
    monkeypatch.setattr(formats, "validate_inverse_semigroup",
                        lambda names, table: got.setdefault("table", table))
    tracemalloc.start()
    try:
        with pytest.raises(AttributeError):  # the stub returns the table, not a semigroup
            parse_semigroup(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got["table"].shape == (1024, 1024)
    assert peak < len(text) // 2 + got["table"].nbytes, (peak, len(text))


@pytest.mark.parametrize("edit, by_cells", [
    ("pristine", True), ("two tabs for a space", False), ("CRLF rows", False)])
def test_either_table_reader_makes_no_copy_of_the_document(monkeypatch, edit, by_cells):
    # the writer's layout is read by cells, a block of rows at a time; any
    # other is read piece by piece; neither holds a second copy of the run
    text = ample_table_document(units_groupoid(10))
    text = {"pristine": text, "two tabs for a space": text.replace(" ", "\t\t"),
            "CRLF rows": text.replace("\n", "\r\n")}[edit]
    cells, read, got = formats._cells, [], {}

    def spy(*args):
        table = cells(*args)
        read.append(table is not None)
        return table

    monkeypatch.setattr(formats, "_cells", spy)
    monkeypatch.setattr(formats, "validate_inverse_semigroup",
                        lambda names, table: got.setdefault("table", table))
    tracemalloc.start()
    try:
        with pytest.raises(AttributeError):  # the stub returns the table, not a semigroup
            parse_semigroup(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == [by_cells]
    assert got["table"].shape == (1024, 1024)
    assert peak < len(text) // 2 + got["table"].nbytes, (peak, len(text))


def test_semigroup_lines_are_the_document_one_row_a_line():
    for name, G in corpus().items():
        T = ample_table(G)
        lines = list(semigroup_lines(T))
        assert "".join(lines) == write_semigroup(T), name
        assert len(lines) == len(T) + 6
        assert all(line.endswith("\n") and "\n" not in line[:-1] for line in lines)
        assert parse_semigroup("".join(lines)) == T


@pytest.mark.parametrize("rows", [1, 3, None])
def test_cell_rows_are_the_joined_rows(monkeypatch, rows):
    if rows:  # blocks of a few rows, the last one short
        monkeypatch.setattr(formats, "row_blocks", lambda count, width: (
            slice(i, min(i + rows, count)) for i in range(0, count, rows)))
    # abstract tables name their elements with one width: the cell path
    for name, G in corpus().items():
        T = ample_table(G)
        assert len(set(map(len, T.elements))) == 1
        assert "".join(semigroup_lines(T)) == semigroup_document_by_join(T), name
    # bisections are named by joining arrow names of several widths: the join path
    P = pair_groupoid(3)
    P = validate_groupoid([f"p.{a[:-1]}_{a[-1]}" for a in P.arrows],
                          P.units, P.d, P.r, P.compose, P.inverse)
    pair, union = (bisection_semigroup(G, enumerate_bisections(G)).semigroup
                   for G in (P, disjoint_union(pair_groupoid(2), corpus()["z3"])))
    assert "p.a0_1+p.a1_0" in pair.index
    for S in (pair, union):
        assert len(set(map(len, S.elements))) > 1
        assert "".join(semigroup_lines(S)) == semigroup_document_by_join(S)


def wide_table_with_unknown_entry():
    """64 elements; a non-ASCII comment ends row 63, and row 64 holds 'q'."""
    names = [f"e{i}" for i in range(64)]
    rows = [" ".join(names)] * 63 + ["e0 e1 q " + " ".join(names[3:])]
    rows[62] += "  # ligne née ici"
    body = "\n    ".join(rows)
    return f"semigroup {{\n  elements {{ {' '.join(names)} }}\n  zero e0\n  table {{\n    {body}\n  }}\n}}\n"


def error_position(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    return str(exc.value), exc.value.line, exc.value.column


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        (  # unknown entry in the last row of a multi-line table
            "semigroup {\n  elements { 0 e }\n  zero 0\n  table {\n    0 0\n    0 q\n  }\n}\n",
            "unknown element 'q' in table", 6, 7,
        ),
        (  # a comment inside the table, then an unknown entry
            "semigroup {\n  elements { 0 e }\n  zero 0\n  table {  # q q\n"
            "    0 0 # row 0: q\n    0# e\n      q\n  }\n}\n",
            "unknown element 'q' in table", 7, 7,
        ),
        (  # CRLF line endings; a wrong count is reported at the token after '}'
            "semigroup {\r\n  elements { 0 e }\r\n  zero 0\r\n  table {\r\n"
            "    0 0\r\n    0 e q\r\n  }\r\n}\r\n",
            "table has 5 entries, expected 4", 8, 1,
        ),
        (
            "semigroup {\r\n  elements { 0 e }\r\n  zero 0\r\n  table {\r\n"
            "    0 0\r\n    q e\r\n  }\r\n}\r\n",
            "unknown element 'q' in table", 6, 5,
        ),
        (  # a duplicate element after a comment
            "semigroup {\n  elements { 0 e # f\n   f e }\n  zero 0\n  table { }\n}\n",
            "duplicate element 'e'", 3, 6,
        ),
        (  # an unexpected character inside a table run
            "semigroup { elements { 0 e } zero 0\n  table { 0 0\n    0 e? } }\n",
            "unexpected character '?'", 3, 8,
        ),
        (  # past a table of the wrong size, the bad character is met first
            "semigroup { elements { 0 e } zero 0 table { 0 0 0 } ? }",
            "unexpected character '?'", 1, 53,
        ),
        (  # an empty element list is reported at the token after it
            "semigroup {\n  elements { # none\n  }\n  zero 0 }",
            "element list is empty", 4, 3,
        ),
        pytest.param(  # a table above the dict cutoff, after a non-ASCII comment
            wide_table_with_unknown_entry(),
            "unknown element 'q' in table", 68, 11,
            id="64-elements-unknown-after-non-ascii-comment",
        ),
        (
            "groupoid {\n  units { u v\n    u }\n}",
            "duplicate unit 'u'", 3, 5,
        ),
        (
            "groupoid {\n  units { u }\n  arrows {\n    g : u -> u\n    g : u -> u\n  }\n"
            "  compose { }\n  inverse { g = g }\n}\n",
            "duplicate arrow id 'g'", 5, 5,
        ),
        (  # the source is an arrow, not a unit; reported once the arrows are read
            "groupoid {\n  units { u }\n  arrows {\n    g : u -> u\n    h : g -> u\n  }\n"
            "  compose { }\n  inverse { g = g  h = h }\n}\n",
            "unknown unit 'g'", 5, 9,
        ),
        (  # two names run together are one unknown name, never two known ones
            "groupoid {\n  units { u }\n  arrows { g : u -> u }\n  compose {\n    gg = u\n  }\n"
            "  inverse { g = g }\n}\n",
            "expected right factor, found '='", 5, 8,
        ),
        (
            "groupoid {\n  units { u }\n  arrows { g : u -> u }\n  compose {\n"
            "    g g = u\n    g h = u\n  }\n  inverse { g = g }\n}\n",
            "unknown arrow 'h'", 6, 7,
        ),
        (  # CRLF line ends and a comment between the rows
            "groupoid {\r\n  units { u }\r\n  arrows { g : u -> u }\r\n  compose {\r\n"
            "    g g = u # g g = g\r\n    g u = g\r\n    g g = u\r\n  }\r\n"
            "  inverse { g = g }\r\n}\r\n",
            "duplicate composition g g", 7, 5,
        ),
        (  # rows packed onto one line
            "groupoid { units { u } arrows { g : u -> u h : u -> u }\n"
            "  compose { } inverse { g = g h = h g = h } }\n",
            "conflicting inverse for 'g'", 2, 37,
        ),
        (  # reported at the inverse section's closing brace
            "groupoid {\n  units { u }\n  arrows { g : u -> u  h : u -> u }\n  compose { }\n"
            "  inverse {\n    g = g  # h = h\n  }\n}\n",
            "missing inverse for arrow 'h'", 7, 3,
        ),
        (
            "groupoid {\n  units { u }\n  arrows { }\n  compose { }\n  inverse { }\n}\n"
            "# end\n  groupoid\n",
            "unexpected trailing input", 8, 3,
        ),
        (  # an unknown source unit waits for the arrows to close; a bad row comes first
            "groupoid {\n  units { u }\n  arrows {\n    g : x -> u\n    h : u u\n  }\n"
            "  compose { }\n  inverse { g = g  h = h }\n}\n",
            "expected '->', found 'u'", 5, 11,
        ),
        (  # an earlier row's unknown arrow beats a later row's syntax error
            "groupoid {\n  units { u }\n  arrows { g : u -> u }\n  compose {\n"
            "    g h = u\n    g g = u\n    g = u\n  }\n  inverse { g = g }\n}\n",
            "unknown arrow 'h'", 5, 7,
        ),
        (  # a duplicate arrow id is met before the rest of its malformed row
            "groupoid {\n  units { u }\n  arrows {\n    g : u -> u\n    g u -> u\n  }\n"
            "  compose { }\n  inverse { g = g }\n}\n",
            "duplicate arrow id 'g'", 5, 5,
        ),
        (  # a conflicting inverse beats trailing input
            "groupoid { units { u } arrows { g : u -> u }\n"
            "  compose { } inverse { g = g  g = u } } x\n",
            "conflicting inverse for 'g'", 2, 32,
        ),
        (  # trailing input beats a missing inverse
            "groupoid {\n  units { u }\n  arrows { g : u -> u }\n  compose { }\n  inverse { }\n}\n}\n",
            "unexpected trailing input", 7, 1,
        ),
    ],
)
def test_error_positions_are_pinned(text, message, line, column):
    parse = parse_groupoid if text.startswith("groupoid") else parse_semigroup
    oracle = parse_groupoid_by_tokens if parse is parse_groupoid else parse_semigroup_by_tokens
    expected = (f"{message} (at {line}:{column})", line, column)
    assert error_position(parse, text) == expected
    assert error_position(oracle, text) == expected
