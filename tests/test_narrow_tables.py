"""The table's dtype rule on both sides of its first boundary.

A table of n elements is one array of dtype np.min_scalar_type(n), which
holds every index and the sentinel n: uint8 up to 255 elements, uint16
from 256 (units8 ample) on.  The tables here have 255, 256 and 257
elements, and some of their codes pass the range of their dtype.
"""

from dataclasses import fields
from functools import cache

import numpy as np
import pytest

from ample import (
    GermGroupoidModel,
    abstract_table,
    adjoin_zero,
    bisection_name,
    bisection_semigroup,
    build_germ_model,
    enumerate_bisections,
    parse_semigroup,
    singleton_semigroup,
    units_groupoid,
    validate_inverse_semigroup,
    write_semigroup,
)
from ample import formats, semigroups
from ample.errors import ParseError, ValidationError

from oracles import germ_model_by_point_loop, parse_semigroup_by_tokens

SIZES = (255, 256, 257)


@cache
def built(n):
    """A bisection semigroup of n elements: units8 ample for 256, else a
    singleton family of n - 1 units."""
    if n == 256:
        G = units_groupoid(8)
        return bisection_semigroup(G, enumerate_bisections(G))
    G = units_groupoid(n - 1)
    return bisection_semigroup(G, singleton_semigroup(G))


@cache
def abstract(n):
    """built(n) relabelled, and its audit."""
    return abstract_table(built(n), seed=n)


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


@pytest.mark.parametrize("n", SIZES)
def test_every_table_of_n_elements_has_the_dtype_of_n(n):
    dtype = np.uint8 if n < 256 else np.uint16
    assert np.min_scalar_type(n) == dtype
    bs, (T, audit) = built(n), abstract(n)
    for S in (bs.semigroup, T):
        assert len(S) == n and S.table.dtype == dtype
    # the relabelling keeps the dtype and moves every entry with its element
    order = [bs.bits.index(m) for m in audit.bisections]  # order[new] = old
    assert sorted(order) == list(range(n))
    new_of_old = np.argsort(order)
    assert np.array_equal(T.table, new_of_old[bs.semigroup.table[np.ix_(order, order)]])


def with_entry(doc, row, col, entry):
    """doc with the table entry at (row, col) replaced by entry."""
    lines = doc.splitlines(keepends=True)
    at = lines.index("  table {\n") + 1 + row
    cells = lines[at].split()
    cells[col] = entry
    return "".join([*lines[:at], "    " + " ".join(cells) + "\n", *lines[at + 1 :]])


@pytest.mark.parametrize("n", SIZES)
def test_both_table_readers_agree_with_the_token_scan(monkeypatch, n):
    cells, read = formats._cells, []

    def spy(*args):
        table = cells(*args)
        read.append(table is not None)
        return table

    monkeypatch.setattr(formats, "_cells", spy)
    T = abstract(n)[0]
    doc = write_semigroup(T)
    # x999 has the names' width but is none of them; q breaks the layout
    docs = [(doc, True), (with_entry(doc, n - 1, n - 2, "x999"), False),
            (with_entry(doc, 0, 1, "q"), False)]
    for text, by_cells in docs:
        for layout, cells_read in ((text, by_cells), (text.replace(" ", "\t\t"), False)):
            read.clear()
            got = outcome(parse_semigroup, layout)
            assert read == [cells_read]
            if text is doc:
                assert got == T and got.table.dtype == np.min_scalar_type(n)
            else:  # the unknown entry is named where a token-at-a-time scan meets it
                assert got[0] == "ParseError" and got[1].startswith("unknown element")
                assert got == outcome(parse_semigroup_by_tokens, layout)


def test_a_family_of_256_that_is_not_closed_names_the_first_missing_product():
    G = units_groupoid(9)
    # every set of the first 8 units is closed: 256 elements, the sentinel 256 needs uint16
    assert bisection_semigroup(G, range(256)).semigroup.table.dtype == np.uint16
    # unit sets multiply by intersection; u0+u1 is traded for u0+u8
    family = sorted({*range(256)} - {0b11} | {1 | 1 << 8})
    assert len(family) == 256
    have = set(family)
    s, t = next((s, t) for s in family for t in family if s & t not in have)
    expected = (bisection_name(G, s), bisection_name(G, t))
    assert expected == ("u0+u1+u2", "u0+u1+u3")
    with pytest.raises(ValidationError, match="^collection not closed at product") as exc:
        bisection_semigroup(G, family)
    assert exc.value.witness == expected


@pytest.mark.parametrize("n", [255, 257])
def test_the_support_verdict_reads_narrow_entries_as_indices(n):
    # a singleton family of units: one entry other than z a row, so the
    # verdict is decided on the support, where a wrong False would only
    # send the table on to the witness search
    t = abstract(n)[0].table
    z, rows, cols, at = semigroups._nonzero_counts(t, keep=n * n)
    assert cols @ rows <= n * n and len(at) == n - 1
    assert semigroups._support_associative(t, z, rows, cols, at)
    assert semigroups._support_associative(t, z, rows, cols, None)
    bad = t.copy()
    e, f = (int(x) for x in np.flatnonzero(t.diagonal() != z)[[0, -1]])
    bad[e, e] = f  # (ee)f = f but e(ef) = z
    z, rows, cols, at = semigroups._nonzero_counts(bad, keep=n * n)
    assert not semigroups._support_associative(bad, z, rows, cols, at)


@pytest.mark.parametrize("k", [254, 255, 256])
def test_adjoin_zero_crosses_the_boundary(k):
    # Z_k has no zero; adjoining one makes k + 1 elements
    rows = [[(i + j) % k for j in range(k)] for i in range(k)]
    names = [f"g{i}" for i in range(k)]
    for table in (rows, np.array(rows), np.array(rows, dtype=np.min_scalar_type(k))):
        elements, t = adjoin_zero(names, table)
        assert t.dtype == np.min_scalar_type(k + 1) and t.shape == (k + 1, k + 1)
        assert t[:k, :k].tolist() == rows
        assert (t[k] == k).all() and (t[:, k] == k).all()
        S = validate_inverse_semigroup(elements, t)
        assert S.table is t  # taken over: it has the dtype of k + 1
        assert S.zero == k and S.star == (*((k - i) % k for i in range(k)), k)


@pytest.mark.parametrize("n", [128, *SIZES])
def test_germ_codes_pass_the_range_of_the_table_dtype(n):
    # a code is point * n + s m: units7 ample and the singleton families reach
    # past 255 (uint8) and 65,535 (uint16, 256 points of 257 elements)
    if n == 128:
        G = units_groupoid(7)
        T = abstract_table(bisection_semigroup(G, enumerate_bisections(G)), seed=5)[0]
    else:
        T = abstract(n)[0]
    model, oracle = build_germ_model(T), germ_model_by_point_loop(T)
    # the codes of the last point pass the dtype's range, but for units8 ample's 8 points
    past = len(model.spectrum.points) * n > np.iinfo(T.table.dtype).max + 1
    assert past == (n != 256)
    for field in fields(GermGroupoidModel):
        assert getattr(model, field.name) == getattr(oracle, field.name), field.name
    assert np.array_equal(model.groupoid.compose, oracle.groupoid.compose)
