import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ample import (
    corpus,
    idempotent_semilattice,
    pair_groupoid,
    parse_groupoid,
    parse_semigroup,
    stone_check,
    tight_spectrum,
    validate_inverse_semigroup,
    write_groupoid,
)
from ample import convolution, groupoids, reconstruction
from ample.cli import build_parser, main
from ample.errors import BoundExceeded, CheckFailed, ParseError, ValidationError
from ample.semigroups import _BLOCK

from test_formats import mutate

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, function):
    """Record each call of ``function`` made through any ample module."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ample" or name.startswith("ample."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_validate_groupoid(capsys):
    code, out, err = run_cli(capsys, "validate", str(DATA / "pair2.gpd"))
    assert code == 0
    assert "kind: groupoid" in out
    assert "arrows: 4" in out
    assert "status: ok" in out


def test_validate_semigroup_with_summary(capsys, tmp_path):
    summary = tmp_path / "summary.json"
    code, out, _ = run_cli(
        capsys, "validate", str(DATA / "chain.sgp"), "--summary", str(summary)
    )
    assert code == 0
    payload = json.loads(summary.read_text())
    assert payload["ok"] is True
    assert payload["kind"] == "semigroup"


def test_validate_right_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "validate", str(DATA / "right_zero.sgp"))
    assert code == 2
    assert "inverse" in err


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.gpd")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "input.sgp"
    if kind == "directory":
        path.mkdir()
        want = f"error: [Errno 21] Is a directory: {str(path)!r}\n"
    else:
        path.write_bytes(b"semigroup { elements { \xff } }\n")
        want = ("error: 'utf-8' codec can't decode byte 0xff in position 23: "
                "invalid start byte\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", want)


def test_a_utf8_comment_is_read_as_text(capsys, tmp_path):
    path = tmp_path / "comment.sgp"
    path.write_text("semigroup { # née \u2192\r\n elements { 0 e } zero 0 table { 0 0 0 e } }\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err) == (0, "") and "elements: 2" in out.splitlines()


@pytest.mark.parametrize("ends", ["\r\n", "\r", "mixed", "\n", "none"])
def test_text_is_what_read_text_reads(tmp_path, ends):
    from ample.cli import _text

    lines = ["semigroup {", "  elements { 0 }", "  zero 0", "  table {", "    0", "  }", "}"]
    if ends == "mixed":  # a lone '\r' before '\n' too, and '\r' at the very end
        data = "\r\n".join(lines[:3]) + "\r\r\n" + "\n".join(lines[3:5]) + "\r" + "\n\r".join(lines[5:])
        data += "\r"
    else:
        data = (ends if ends != "none" else " ").join(lines)
    path = tmp_path / "doc.sgp"
    path.write_bytes(data.encode("ascii"))
    text = _text(argparse.Namespace(file=str(path)))
    assert text == path.read_text(encoding="utf-8")
    assert "\r" not in text


def test_spectrum_chain(capsys):
    code, out, _ = run_cli(capsys, "spectrum", str(DATA / "chain.sgp"))
    assert code == 0
    assert "filters: 2" in out
    assert "ultrafilters: 1" in out
    assert "tight-points: 1" in out
    assert "point q0 = {e,f}" in out
    assert "D[0] = {}" in out


def test_ample_reconstruct_check_iso_pipeline(capsys, tmp_path):
    abstract = tmp_path / "abstract.sgp"
    code, out, _ = run_cli(
        capsys, "ample", str(DATA / "pair2.gpd"), "-o", str(abstract)
    )
    assert code == 0
    assert "bisections: 7" in out
    assert "idempotent-bisections: 4" in out
    T = parse_semigroup(abstract.read_text())
    assert len(T) == 7

    rebuilt = tmp_path / "rebuilt.gpd"
    code, out, _ = run_cli(
        capsys, "reconstruct", str(abstract), "-o", str(rebuilt)
    )
    assert code == 0
    assert "germ-arrows: 4" in out
    H = parse_groupoid(rebuilt.read_text())
    assert len(H.units) == 2 and len(H.arrows) == 4

    code, out, _ = run_cli(
        capsys, "check-iso", str(DATA / "pair2.gpd"), "--collection", "ample"
    )
    assert code == 0
    assert "canonical-iso: ok" in out
    assert "brute-force-iso: ok" in out

    # default collection is the singleton semigroup
    code, out, _ = run_cli(capsys, "check-iso", str(DATA / "pair2.gpd"))
    assert code == 0
    assert "collection: singleton (5 elements)" in out
    assert "status: pass" in out


def test_reconstruct_to_stdout_is_document(capsys):
    abstract = DATA / "chain.sgp"
    code, out, _ = run_cli(capsys, "reconstruct", str(abstract))
    assert code == 0
    H = parse_groupoid(out)
    assert len(H.arrows) == 1  # chain semilattice: one tight point, unit only


def test_rep_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "rep-check",
        str(DATA / "pair2.gpd"),
        "--collection",
        "ample",
        "--audit-covers",
    )
    assert code == 0
    assert "multiplicativity: pass" in out
    assert "status: pass" in out


def test_stone_check(capsys):
    code, out, _ = run_cli(capsys, "stone-check", "--max-points", "3")
    assert code == 0
    assert "points=3 bases=16 pass=16" in out
    assert "status: pass" in out


def test_stone_check_stacks_every_basis_once(capsys, monkeypatch):
    chunks = count_calls(monkeypatch, reconstruction.stone_laws)
    per_basis = [
        count_calls(monkeypatch, function)
        for function in (validate_inverse_semigroup, idempotent_semilattice, tight_spectrum)
    ]
    code, out, _ = run_cli(capsys, "stone-check", "--max-points", "4")
    assert code == 0
    assert "total-bases: 1110" in out.splitlines()
    assert sum(len(t) for t, _ in chunks) == 1110
    # a chunk's (B, m, m, max(m, n)) temporaries hold one-byte entries, and
    # stay within the bytes of one block of intp entries
    assert all(t.itemsize == 1 for t, _ in chunks)
    assert all(t.size * max(t.shape[1], member.shape[2]) <= 8 * _BLOCK for t, member in chunks)
    assert per_basis == [[], [], []]


def test_stone_check_with_a_negative_count_exits_2(capsys, tmp_path):
    summary = tmp_path / "s.json"
    argv = ["stone-check", "--max-points", "-1", "--summary", str(summary)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err == "error: point count -1 is negative\n"
    assert not summary.exists()


def test_stone_check_past_the_guard_exits_2_before_any_check(capsys, monkeypatch):
    checks = count_calls(monkeypatch, stone_check)
    code, out, err = run_cli(capsys, "stone-check", "--max-points", "6")
    assert code == 2
    assert out == "" and err == (
        "error: basis enumeration on 6 points would generate more than 2097152 families\n"
    )
    assert checks == []


@pytest.mark.parametrize(
    "flags", [["--collection", "singleton"], ["--collection", "ample"], ["--audit-covers"]]
)
def test_rep_check_on_a_groupoid_without_units(capsys, tmp_path, flags):
    # the one bisection is the empty one; the oracle counts the same instances
    doc = tmp_path / "empty.gpd"
    doc.write_text("groupoid { units { } arrows { } compose { } inverse { } }", encoding="utf-8")
    code, out, err = run_cli(capsys, "rep-check", str(doc), *flags)
    assert (code, err) == (0, "")
    collection = "ample" if "ample" in flags else "singleton"
    assert out.splitlines() == [
        f"collection: {collection} (1 elements)",
        "multiplicativity: pass",
        "star: pass",
        "zero: pass",
        "tightness: pass (instances=2 covers=2)",
        "status: pass",
    ]


def test_rep_check_listing_past_its_bound_exits_2(capsys, monkeypatch, tmp_path):
    # --audit-covers lists every instance; pair2 ample has 25 of them
    summary = tmp_path / "s.json"
    argv = ["rep-check", str(DATA / "pair2.gpd"), "--collection", "ample", "--audit-covers"]
    monkeypatch.setattr(convolution, "MAX_REP_INSTANCES", 25)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "instances=25 " in out
    monkeypatch.setattr(convolution, "MAX_REP_INSTANCES", 24)
    code, out, err = run_cli(capsys, *argv, "--summary", str(summary))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert not summary.exists()


def test_rep_check_count_past_its_bound_exits_2(capsys, monkeypatch, tmp_path):
    # a passing run counts; pair2 ample memoizes 6 states
    summary = tmp_path / "s.json"
    argv = ["rep-check", str(DATA / "pair2.gpd"), "--collection", "ample"]
    monkeypatch.setattr(convolution, "MAX_REP_STATES", 6)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "instances=25 " in out
    monkeypatch.setattr(convolution, "MAX_REP_STATES", 5)
    code, out, err = run_cli(capsys, *argv, "--summary", str(summary))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert not summary.exists()


CLASHING = {
    # the unit 0 and the empty bisection are both named 0
    "zero": ("{ 0 }", "[] and ['0'] share the name 0"),
    # the bisection {u, v} and the unit u+v are both named u+v
    "plus": ("{ u v u+v }", "['u', 'v'] and ['u+v'] share the name u+v"),
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("zero", ["check-iso"]),
        ("plus", ["ample"]),
        ("plus", ["check-iso", "--collection", "ample"]),
        ("plus", ["rep-check", "--collection", "ample"]),
    ],
)
def test_clashing_bisection_names_exit_2(capsys, tmp_path, name, argv):
    units, clash = CLASHING[name]
    gpd = tmp_path / f"{name}.gpd"
    gpd.write_text(
        f"groupoid {{ units {units} arrows {{ }} compose {{ }} inverse {{ }} }}\n",
        encoding="utf-8",
    )
    assert run_cli(capsys, "validate", str(gpd))[0] == 0  # the document itself is fine
    summary = tmp_path / "s.json"
    code, out, err = run_cli(capsys, argv[0], str(gpd), *argv[1:], "--summary", str(summary))
    assert (code, out, err) == (2, "", f"error: bisections {clash}\n")
    assert not summary.exists()


def test_check_iso_node_budget_exits_2(capsys, monkeypatch, tmp_path):
    gpd = tmp_path / "pair3.gpd"
    gpd.write_text(write_groupoid(pair_groupoid(3)), encoding="utf-8")
    summary = tmp_path / "s.json"
    argv = ["check-iso", str(gpd), "--collection", "ample"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "brute-force-iso: ok" in out
    monkeypatch.setattr(reconstruction, "MAX_ISO_NODES", 1)
    code, out, err = run_cli(capsys, *argv, "--summary", str(summary))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert not summary.exists()


def test_ample_validates_its_table_once(capsys, monkeypatch, tmp_path):
    gpd = tmp_path / "pair3.gpd"
    gpd.write_text(write_groupoid(pair_groupoid(3)), encoding="utf-8")
    calls = count_calls(monkeypatch, validate_inverse_semigroup)
    code, _, _ = run_cli(capsys, "ample", str(gpd), "-o", str(tmp_path / "t.sgp"))
    assert code == 0
    assert len(calls) == 1


def test_corpus_listing_and_files(capsys, tmp_path):
    out_dir = tmp_path / "fixtures"
    code, out, _ = run_cli(capsys, "corpus", "--out-dir", str(out_dir))
    assert code == 0
    assert "pair2: arrows=4 units=2" in out
    files = sorted(out_dir.glob("*.gpd"))
    assert len(files) == 14
    for path in files:
        parse_groupoid(path.read_text())
    # the corpus documents are str documents, written whole
    for name, G in corpus().items():
        path = out_dir / f"{name.replace('+', '_plus_')}.gpd"
        assert path.read_text(encoding="utf-8") == write_groupoid(G)


@pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse 3.13 prints a repeated metavar once"
)
def test_help_text_is_the_pinned_text(capsys, monkeypatch):
    # tests/data/usage.txt holds the parser's help and each command's, at 80
    # columns, since argparse wraps to the terminal
    monkeypatch.setenv("COLUMNS", "80")
    commands = ["validate", "spectrum", "ample", "reconstruct", "check-iso", "rep-check",
                "stone-check", "corpus"]
    pages = []
    for argv in ([], *([name] for name in commands)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        pages.append(f"$ ample {' '.join([*argv, '--help'])}\n{capsys.readouterr().out}")
    assert "\n".join(pages) == (DATA / "usage.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["pair2+z2", "pair5"])
def test_ample_output_file_is_the_stdout_document(capsys, tmp_path, name):
    # -o writes the table one row at a time; the bytes are the document that
    # stdout ends with, which print ends with the same newline
    G = pair_groupoid(5) if name == "pair5" else corpus()[name]
    gpd, sgp = tmp_path / "g.gpd", tmp_path / "t.sgp"
    gpd.write_text(write_groupoid(G), encoding="utf-8")
    code, report, _ = run_cli(capsys, "ample", str(gpd), "-o", str(sgp), "--seed", "4")
    assert code == 0
    code, out, _ = run_cli(capsys, "ample", str(gpd), "--seed", "4")
    assert code == 0 and out.startswith(report)
    assert sgp.read_bytes() == out[len(report) :].encode("utf-8")


@pytest.mark.parametrize("before", [None, "an older table\n"])
def test_a_write_that_fails_partway_leaves_no_part_of_the_document(
    capsys, monkeypatch, tmp_path, before
):
    # the rows go to a sibling file that replaces the target only when whole
    import ample.cli as cli

    rows = cli.semigroup_lines

    def failing(T):
        for k, line in enumerate(rows(T)):
            if k == 3:
                raise OSError("No space left on device")
            yield line

    monkeypatch.setattr(cli, "semigroup_lines", failing)
    sgp = tmp_path / "t.sgp"
    if before is not None:
        sgp.write_text(before, encoding="utf-8")
    code, out, err = run_cli(capsys, "ample", str(DATA / "pair2.gpd"), "-o", str(sgp))
    assert (code, out) == (2, "") and err == "error: No space left on device\n"
    assert sorted(tmp_path.iterdir()) == ([sgp] if before is not None else [])
    assert before is None or sgp.read_text(encoding="utf-8") == before


def test_an_output_through_a_symbolic_link_replaces_the_file_it_names(capsys, tmp_path):
    target, link = tmp_path / "t.sgp", tmp_path / "link.sgp"
    target.write_text("an older table\n", encoding="utf-8")
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "ample", str(DATA / "pair2.gpd"), "-o", str(link))
    assert code == 0 and link.is_symlink()
    assert parse_semigroup(target.read_text(encoding="utf-8")).elements
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_outputs_are_deterministic(capsys, tmp_path):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "ample", str(DATA / "pair2.gpd"), "--seed", "5"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]

    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "spectrum", str(DATA / "chain.sgp"))
        outs.append(out)
    assert outs[0] == outs[1]


def test_summary_is_deterministic(capsys, tmp_path):
    blobs = []
    for i in range(2):
        summary = tmp_path / f"s{i}.json"
        run_cli(
            capsys,
            "rep-check",
            str(DATA / "pair2.gpd"),
            "--summary",
            str(summary),
        )
        blobs.append(summary.read_bytes())
    assert blobs[0] == blobs[1]


def test_bound_exceeded_maps_to_input_error(capsys, monkeypatch, tmp_path):
    pair2 = str(DATA / "pair2.gpd")  # 3 * 3 = 9 bisection candidates
    summary = tmp_path / "s.json"
    monkeypatch.setattr(groupoids, "MAX_BISECTION_CANDIDATES", 8)
    for argv in (
        ["ample", pair2],
        ["check-iso", pair2, "--collection", "ample"],
        ["rep-check", pair2, "--collection", "ample"],
    ):
        code, out, err = run_cli(capsys, *argv, "--summary", str(summary))
        assert (code, out) == (2, "")
        assert err == "error: bisection enumeration would scan > 8 candidates\n"
        assert not summary.exists()
    # the guard is a constant, not an option
    for command in ("ample", "check-iso", "rep-check"):
        with pytest.raises(SystemExit) as exc:
            main([command, pair2, "--max-bisections", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-bisections" in capsys.readouterr().err


def test_check_failure_exit_code(capsys, monkeypatch):
    # the checks hold on every valid input, so exercise the failure wiring
    # by stubbing the brute-force search out
    import ample.cli as cli

    monkeypatch.setattr(cli, "brute_force_iso", lambda *a, **k: None)
    code, out, _ = run_cli(capsys, "check-iso", str(DATA / "pair2.gpd"))
    assert code == 1
    assert "brute-force-iso: FAIL" in out
    assert "status: fail" in out


def test_each_rung_of_the_error_ladder_has_its_exit_code(capsys, monkeypatch):
    import ample.cli as cli

    chain = str(DATA / "chain.sgp")
    for error, code in (
        (ParseError("unexpected token", 1, 2), 2),
        (ValidationError("a law is broken"), 2),
        (CheckFailed("an invariant is broken"), 1),
        (BoundExceeded("an enumeration is too large"), 2),
    ):
        def fail(*args, error=error):
            raise error

        monkeypatch.setattr(cli, "tight_spectrum", fail)
        assert run_cli(capsys, "spectrum", chain) == (code, "", f"error: {error}\n")


# Patches standing in for bugs: each breaks a check that no correct input
# fails, then runs the command that reaches it.
BUG_TRAPS = [
    (
        "ample.spectrum.ultrafilters = lambda E, filters=None: ()",
        ["spectrum", str(DATA / "chain.sgp")],
        "error: tight characters (6,) differ from ultrafilters ()\n",
    ),
    (
        "r = ample.reconstruction\n"
        "check = r.check_isomorphism\n"
        "r.check_isomorphism = lambda iso: check(\n"
        "    r.GroupoidIsomorphism(iso.source, iso.target, iso.arrow_map[::-1])\n"
        ")",
        ["check-iso", str(DATA / "pair2.gpd")],
        "error: units are not carried onto units\n",
    ),
]


@pytest.mark.parametrize("optimize", [0, 1])
def test_bug_traps_exit_1(optimize):
    for patch, argv, expected in BUG_TRAPS:
        script = (
            "import sys, ample.cli, ample.reconstruction, ample.spectrum\n"
            f"if sys.flags.optimize != {optimize}:\n    sys.exit(3)\n"
            f"{patch}\nsys.exit(ample.cli.main({argv!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, *["-O"] * optimize, "-c", script],
            env=_with_src_path(),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)


def test_canonical_iso_failure_is_reported_and_the_search_still_runs(capsys, monkeypatch):
    import ample.cli as cli

    def unit_sets_broken(run):
        raise CheckFailed("idempotent bisections are unit sets")

    monkeypatch.setattr(cli, "canonical_iso_of_run", unit_sets_broken)
    code, out, _ = run_cli(capsys, "check-iso", str(DATA / "pair2.gpd"))
    assert code == 1
    assert out.splitlines()[2:] == [
        "canonical-iso: FAIL (idempotent bisections are unit sets)",
        "brute-force-iso: ok",
        "status: fail",
    ]


def test_adjoin_zero_flag(capsys, tmp_path):
    doc = tmp_path / "group.sgp"
    doc.write_text(
        "semigroup { elements { e g } zero e table { e g g e } }\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "validate", str(doc))
    assert code == 2
    code, out, _ = run_cli(capsys, "validate", str(doc), "--adjoin-zero")
    assert code == 0
    assert "elements: 3" in out
    # the rebuilt groupoid of a group-with-adjoined-zero is the group itself
    code, out, _ = run_cli(capsys, "reconstruct", str(doc), "--adjoin-zero")
    assert code == 0
    H = parse_groupoid(out)
    assert len(H.units) == 1 and len(H.arrows) == 2
    # Z/3 whose elements take the first three fresh names
    doc.write_text(
        "semigroup { elements { 0 zero _0 } zero 0 table { 0 zero _0 zero _0 0 _0 0 zero } }",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "validate", str(doc), "--adjoin-zero")
    assert code == 0
    assert "elements: 4" in out.splitlines() and "zero: __0" in out.splitlines()
    code, out, _ = run_cli(capsys, "reconstruct", str(doc), "--adjoin-zero")
    assert code == 0
    H = parse_groupoid(out)
    assert len(H.units) == 1 and len(H.arrows) == 3


def test_adjoin_zero_checks_the_declared_zero_when_none_is_added(capsys, tmp_path):
    # '0' absorbs, so --adjoin-zero adds nothing and the declared zero must be right
    doc = tmp_path / "wrong-zero.sgp"
    doc.write_text("semigroup { elements { 0 e } zero e table { 0 0 0 e } }\n")
    expected = "error: declared zero 'e' is not the absorbing element ('0' is)\n"
    for command in ("validate", "spectrum", "reconstruct"):
        assert run_cli(capsys, command, str(doc), "--adjoin-zero") == (2, "", expected)


PAIR2, CHAIN = str(DATA / "pair2.gpd"), str(DATA / "chain.sgp")
# For each command: a passing run, its --summary keys besides command and
# ok, and a run whose input cannot be used.
DRIVER_CONTRACT = {
    "validate": (["validate", CHAIN], {"kind"}, ["validate", "no-such-file.sgp"]),
    "spectrum": (
        ["spectrum", CHAIN],
        {"filters", "ultrafilters", "tight_points"},
        ["spectrum", str(DATA / "right_zero.sgp")],
    ),
    "ample": (["ample", PAIR2], {"bisections", "idempotents", "seed"}, ["ample", CHAIN]),
    "reconstruct": (
        ["reconstruct", CHAIN],
        {"tight_points", "germ_arrows", "germ_units"},
        ["reconstruct", str(DATA / "bad_assoc.sgp")],
    ),
    "check-iso": (["check-iso", PAIR2], {"collection", "seed"}, ["check-iso", CHAIN]),
    "rep-check": (
        ["rep-check", PAIR2, "--collection", "ample"],
        {"collection", "instances", "covers"},
        ["rep-check", CHAIN, "--collection", "ample"],
    ),
    "stone-check": (
        ["stone-check", "--max-points", "2"],
        {"max_points", "bases"},
        ["stone-check", "--max-points", "-1"],
    ),
    "corpus": (["corpus"], {"instances", "written"}, ["corpus", "--out-dir", PAIR2]),
}


@pytest.mark.parametrize("command", DRIVER_CONTRACT)
def test_every_command_reports_through_the_driver(
    capsys, monkeypatch, tmp_path, command
):
    import ample.cli as cli

    passing, keys, unusable = DRIVER_CONTRACT[command]
    summary = tmp_path / "s.json"
    runs = [(passing, 0)]
    if command == "check-iso":
        runs.append((passing, 1))
    for argv, expected in runs:
        if expected == 1:
            monkeypatch.setattr(cli, "brute_force_iso", lambda *a, **k: None)
        code, _, _ = run_cli(capsys, *argv, "--summary", str(summary))
        payload = json.loads(summary.read_text(encoding="utf-8"))
        assert code == expected
        assert payload["command"] == command and payload["ok"] is (code == 0)
        assert set(payload) == keys | {"command", "ok"}
        summary.unlink()
    code, out, err = run_cli(capsys, *unusable, "--summary", str(summary))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not summary.exists()


@pytest.mark.parametrize("command, source", [("ample", PAIR2), ("reconstruct", CHAIN)])
def test_an_unwritable_output_prints_no_report(capsys, tmp_path, command, source):
    # the document is written before any report line is printed
    summary = tmp_path / "s.json"
    target = tmp_path / "no-such-dir" / "out.txt"
    argv = [command, source, "-o", str(target), "--summary", str(summary)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not summary.exists() and not target.parent.exists()


def _with_src_path():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_optimized(body):
    """Exit code and stderr of ``body`` run under python -O (exit 3 if -O is off)."""
    script = "import sys\nif not sys.flags.optimize:\n    sys.exit(3)\n" + textwrap.dedent(body)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=_with_src_path(),
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stderr


def test_a_sequence_of_calls_matches_each_call_alone(capsys, tmp_path):
    # main() reuses one parser, so no flag or default may carry over between calls
    pair2, chain = str(DATA / "pair2.gpd"), str(DATA / "chain.sgp")
    sequence = [
        ["rep-check", pair2, "--collection", "ample", "--audit-covers"],
        ["spectrum", chain, "--adjoin-zero"],
        ["rep-check", pair2],
        ["spectrum", chain],
        ["check-iso", pair2, "--seed", "3"],
        ["ample", pair2],
        ["validate", chain],
    ]
    together, alone = [], []
    for i, argv in enumerate(sequence):
        summary = tmp_path / f"together{i}.json"
        code, out, _ = run_cli(capsys, *argv, "--summary", str(summary))
        together.append((code, out, summary.read_text()))
    for i, argv in enumerate(sequence):
        summary = tmp_path / f"alone{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "ample.cli", *argv, "--summary", str(summary)],
            env=_with_src_path(),
            capture_output=True,
            text=True,
        )
        alone.append((proc.returncode, proc.stdout, summary.read_text()))
    assert together == alone
    assert build_parser() is build_parser()


def test_checks_still_run_under_python_O():
    # A broken invariant must still fail the run with asserts compiled out.
    code, err = _run_optimized(
        f"""
        import ample.spectrum
        from ample.cli import build_parser, main
        ample.spectrum.find_tightness_violation = lambda E, bits: (0, 0, 0)
        sys.exit(main(["spectrum", {str(DATA / "chain.sgp")!r}]))
        """
    )
    assert code == 1, err
    assert "Traceback" not in err


def test_rep_check_laws_still_run_under_python_O():
    # doubled indicators are not idempotent
    code, err = _run_optimized(
        f"""
        import ample.cli
        from ample import AlgebraElement
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from oracles import add
        ample.cli.rho = lambda G, m: add(AlgebraElement.indicator(G, m), AlgebraElement.indicator(G, m))
        sys.exit(ample.cli.main(["rep-check", {str(DATA / "pair2.gpd")!r}]))
        """
    )
    assert code == 1, err
    assert err == "error: pi(u0) is not idempotent\n"


FUZZ_SEEDS = [path.read_text() for path in sorted(DATA.iterdir())] + [
    write_groupoid(pair_groupoid(3))
]
FUZZ_TOKENS = [
    "semigroup", "groupoid", "elements", "zero", "table", "units", "arrows",
    "compose", "inverse", "{", "}", ":", "->", "=", "# note\n", "0", "e", "a",
    "u0", "u1", "a01", "?", "-", "\n", "_0",
]
FUZZ_COMMANDS = [
    ["validate"], ["validate", "--adjoin-zero"], ["spectrum"], ["reconstruct"],
    ["ample"], ["check-iso"], ["check-iso", "--collection", "ample"], ["rep-check"],
    ["spectrum", "--adjoin-zero"], ["reconstruct", "--adjoin-zero"],
]


@st.composite
def fuzz_documents(draw):
    """A fixture under 1-3 seeded edits, or a random token stream."""
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        text = draw(st.sampled_from(FUZZ_SEEDS))
        for _ in range(draw(st.integers(1, 3))):
            text = mutate(text, rng)
        return text
    tokens = draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40))
    return " ".join(tokens)


@settings(max_examples=200, deadline=None)
@given(fuzz_documents(), st.sampled_from(FUZZ_COMMANDS))
def test_fuzzed_documents_never_raise_past_main(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.txt"
        doc.write_text(text, encoding="utf-8")
        argv = [command[0], str(doc), *command[1:]]
        if command[0] in ("ample", "reconstruct"):
            argv += ["-o", str(Path(tmp) / "out.txt")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
