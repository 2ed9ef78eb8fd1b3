import json
import sys
from pathlib import Path

import pytest

from ample import (
    enumerate_filters,
    pair_groupoid,
    parse_groupoid,
    parse_semigroup,
    stone_check,
    validate_inverse_semigroup,
    write_groupoid,
)
from ample.cli import main

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
    else:
        path.write_bytes(b"semigroup { elements { \xff } }\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_stone_check_enumerates_filters_once_per_basis(capsys, monkeypatch):
    calls = count_calls(monkeypatch, enumerate_filters)
    code, out, _ = run_cli(capsys, "stone-check", "--max-points", "4")
    assert code == 0
    assert "total-bases: 1110" in out.splitlines()
    assert len(calls) == 1110


def test_stone_check_past_the_guard_exits_2_before_any_check(capsys, monkeypatch):
    checks = count_calls(monkeypatch, stone_check)
    code, out, err = run_cli(capsys, "stone-check", "--max-points", "5")
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert checks == []


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


def test_bound_exceeded_maps_to_input_error(capsys):
    code, _, err = run_cli(
        capsys,
        "ample",
        str(DATA / "pair2.gpd"),
        "--max-bisections",
        "2",
    )
    assert code == 2
    assert "error" in err


def test_check_failure_exit_code(capsys, monkeypatch):
    # the checks hold on every valid input, so exercise the failure wiring
    # by stubbing the brute-force search out
    import ample.cli as cli

    monkeypatch.setattr(cli, "brute_force_iso", lambda *a, **k: None)
    code, out, _ = run_cli(capsys, "check-iso", str(DATA / "pair2.gpd"))
    assert code == 1
    assert "brute-force-iso: FAIL" in out
    assert "status: fail" in out


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
