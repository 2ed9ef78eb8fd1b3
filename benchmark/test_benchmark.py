"""Checks on the benchmark's own inputs and known answers.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import random
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

from ample import cli  # noqa: E402
from ample.formats import parse_groupoid, parse_semigroup  # noqa: E402


def ample_cli(argv):
    return run.call(cli, argv)[:3]


def prepare(name: str, seed: int, work):
    work.mkdir()
    mix = workloads.WORKLOADS[name](work, random.Random(seed), ample_cli)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return mix, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    mix, first = prepare(name, 7, tmp_path / "a")
    _, again = prepare(name, 7, tmp_path / "b")
    _, other = prepare(name, 8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys() and first != other
    reqs = [[make(random.Random(3)) for _, make in mix] for _ in range(2)]
    assert reqs[0] == reqs[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_documents_parse(name, tmp_path):
    prepare(name, 5, tmp_path / "w")
    for path in sorted((tmp_path / "w").iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".gpd"):
            G = workloads.FAMILIES[path.stem]()
            H = parse_groupoid(text)
            assert (len(H.arrows), len(H.units)) == (G.arrow_count, len(G.units))
        elif not path.name.endswith(".bad.sgp"):
            parse_semigroup(text)


@pytest.mark.parametrize("n", [11, 12, 15])
def test_pair_arrow_names_stay_unique(n):
    G = workloads.pair(n, "p")
    names = [*G.units, *(a for a, _, _ in G.arrows)]
    assert len(set(names)) == len(names) == n * n
    H = parse_semigroup(workloads.singleton_document(G, random.Random(n)))
    assert len(H) == n * n + 1 and len(H.idempotents) == n + 1


@pytest.mark.parametrize("family", ["pair3+z3", "pair4"])
def test_known_answers_match_the_program(family, tmp_path):
    G = workloads.FAMILIES[family]()
    gpd = tmp_path / "g.gpd"
    gpd.write_text(workloads.groupoid_document(G, random.Random(1)), encoding="utf-8")
    sgp = tmp_path / "t.sgp"
    client = run.Client(cli, tmp_path)
    requests = [
        workloads.ample_request(family, G, str(gpd), str(sgp)),
        workloads.reconstruct_request(family, G, str(sgp), str(tmp_path / "h.gpd")),
    ]
    for make in requests:
        client.send(make(random.Random(2)))
    assert client.failures == []


@pytest.mark.parametrize("seed", range(6))
def test_zero_column_corruption_exits_2(seed, tmp_path):
    G = workloads.union(workloads.pair(2, "p"), workloads.cyclic(3, "z"))
    gpd = tmp_path / "g.gpd"
    gpd.write_text(workloads.groupoid_document(G, random.Random(seed)), encoding="utf-8")
    sgp = tmp_path / "t.sgp"
    assert ample_cli(["ample", str(gpd), "-o", str(sgp), "--seed", str(seed)])[0] == 0
    bad = tmp_path / "bad.sgp"
    text = workloads.corrupt_zero_column(sgp.read_text(encoding="utf-8"), random.Random(seed))
    bad.write_text(text, encoding="utf-8")
    code, out, err = ample_cli(["reconstruct", str(bad), "-o", str(tmp_path / "h.gpd")])
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
