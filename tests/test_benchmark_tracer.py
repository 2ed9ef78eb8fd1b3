"""benchmark/tracing.py binds functions of ``ample`` by name.

The benchmark's --trace 1 runs and bench/ladder.py install its Tracer, so a
name it binds that the package renames or drops must fail here as well.
"""

import importlib.util
import sys
from pathlib import Path

import ample.cli  # noqa: F401  (the tracer binds names in every layer, the CLI too)

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module: str, path: str):
    """The object holding the last attribute of a dotted path, and that attribute."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(owners) -> dict:
    """Every attribute of the ample modules and of the given owners, by (owner, name)."""
    out = {}
    modules = [m for name, m in sys.modules.items() if name == "ample" or name.startswith("ample.")]
    for owner in [*modules, *owners]:
        out.update({(id(owner), attr): value for attr, value in vars(owner).items()})
    return out


def test_the_benchmark_tracer_binds_every_name_and_restores_it():
    tracing = _tracing()
    targets = [(module, function) for module, function, _, _ in tracing.SPANNED]
    targets += [(module, path) for module, path, _ in tracing.COUNTED]
    owners = [owner for owner, _ in (_owner(*t) for t in targets) if isinstance(owner, type)]
    before = _bindings(owners)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, path in targets:
            owner, attr = _owner(module, path)
            assert vars(owner)[attr] is not before[id(owner), attr], (module, path)
    finally:
        tracer.uninstall()
    after = _bindings(owners)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
