"""Spans and counts around the public functions of each ``ample`` layer.

The tracer replaces each listed function wherever the package binds it
(its own module, the package namespace, and every module that imported
it by name), so nested calls such as abstract_table -> bisection_semigroup
-> validate_inverse_semigroup each get their own span and self time comes
out right.  Hot per-element calls are counted but get no span.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# (module, function, span name, count(counts, args, result) or None)
SPANNED: list[tuple[str, str, str, Callable | None]] = []


def _spanned(module: str, function: str, name: str, count: Callable | None = None) -> None:
    SPANNED.append((f"ample.{module}", function, name, count))


def _square(counts: Counter, key: str, n: int) -> None:
    counts[key] += n * n


_spanned("formats", "parse_semigroup", "formats.parse_s",
         lambda c, args, res: _square(c, "formats.table_entries", len(res)))
_spanned("formats", "parse_groupoid", "formats.parse_s")
_spanned("formats", "write_semigroup", "formats.write_s",
         lambda c, args, res: _square(c, "formats.table_entries", len(args[0])))
_spanned("formats", "write_groupoid", "formats.write_s")
_spanned("groupoids", "enumerate_bisections", "groupoids.enumerate_bisections_s",
         lambda c, args, res: c.update({"groupoids.bisections": len(res)}))
_spanned("groupoids", "bisection_semigroup", "groupoids.bisection_semigroup_s")
_spanned("groupoids", "abstract_table", "groupoids.abstract_table_s")
_spanned("groupoids", "validate_groupoid", "groupoids.validate_groupoid_s",
         lambda c, args, res: c.update({"groupoids.composable_pairs": len(res.compose)}))
_spanned("semigroups", "validate_inverse_semigroup", "semigroups.validate_s",
         lambda c, args, res: c.update({"semigroups.validate_calls": 1,
                                        "semigroups.validated_entries": len(res) ** 2}))
_spanned("semigroups", "idempotent_semilattice", "semigroups.idempotent_semilattice_s",
         lambda c, args, res: c.update({"semigroups.idempotents": len(res)}))
_spanned("spectrum", "tight_spectrum", "spectrum.tight_spectrum_s",
         lambda c, args, res: c.update({"spectrum.calls": 1,
                                        "spectrum.tight_points": len(res.points)}))
_spanned("spectrum", "enumerate_filters", "spectrum.enumerate_filters_s",
         lambda c, args, res: c.update({"spectrum.filters": len(res)}))
_spanned("spectrum", "ultrafilters", "spectrum.ultrafilters_s")
_spanned("germs", "build_germ_model", "germs.build_germ_model_s",
         lambda c, args, res: c.update({"germs.germ_arrows": len(res.groupoid.arrows)}))
_spanned("reconstruction", "canonical_iso_of_run", "reconstruction.canonical_iso_s")
_spanned("reconstruction", "brute_force_iso", "reconstruction.brute_force_iso_s")
_spanned("reconstruction", "enumerate_point_bases", "reconstruction.enumerate_point_bases_s")
_spanned("reconstruction", "stone_check", "reconstruction.stone_check_s")
_spanned("convolution", "check_tight_representation", "convolution.check_tight_representation_s",
         lambda c, args, res: c.update({"convolution.instances": res.instances_checked,
                                        "convolution.covers": res.covers_checked}))
_spanned("cli", "main", "cli.self_s", lambda c, args, res: c.update({"cli.requests": 1}))

# Calls counted without a span: (module, attribute path, counter).
COUNTED = [
    ("ample.groupoids", "slice_product", "groupoids.slice_products"),
    ("ample.spectrum", "find_tightness_violation", "spectrum.tightness_checks"),
    ("ample.convolution", "AlgebraElement.__mul__", "convolution.products"),
]

# A validation that raises is a rejected input.
REJECTIONS = {"semigroups.validate_s": "semigroups.rejected"}

SPAN_NAMES = sorted({name for _, _, name, _ in SPANNED})
COUNT_NAMES = sorted(
    {"formats.table_entries", "groupoids.bisections", "groupoids.composable_pairs",
     "semigroups.validate_calls", "semigroups.validated_entries", "semigroups.idempotents",
     "spectrum.calls", "spectrum.tight_points", "spectrum.filters", "germs.germ_arrows",
     "convolution.instances", "convolution.covers", "cli.requests",
     *REJECTIONS.values(), *(key for _, _, key in COUNTED)}
)


class Tracer:
    """Records spans (name, start, end, parent, request) and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        rejected = REJECTIONS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if rejected:
                    counts[rejected] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bind(self, original: object, wrapper: object) -> None:
        """Replace ``original`` by ``wrapper`` in every ample module."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ample" and not mod_name.startswith("ample."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, function, name, count in SPANNED:
            original = getattr(sys.modules[module], function)
            self._bind(original, self._span(name, original, count))
        for module, path, key in COUNTED:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._counter(key, original)
            if outer:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._bind(original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus the direct children's.

    The client is single-threaded, so children never overlap and their
    durations can simply be subtracted.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


LAYERS = ("formats", "groupoids", "semigroups", "spectrum", "germs", "reconstruction",
          "convolution", "cli")


def layer_metrics(spans: list[list], counts: dict[str, int], passes: int) -> dict[str, float]:
    """Every per-layer metric, per pass over the request mix."""
    own = self_times(spans)
    out = {name: own.get(name, 0.0) / passes for name in SPAN_NAMES}
    out.update({name: counts.get(name, 0) / passes for name in COUNT_NAMES})
    checks = out["spectrum.tightness_checks"]
    out["spectrum.tight_ratio"] = out["spectrum.tight_points"] / checks if checks else 0.0
    return out


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each layer's share of all traced self time."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name in SPAN_NAMES:
        totals[name.split(".")[0]] += metrics[name]
    whole = sum(totals.values()) or 1.0
    return {layer: t / whole for layer, t in totals.items()}
