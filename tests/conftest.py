import contextlib
import time

import pytest

from ample import (
    bisection_semigroup,
    corpus,
    enumerate_bisections,
    run_reconstruction,
    singleton_semigroup,
)
from ample.errors import BoundExceeded


@pytest.fixture(scope="session")
def corpus_groupoids():
    return corpus()


class CorpusRun:
    """One (instance, collection) pair with everything derived, built lazily."""

    def __init__(self, name, groupoid, collection_name, masks):
        self.name = name
        self.groupoid = groupoid
        self.collection_name = collection_name
        self.masks = masks
        self._bs = None
        self._run = None

    @property
    def label(self):
        return f"{self.name}/{self.collection_name}"

    @property
    def bisection_semigroup(self):
        if self._bs is None:
            self._bs = bisection_semigroup(self.groupoid, self.masks)
        return self._bs

    @property
    def run(self):
        if self._run is None:
            self._run = run_reconstruction(self.bisection_semigroup, seed=0)
        return self._run


@pytest.fixture(scope="session")
def corpus_runs(corpus_groupoids):
    runs = []
    for name, G in corpus_groupoids.items():
        runs.append(CorpusRun(name, G, "singleton", singleton_semigroup(G)))
        try:
            full = enumerate_bisections(G)
        except BoundExceeded:
            continue
        runs.append(CorpusRun(name, G, "ample", full))
    return runs


@contextlib.contextmanager
def criterion(name):
    """Print one pass/fail line per acceptance criterion."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
