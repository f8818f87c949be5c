"""Spans around calls into routecat's modules, recorded from outside the program.

A *stage* function gets one span per call.  A *hot* function (called once
per document or per node score) gets no span of its own: its calls and
seconds are added to the innermost open span, so a million dot products
cost two numbers, not a million spans.  A span's self time is its duration
minus its child spans and minus the hot calls made directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from routecat import centroid, corpus, evaluation, policies, router, taxonomy

# (owner, attribute, label).  Module functions are patched wherever a routecat
# module bound them by name; class methods are patched on the class.
STAGES = [
    (corpus, "load_corpus", "corpus.load_corpus"),
    (corpus, "build_vocabulary", "corpus.build_vocabulary"),
    (corpus, "split_corpus", "corpus.split_corpus"),
    (policies, "positives_for_centroid", "policies.positives_for_centroid"),
    (policies, "build_training_set", "policies.build_training_set"),
    (policies, "most_specific_examples", "policies.most_specific_examples"),
    (centroid, "train", "centroid.train"),
    (centroid, "mean_vector", "centroid.mean_vector"),
    (centroid, "dumps_model", "centroid.dumps_model"),
    (centroid, "loads_model", "centroid.loads_model"),
    (router, "build_calibration", "router.build_calibration"),
    (router, "eer_threshold", "router.eer_threshold"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "flat_baseline", "evaluation.flat_baseline"),
    (evaluation, "generate_synthetic", "evaluation.generate_synthetic"),
]
HOT = [
    (corpus, "vectorize", "corpus.vectorize"),
    (corpus.SparseVector, "dot", "corpus.dot"),
    (centroid, "node_score", "centroid.node_score"),
    (router, "decode", "router.decode"),
    (taxonomy.Taxonomy, "ancestors", "taxonomy.relation"),
    (taxonomy.Taxonomy, "descendants", "taxonomy.relation"),
    (taxonomy.Taxonomy, "siblings", "taxonomy.relation"),
    (taxonomy.Taxonomy, "path", "taxonomy.relation"),
]
POLICY_STAGES = {label for owner, _, label in STAGES if owner is policies}


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    docs: int = 0  # length of a policy call's training set
    hot: dict[str, list] = field(default_factory=dict)  # label -> [calls, seconds]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def within(self, name: str) -> bool:
        span: Span | None = self
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Records spans in memory while :meth:`installed` has the wrappers in place."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._hot_depth = 0

    @contextlib.contextmanager
    def span(self, name: str, docs: int = 0) -> Iterator[Span]:
        s = Span(name, self._stack[-1] if self._stack else None, docs=docs)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.parent is not None:
                s.parent.child_s += s.duration
            self.spans.append(s)

    def _stage(self, label: str, fn: Callable) -> Callable:
        is_policy = label in POLICY_STAGES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(label, docs=len(args[0]) if is_policy else 0):
                return fn(*args, **kwargs)

        return wrapper

    def _hot(self, label: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._hot_depth -= 1
                owner = self._stack[-1]
                tally = owner.hot.setdefault(label, [0, 0.0])
                tally[0] += 1
                tally[1] += elapsed
                if self._hot_depth == 0:
                    owner.child_s += elapsed

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every stage and hot function; restore the originals on exit."""
        modules = [m for name, m in sys.modules.items() if name.startswith("routecat") and m is not None]
        undo: list[tuple[object, str, object]] = []
        for table, make in ((STAGES, self._stage), (HOT, self._hot)):
            for owner, attr, label in table:
                original = getattr(owner, attr)
                wrapper = make(label, original)
                targets = [owner] if isinstance(owner, type) else [
                    m for m in modules if getattr(m, attr, None) is original
                ]
                for target in targets:
                    undo.append((target, attr, original))
                    setattr(target, attr, wrapper)
        try:
            yield
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    # -- queries over the recorded spans --------------------------------------

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, names: set[str]) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def hot(self, label: str, under: str | None = None) -> tuple[int, float]:
        """(calls, seconds) of a hot function, optionally only inside spans named ``under``."""
        calls, seconds = 0, 0.0
        for s in self.spans:
            if label in s.hot and (under is None or s.within(under)):
                calls += s.hot[label][0]
                seconds += s.hot[label][1]
        return calls, seconds

    def outermost(self, names: set[str]) -> list[Span]:
        """Spans in ``names`` not nested inside another span in ``names``."""
        out = []
        for s in self.spans:
            if s.name in names and not (s.parent is not None and any(s.parent.within(n) for n in names)):
                out.append(s)
        return out
