"""Wrappers around the calls into each layer, installed from outside the program.

Each wrapper is patched into the object the program looks the name up
on: a module global for functions (``parsicompact.contract.enumerate_cubic``
is the name ``most_compact_pipeline`` calls), a class attribute for
methods.  A missing target raises, so a rename cannot silently zero a
layer.

Coarse boundaries record spans (name, start, end, parent span, operation
id).  Hot calls only aggregate: calls, inclusive time and self time,
where self time is the call's duration minus the time of the wrapped
calls made directly inside it.  Most hot calls make no wrapped call
themselves; their wrappers skip that bookkeeping, which keeps the
tracing overhead down on the millions of calls a pass makes.
"""

from __future__ import annotations

import hashlib
import importlib
import time

# (metric name, "module:attribute path") -- the coarse boundaries.
SPANS = (
    ("cli.main", "parsicompact.cli:main"),
    ("contract.most_compact_pipeline", "parsicompact.cli:most_compact_pipeline"),
    ("enumeration.enumerate_cubic", "parsicompact.contract:enumerate_cubic"),
    ("enumeration.enumerate_mixed", "parsicompact.cli:enumerate_mixed"),
)

# Hot calls that make wrapped calls themselves.
NESTING = (
    ("tree.write_newick", "parsicompact.tree:MixedTree.write_newick"),
    ("contract.contract_and_update", "parsicompact.contract:contract_and_update"),
)

# Hot calls that make none; several targets may share one metric name.
LEAVES = (
    ("parsimony.cost", "parsicompact.parsimony:Scorer.cost"),
    ("parsimony.score", "parsicompact.parsimony:Scorer.score"),
    ("tree.canonical_key", "parsicompact.tree:MixedTree.canonical_key"),
    ("tree.grow", "parsicompact.tree:MixedTree.grow_rule_1"),
    ("tree.grow", "parsicompact.tree:MixedTree.grow_rule_2"),
    ("tree.grow", "parsicompact.tree:MixedTree.grow_rule_3"),
    ("tree.grow", "parsicompact.tree:MixedTree.grow_rule_4"),
    ("tree.grow", "parsicompact.tree:MixedTree.undo_growth"),
    ("tree.copy", "parsicompact.tree:MixedTree.copy"),
    ("tree.parse_newick", "parsicompact.cli:parse_newick"),
    ("contract.zero_min_cost_edges", "parsicompact.contract:zero_min_cost_edges"),
)

SEARCHES = ("enumeration.enumerate_cubic", "enumeration.enumerate_mixed")


def _resolve(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"trace target {target} no longer exists")
    return owner, attr


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def search_summary(record):
    """Counters and result digest of one SearchRecord."""
    keys = sorted(k.data for k in record.incumbents)
    return {
        "visited": record.visited,
        "pruned": record.pruned,
        "generated": record.generated,
        "mp_trees": len(record.incumbents),
        "incumbents_digest": hashlib.sha256(b"\n".join(keys)).hexdigest(),
    }


class Tracer:
    """Installs the wrappers, and collects stats, spans and search records."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.searches: list = []  # SearchRecord of each search, in call order
        self.op_id = 0
        self._frames = [[0.0]]  # time covered by wrapped children, per open call
        self._open_spans: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        """Zero the stats in place (the installed wrappers hold them)."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.total = 0.0
            stat.self_time = 0.0
        self.searches = []

    def install(self):
        for name, target in SPANS:
            self._patch(name, target, self._span_wrapper)
        for name, target in NESTING:
            self._patch(name, target, self._hot_wrapper)
        for name, target in LEAVES:
            self._patch(name, target, self._leaf_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch(self, name, target, make):
        owner, attr = _resolve(target)
        original = vars(owner)[attr]
        stat = self.stats.setdefault(name, Stat())
        setattr(owner, attr, make(name, original, stat))
        self._saved.append((owner, attr, original))

    def _hot_wrapper(self, name, fn, stat):
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                frames.pop()
                frames[-1][0] += d
                stat.calls += 1
                stat.total += d
                stat.self_time += d - frame[0]

        return wrapper

    def _leaf_wrapper(self, name, fn, stat):
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            d = clock() - t0
            frames[-1][0] += d
            stat.calls += 1
            stat.total += d
            stat.self_time += d
            return result

        return wrapper

    def _span_wrapper(self, name, fn, stat):
        frames = self._frames
        clock = time.perf_counter
        spans = self.spans
        open_spans = self._open_spans
        is_search = name in SEARCHES

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                open_spans.pop()
                frames.pop()
                frames[-1][0] += d
                stat.calls += 1
                stat.total += d
                stat.self_time += d - frame[0]
                spans[sid] = {
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "op": self.op_id,
                }
            if is_search:
                self.searches.append(result)
            return result

        return wrapper
