"""In-memory span tracer installed from outside the program.

The traced run wraps public functions and methods of the library with
span-recording shims (see :func:`targets_for`); ``src/`` itself carries
no tracing code.  Shims are installed only for the traced rounds of a
traced run and removed again afterwards, so untraced rounds run the
original functions.

A span is ``[name, start_ns, end_ns, parent, ctx, rows, value]``:

- ``parent`` is the index of the enclosing span (-1 for a root);
- ``ctx`` names what the benchmark was doing: ``("round", r)``,
  ``("maint", r)`` for the maintenance after round ``r``, or
  ``("rebuild", i)``;
- ``rows`` is the batch size the call received (when it takes one);
- ``value`` is a per-call outcome (edges added, probes hit, ...).

The run is single-threaded, so the spans appended while a span is open
are exactly its descendants: ``spans[i + 1 : end_index]``.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

NAME, START, END, PARENT, CTX, ROWS, VALUE = range(7)

#: Span name -> the per-layer metric its self time is charged to.  A name
#: missing here charges its self time to its parent's metric.
SELF_METRIC = {
    "facade.normalize": "facade.normalize_ms",
    "facade.op": "facade.self_ms",
    "slabhash.insert": "slabhash.insert_ms",
    "slabhash.delete": "slabhash.delete_ms",
    "slabhash.search": "slabhash.search_ms",
    "slabhash.flush": "slabhash.flush_ms",
    "kernels.insert": "kernels.insert_ms",
    "kernels.search": "kernels.search_ms",
    "kernels.delete": "kernels.delete_ms",
    "kernels.walk": "kernels.walk_ms",
    "kernels.merge": "kernels.merge_ms",
    "eventlog.publish": "eventlog.publish_ms",
    "snapshot": "snapshot.ms",
    "stream.cc": "stream.cc_ms",
    "stream.pagerank": "stream.pagerank_ms",
    "stream.tc": "stream.tc_ms",
    "stream.bfs": "stream.bfs_ms",
    "stream.kcore": "stream.kcore_ms",
    "sharding.op": "sharding.router_ms",
    "persist.wal_append": "persist.wal_append_ms",
    "persist.sync": "persist.sync_ms",
    "persist.checkpoint": "persist.checkpoint_ms",
    "persist.scan": "persist.scan_ms",
    "persist.ckpt_load": "persist.ckpt_load_ms",
    "persist.replay": "persist.replay_ms",
}


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.ctx = None

    def wrap(self, name, fn, *, rows_arg=None, outcome=None):
        """A shim that records one span per call of ``fn``.

        ``rows_arg`` is the positional index of the batch argument whose
        length is recorded; ``outcome(args, result, descendants)`` derives
        the span's value after the call returns.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rows = len(args[rows_arg]) if rows_arg is not None else None
            rec = [name, 0, 0, stack[-1] if stack else -1, self.ctx, rows, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if outcome is not None:
                rec[VALUE] = outcome(args, result, spans[idx + 1 :])
            return result

        return traced

    @contextmanager
    def installed(self, targets, ctx):
        """Install ``targets`` (``(owner, attr, span_name, options)``
        tuples) for the duration of the block, recording under ``ctx``."""
        undo = []
        try:
            for owner, attr, name, opts in targets:
                had = attr in vars(owner)
                original = vars(owner)[attr] if had else None
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), **opts))
                undo.append((owner, attr, had, original))
            self.ctx = ctx
            yield
        finally:
            self.ctx = None
            for owner, attr, had, original in reversed(undo):
                if had:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- aggregation ---------------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Self time (ns) of every span: its duration minus its children's."""
        spans = self.spans
        dur = np.array([s[END] - s[START] for s in spans], dtype=np.int64)
        child = np.zeros(len(spans), dtype=np.int64)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        return dur - child

    def metric_of(self, i: int):
        """The metric span ``i``'s self time is charged to (or None)."""
        spans = self.spans
        while i >= 0:
            metric = SELF_METRIC.get(spans[i][NAME])
            if metric is not None:
                return metric
            i = spans[i][PARENT]
        return None

    def per_ctx(self, kind: str) -> dict:
        """``{ctx: {metric: self ms}}`` for every ctx of one kind."""
        selfs = self.self_times()
        out: dict = {}
        for i, s in enumerate(self.spans):
            ctx = s[CTX]
            if ctx is None or ctx[0] != kind:
                continue
            metric = self.metric_of(i)
            if metric is None:
                continue
            bucket = out.setdefault(ctx, {})
            bucket[metric] = bucket.get(metric, 0.0) + selfs[i] / 1e6
        return out

    def dump(self, path, header: dict) -> None:
        """Write ``header`` and then every span, one JSON object per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s[NAME],
                            "start_ns": s[START],
                            "end_ns": s[END],
                            "parent": s[PARENT],
                            "ctx": list(s[CTX]) if s[CTX] is not None else None,
                            "rows": s[ROWS],
                            "value": s[VALUE],
                        }
                    )
                    + "\n"
                )


# -- what the traced run wraps ------------------------------------------------------


def _added(args, result, descendants):
    return int(result)


def _hits(args, result, descendants):
    return int(np.count_nonzero(result))


def _snapshot_kind(args, result, descendants):
    """How a facade snapshot was served, read off the kernels it ran: a
    merge runs the merge kernels, a cold rebuild walks every chain."""
    names = {s[NAME] for s in descendants}
    if "kernels.merge" in names:
        return "merge"
    if "kernels.walk" in names:
        return "cold"
    return "cached"


def _analytic(args, result, descendants):
    """``[served without a cold pass, PageRank sweeps]`` of one query."""
    analytic = args[0]
    return [analytic.last_mode != "cold", int(getattr(analytic, "last_sweeps", 0))]


def _checkpoint_bytes(args, result, descendants):
    return sum(m.npz_path.stat().st_size for m in result)


def targets_for(graph, analytics=()) -> list:
    """Every public boundary the traced run wraps for ``graph`` (a
    ``Graph`` or a ``ShardedGraph``) and its attached analytics."""
    import repro.api.facade as facade
    import repro.api.sharding as sharding
    import repro.kernels.reference as ref
    import repro.persist.sharded as psharded
    from repro.api import Graph, ShardedGraph
    from repro.persist.sharded import ShardStores
    from repro.persist.wal import WalWriter

    targets = [
        (facade, "normalize_batch", "facade.normalize", {}),
        (sharding, "normalize_batch", "facade.normalize", {}),
        (Graph, "snapshot", "snapshot", {"outcome": _snapshot_kind}),
    ]
    for op in ("insert_edges", "delete_edges", "edge_exists", "degree"):
        targets.append((Graph, op, "facade.op", {"rows_arg": 1}))
    targets.append((Graph, "flush_tombstones", "facade.op", {}))
    for fn, name in (
        ("insert_round_map", "kernels.insert"),
        ("insert_round_set", "kernels.insert"),
        ("search_round_map", "kernels.search"),
        ("search_round_set", "kernels.search"),
        ("delete_round", "kernels.delete"),
        ("walk_chains", "kernels.walk"),
        ("sort_window_last", "kernels.merge"),
        ("merge_sorted_csr", "kernels.merge"),
    ):
        targets.append((ref, fn, name, {}))

    facades = [graph]
    if isinstance(graph, ShardedGraph):
        facades = list(graph.shards)
        for op in ("insert_edges", "delete_edges", "edge_exists", "degree"):
            targets.append((ShardedGraph, op, "sharding.op", {"rows_arg": 1}))
        targets.append((graph.events, "publish_edge_batch", "eventlog.publish", {}))
        if graph.stores is not None:
            targets += [
                (WalWriter, "append", "persist.wal_append", {}),
                (WalWriter, "flush", "persist.wal_flush", {}),
                (ShardStores, "sync", "persist.sync", {}),
                (ShardStores, "checkpoint", "persist.checkpoint", {"outcome": _checkpoint_bytes}),
                (psharded, "scan_wal", "persist.scan", {}),
                (psharded, "latest_valid_checkpoint", "persist.ckpt_load", {}),
                (psharded, "apply_event", "persist.replay", {}),
            ]
    for g in facades:
        backend = g.backend
        targets += [
            (backend, "insert_edges", "slabhash.insert", {"rows_arg": 0, "outcome": _added}),
            (backend, "delete_edges", "slabhash.delete", {"rows_arg": 0}),
            (backend, "edge_exists", "slabhash.search", {"rows_arg": 0, "outcome": _hits}),
            (backend, "degree", "slabhash.search", {"rows_arg": 0}),
            (backend, "flush_tombstones", "slabhash.flush", {}),
            (g.events, "publish_edge_batch", "eventlog.publish", {}),
        ]

    queries = {
        "IncrementalConnectedComponents": ("labels", "stream.cc"),
        "IncrementalPageRank": ("compute", "stream.pagerank"),
        "IncrementalTriangleCount": ("count", "stream.tc"),
        "IncrementalBFS": ("distances", "stream.bfs"),
        "IncrementalKCore": ("members", "stream.kcore"),
    }
    for analytic in analytics:
        cls = type(analytic)
        method, name = queries[cls.__name__]
        targets.append((cls, method, name, {"outcome": _analytic}))
    return targets
