"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload is one closed loop with one client: a round is issued only
after the previous one has returned.  The program sees only the batches
generated here from ``--seed``; every batch is a pure function of
``(seed, round)``, so a correctness check can regenerate the stream
instead of storing it.

- ``ingest``: update path alone (facade -> slab-hash drivers -> kernel
  rounds -> event publish).
- ``analytics``: snapshot merge and the incremental analytics, with a
  small update batch per round.
- ``service``: the ``ingest`` stream through a 4-shard router with a
  per-shard WAL, checkpoints and shard rebuilds.

See ``README.md`` in this directory for why each workload exists.
"""

from __future__ import annotations

import copy
import shutil
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analytics import (
    bfs,
    connected_components,
    kcore_membership,
    pagerank,
    undirected_triangles,
)
from repro.api import Graph, ShardedGraph
from repro.api.snapshot import CSRSnapshot
from repro.coo import COO
from repro.datasets.rmat import rmat_graph
from repro.gpusim.counters import get_counters
from repro.stream.incremental import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalTriangleCount,
)

#: RMAT edges per vertex before deduplication (scale 16 -> ~494k edges).
EDGE_FACTOR = 8
#: Edge weights are drawn from [1, MAX_WEIGHT).
MAX_WEIGHT = 1 << 20
#: WAL fsync policy of the ``service`` workload (one fsync per shard per
#: ``stores.sync()``, i.e. per round).
FSYNC = "batch"
#: PageRank tolerance of the ``analytics`` workload: the monitoring-grade
#: tolerance the ``t11`` stream artifact uses.
PAGERANK_TOL = 1e-5
PAGERANK_DAMPING = 0.85
BFS_SOURCE = 0
KCORE_K = 3


@dataclass(frozen=True)
class Size:
    """Input sizes and cadences of one workload."""

    scale: int
    batch: int
    probes: int = 0
    #: Deletes remove the insert batch of ``window`` rounds earlier.
    window: int = 0
    #: Rounds per epoch; the loop stops only at an epoch boundary, and
    #: the per-epoch maintenance (compaction, checkpoint) runs inside it.
    epoch: int = 1
    #: Exact counts are taken over the first ``count_rounds`` rounds.
    count_rounds: int = 50
    min_rounds: int = 100
    shards: int = 0
    #: Kill/rebuild passes over every shard after the loop.
    passes: int = 0


#: ``full`` is what the benchmark measures; ``tiny`` is the smoke test's.
PROFILES = {
    "full": {
        "setups": 3,
        "ingest": Size(16, 4096, 4096, window=8, epoch=100, count_rounds=100),
        "analytics": Size(15, 512, epoch=25, count_rounds=50),
        "service": Size(16, 4096, 4096, window=8, epoch=100, count_rounds=100, shards=4, passes=3),
    },
    "tiny": {
        "setups": 2,
        "ingest": Size(10, 256, 256, window=4, epoch=10, count_rounds=10, min_rounds=20),
        "analytics": Size(9, 64, epoch=5, count_rounds=10, min_rounds=20),
        "service": Size(
            10, 256, 256, window=4, epoch=10, count_rounds=10, min_rounds=20, shards=4, passes=1
        ),
    },
}


class Ops:
    """Counts operations attempted and failed; a failure does not stop
    the run (it is reported, and the correctness checks will see it)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any raised op is a counted failure
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None


@contextmanager
def uncounted():
    """Run a measurement-only call without moving the device counters."""
    counters = get_counters()
    saved = copy.deepcopy(vars(counters))
    try:
        yield
    finally:
        vars(counters).update(saved)


class Stream:
    """The seeded inputs: an RMAT seed graph and per-round batches."""

    def __init__(self, seed: int, size: Size, weighted: bool) -> None:
        self.seed = seed
        self.size = size
        self.n = 1 << size.scale
        self.weighted = weighted
        coo = rmat_graph(size.scale, EDGE_FACTOR, seed=seed, deduplicate=True).without_self_loops()
        weights = None
        if weighted:
            rng = np.random.default_rng([seed, 1 << 32])
            weights = rng.integers(1, MAX_WEIGHT, coo.num_edges)
        self.base = COO(coo.src, coo.dst, self.n, weights=weights)

    def batch(self, r: int):
        """Round ``r``'s inserts ``(src, dst, weights)`` and probes
        ``(src, dst)``: half the probes are seed edges (mostly hits),
        half uniform pairs (mostly misses)."""
        size, n = self.size, self.n
        rng = np.random.default_rng([self.seed, r])
        src = rng.integers(0, n, size.batch)
        dst = rng.integers(0, n, size.batch)
        w = rng.integers(1, MAX_WEIGHT, size.batch) if self.weighted else None
        probe = None
        if size.probes:
            half = size.probes // 2
            pick = rng.integers(0, self.base.num_edges, half)
            psrc = np.concatenate([self.base.src[pick], rng.integers(0, n, size.probes - half)])
            pdst = np.concatenate([self.base.dst[pick], rng.integers(0, n, size.probes - half)])
            probe = (psrc, pdst)
        return (src, dst, w), probe


def last_op_wins(stream: Stream, rounds: int):
    """NumPy oracle of the edge set after ``rounds`` rounds of the
    insert/delete stream; the last operation on a key decides it.

    Returns the sorted live composite keys ``src << 32 | dst``, their
    weights, and the sorted keys whose last operation was a delete.
    """
    window, base = stream.size.window, stream.base
    ops = [(base.src, base.dst, base.weights, True)]
    for r in range(1, rounds + 1):
        (src, dst, w), _ = stream.batch(r)
        ops.append((src, dst, w, True))
        if r > window:
            (src, dst, _), _ = stream.batch(r - window)
            ops.append((src, dst, np.zeros(src.size, dtype=np.int64), False))
    src = np.concatenate([op[0] for op in ops])
    dst = np.concatenate([op[1] for op in ops])
    w = np.concatenate([op[2] for op in ops])
    ins = np.concatenate([np.full(op[0].size, op[3]) for op in ops])
    keep = src != dst  # self-loops are dropped at the facade
    comp = (src[keep] << np.int64(32)) | dst[keep]
    w, ins = w[keep], ins[keep]
    order = np.argsort(comp, kind="stable")
    keys = comp[order]
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    final = order[last]
    alive = ins[final]
    return keys[last][alive], w[final][alive], keys[last][~alive]


def snapshot_keys(snap: CSRSnapshot):
    """Composite keys and weights of a sorted CSR snapshot."""
    return (snap.sources() << np.int64(32)) | snap.col_idx, snap.weights


def same_snapshot(a: CSRSnapshot, b: CSRSnapshot) -> bool:
    """Bit-for-bit equality of two snapshots."""
    if a.num_vertices != b.num_vertices or (a.weights is None) != (b.weights is None):
        return False
    same = np.array_equal(a.row_ptr, b.row_ptr) and np.array_equal(a.col_idx, b.col_idx)
    return same and (a.weights is None or np.array_equal(a.weights, b.weights))


class Workload:
    """One workload: ``setup`` builds it, ``round``/``maintain`` drive the
    timed loop, ``check`` verifies its outputs afterwards."""

    name = ""
    weighted = True

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.ops = Ops()
        self.g = None
        self.analytics: list = []

    def setup(self) -> None:
        self.stream = Stream(self.seed, self.size, self.weighted)
        self.build()

    def timed(self, timing, kind, rows, fn, *args):
        t0 = perf_counter()
        result = self.ops.call(fn, *args)
        timing[kind] = timing.get(kind, 0.0) + perf_counter() - t0
        timing[kind + "_rows"] = timing.get(kind + "_rows", 0) + rows
        return result

    def start_epoch(self, epoch: int) -> None:
        """Called before each epoch's first round, outside the timing."""

    def maintenance_due(self, r: int) -> bool:
        return False

    def slab_stats(self):
        """``(tombstones, slabs, buckets)`` summed over the slab tables."""
        with uncounted():
            stats = [g.backend.stats() for g in self.facades()]
        return (
            sum(st.tombstones for st in stats),
            sum(st.num_slabs for st in stats),
            sum(st.num_buckets for st in stats),
        )

    def facades(self) -> list:
        return [self.g]

    def close(self) -> None:
        pass


class _UpdateStream(Workload):
    """Shared round of ``ingest`` and ``service``: insert a batch, probe,
    delete the batch of ``window`` rounds earlier."""

    def setup(self) -> None:
        super().setup()
        self.history: deque = deque()

    def round(self, r: int, inputs, timing) -> None:
        (src, dst, w), (psrc, pdst) = inputs
        g = self.g
        self.timed(timing, "insert", src.size, g.insert_edges, src, dst, w)
        self.timed(timing, "query", psrc.size, g.edge_exists, psrc, pdst)
        self.timed(timing, "query", 0, g.degree, psrc)
        self.history.append((src, dst))
        if len(self.history) > self.size.window:
            old_src, old_dst = self.history.popleft()
            self.timed(timing, "delete", old_src.size, g.delete_edges, old_src, old_dst)

    def check(self, rounds: int) -> list:
        """The final edge set and a final probe batch against the oracle."""
        problems = []
        keys, weights, dead = last_op_wins(self.stream, rounds)
        got_keys, got_weights = snapshot_keys(self.g.snapshot())
        if not (np.array_equal(got_keys, keys) and np.array_equal(got_weights, weights)):
            problems.append(
                f"{self.name}: final edge set differs from the last-op-wins oracle "
                f"({got_keys.size} edges vs {keys.size})"
            )
        rng = np.random.default_rng([self.seed, (1 << 32) + 1])
        pool = np.concatenate([keys, dead]) if dead.size else keys
        probe = pool[rng.integers(0, pool.size, 2 * self.size.probes)]
        psrc, pdst = probe >> np.int64(32), probe & np.int64(0xFFFFFFFF)
        want = np.isin(probe, keys)
        if not np.array_equal(self.g.edge_exists(psrc, pdst), want):
            problems.append(f"{self.name}: final probe batch differs from the oracle")
        degree = np.bincount(keys >> np.int64(32), minlength=self.stream.n)
        if not np.array_equal(self.g.degree(psrc), degree[psrc]):
            problems.append(f"{self.name}: final degrees differ from the oracle")
        return problems


class Ingest(_UpdateStream):
    """One ``Graph`` facade; tombstones compacted once per epoch."""

    name = "ingest"

    def build(self) -> None:
        self.g = Graph.create("slabhash", self.stream.n, weighted=True)
        self.g.bulk_build(self.stream.base)

    def maintenance_due(self, r: int) -> bool:
        return r % self.size.epoch == 0

    def maintain(self, r: int) -> None:
        self.ops.call(self.g.flush_tombstones)


class Service(_UpdateStream):
    """``ShardedGraph`` with per-shard WALs; ``stores.sync()`` closes each
    round, a checkpoint runs mid-epoch and compaction at the epoch end, so
    the loop always ends ``epoch / 2`` rounds after the last checkpoint."""

    name = "service"

    def build(self) -> None:
        size = self.size
        self.g = ShardedGraph.create(
            "slabhash", self.stream.n, num_shards=size.shards, weighted=True
        )
        self.g.bulk_build(self.stream.base)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.g.attach_durability(self.workdir, fsync=FSYNC)

    def facades(self) -> list:
        return list(self.g.shards)

    def round(self, r: int, inputs, timing) -> None:
        super().round(r, inputs, timing)
        self.ops.call(self.g.stores.sync)

    def maintenance_due(self, r: int) -> bool:
        return r % self.size.epoch in (0, self.size.epoch // 2)

    def maintain(self, r: int) -> None:
        if r % self.size.epoch:
            self.ops.call(self.g.stores.checkpoint)
        else:
            for shard in self.g.shards:
                self.ops.call(shard.flush_tombstones)

    def wal_totals(self):
        """``(bytes, rows)`` appended by the live shard writers."""
        writers = self.g.stores.writers
        return sum(w.bytes_written for w in writers), sum(w.rows_written for w in writers)

    def recover(self, traced_rebuild):
        """Kill and rebuild every shard ``passes`` times.  Returns
        ``[(seconds, replayed_events, traced)]`` and any problems: every
        rebuilt snapshot must equal the pre-kill one bit for bit."""
        samples, problems = [], []
        g, i = self.g, 0
        for _ in range(self.size.passes):
            for s in range(g.num_shards):
                before, shard_before = g.snapshot(), g.shards[s].snapshot()
                g.kill_shard(s)
                with traced_rebuild(i) as traced:
                    t0 = perf_counter()
                    info = self.ops.call(g.rebuild_shard, s)
                    seconds = perf_counter() - t0
                if info is None:
                    problems.append(f"service: rebuild of shard {s} raised")
                    return samples, problems
                samples.append((seconds, info.replayed_events, traced))
                if not (
                    same_snapshot(g.shards[s].snapshot(), shard_before)
                    and same_snapshot(g.snapshot(), before)
                ):
                    problems.append(f"service: rebuilt shard {s} differs from its pre-kill state")
                i += 1
        return samples, problems

    def close(self) -> None:
        if self.g is not None and self.g.stores is not None:
            self.g.stores.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class Analytics(Workload):
    """One ``Graph`` with five incremental analytics attached and primed
    in set-up; a round inserts a batch, snapshots and queries all five.

    Inserts only grow the graph, and the analytics cost grows with it, so
    every epoch starts again from a copy of the primed state (taken
    outside the timing): a faster program runs more epochs of the same
    work instead of reaching a larger graph.
    """

    name = "analytics"
    weighted = False

    def build(self) -> None:
        g = Graph.create("slabhash", self.stream.n, weighted=False)
        g.bulk_build(self.stream.base)
        self.g = g
        self.cc = IncrementalConnectedComponents(g)
        self.pr = IncrementalPageRank(g, damping=PAGERANK_DAMPING, tol=PAGERANK_TOL)
        self.tc = IncrementalTriangleCount(g)
        self.bfs = IncrementalBFS(g, source=BFS_SOURCE)
        self.kcore = IncrementalKCore(g, k=KCORE_K)
        self.analytics = [self.cc, self.pr, self.tc, self.bfs, self.kcore]
        self.query()

    def start_epoch(self, epoch: int) -> None:
        if epoch == 0:
            self.primed = copy.deepcopy((self.g, self.analytics))
        else:
            self.g, self.analytics = copy.deepcopy(self.primed)
            self.cc, self.pr, self.tc, self.bfs, self.kcore = self.analytics

    def query(self):
        return (
            self.ops.call(self.cc.labels),
            self.ops.call(self.pr.compute),
            self.ops.call(self.tc.count),
            self.ops.call(self.bfs.distances),
            self.ops.call(self.kcore.members),
        )

    def round(self, r: int, inputs, timing) -> None:
        (src, dst, _), _ = inputs
        self.timed(timing, "insert", src.size, self.g.insert_edges, src, dst)
        self.ops.call(self.g.snapshot)
        self.query()

    def check(self, rounds: int) -> list:
        """All five answers against the cold kernels on a cold snapshot
        (PageRank within the L1 distance two ``tol``-converged iterates of
        one contraction can be apart: ``2 tol / (1 - damping)``)."""
        problems = []
        cold = CSRSnapshot.from_coo(self.g.backend.export_coo())
        if not same_snapshot(self.g.snapshot(), cold):
            problems.append("analytics: maintained snapshot differs from a cold snapshot")
        labels, ranks, triangles, dist, members = self.query()
        cold_ranks = pagerank(cold, damping=PAGERANK_DAMPING, tol=PAGERANK_TOL)
        checks = {
            "cc": np.array_equal(labels, connected_components(cold)),
            "pagerank": ranks is not None
            and np.abs(ranks - cold_ranks).sum() <= 2 * PAGERANK_TOL / (1 - PAGERANK_DAMPING),
            "tc": triangles == undirected_triangles(cold),
            "bfs": np.array_equal(dist, bfs(cold, BFS_SOURCE)),
            "kcore": np.array_equal(members, kcore_membership(cold, KCORE_K)),
        }
        problems += [f"analytics: {k} differs from its cold kernel" for k, ok in checks.items()
                     if not ok]
        return problems


WORKLOADS = {"ingest": Ingest, "analytics": Analytics, "service": Service}
