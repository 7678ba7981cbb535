"""Compaction guard — an in-place tombstone flush must beat a rebuild.

Locks in the in-place compaction of
:func:`repro.slabhash.iterate.flush_tombstones`: on a churned slab arena
(RMAT scale 15 plus uniform inserts, then ~70 % of the live edges
deleted), one ``flush_tombstones`` must cost at most half of the
gather-clear-reinsert it replaced — spelled out here with the arena's
public ``iterate`` / ``clear_tables`` / ``insert`` on a deep copy of the
same arena.  The flush repacks each chain where it lies, so a second chain
walk, a hash-and-sort insert round or fresh slab allocation re-entering it
pushes the ratio toward 1 and trips the guard.

Both sides are timed in the same run and compared as a ratio of medians —
never as absolute times.  Marked ``slow`` (the suite-wide marker) so
constrained machines can skip it with ``-m 'not slow'``.
"""

import copy
from time import perf_counter

import numpy as np
import pytest

from repro.datasets.rmat import rmat_graph
from repro.slabhash.arena import SlabArena

SCALE = 15
EDGE_FACTOR = 8
LOAD_FACTOR = 0.7
DELETED = 0.7
REPEATS = 7
MAX_RATIO = 0.5


def churned_arena(seed: int = 3) -> SlabArena:
    """A weighted arena whose chains hold ~70 % tombstones."""
    base = rmat_graph(SCALE, EDGE_FACTOR, seed=seed, deduplicate=True).without_self_loops()
    n = base.num_vertices
    arena = SlabArena(n, weighted=True)
    degrees = np.bincount(base.src, minlength=n)
    arena.create_tables(np.arange(n), SlabArena.buckets_for(degrees, LOAD_FACTOR, 15))
    rng = np.random.default_rng(seed)
    arena.insert(base.src, base.dst, rng.integers(0, 1000, base.src.size))
    extra = base.src.size // 2  # uniform inserts grow overflow chains
    arena.insert(rng.integers(0, n, extra), rng.integers(0, n, extra), np.ones(extra))
    owners, keys, _ = arena.iterate(np.arange(n))
    doomed = rng.random(keys.size) < DELETED
    arena.delete(owners[doomed], keys[doomed])
    return arena


def rebuild_flush(arena: SlabArena, table_ids: np.ndarray) -> None:
    """The gather-clear-reinsert flush the in-place compaction replaced."""
    owners, keys, values = arena.iterate(table_ids)
    arena.clear_tables(table_ids)
    arena.insert(table_ids[owners], keys, values)


def measure_flush(seed: int = 3) -> tuple[list[float], list[float]]:
    """Per repeat, time one in-place flush and one rebuild, each on its own
    deep copy of the churned arena; returns ``(flush_s, rebuild_s)``."""
    arena = churned_arena(seed)
    ids = np.arange(arena.num_tables)
    want = sorted(zip(*(a.tolist() for a in arena.iterate(ids))))
    flush, rebuild = [], []
    for r in range(REPEATS):
        a, b = copy.deepcopy(arena), copy.deepcopy(arena)
        for side in (0, 1) if r % 2 else (1, 0):  # alternate which runs first
            t0 = perf_counter()
            if side:
                rebuild_flush(b, ids)
            else:
                a.flush_tombstones(ids)
            (rebuild if side else flush).append(perf_counter() - t0)
        assert sorted(zip(*(x.tolist() for x in a.iterate(ids)))) == want
        assert a.pool.num_allocated == b.pool.num_allocated
    return flush, rebuild


@pytest.mark.slow
def test_in_place_flush_beats_rebuild():
    flush, rebuild = measure_flush()
    ratio = float(np.median(flush) / np.median(rebuild))
    assert ratio <= MAX_RATIO, (
        f"in-place/rebuild flush ratio {ratio:.2f} exceeds {MAX_RATIO} "
        f"(median flush {np.median(flush) * 1e3:.1f} ms, "
        f"rebuild {np.median(rebuild) * 1e3:.1f} ms); "
        "the flush no longer compacts chains in place"
    )
