"""Tests for bulk/incremental build equivalence and rehashing."""

import faulthandler

import numpy as np
import pytest

from repro import COO, DynamicGraph
from repro.api import Graph
from repro.util.errors import ValidationError
from tests.conftest import structure_state


def random_coo(rng, n=100, m=1500, weighted=True):
    return COO(
        rng.integers(0, n, m),
        rng.integers(0, n, m),
        n,
        weights=rng.integers(0, 100, m) if weighted else None,
    )


class TestBulkBuild:
    def test_requires_empty_graph(self, rng):
        g = DynamicGraph(num_vertices=10)
        g.insert_edges([0], [1])
        with pytest.raises(ValidationError):
            g.bulk_build(random_coo(rng, 10, 5))

    def test_grows_capacity_if_needed(self, rng):
        coo = random_coo(rng, 100, 200)
        g = DynamicGraph(num_vertices=4)
        g.bulk_build(coo)
        assert g.vertex_capacity >= 100

    def test_equals_streamed_inserts(self, rng):
        coo = random_coo(rng)
        bulk = DynamicGraph(num_vertices=coo.num_vertices)
        bulk.bulk_build(coo)

        streamed = DynamicGraph(num_vertices=coo.num_vertices)
        for batch in coo.batches(137):
            streamed.insert_edges(batch.src, batch.dst, batch.weights)
        assert structure_state(bulk) == structure_state(streamed)
        assert bulk.num_edges() == streamed.num_edges()

    def test_equals_incremental_build(self, rng):
        coo = random_coo(rng)
        bulk = DynamicGraph(num_vertices=coo.num_vertices)
        bulk.bulk_build(coo)
        inc = DynamicGraph(num_vertices=coo.num_vertices)
        inc.incremental_build(coo, batch_size=100)
        assert structure_state(bulk) == structure_state(inc)

    def test_undirected_bulk(self, rng):
        coo = random_coo(rng, 40, 300, weighted=False)
        g = DynamicGraph(num_vertices=40, directed=False, weighted=False)
        g.bulk_build(coo)
        ex_fwd = g.edge_exists(coo.src, coo.dst)
        ex_rev = g.edge_exists(coo.dst, coo.src)
        keep = coo.src != coo.dst
        assert ex_fwd[keep].all() and ex_rev[keep].all()

    def test_bucket_sizing_from_degrees(self, rng):
        """Bulk build sizes buckets a priori: no overflow chains at the
        default load factor."""
        coo = random_coo(rng, 50, 3000, weighted=False)
        g = DynamicGraph(num_vertices=50, weighted=False)
        g.bulk_build(coo)
        st = g.stats()
        assert st.mean_chain_length == pytest.approx(1.0, abs=0.1)

    def test_incremental_single_bucket_tables(self, rng):
        """Incremental build has no connectivity info: single buckets and
        multi-slab chains (the paper's worst case)."""
        # Few sources, many destinations => long per-table chains.
        src = rng.integers(0, 10, 3000)
        dst = rng.integers(0, 500, 3000)
        coo = COO(src, dst, 500)
        g = DynamicGraph(num_vertices=500, weighted=False)
        g.incremental_build(coo, batch_size=500)
        arena = g._dict.arena
        created = arena.table_buckets[arena.table_base != -1]
        assert (created == 1).all()
        assert g.stats().mean_chain_length > 1.5

    def test_on_batch_callback(self, rng):
        coo = random_coo(rng, 30, 450)
        calls = []
        g = DynamicGraph(num_vertices=30)
        g.incremental_build(coo, 100, on_batch=lambda i, n, a: calls.append((i, n)))
        assert [c[0] for c in calls] == list(range(5))
        assert sum(c[1] for c in calls) == 450


class TestRehash:
    def build_overloaded(self):
        """One vertex with a long chain in a single-bucket table."""
        g = DynamicGraph(num_vertices=8, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401) % 500 + 8)
        return g

    def test_candidates_detects_overload(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        cands = g.rehash_candidates(max_chain_slabs=2.0)
        assert 0 in cands.tolist()

    def test_rehash_preserves_state(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        before = structure_state(g)
        count_before = g.num_edges()
        g.rehash([0])
        assert structure_state(g) == before
        assert g.num_edges() == count_before

    def test_rehash_shortens_chains(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        chains_before = g.stats().mean_chain_length
        g.rehash([0])
        assert g.stats().mean_chain_length < chains_before
        assert g.rehash_candidates(2.0).size == 0

    def test_rehash_auto_selects_candidates(self):
        g = DynamicGraph(num_vertices=600, weighted=False)
        g.insert_edges(np.zeros(400, np.int64), np.arange(1, 401))
        rebuilt = g.rehash()
        assert rebuilt >= 1

    def test_rehash_weighted_preserves_weights(self, rng):
        g = DynamicGraph(num_vertices=600)
        dst = np.arange(1, 301)
        w = rng.integers(0, 99, 300)
        g.insert_edges(np.zeros(300, np.int64), dst, w)
        g.rehash([0])
        found, got = g.edge_weights(np.zeros(300, np.int64), dst)
        assert found.all() and np.array_equal(got, w)

    def test_flush_tombstones_graph_level(self, rng):
        g = DynamicGraph(num_vertices=50, weighted=False)
        src = rng.integers(0, 50, 800)
        dst = rng.integers(0, 50, 800)
        g.insert_edges(src, dst)
        g.delete_edges(src[:400], dst[:400])
        before = structure_state(g)
        g.flush_tombstones()
        assert structure_state(g) == before
        assert g.stats().tombstones == 0


class TestDuplicateTableIds:
    """A table id repeated in one maintenance call is one table: its slabs
    are freed once and its base slabs are never leaked."""

    @staticmethod
    def churned_graph():
        g = Graph.create("slabhash", 200, weighted=True)
        g.insert_edges(np.zeros(80, np.int64), np.arange(100, 180), np.arange(80))
        g.insert_edges(np.ones(20, np.int64), np.arange(100, 120), np.arange(20))
        g.delete_edges(np.zeros(50, np.int64), np.arange(100, 150))
        return g

    @staticmethod
    def assert_pool_sound(g):
        """Checked before any further insert: a doubly freed slab makes the
        next allocation hand one slab to two chains."""
        arena = g.backend._dict.arena
        free = arena.pool._free
        assert np.unique(free).size == free.size, f"free list repeats a slab: {np.sort(free)}"
        arena.pool.check_free_list(arena.table_base, arena.table_buckets)

    @pytest.mark.parametrize("op", ["flush_tombstones", "rehash", "delete_vertices"])
    def test_repeated_id_frees_each_slab_once(self, op):
        g = self.churned_graph()
        oracle = structure_state(g)
        result = getattr(g, op)([0, 0])
        self.assert_pool_sound(g)
        if op == "rehash":
            assert result == 1
        if op == "delete_vertices":
            oracle = {k: w for k, w in oracle.items() if 0 not in k}
        assert structure_state(g) == oracle
        # A corrupted pool used to hang the next insert; fail instead.
        faulthandler.dump_traceback_later(30, exit=True)
        try:
            g.insert_edges(np.zeros(60, np.int64), np.arange(130, 190), np.arange(60))
            g.insert_edges([1, 2], [5, 6], [1, 2])
        finally:
            faulthandler.cancel_dump_traceback_later()
        oracle.update(((0, d), w) for d, w in zip(range(130, 190), range(60)))
        oracle.update({(1, 5): 1, (2, 6): 2})
        assert structure_state(g) == oracle
        self.assert_pool_sound(g)

    def test_clear_tables_repeated_id(self):
        g = self.churned_graph()
        arena = g.backend._dict.arena
        allocated = arena.pool.num_allocated
        overflow = int((~arena.table_slabs(np.array([0]))[2]).sum())
        arena.clear_tables(np.array([0, 0]))
        self.assert_pool_sound(g)
        assert arena.pool.num_allocated == allocated - overflow
