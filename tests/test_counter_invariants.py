"""Invariant tests for the incrementally maintained aggregate counters.

The hot-path rework made ``num_edges()`` / ``num_active_vertices()`` O(1)
reads of counters that every mutation updates incrementally (scatter-adds
over the batch, never a capacity-sized scan).  These tests hammer the
mutation API with randomized workloads and verify the incremental
aggregates always equal the ground-truth full-array sums.
"""

import numpy as np
import pytest

from repro import DynamicGraph
from repro.core.vertex_dict import VertexDictionary
from repro.gpusim.wcws import delete_vertices_reference, insert_edges_reference
from repro.slabhash.constants import EMPTY_KEY


def assert_aggregates_exact(g: DynamicGraph):
    """The incremental counters must equal the full-array ground truth."""
    vd = g._dict
    assert g.num_edges() == int(vd.edge_count.sum())
    assert g.num_active_vertices() == int(np.count_nonzero(vd.active))
    vd.check_invariants()  # the library's own debug check agrees


@pytest.mark.parametrize("directed", [True, False])
def test_randomized_workload_keeps_aggregates_exact(rng, directed):
    n = 120
    g = DynamicGraph(num_vertices=n, weighted=False, directed=directed)
    g._dict.debug_invariants = True  # re-verify after every mutation
    for step in range(12):
        src = rng.integers(0, n, 90)
        dst = rng.integers(0, n, 90)
        g.insert_edges(src, dst)
        assert_aggregates_exact(g)
        g.delete_edges(rng.integers(0, n, 40), rng.integers(0, n, 40))
        assert_aggregates_exact(g)
        if step % 3 == 0:
            g.delete_vertices(rng.choice(n, size=5, replace=False))
            assert_aggregates_exact(g)


def test_aggregates_survive_capacity_growth(rng):
    g = DynamicGraph(num_vertices=8, weighted=False)
    g.insert_edges([0, 1, 2], [1, 2, 3])
    before_edges, before_active = g.num_edges(), g.num_active_vertices()
    g.insert_vertices([500])  # forces dictionary doubling
    assert g.vertex_capacity >= 501
    assert g.num_edges() == before_edges
    assert g.num_active_vertices() == before_active + 1
    assert_aggregates_exact(g)


def test_aggregates_exact_under_wcws_reference_engine(rng):
    """The scalar Algorithm 1/2 reference path maintains the same counters."""
    n = 48
    g = DynamicGraph(num_vertices=n, weighted=True, directed=False)
    g._dict.debug_invariants = True
    src = rng.integers(0, n, 64)
    dst = rng.integers(0, n, 64)
    w = rng.integers(0, 100, 64)
    both_s = np.concatenate([src, dst])
    both_d = np.concatenate([dst, src])
    insert_edges_reference(g, both_s, both_d, np.concatenate([w, w]))
    assert_aggregates_exact(g)
    delete_vertices_reference(g, np.array([3, 9, 11]))
    assert_aggregates_exact(g)


def test_duplicate_heavy_batches(rng):
    """Duplicates within a batch must not double-credit any counter."""
    g = DynamicGraph(num_vertices=16, weighted=True)
    g._dict.debug_invariants = True
    src = np.array([1, 1, 1, 2, 2, 1])
    dst = np.array([2, 2, 2, 3, 3, 2])
    added = g.insert_edges(src, dst, weights=[1, 2, 3, 4, 5, 6])
    assert added == 2  # (1,2) once, (2,3) once
    assert g.num_edges() == 2
    removed = g.delete_edges([1, 1, 2], [2, 2, 3])
    assert removed == 2  # only one delete of a pair succeeds
    assert g.num_edges() == 0
    assert_aggregates_exact(g)


def test_zero_edge_counts_collapses_duplicates():
    vd = VertexDictionary(8, weighted=False)
    vd.add_edge_counts(np.array([3, 3, 5]))
    dropped = vd.zero_edge_counts(np.array([3, 3, 5, 5]))
    assert dropped == 3
    assert vd.total_edges() == 0
    vd.check_invariants()


def test_activate_deactivate_count_unique_flips():
    vd = VertexDictionary(8, weighted=False)
    vd.activate(np.array([1, 1, 2, 2, 3]))
    assert vd.num_active() == 3
    vd.activate(np.array([2, 3]))  # already active: no change
    assert vd.num_active() == 3
    flipped = vd.deactivate(np.array([2, 2, 7]))
    assert flipped.tolist() == [2]  # 7 was never active
    assert vd.num_active() == 2
    vd.check_invariants()


def test_debug_mode_catches_desync():
    """The debug invariant actually fires when counters are corrupted."""
    vd = VertexDictionary(8, weighted=False)
    vd.debug_invariants = True
    vd.edge_count[0] = 5  # illegal direct write desyncs the aggregate
    with pytest.raises(AssertionError):
        vd.add_edge_counts(np.array([1]))


def test_debug_mode_catches_key_after_empty_lane():
    """The slab debug check fires on a hand-corrupted slab: an empty lane
    before a key breaks the suffix the probe kernels' lane arithmetic and
    last-lane miss test rely on."""
    g = DynamicGraph(num_vertices=8, weighted=True)
    g._dict.debug_invariants = True
    g.insert_edges([0, 0], [1, 2], weights=[5, 6])  # one bucket: lanes 0, 1
    slab = int(g._dict.arena.table_base[0])
    g._dict.arena.pool.keys[slab, 0] = EMPTY_KEY
    with pytest.raises(AssertionError, match="after an empty lane"):
        g.insert_edges([3], [4], weights=[1])


@pytest.mark.parametrize(
    ("corrupt", "match"),
    [
        ("double_free", "twice"),
        ("free_base", "base slab"),
        ("free_linked", "linked from an allocated slab"),
    ],
)
def test_debug_mode_catches_corrupted_free_list(corrupt, match):
    """The free-list debug check fires on a hand-corrupted pool: a slab
    the allocator could hand out while a chain still owns it."""
    g = DynamicGraph(num_vertices=64, weighted=True)
    g._dict.debug_invariants = True
    g.insert_edges(np.repeat([0, 1], 40), np.tile(np.arange(2, 42), 2), weights=np.arange(80))
    g.delete_vertices([0])  # frees vertex 0's overflow slabs
    arena = g._dict.arena
    pool = arena.pool
    assert pool.free_list_size() > 0
    slabs, _, is_base = arena.table_slabs(np.array([1]))
    if corrupt == "double_free":
        pool.free(pool._free[:1])
    elif corrupt == "free_base":
        pool.free(slabs[is_base][:1])
    else:
        pool.free(slabs[~is_base][:1])
    with pytest.raises(AssertionError, match=match):
        g._dict.check_invariants()
