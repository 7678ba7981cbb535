"""The delta-aware analytics family: incremental TC, BFS/SSSP, k-core.

Mirrors the CC/PageRank contract suites: on every registered backend,
every new incremental analytic's answer is bit-identical to the cold
kernel on the live snapshot after insert-heavy, delete, churn, and
out-of-band-mutation windows — the incremental path is an optimization,
never an approximation.  The shared-kernel regression pins the Table IX
dynamic TC and the streaming TC to one wedge-closure kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.analytics import (
    bfs,
    connected_components,
    dynamic_triangle_count,
    kcore_membership,
    sssp,
    undirected_triangles,
)
from repro.api import Graph
from repro.api.snapshot import CSRSnapshot
from repro.gpusim.counters import counting
from repro.stream import (
    IncrementalBFS,
    IncrementalKCore,
    IncrementalSSSP,
    IncrementalTriangleCount,
    insert_heavy_scenario,
    quick_scenarios,
    run_scenario,
)
from repro.util.errors import ValidationError

ALL_BACKENDS = sorted(api.backend_names())

#: The family members the unweighted scenario gate prices.
UNWEIGHTED_FAMILY = ("cc", "pagerank", "tc", "bfs", "kcore")


def cold_snapshot(g) -> CSRSnapshot:
    """The cold reference view: a from-scratch sort of the live edge set."""
    return CSRSnapshot.from_coo(g.backend.export_coo())


def make_family(g, source=0, k=3):
    """All four new analytics attached to one facade (sssp iff weighted)."""
    fam = {
        "tc": IncrementalTriangleCount(g),
        "bfs": IncrementalBFS(g, source=source),
        "kcore": IncrementalKCore(g, k=k),
    }
    if g.weighted:
        fam["sssp"] = IncrementalSSSP(g, source=source)
    return fam


def assert_family_exact(g, fam, expect_modes=None):
    """Every member equals its cold kernel on the live snapshot."""
    snap = cold_snapshot(g)
    answers = {
        "tc": (fam["tc"].count(), undirected_triangles(snap)),
        "bfs": (fam["bfs"].distances(), bfs(snap, fam["bfs"].source)),
        "kcore": (fam["kcore"].members(), kcore_membership(snap, fam["kcore"].k)),
    }
    if "sssp" in fam:
        answers["sssp"] = (fam["sssp"].distances(), sssp(snap, fam["sssp"].source))
    for name, (got, cold) in answers.items():
        if name == "tc":
            assert got == cold, (name, got, cold)
        else:
            assert np.array_equal(got, cold), name
    if expect_modes is not None:
        for name, inc in fam.items():
            assert inc.last_mode in expect_modes, (name, inc.last_mode)


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_family_exact_through_all_window_kinds(name):
    """The acceptance bar: exactness through insert-heavy, delete, churn,
    and out-of-band windows, on every backend."""
    n = 128
    rng = np.random.default_rng(11)
    weighted = api.capabilities(name).weighted
    g = Graph.create(name, num_vertices=n, weighted=weighted)

    def weights(size):
        return rng.integers(1, 50, size) if weighted else None

    g.insert_edges(rng.integers(0, n, 300), rng.integers(0, n, 300), weights(300))
    fam = make_family(g)
    assert_family_exact(g, fam)  # initial cold build

    for _ in range(3):  # insert-heavy windows fold incrementally
        g.insert_edges(rng.integers(0, n, 40), rng.integers(0, n, 40), weights(40))
        assert_family_exact(g, fam, expect_modes=("incremental", "cold"))

    assert_family_exact(g, fam, expect_modes=("cached",))  # no new events

    coo = g.export_coo()  # delete window: every member re-runs cold
    g.delete_edges(coo.src[:60], coo.dst[:60])
    assert_family_exact(g, fam, expect_modes=("cold",))

    g.insert_edges([1, 2], [2, 3], weights(2))  # cold pass re-anchored the cursor
    assert_family_exact(g, fam, expect_modes=("incremental", "cold"))

    if g.capabilities.vertex_dynamic:  # churn window: structural → cold
        g.delete_vertices([5, 6, 7])
        assert_family_exact(g, fam, expect_modes=("cold",))

    # Out-of-band mutation bypassing the facade: the version check must
    # catch it even though no event was published.
    if weighted:
        g.backend.insert_edges(np.array([0]), np.array([100]), np.array([7]))
    else:
        g.backend.insert_edges(np.array([0]), np.array([100]))
    assert_family_exact(g, fam, expect_modes=("cold",))


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_family_exact_after_every_phase_every_quick_scenario(name):
    """Scenario-level contract: validate=True re-derives the cold
    references after every phase with the whole family subscribed."""
    for scn in quick_scenarios():
        run_scenario(
            scn,
            name,
            mode="incremental",
            tol=1e-10,
            max_iters=500,
            validate=True,
            analytics=UNWEIGHTED_FAMILY,
        )
    if api.capabilities(name).weighted:
        wscn = insert_heavy_scenario(1 << 10, batch=64, rounds=2, weighted=True)
        run_scenario(
            wscn,
            name,
            mode="incremental",
            tol=1e-10,
            max_iters=500,
            validate=True,
            analytics=("cc", "pagerank", "tc", "bfs", "sssp", "kcore"),
        )


class TestIncrementalTriangleCount:
    def make(self, n=96, seed=5, directed=True):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n, directed=directed)
        g.insert_edges(rng.integers(0, n, 250), rng.integers(0, n, 250))
        return g, rng

    def test_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        tc = IncrementalTriangleCount(g)
        for _ in range(4):
            g.insert_edges(rng.integers(0, 96, 25), rng.integers(0, 96, 25))
            got = tc.count()
            assert tc.last_mode == "incremental"
            assert got == undirected_triangles(cold_snapshot(g))

    def test_duplicate_and_reversed_inserts_change_nothing(self):
        g, _ = self.make()
        tc = IncrementalTriangleCount(g)
        before = tc.count()
        coo = g.export_coo()
        # Re-insert existing edges and their reversals: the undirected
        # view is unchanged, so the count must not move.
        g.insert_edges(coo.src[:30], coo.dst[:30])
        g.insert_edges(coo.dst[:30], coo.src[:30])
        assert tc.count() == before == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "incremental"

    def test_batch_closing_its_own_triangle_counted_once(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([6], [7])
        tc = IncrementalTriangleCount(g)
        assert tc.count() == 0
        # All three edges of a triangle arrive in one batch (plus a
        # duplicate orientation): exactly one new triangle.
        g.insert_edges([0, 1, 2, 1], [1, 2, 0, 0], None)
        assert tc.count() == 1
        assert tc.last_mode == "incremental"
        # Two batches each closing wedges against the other's edges:
        # {0,1,3}, {0,2,3}, {1,2,3} join the original {0,1,2}.
        g.insert_edges([0, 1], [3, 3])
        g.insert_edges([2, 3], [3, 4])
        assert tc.count() == undirected_triangles(cold_snapshot(g)) == 4

    def test_delete_goes_cold_then_reanchors(self):
        g, rng = self.make()
        tc = IncrementalTriangleCount(g)
        coo = g.export_coo()
        g.delete_edges(coo.src[:40], coo.dst[:40])
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "cold"
        g.insert_edges(rng.integers(0, 96, 10), rng.integers(0, 96, 10))
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "incremental"

    def test_undirected_facade(self):
        g, rng = self.make(directed=False)
        tc = IncrementalTriangleCount(g)
        for _ in range(3):
            g.insert_edges(rng.integers(0, 96, 20), rng.integers(0, 96, 20))
            assert tc.count() == undirected_triangles(cold_snapshot(g))
            assert tc.last_mode == "incremental"

    def test_retention_gap_forces_cold(self):
        g = Graph.create("slabhash", num_vertices=32, snapshot_delta_limit=4)
        g.insert_edges([0, 1], [1, 2])
        tc = IncrementalTriangleCount(g)
        tc.count()
        # One batch larger than retention: trimmed immediately, the
        # cursor observes a gap instead of the events.
        rng = np.random.default_rng(0)
        g.insert_edges(rng.integers(0, 32, 12), rng.integers(0, 32, 12))
        assert tc.count() == undirected_triangles(cold_snapshot(g))
        assert tc.last_mode == "cold"


class TestIncrementalDistances:
    def make(self, n=96, seed=7, weighted=True):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n, weighted=weighted)
        w = rng.integers(1, 60, 260) if weighted else None
        g.insert_edges(rng.integers(0, n, 260), rng.integers(0, n, 260), w)
        return g, rng

    def test_bfs_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make(weighted=False)
        inc = IncrementalBFS(g, source=3)
        inc.distances()  # one-off cold init (the scenario runner's prime)
        for _ in range(4):
            g.insert_edges(rng.integers(0, 96, 25), rng.integers(0, 96, 25))
            got = inc.distances()
            assert inc.last_mode == "incremental"
            assert np.array_equal(got, bfs(cold_snapshot(g), 3))

    def test_bfs_newly_reachable_region(self):
        g = Graph.create("slabhash", num_vertices=8)
        g.insert_edges([0, 4, 5], [1, 5, 6])  # 4-5-6 unreachable from 0
        inc = IncrementalBFS(g)
        assert inc.distances().tolist() == [0, 1, -1, -1, -1, -1, -1, -1]
        g.insert_edges([1], [4])  # bridges the far component
        assert inc.distances().tolist() == [0, 1, -1, -1, 2, 3, 4, -1]
        assert inc.last_mode == "incremental"

    def test_sssp_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        inc = IncrementalSSSP(g, source=3)
        inc.distances()  # one-off cold init
        for _ in range(4):
            # Fresh vertex pairs mostly; grown upserts on duplicate keys
            # legitimately force cold, asserted separately below.
            got_mode_exact = None
            g.insert_edges(
                rng.integers(0, 96, 25), rng.integers(0, 96, 25), rng.integers(1, 60, 25)
            )
            got = inc.distances()
            got_mode_exact = inc.last_mode
            assert got_mode_exact in ("incremental", "cold")
            assert np.array_equal(got, sssp(cold_snapshot(g), 3))

    def test_sssp_shrinking_upsert_repairs_incrementally(self):
        g = Graph.create("slabhash", num_vertices=6, weighted=True)
        g.insert_edges([0, 1, 0], [1, 2, 2], [4, 4, 20])
        inc = IncrementalSSSP(g)
        assert inc.distances().tolist() == [0, 4, 8, -1, -1, -1]
        g.insert_edges([0], [2], [5])  # weight 20 → 5: distances only drop
        assert inc.distances().tolist() == [0, 4, 5, -1, -1, -1]
        assert inc.last_mode == "incremental"

    def test_sssp_growing_upsert_falls_back_cold(self):
        g = Graph.create("slabhash", num_vertices=6, weighted=True)
        g.insert_edges([0, 1, 0], [1, 2, 2], [4, 4, 5])
        inc = IncrementalSSSP(g)
        assert inc.distances().tolist() == [0, 4, 5, -1, -1, -1]
        g.insert_edges([0], [2], [20])  # weight 5 → 20: paths can lengthen
        assert inc.distances().tolist() == [0, 4, 8, -1, -1, -1]
        assert inc.last_mode == "cold"

    def test_delete_goes_cold(self):
        g, _ = self.make()
        inc = IncrementalSSSP(g, source=3)
        coo = g.export_coo()
        g.delete_edges(coo.src[:50], coo.dst[:50])
        assert np.array_equal(inc.distances(), sssp(cold_snapshot(g), 3))
        assert inc.last_mode == "cold"

    def test_sssp_requires_weighted_graph(self):
        g, _ = self.make(weighted=False)
        with pytest.raises(ValidationError):
            IncrementalSSSP(g)

    def test_source_out_of_range_rejected(self):
        g, _ = self.make(n=16)
        with pytest.raises(ValidationError):
            IncrementalBFS(g, source=16)
        with pytest.raises(ValidationError):
            IncrementalBFS(g, source=-1)

    def test_undirected_window_mirrors_pending_edges(self):
        g = Graph.create("slabhash", num_vertices=6, weighted=True, directed=False)
        g.insert_edges([0], [1], [3])
        inc = IncrementalSSSP(g)
        inc.distances()  # one-off cold init
        # The event carries (2, 0) once; the repair must also relax the
        # mirrored (0, 2) orientation the undirected backend stored.
        g.insert_edges([2], [0], [7])
        assert inc.distances().tolist() == [0, 3, 7, -1, -1, -1]
        assert inc.last_mode == "incremental"


#: (u, d) pairs the k-core stream test maps to edges u -> (u + d) mod 16.
_EDGE_PAIRS = st.tuples(st.integers(0, 15), st.integers(1, 15))


class TestIncrementalKCore:
    def make(self, n=96, seed=13):
        rng = np.random.default_rng(seed)
        g = Graph.create("slabhash", num_vertices=n)
        g.insert_edges(rng.integers(0, n, 300), rng.integers(0, n, 300))
        return g, rng

    def test_insert_only_stays_incremental_and_exact(self):
        g, rng = self.make()
        kc = IncrementalKCore(g, k=3)
        kc.members()  # one-off cold init
        for _ in range(4):
            g.insert_edges(rng.integers(0, 96, 30), rng.integers(0, 96, 30))
            got = kc.members()
            assert kc.last_mode == "incremental"
            assert np.array_equal(got, kcore_membership(cold_snapshot(g), 3))

    def test_promotion_cascade_through_new_edges(self):
        # A directed 3-cycle with k=2: each vertex needs out-degree 2
        # within the core, reached only once the chords arrive.
        g = Graph.create("slabhash", num_vertices=6)
        g.insert_edges([0, 1, 2], [1, 2, 0])
        kc = IncrementalKCore(g, k=2)
        assert not kc.members().any()
        g.insert_edges([0, 1, 2], [2, 0, 1])  # now a complete digraph on 3
        got = kc.members()
        assert kc.last_mode == "incremental"
        assert got.tolist() == [True, True, True, False, False, False]
        assert np.array_equal(got, kcore_membership(cold_snapshot(g), 2))

    def test_multi_hop_cascade_directed(self):
        # k=2 over a complete digraph core {0, 1, 2}.  Chain 3 -> 4 -> 5
        # each points at one core vertex; inserting 5 -> 0 promotes 5, then
        # 4, then 3 (two reverse hops from the seed).  6 and 7 join the
        # candidate region but peel away (7 -> 8 leads nowhere).
        g = Graph.create("slabhash", num_vertices=9)
        g.insert_edges(
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 7, 7],
            [1, 2, 0, 2, 0, 1, 0, 4, 1, 5, 2, 3, 7, 6, 8],
        )
        kc = IncrementalKCore(g, k=2)
        assert kc.members().tolist() == [True] * 3 + [False] * 6
        g.insert_edges([5], [0])
        got = kc.members()
        assert kc.last_mode == "incremental"
        assert got.tolist() == [True] * 6 + [False] * 3
        assert np.array_equal(got, kcore_membership(cold_snapshot(g), 2))

    def test_multi_hop_cascade_undirected(self):
        # The triangle {0, 1, 2} is the 2-core; the path 2-3-4-5 dangles.
        # Closing it with 5-0 promotes 5, 4 and 3 (two hops from the seed
        # 5), while the 3-6-7 spur stays out.
        g = Graph.create("slabhash", num_vertices=8, directed=False)
        g.insert_edges([0, 1, 2, 2, 3, 4, 3, 6], [1, 2, 0, 3, 4, 5, 6, 7])
        kc = IncrementalKCore(g, k=2)
        assert kc.members().tolist() == [True] * 3 + [False] * 5
        g.insert_edges([5], [0])
        got = kc.members()
        assert kc.last_mode == "incremental"
        assert got.tolist() == [True] * 6 + [False] * 2
        assert np.array_equal(got, kcore_membership(cold_snapshot(g), 2))

    def test_in_edges_from_non_candidates_are_skipped(self):
        # Feeders 9..14 have out-degree 1 < k: neither core nor candidate,
        # yet each points into the cascade chain — the edges the reverse
        # index leaves out.  The repair must still be exact.
        g = Graph.create("slabhash", num_vertices=15)
        g.insert_edges(
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5] + list(range(9, 15)),
            [1, 2, 0, 2, 0, 1, 0, 4, 1, 5, 2] + [3, 4, 5, 3, 4, 5],
        )
        kc = IncrementalKCore(g, k=2)
        old = kc.members()
        g.insert_edges([5], [0])
        snap = cold_snapshot(g)
        candidate = ~old & (snap.out_degrees() >= 2)
        src = snap.sources()
        into_cand = candidate[snap.col_idx]
        assert (into_cand & ~candidate[src] & ~old[src]).sum() == 6
        got = kc.members()
        assert kc.last_mode == "incremental"
        assert got.tolist() == [True] * 6 + [False] * 9
        assert np.array_equal(got, kcore_membership(snap, 2))

    @settings(max_examples=40, deadline=None)
    @given(
        directed=st.booleans(),
        k=st.integers(1, 3),
        base=st.lists(_EDGE_PAIRS, max_size=40),
        batches=st.lists(st.lists(_EDGE_PAIRS, min_size=1, max_size=12), min_size=1, max_size=4),
    )
    def test_insert_only_stream_matches_cold(self, directed, k, base, batches):
        # The pair mapping never makes a self-loop, so every batch
        # publishes an event.
        n = 16

        def edges(pairs):
            u = np.array([p[0] for p in pairs], dtype=np.int64)
            return u, (u + np.array([p[1] for p in pairs], dtype=np.int64)) % n

        g = Graph.create("slabhash", num_vertices=n, directed=directed)
        if base:
            g.insert_edges(*edges(base))
        kc = IncrementalKCore(g, k=k)
        kc.members()  # one-off cold init
        for batch in batches:
            g.insert_edges(*edges(batch))
            got = kc.members()
            assert kc.last_mode == "incremental"
            assert np.array_equal(got, kcore_membership(cold_snapshot(g), k))

    def test_delete_goes_cold_then_reanchors(self):
        g, rng = self.make()
        kc = IncrementalKCore(g, k=3)
        coo = g.export_coo()
        g.delete_edges(coo.src[:60], coo.dst[:60])
        assert np.array_equal(kc.members(), kcore_membership(cold_snapshot(g), 3))
        assert kc.last_mode == "cold"
        g.insert_edges(rng.integers(0, 96, 15), rng.integers(0, 96, 15))
        assert np.array_equal(kc.members(), kcore_membership(cold_snapshot(g), 3))
        assert kc.last_mode == "incremental"

    def test_bad_k_rejected(self):
        g, _ = self.make(n=8)
        with pytest.raises(ValidationError):
            IncrementalKCore(g, k=0)


class TestSharedWedgeKernel:
    """dynamic_triangle_count and IncrementalTriangleCount drive one
    wedge-closure kernel: identical counts, same counter kinds."""

    def rounds(self, seed=21, n=64, per=40, count=4):
        rng = np.random.default_rng(seed)
        return [
            (rng.integers(0, n, per).astype(np.int64), rng.integers(0, n, per).astype(np.int64))
            for _ in range(count)
        ]

    def test_identical_counts_per_round(self):
        batches = self.rounds()
        snap_graph = Graph.create("slabhash", num_vertices=64)
        steps = dynamic_triangle_count(snap_graph, batches, mode="snapshot")

        stream_graph = Graph.create("slabhash", num_vertices=64, directed=False)
        tc = IncrementalTriangleCount(stream_graph)
        for (bs, bd), step in zip(batches, steps):
            stream_graph.insert_edges(bs, bd)
            assert tc.count() == step.triangles, step.iteration

    def test_both_paths_charge_sorted_probes(self):
        batches = self.rounds(count=2)
        snap_graph = Graph.create("slabhash", num_vertices=64)
        with counting() as dyn_counters:
            dynamic_triangle_count(snap_graph, batches, mode="snapshot")
        stream_graph = Graph.create("slabhash", num_vertices=64, directed=False)
        tc = IncrementalTriangleCount(stream_graph)
        for bs, bd in batches:
            stream_graph.insert_edges(bs, bd)
        with counting() as inc_counters:
            tc.count()
        assert dyn_counters.get("sorted_probes", 0) > 0
        assert inc_counters.get("sorted_probes", 0) > 0


class TestScenarioAnalyticsSelection:
    def test_unknown_analytic_rejected(self):
        scn = quick_scenarios()[0]
        with pytest.raises(ValidationError):
            run_scenario(scn, "slabhash", analytics=("cc", "centrality"))

    def test_sssp_needs_weighted_scenario(self):
        scn = quick_scenarios()[0]
        assert not scn.weighted
        with pytest.raises(ValidationError):
            run_scenario(scn, "slabhash", analytics=("sssp",))

    def test_compute_detail_carries_per_analytic_slices(self):
        scn = insert_heavy_scenario(1 << 10, batch=64, rounds=2)
        for mode in ("incremental", "full"):
            r = run_scenario(scn, "slabhash", mode=mode, analytics=UNWEIGHTED_FAMILY)
            for p in r.phases:
                if p.kind != "compute":
                    continue
                assert set(p.detail["analytic_model"]) == set(UNWEIGHTED_FAMILY)
                assert set(p.detail["modes"]) == set(UNWEIGHTED_FAMILY)
                assert p.detail["snapshot_model"] >= 0
                # Legacy keys survive for cc/pagerank consumers.
                assert p.detail["cc_mode"] == p.detail["modes"]["cc"]
                assert "pr_sweeps" in p.detail
