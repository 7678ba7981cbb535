"""Property-based tests: the slab arena against a dict reference model.

Hypothesis drives random operation sequences (insert / delete / search /
flush) against both the vectorized arena and a plain Python dict model; at
every step the live key/value sets, the success masks, and the structural
tail invariant must agree.  A second property drives every slab-mutating
graph operation under both kernel tiers and checks the empty-lane-suffix
invariant over every allocated slab.  A third checks that a tombstone
flush repacks every chain in place, in both tiers.  This is the broadest
correctness net over the paper's core data structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coo import COO
from repro.core.graph import DynamicGraph
from repro.gpusim.counters import counting
from repro.kernels import use_tier
from repro.slabhash.arena import SlabArena
from repro.slabhash.constants import (
    EMPTY_KEY,
    NULL_SLAB,
    SLAB_KEY_CAPACITY,
    SLAB_KV_CAPACITY,
    TOMBSTONE_KEY,
)
from tests.test_slabhash_arena import check_tail_invariant

NUM_TABLES = 4
KEY_SPACE = 60  # small => heavy collisions and chains

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "search", "flush"]),
        st.lists(
            st.tuples(
                st.integers(0, NUM_TABLES - 1),
                st.integers(0, KEY_SPACE - 1),
                st.integers(0, 100),
            ),
            max_size=40,
        ),
    ),
    max_size=12,
)


def apply_reference(model, op, items):
    results = []
    if op == "insert":
        seen_last = {}
        for i, (t, k, v) in enumerate(items):
            seen_last[(t, k)] = i
        for i, (t, k, v) in enumerate(items):
            if seen_last[(t, k)] == i and (t, k) not in model:
                results.append(True)
            else:
                results.append(False)
            if seen_last[(t, k)] == i:
                model[(t, k)] = v
    elif op == "delete":
        for t, k, _ in items:
            results.append((t, k) in model)
            model.pop((t, k), None)
    elif op == "search":
        for t, k, _ in items:
            results.append((t, k) in model)
    return results


@given(ops)
@settings(max_examples=60, deadline=None)
def test_arena_matches_dict_model(op_list):
    arena = SlabArena(NUM_TABLES, weighted=True)
    arena.create_tables(np.arange(NUM_TABLES), np.ones(NUM_TABLES, dtype=np.int64))
    model: dict[tuple[int, int], int] = {}

    for op, items in op_list:
        if op == "flush":
            arena.flush_tombstones(np.arange(NUM_TABLES))
        elif items:
            t = np.array([i[0] for i in items])
            k = np.array([i[1] for i in items])
            v = np.array([i[2] for i in items])
            expected = apply_reference(model, op, items)
            if op == "insert":
                added = arena.insert(t, k, v)
                assert int(added.sum()) == sum(expected)
            elif op == "delete":
                removed = arena.delete(t, k)
                # Duplicate (t, k) within a delete batch: exactly one
                # occurrence succeeds; totals must match the model.
                assert int(removed.sum()) == len(
                    {(tt, kk) for (tt, kk, _), e in zip(items, expected) if e}
                )
            elif op == "search":
                found, vals = arena.search(t, k)
                assert found.tolist() == expected
                for f, (tt, kk, _), got in zip(found, items, vals.tolist()):
                    if f:
                        assert got == model[(tt, kk)]

        # Full-state comparison + structural invariant after every op.
        owners, keys, vals = arena.iterate(np.arange(NUM_TABLES))
        got = {
            (int(o), int(k2)): int(v2)
            for o, k2, v2 in zip(owners.tolist(), keys.tolist(), vals.tolist())
        }
        assert got == model
        check_tail_invariant(arena, np.arange(NUM_TABLES))


@given(
    st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=300),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_set_arena_unique_and_complete(keys, buckets):
    """Any key multiset inserts to exactly its distinct set."""
    arena = SlabArena(1, weighted=False)
    arena.create_tables(np.array([0]), np.array([buckets]))
    arr = np.array(keys, dtype=np.int64)
    added = arena.insert(np.zeros(arr.size, np.int64), arr)
    assert int(added.sum()) == len(set(keys))
    _, got, _ = arena.iterate(np.array([0]))
    assert sorted(got.tolist()) == sorted(set(keys))
    found, _ = arena.search(np.zeros(arr.size, np.int64), arr)
    assert found.all()


@given(st.lists(st.integers(0, 40), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_reference_scalar_ops_agree_with_kernels(keys):
    """The scalar reference implementation (the executable spec) and the
    vectorized kernels produce identical tables."""
    arr = np.array(keys, dtype=np.int64)

    fast = SlabArena(1, weighted=True, hash_seed=99)
    fast.create_tables(np.array([0]), np.array([1]))
    fast.insert(np.zeros(arr.size, np.int64), arr, arr * 3)

    slow = SlabArena(1, weighted=True, hash_seed=99)
    slow.create_tables(np.array([0]), np.array([1]))
    for k in keys:
        slow.reference_insert_one(0, int(k), int(k) * 3)

    for arena in (fast, slow):
        check_tail_invariant(arena, np.array([0]))
    _, fk, fv = fast.iterate(np.array([0]))
    _, sk, sv = slow.iterate(np.array([0]))
    assert dict(zip(fk.tolist(), fv.tolist())) == dict(zip(sk.tolist(), sv.tolist()))


# -- empty-lane-suffix invariant across the whole slab-mutating surface --------

NV = 48
# Sources concentrate on three vertices and tables are undersized (load
# factor 4), so chains run to several slabs in both variants.
LOAD_FACTOR = 4.0
# Edge batches are drawn from a seeded generator: hypothesis's own lists
# stay too short to fill a slab.
edge_batches = st.tuples(st.integers(0, 2**16), st.integers(1, 120))
vertex_lists = st.lists(st.integers(0, NV - 1), min_size=1, max_size=4)
graph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), edge_batches),
        st.tuples(st.just("delete"), edge_batches),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("delete_vertices"), vertex_lists),
        st.tuples(st.just("rehash"), vertex_lists),
        st.tuples(st.just("bulk_build"), edge_batches),
        st.tuples(st.just("allocate_vertex_ids"), st.integers(1, 3)),
    ),
    max_size=10,
)


def _edge_batch(seed, n, model=None):
    """``n`` random edges; with a ``model``, ``n`` of its edges join them."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 3, n)
    v = rng.integers(0, NV, n)
    if model:
        live = np.array(sorted(model), dtype=np.int64)
        pick = live[rng.integers(0, live.shape[0], n)]
        u, v = np.concatenate([u, pick[:, 0]]), np.concatenate([v, pick[:, 1]])
    return u, v, rng.integers(0, 100, u.shape[0])


def _apply_graph_op(g, model, op, arg):
    """Apply one op to the graph and to the ``{(u, v): w}`` oracle."""
    if op == "insert":
        u, v, w = _edge_batch(*arg)
        g.insert_edges(u, v, w if g.weighted else None)
        model.update(((a, b), c) for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()) if a != b)
    elif op == "delete":
        u, v, _ = _edge_batch(*arg, model)
        g.delete_edges(u, v)
        for key in zip(u.tolist(), v.tolist()):
            model.pop(key, None)
    elif op == "flush":
        g.flush_tombstones()
    elif op == "delete_vertices":
        g.delete_vertices(np.array(arg, dtype=np.int64))
        for key in [key for key in model if key[0] in arg or key[1] in arg]:
            del model[key]
    elif op == "rehash":
        g.rehash(np.array(sorted(set(arg)), dtype=np.int64))
    elif op == "bulk_build":
        # bulk_build needs an empty graph: clear it through vertex deletion,
        # which leaves cleared base slabs and freed chain slabs to recycle.
        g.delete_vertices(np.arange(g.vertex_capacity, dtype=np.int64))
        model.clear()
        u, v, w = _edge_batch(*arg)
        g.bulk_build(COO(u, v, NV, weights=w if g.weighted else None))
        model.update(((a, b), c) for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()) if a != b)
    elif op == "allocate_vertex_ids":
        ids = g.allocate_vertex_ids(arg).tolist()
        assert not any(key[0] in ids or key[1] in ids for key in model)


@pytest.mark.parametrize("tier", ["reference", "jit"])
@pytest.mark.parametrize("weighted", [True, False])
@given(ops=graph_ops)
@settings(max_examples=50, deadline=None)
def test_empty_lane_suffix_holds_under_every_mutation(weighted, tier, ops):
    """Every slab-mutating operation preserves the empty-lane-suffix
    invariant the probe kernels rely on, and the edge set tracks a dict
    oracle, in both kernel tiers."""
    with use_tier(tier, force=True):
        g = DynamicGraph(NV, weighted, load_factor=LOAD_FACTOR, reuse_vertex_ids=True)
        g._dict.debug_invariants = True  # raises at the first bad batch
        model: dict[tuple[int, int], int] = {}
        for op, arg in ops:
            _apply_graph_op(g, model, op, arg)
            g._dict.arena.pool.check_empty_suffix()
            coo = g.export_coo()
            weights = coo.weights if weighted else np.zeros(coo.src.size, np.int64)
            got = dict(zip(zip(coo.src.tolist(), coo.dst.tolist()), weights.tolist()))
            if weighted:
                assert got == model
            else:
                assert set(got) == set(model)
            assert g.num_edges() == len(model)


# -- in-place tombstone compaction ---------------------------------------------

FLUSH_TABLES = 6
CREATED = np.array([0, 1, 2, 4])  # tables 3 and 5 are never created
flush_streams = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 2**16), st.integers(1, 150)),
    max_size=6,
)


def _chains(arena, table):
    """Slab ids of each bucket chain of ``table``, in chain order."""
    pool = arena.pool
    chains = []
    for bucket in range(int(arena.table_buckets[table])):
        slab, chain = int(arena.table_base[table]) + bucket, []
        while slab != NULL_SLAB:
            chain.append(slab)
            slab = int(pool.next_slab[slab])
        chains.append(chain)
    return chains


def _live_sequence(arena, chain):
    """``(keys, values)`` of a chain's live lanes in chain order."""
    keys = arena.pool.keys[chain].ravel()
    values = arena.pool.values[chain].ravel() if arena.pool.weighted else np.zeros_like(keys)
    live = (keys != np.uint32(EMPTY_KEY)) & (keys != np.uint32(TOMBSTONE_KEY))
    return keys[live].tolist(), values[live].tolist()


def _churned_arena(weighted, stream):
    """Apply seeded insert/delete batches to an arena with undersized
    tables, so chains run several slabs deep and collect tombstones."""
    arena = SlabArena(FLUSH_TABLES, weighted=weighted)
    arena.create_tables(CREATED, np.array([1, 2, 1, 3]))
    for op, seed, n in stream:
        rng = np.random.default_rng(seed)
        t = CREATED[rng.integers(0, CREATED.size, n)]
        k = rng.integers(0, 4 * arena.pool.lane_capacity, n)
        if op == "insert":
            arena.insert(t, k, rng.integers(0, 1000, n))
        else:
            arena.delete(t, k)
    return arena


def _check_flush(weighted, build, flush_ids):
    """Flush ``flush_ids`` on ``build(weighted)`` in both tiers; check
    every flushed chain is the dense in-place repack of its live sequence,
    every other table is untouched, and the tiers charge the same
    counters."""
    flushed = set(flush_ids) & set(CREATED.tolist())
    deltas = []
    for tier in ("reference", "jit"):
        with use_tier(tier, force=True):
            arena = build(weighted)
            pool = arena.pool
            before = {t: _chains(arena, t) for t in CREATED.tolist()}
            seqs = {t: [_live_sequence(arena, c) for c in before[t]] for t in flushed}
            untouched = {
                t: [(pool.keys[c].copy(), pool.next_slab[c].copy()) for c in before[t]]
                for t in CREATED.tolist()
                if t not in flushed
            }
            with counting() as delta:
                arena.flush_tombstones(np.array(flush_ids, dtype=np.int64))
            deltas.append(delta)

            pool.check_empty_suffix()
            pool.check_free_list(arena.table_base, arena.table_buckets)
            total = 0
            bc = pool.lane_capacity
            for t in CREATED.tolist():
                after = _chains(arena, t)
                total += sum(len(c) for c in after)
                if t not in flushed:
                    for c, (keys, nxt) in zip(after, untouched[t]):
                        assert np.array_equal(pool.keys[c], keys)
                        assert np.array_equal(pool.next_slab[c], nxt)
                    continue
                for old, new, seq in zip(before[t], after, seqs[t]):
                    live = len(seq[0])
                    assert new == old[: len(new)]  # compacted where it lies
                    assert len(new) == max(1, -(-live // bc))
                    assert _live_sequence(arena, new) == seq
                    rows = pool.keys[new]
                    assert not (rows == np.uint32(TOMBSTONE_KEY)).any()
                    assert not (rows[:-1] == np.uint32(EMPTY_KEY)).any()
            assert pool.num_allocated == total
    assert deltas[0] == deltas[1]


@pytest.mark.parametrize("weighted", [True, False])
@given(
    stream=flush_streams,
    flush_ids=st.lists(st.integers(0, FLUSH_TABLES - 1), max_size=FLUSH_TABLES),
)
@settings(max_examples=25, deadline=None)
def test_flush_repacks_each_chain_in_place(weighted, stream, flush_ids):
    """Flushing any subset of tables (never-created and repeated ids
    included) after any insert/delete stream repacks each chain in place."""
    _check_flush(weighted, lambda w: _churned_arena(w, stream), flush_ids)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize(
    ("case", "flush_ids"),
    [
        ("all_tombstones", [0]),
        ("exact_multiple", [0]),
        ("some_tombstones", []),
        ("some_tombstones", [3, 5]),
        ("some_tombstones", [0, 2, 0, 0]),
    ],
)
def test_flush_edge_cases(weighted, case, flush_ids):
    """A four-slab chain the flush must shrink to its base slab or fill
    exactly; empty, never-created and repeated id lists."""
    bc = SLAB_KV_CAPACITY if weighted else SLAB_KEY_CAPACITY
    keys = np.arange(3 * bc + 2)  # one bucket: a four-slab chain
    deletes = {"all_tombstones": keys, "exact_multiple": keys[: bc + 2]}.get(case, keys[::3])

    def build(w):
        arena = SlabArena(FLUSH_TABLES, weighted=w)
        arena.create_tables(CREATED, np.array([1, 2, 1, 3]))
        arena.insert(np.zeros(keys.size, np.int64), keys, keys * 7)
        arena.insert(np.full(40, 2), np.arange(40), np.arange(40))
        arena.delete(np.zeros(deletes.size, np.int64), deletes)
        arena.delete(np.full(10, 2), np.arange(10))
        assert [len(c) for c in _chains(arena, 0)] == [4]
        return arena

    _check_flush(weighted, build, flush_ids)
