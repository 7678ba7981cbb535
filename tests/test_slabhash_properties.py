"""Property-based tests: the slab arena against a dict reference model.

Hypothesis drives random operation sequences (insert / delete / search /
flush) against both the vectorized arena and a plain Python dict model; at
every step the live key/value sets, the success masks, and the structural
tail invariant must agree.  A second property drives every slab-mutating
graph operation under both kernel tiers and checks the empty-lane-suffix
invariant over every allocated slab.  This is the broadest correctness net
over the paper's core data structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coo import COO
from repro.core.graph import DynamicGraph
from repro.kernels import use_tier
from repro.slabhash.arena import SlabArena
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
