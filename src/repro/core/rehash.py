"""Chain-length-triggered rehashing (Section III, "Advantages").

"In practice we can maintain low-cost metrics per vertex to determine the
chain-length and periodically perform rehashing if it exceeds a given
threshold."  The low-cost metric here is the exact edge count the kernels
already maintain: a vertex whose count implies more than
``max_chain_slabs`` slabs per bucket at the current bucket count is due for
a rebuild with buckets resized for the *current* degree.

Rehashing a table destroys it entirely (base slabs included — they return
to the allocator) and rebuilds at the target load factor, so it also
flushes tombstones as a side effect.
"""

from __future__ import annotations

import numpy as np

from repro.slabhash.arena import SlabArena
from repro.util.validation import as_int_array

__all__ = ["rehash_candidates", "rehash_vertices"]


def rehash_candidates(graph, max_chain_slabs: float = 2.0) -> np.ndarray:
    """Vertex ids whose implied chain length exceeds the threshold.

    Implied chain length = entries / (buckets * lane_capacity), computed
    from the maintained edge counts — O(|V|), no chain walks.
    """
    vd = graph._dict
    lane_cap = vd.arena.pool.lane_capacity
    buckets = vd.arena.table_buckets
    has_table = vd.arena.table_base != -1
    implied = np.zeros(vd.capacity, dtype=np.float64)
    np.divide(
        vd.edge_count,
        np.maximum(buckets, 1) * lane_cap,
        out=implied,
        where=has_table,
    )
    return np.flatnonzero(has_table & (implied > float(max_chain_slabs)))


def rehash_vertices(graph, vertex_ids, load_factor: float | None = None) -> None:
    """Rebuild the given vertices' tables sized for their current degree."""
    vertex_ids = as_int_array(vertex_ids, "vertex_ids")
    if vertex_ids.size == 0:
        return
    vd = graph._dict
    lf = graph.load_factor if load_factor is None else float(load_factor)
    owners, dst, w = vd.arena.iterate(vertex_ids)

    # Tear the tables down completely (frees base and overflow slabs).
    slab_ids, _, _ = vd.arena.table_slabs(vertex_ids)
    vd.arena.pool.free(slab_ids)
    vd.arena.table_base[vertex_ids] = -1
    vd.arena.table_buckets[vertex_ids] = 0

    degrees = np.bincount(owners, minlength=vertex_ids.size) if owners.size else np.zeros(
        vertex_ids.size, dtype=np.int64
    )
    buckets = SlabArena.buckets_for(np.maximum(degrees, 1), lf, vd.arena.pool.lane_capacity)
    vd.arena.create_tables(vertex_ids, buckets)
    if dst.size:
        vd.arena.insert(vertex_ids[owners], dst, w if graph.weighted else None)
    vd.debug_check()
    # Counts are unchanged: the live set was preserved exactly.
