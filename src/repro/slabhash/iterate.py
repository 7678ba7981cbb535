"""Chain walkers: table iteration, clearing, and tombstone compaction.

``iterate_tables`` is the vectorized form of the paper's *vertex adjacency
list iterator* (Section IV-B): it walks every bucket chain of every
requested table one slab-level at a time, so a table whose chains have
length L costs exactly L gather rounds — the same traffic the warp
iterator generates on the device.  The walk itself is dispatched through
:mod:`repro.kernels` (``walk_chains``); this driver charges the device
model from the tier-independent level/read totals the kernel reports.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import get_kernels
from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, TOMBSTONE_KEY
from repro.util.groupby import group_starts, segment_positions
from repro.util.validation import as_int_array, check_in_range

__all__ = ["collect_table_slabs", "iterate_tables", "clear_tables", "flush_tombstones"]


def collect_table_slabs(arena, table_ids):
    """All slab ids owned by the given tables.

    Returns
    -------
    slab_ids : np.ndarray
        Every slab (base + overflow) reachable from the tables' buckets.
    owner_pos : np.ndarray
        ``owner_pos[i]`` is the position *within table_ids* owning
        ``slab_ids[i]``.
    is_base : np.ndarray of bool
        True for base slabs (never freed), False for overflow slabs.
    """
    slabs, head_idx, is_base, head_owner = _walk_tables(arena, table_ids)
    return slabs, head_owner[head_idx], is_base


def _walk_tables(arena, table_ids):
    """Walk every bucket chain of the given tables once.

    Returns the ``walk_chains`` output ``(slabs, head_idx, is_base)`` —
    level-major: each depth block lists the surviving chains in head order
    — plus ``head_owner``, the position within ``table_ids`` of each chain
    (one chain per bucket, in table then bucket order).  Charges the walk's
    levels and reads to the device model.
    """
    table_ids = as_int_array(table_ids, "table_ids")
    if table_ids.size:
        check_in_range(table_ids, 0, arena.num_tables, "table_ids")
    exists = arena.table_base[table_ids] != NULL_SLAB
    pos = np.flatnonzero(exists)
    if pos.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=bool), empty.copy()

    bases = arena.table_base[table_ids[pos]]
    buckets = arena.table_buckets[table_ids[pos]]
    # Expand each table's contiguous base range [base, base+buckets).
    head_owner = np.repeat(pos, buckets)
    head_slabs = segment_positions(bases, buckets)

    counters = get_counters()
    slabs, head_idx, is_base, levels, reads = get_kernels().walk_chains(
        arena.pool.next_slab, head_slabs
    )
    counters.probe_rounds += int(levels)
    counters.slab_reads += int(reads)
    return slabs, head_idx, is_base, head_owner


def _distinct(table_ids) -> np.ndarray:
    """Sorted distinct table ids: a table named twice must be walked,
    cleared and freed once.  (Sort-based: on NumPy 2.4, ``np.unique`` of
    a plain id array takes a hash path about 20× slower than a sort.)"""
    table_ids = np.sort(as_int_array(table_ids, "table_ids"))
    return table_ids[group_starts(table_ids)]


def iterate_tables(arena, table_ids):
    """Gather all live entries of the given tables.

    Returns
    -------
    owner_pos : np.ndarray
        Position within ``table_ids`` of each entry's table.
    keys : np.ndarray (int64)
        Live keys (tombstones and empties excluded).
    values : np.ndarray (int64)
        Parallel values (zeros for set arenas).
    """
    table_ids = as_int_array(table_ids, "table_ids")
    slab_ids, owner_pos, _ = collect_table_slabs(arena, table_ids)
    if slab_ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    pool = arena.pool
    counters = get_counters()
    rows = pool.keys[slab_ids]
    counters.slab_reads += int(slab_ids.size)
    live = (rows != KEY_DTYPE(EMPTY_KEY)) & (rows != KEY_DTYPE(TOMBSTONE_KEY))
    entry_owner = np.repeat(owner_pos, pool.lane_capacity).reshape(rows.shape)
    keys = rows[live].astype(np.int64)
    owners = entry_owner[live]
    if pool.weighted:
        values = pool.values[slab_ids][live].astype(np.int64)
    else:
        values = np.zeros(keys.shape[0], dtype=np.int64)
    return owners, keys, values


def clear_tables(arena, table_ids) -> None:
    """Empty the given tables; free overflow slabs, keep base slabs.

    Implements the memory side of vertex deletion (Algorithm 2, lines
    18-20 plus the edge-count reset handled by the caller).
    """
    slab_ids, _, is_base = collect_table_slabs(arena, _distinct(table_ids))
    if slab_ids.size == 0:
        return
    pool = arena.pool
    counters = get_counters()
    base = slab_ids[is_base]
    pool.keys[base] = KEY_DTYPE(EMPTY_KEY)
    pool.next_slab[base] = NULL_SLAB
    if pool.weighted:
        pool.values[base] = 0
    counters.slab_writes += int(base.size)
    overflow = slab_ids[~is_base]
    if overflow.size:
        pool.free(overflow)


def flush_tombstones(arena, table_ids) -> None:
    """Compact tables in place: drop tombstones, repack every chain densely.

    The optional cleanup pass the paper mentions for reclaiming
    tombstone-occupied lanes.  One walk visits every chain; chain ``c``'s
    ``L_c`` live entries are written, in chain order from lane 0, into its
    own first ``max(1, ceil(L_c / Bc))`` slabs (remaining lanes empty, so
    the empty-lane-suffix invariant holds by construction), the last kept
    slab ends the chain, and the rest of the chain returns to the free
    list.  That is the lane layout clearing the tables and reinserting
    their entries gives (it, too, fills a chain in chain order from lane
    0), reached without a second walk, hashing, sorting or allocation.

    Charged as one launch: the walk's levels and reads, one read per
    walked slab, one write per kept slab, and the frees.
    """
    slabs, head_idx, _, head_owner = _walk_tables(arena, _distinct(table_ids))
    if slabs.size == 0:
        return
    pool = arena.pool
    bc = pool.lane_capacity
    counters = get_counters()
    counters.kernel_launches += 1

    # A depth block ends where the chain index stops increasing; a slab's
    # chain-major position is its chain's offset plus its depth.
    num_chains = head_owner.size
    chain_len = np.bincount(head_idx, minlength=num_chains)
    chain_start = np.cumsum(chain_len) - chain_len
    depth = np.zeros(slabs.size, dtype=np.int64)
    np.cumsum(head_idx[1:] <= head_idx[:-1], out=depth[1:])
    order = np.empty(slabs.size, dtype=np.int64)
    order[chain_start[head_idx] + depth] = np.arange(slabs.size, dtype=np.int64)
    slabs = slabs[order]

    rows = pool.keys[slabs]
    counters.slab_reads += int(slabs.size)
    # The two sentinels are the largest key values, so one compare finds
    # the live lanes (flat indices into ``rows``, in chain order).
    live = np.flatnonzero(rows < KEY_DTYPE(TOMBSTONE_KEY))
    live_count = np.add.reduceat(np.bincount(live // bc, minlength=slabs.size), chain_start)
    kept_len = np.maximum(1, -(-live_count // bc))
    kept_start = np.cumsum(kept_len) - kept_len
    kept = segment_positions(chain_start, kept_len)
    kept_slabs = slabs[kept]
    last = kept_start + kept_len - 1

    # Every kept slab but a chain's last is full; the live lanes of each
    # kept slab are a prefix, so a row-major mask places the chain-ordered
    # entries.
    filled = np.full(kept_slabs.size, bc, dtype=np.int64)
    filled[last] = live_count - (kept_len - 1) * bc
    lanes = np.arange(bc) < filled[:, None]
    packed = np.full(lanes.shape, EMPTY_KEY, dtype=KEY_DTYPE)
    packed[lanes] = rows.ravel()[live]
    pool.keys[kept_slabs] = packed
    if pool.weighted:
        values = np.zeros(lanes.shape, dtype=pool.values.dtype)
        values[lanes] = pool.values[slabs].ravel()[live]
        pool.values[kept_slabs] = values
    pool.next_slab[kept_slabs[last]] = NULL_SLAB
    counters.slab_writes += int(kept_slabs.size)

    dropped = np.ones(slabs.size, dtype=bool)
    dropped[kept] = False
    pool.free(slabs[dropped])
