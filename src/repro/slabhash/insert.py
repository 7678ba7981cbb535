"""Batched insert-with-replace kernel driver.

This is the vectorized counterpart of the paper's slab-hash ``replace``
operation as scheduled by Algorithm 1.  One *probe round* corresponds to
one warp-synchronous chain step on the device: every pending item gathers
its current slab, checks for its key, and either

1. **replaces** — the key already exists; the value lane is overwritten and
   the item reports "not newly added" (uniqueness is preserved, the most
   recent weight wins);
2. **claims an empty lane** — items targeting the same slab cooperate (the
   vectorized analogue of the intra-warp coalesced group) and the ``r``-th
   unplaced item of a group takes the ``r``-th empty lane;
3. **advances** — no key match and not enough empty lanes: the group's first
   unplaced item allocates and links a new tail slab if needed (one
   simulated atomic CAS per chain extension), and the leftovers move to the
   next slab.

The per-round work is dispatched through :mod:`repro.kernels` (reference
NumPy tier or the optional jit tier); this driver owns scheduling, chain
extension, and all device-model charging, so both tiers charge the
:mod:`repro.gpusim` counters identically.

Group ordering is **hoisted out of the round loop**: one stable sort by
head slab up front, and group contiguity is maintained for free across
rounds — every member of a group advances to the same next slab, chains
from different buckets never share slabs (groups can shrink but never
merge or split), and mask-filtering preserves order.

Intra-batch duplicates of the same (table, key) are resolved *before* the
walk by keeping the last occurrence — the serialization the paper specifies
("only the most recent edge and its weight will be stored").  Dropped
duplicates report "not newly added", so edge-count accounting stays exact.

Tombstones are treated as occupied (Section IV-C2: faster inserts, empties
only at chain tails), which is what lets searches stop at the first empty
lane.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import get_kernels
from repro.kernels.reference import STATUS_ADVANCE, STATUS_DONE, STATUS_HIT
from repro.slabhash.constants import KEY_DTYPE, MAX_KEY, NULL_SLAB, VALUE_DTYPE
from repro.util.errors import ValidationError
from repro.util.groupby import last_occurrence_mask
from repro.util.validation import as_int_array, check_equal_length, check_in_range

__all__ = ["insert_batch"]


def _composite(table_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Pack (table, key) into one int64 for dedup sorts (key < 2**32)."""
    return (table_ids.astype(np.int64) << 32) | keys.astype(np.int64)


def insert_batch(arena, table_ids, keys, values=None) -> np.ndarray:
    """Insert (table, key[, value]) items; return per-item "newly added".

    Parameters
    ----------
    arena:
        A :class:`repro.slabhash.arena.SlabArena`.
    table_ids, keys, values:
        Parallel arrays.  ``values`` is required for weighted (map) arenas
        and ignored for set arenas.

    Returns
    -------
    added : np.ndarray of bool
        ``added[i]`` is True iff item ``i`` created a key that was not
        previously in its table *and* item ``i`` is the batch's surviving
        occurrence of that (table, key).  Summing per table therefore gives
        the exact edge-count delta (popc-of-ballot semantics).
    """
    table_ids = as_int_array(table_ids, "table_ids")
    keys = as_int_array(keys, "keys")
    n = check_equal_length(("table_ids", table_ids), ("keys", keys))
    if values is None:
        values = np.zeros(n, dtype=np.int64)
    else:
        values = as_int_array(values, "values")
        check_equal_length(("keys", keys), ("values", values))
    if n == 0:
        return np.empty(0, dtype=bool)
    check_in_range(table_ids, 0, arena.num_tables, "table_ids")
    check_in_range(keys, 0, MAX_KEY + 1, "keys")
    if np.any(arena.table_base[table_ids] == NULL_SLAB):
        raise ValidationError("insert targets a table that was never created")

    counters = get_counters()
    counters.kernel_launches += 1
    pool = arena.pool
    weighted = pool.weighted
    kern = get_kernels()

    # Intra-batch replace semantics: keep the last occurrence per (table, key).
    keep = last_occurrence_mask(_composite(table_ids, keys))
    live_idx = np.flatnonzero(keep)
    t = table_ids[live_idx]
    keys_live = keys[live_idx]
    k = keys_live.astype(KEY_DTYPE)
    v = values[live_idx].astype(VALUE_DTYPE)

    cur = arena.bucket_heads(t, keys_live)
    added = np.zeros(n, dtype=bool)

    # One stable sort for the whole walk (hoisted out of the round loop):
    # items sharing a slab stay contiguous across rounds because a group
    # advances to one shared next slab and groups never merge.
    pending = np.argsort(cur, kind="stable")

    while pending.size:
        counters.probe_rounds += 1
        cur_p = cur[pending]
        if weighted:
            status = kern.insert_round_map(pool.keys, pool.values, cur_p, k[pending], v[pending])
        else:
            status = kern.insert_round_set(pool.keys, cur_p, k[pending])
        counters.slab_reads += int(pending.size)

        placed = pending[status == STATUS_DONE]
        writes = int(placed.size)
        if weighted:
            writes += int(np.count_nonzero(status == STATUS_HIT))
        counters.slab_writes += writes
        if placed.size:
            added[live_idx[placed]] = True

        # Advance overflow items, extending chains where necessary.
        over = pending[status == STATUS_ADVANCE]
        if over.size:
            over_slabs = cur[over]
            nxt = pool.next_slab[over_slabs]
            need = nxt == NULL_SLAB
            if need.any():
                tails = np.unique(over_slabs[need])
                new_ids = pool.allocate(tails.size)
                pool.next_slab[tails] = new_ids
                counters.slab_writes += int(tails.size)  # link writes
                # tails is sorted, so each needing item finds its freshly
                # linked slab by position — no second next_slab gather.
                nxt[need] = new_ids[np.searchsorted(tails, over_slabs[need])]
            cur[over] = nxt
        pending = over

    return added
