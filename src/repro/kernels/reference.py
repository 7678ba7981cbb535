"""The always-on pure-NumPy kernel tier (the executable specification).

Each function is one *fused* whole-round (or whole-walk) pass over the
structure-of-arrays slab arena or a sorted CSR: a single gather feeds hit
detection, lane claiming, and the scatter writes, with no per-item Python
and no re-sorting between rounds (the insert driver maintains group
contiguity across rounds instead — see :mod:`repro.slabhash.insert`).

The probe rounds rely on the **empty-lane-suffix invariant** (stated in
:mod:`repro.slabhash.constants` and checked in debug mode by
:meth:`repro.slabhash.arena.SlabPool.check_empty_suffix`): in every
allocated slab the ``EMPTY_KEY`` lanes form a contiguous suffix.  So a slab
with ``n_empty`` empty lanes has its first empty lane at ``Bc - n_empty``
and the ``rank``-th unplaced item of a same-slab group claims lane
``Bc - n_empty + rank`` (the warp ballot/ffs of SlabHash made arithmetic),
and a slab holds an empty lane at all iff its *last* lane is empty — the
search/delete miss test.  Inserts claim empties in rank order and deletes
write tombstones, so the rounds preserve the invariant they rely on.

Kernels here are **pure with respect to the device model**: they never
touch :mod:`repro.gpusim` counters.  Drivers charge the model from the
tier-independent quantities these functions return (pending sizes, status
counts, walk levels), which is what makes the optional jit tier
(:mod:`repro.kernels.jit`) bit-identical in modeled cost by construction.

Status codes shared by both tiers:

- ``STATUS_HIT`` (0) — the probe found its key this round (insert:
  replaced; search: found; delete: tombstoned);
- ``STATUS_DONE`` (1) — the item resolved without a hit (insert: claimed
  an empty lane; search/delete: an empty lane proved the key absent);
- ``STATUS_ADVANCE`` (2) — unresolved; the driver moves the item to the
  next slab in its chain.
"""

from __future__ import annotations

import numpy as np

from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, TOMBSTONE_KEY
from repro.util.groupby import rank_within_group

__all__ = [
    "STATUS_ADVANCE",
    "STATUS_DONE",
    "STATUS_HIT",
    "TIER_NAME",
    "delete_round",
    "insert_round_map",
    "insert_round_set",
    "merge_sorted_csr",
    "search_round_map",
    "search_round_set",
    "sort_window_last",
    "walk_chains",
]

#: Dispatch name of this tier.
TIER_NAME = "reference"

#: Probe resolved by finding its key this round.
STATUS_HIT = 0
#: Probe resolved without a key hit (lane claimed / provably absent).
STATUS_DONE = 1
#: Probe unresolved; advance to the next slab in the chain.
STATUS_ADVANCE = 2

_EMPTY32 = KEY_DTYPE(EMPTY_KEY)
_TOMBSTONE32 = KEY_DTYPE(TOMBSTONE_KEY)
_MASK32 = np.int64(0xFFFFFFFF)


def _insert_round(pool_keys, pool_values, cur, k, v):
    """Shared map/set insert round over group-contiguous pending items."""
    m, bc = cur.shape[0], pool_keys.shape[1]
    # (m, Bc) gather = m slab reads (the driver charges them).
    rows = np.take(pool_keys, cur, axis=0)
    hit = rows == k[:, None]
    hit_any = hit.any(axis=1)
    status = np.full(m, STATUS_ADVANCE, dtype=np.uint8)

    # (1) replace existing keys (value update only; not "added").
    if hit_any.any():
        repl = np.flatnonzero(hit_any)
        status[repl] = STATUS_HIT
        if pool_values is not None:
            lanes = hit[repl].argmax(axis=1)
            pool_values[cur[repl], lanes] = v[repl]

    rest = np.flatnonzero(~hit_any)
    if rest.size:
        # Equal slabs are contiguous (driver invariant), so rank-in-group
        # needs no sort.
        rest_slabs = cur[rest]
        rank = rank_within_group(rest_slabs)
        n_empty = np.count_nonzero(rows[rest] == _EMPTY32, axis=1)
        fits = rank < n_empty

        # (2) claim the rank-th empty lane of the shared slab: empties are
        # a suffix, so it sits at Bc - n_empty + rank.
        if fits.any():
            fit_rows = rest[fits]
            fit_slabs = rest_slabs[fits]
            lanes = bc - n_empty[fits] + rank[fits]
            pool_keys[fit_slabs, lanes] = k[fit_rows]
            if pool_values is not None:
                pool_values[fit_slabs, lanes] = v[fit_rows]
            status[fit_rows] = STATUS_DONE
    return status


def insert_round_map(pool_keys, pool_values, cur, k, v):
    """One insert round (map variant): replace / claim lane / advance.

    ``cur`` / ``k`` / ``v`` are the pending items' current slab, key, and
    value, with equal slabs contiguous.  Mutates the pool in place and
    returns a per-item status array (see module docstring).
    """
    return _insert_round(pool_keys, pool_values, cur, k, v)


def insert_round_set(pool_keys, cur, k):
    """One insert round (set variant): like the map but with no values."""
    return _insert_round(pool_keys, None, cur, k, None)


def _probe_round(pool_keys, cur, k):
    """Shared hit / empty-terminated probe for search and delete rounds."""
    rows = np.take(pool_keys, cur, axis=0)
    hit = rows == k[:, None]
    hit_any = hit.any(axis=1)
    status = np.full(cur.shape[0], STATUS_ADVANCE, dtype=np.uint8)
    # A slab whose last lane is empty terminates the chain's data region
    # (empties are a lane suffix, and exist only in chain tails): a key it
    # does not hold is provably absent.
    status[~hit_any & (rows[:, -1] == _EMPTY32)] = STATUS_DONE
    return status, hit, hit_any


def search_round_map(pool_keys, pool_values, cur, k):
    """One search round (map variant); returns ``(status, values)``."""
    status, hit, hit_any = _probe_round(pool_keys, cur, k)
    vals = np.zeros(cur.shape[0], dtype=np.int64)
    got = np.flatnonzero(hit_any)
    if got.size:
        status[got] = STATUS_HIT
        lanes = hit[got].argmax(axis=1)
        vals[got] = pool_values[cur[got], lanes]
    return status, vals


def search_round_set(pool_keys, cur, k):
    """One search round (set variant); returns the status array only."""
    status, _, hit_any = _probe_round(pool_keys, cur, k)
    status[hit_any] = STATUS_HIT
    return status


def delete_round(pool_keys, cur, k):
    """One tombstone-delete round; mutates hit lanes, returns statuses."""
    status, hit, hit_any = _probe_round(pool_keys, cur, k)
    found = np.flatnonzero(hit_any)
    if found.size:
        status[found] = STATUS_HIT
        lanes = hit[found].argmax(axis=1)
        pool_keys[cur[found], lanes] = _TOMBSTONE32
    return status


def walk_chains(next_slab, heads):
    """Level-order walk of every chain rooted at ``heads``.

    Returns ``(slabs, head_idx, is_base, levels, reads)``: all reachable
    slab ids in level order (heads first, then each chain's next slab in
    surviving-head order, and so on), the owning index into ``heads`` per
    slab, a base-slab mask, and the walk's cost quantities — ``levels``
    pointer-gather rounds touching ``reads`` slabs in total — which the
    driver charges to the device model.
    """
    n = heads.shape[0]
    idx0 = np.arange(n, dtype=np.int64)
    all_slabs = [heads]
    all_idx = [idx0]
    all_base = [np.ones(n, dtype=bool)]
    frontier = heads
    owners = idx0
    levels = 0
    reads = 0
    while frontier.size:
        levels += 1
        reads += int(frontier.shape[0])
        nxt = next_slab[frontier]
        alive = nxt != NULL_SLAB
        frontier = nxt[alive]
        owners = owners[alive]
        if frontier.size:
            all_slabs.append(frontier)
            all_idx.append(owners)
            all_base.append(np.zeros(frontier.shape[0], dtype=bool))
    return (
        np.concatenate(all_slabs),
        np.concatenate(all_idx),
        np.concatenate(all_base),
        levels,
        reads,
    )


def sort_window_last(comp, w, is_ins):
    """Fused dedup-last + sort of an event-window delta.

    One stable argsort replaces the pre-refactor pair (a
    ``last_occurrence_mask`` sort followed by a second full sort): sort
    the composite keys once, then keep the last element of every equal
    run — which *is* the batch's last occurrence, because the sort is
    stable.  Returns ``(sorted unique comp, w, is_ins)`` with each
    survivor carrying its window-final payload.
    """
    if comp.shape[0] == 0:
        return comp, w, is_ins
    order = np.argsort(comp, kind="stable")
    sc = comp[order]
    last = np.empty(sc.shape[0], dtype=bool)
    last[-1] = True
    np.not_equal(sc[1:], sc[:-1], out=last[:-1])
    idx = order[last]
    return sc[last], w[idx], is_ins[idx]


def merge_sorted_csr(
    row_ptr, col_idx, weights, upsert_comp, upsert_weights, delete_comp, num_vertices
):
    """Stream-merge a sorted, disjoint upsert/delete delta into a sorted CSR.

    Returns ``(row_ptr, col_idx, weights)`` for the merged edge set, or
    ``None`` when the base contains duplicate composite keys (the driver
    raises — a duplicate means a broken ``export_coo``).  Pure stream
    work: O(E + B log E), no whole-edge-set sort.
    """
    old_deg = np.diff(row_ptr)
    old_src = np.repeat(np.arange(num_vertices, dtype=np.int64), old_deg)
    old_comp = (old_src << np.int64(32)) | col_idx
    if old_comp.size > 1 and not bool(np.all(old_comp[1:] > old_comp[:-1])):
        # searchsorted pairs each touched key with one position, so a
        # duplicated base key would silently survive a delete/upsert.
        return None
    # Drop every touched key from the old stream: deletes disappear,
    # upserted keys re-enter from the delta with their new weight.
    touched = np.concatenate([upsert_comp, delete_comp])
    keep = np.ones(old_comp.shape[0], dtype=bool)
    if touched.size and old_comp.size:
        loc = np.searchsorted(old_comp, touched)
        safe = np.minimum(loc, old_comp.shape[0] - 1)
        hit = (loc < old_comp.shape[0]) & (old_comp[safe] == touched)
        keep[loc[hit]] = False
    kept_comp = old_comp[keep]
    total = kept_comp.shape[0] + upsert_comp.shape[0]
    new_comp = np.empty(total, dtype=np.int64)
    ins_at = np.searchsorted(kept_comp, upsert_comp) + np.arange(
        upsert_comp.shape[0], dtype=np.int64
    )
    ins_mask = np.zeros(total, dtype=bool)
    ins_mask[ins_at] = True
    new_comp[ins_at] = upsert_comp
    new_comp[~ins_mask] = kept_comp
    new_weights = None
    if weights is not None:
        new_weights = np.empty(total, dtype=np.int64)
        new_weights[ins_at] = (
            upsert_weights
            if upsert_weights is not None
            else np.zeros(upsert_comp.shape[0], dtype=np.int64)
        )
        new_weights[~ins_mask] = weights[keep]
    counts = np.bincount(new_comp >> np.int64(32), minlength=num_vertices)
    new_row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return new_row_ptr, (new_comp & _MASK32).astype(np.int64), new_weights
