"""Slab storage pool and the multi-table slab-hash arena.

Layout (structure-of-arrays; one row per slab):

- ``keys``   — ``(capacity, Bc)`` uint32 lane matrix (``Bc`` = 15 for the
  map variant, 30 for the set variant);
- ``values`` — ``(capacity, 15)`` uint32 lane matrix (map variant only);
- ``next``   — ``(capacity,)`` int64 successor slab index, ``NULL_SLAB``
  terminated.

A SoA layout keeps every kernel a sequence of contiguous gathers/scatters —
the NumPy analogue of coalesced 128-byte transactions (hpc-parallel guide:
prefer views, contiguous access, no per-item Python).

Allocation mirrors SlabAlloc: *base* slabs for a table's buckets are carved
in one contiguous bump allocation (Section IV-A2: "statically allocating
all the memory required for the initial buckets in bulk"), while overflow
slabs come from a free-list allocator and are linked to chain tails.
Overflow slabs return to the free list on vertex deletion (Section IV-D2)
and when a tombstone flush shortens a chain; a rehash frees a table's
base slabs too before rebuilding it.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.gpusim.memory import GrowableArray
from repro.slabhash.constants import (
    EMPTY_KEY,
    KEY_DTYPE,
    MAX_KEY,
    NULL_SLAB,
    SLAB_KEY_CAPACITY,
    SLAB_KV_CAPACITY,
    VALUE_DTYPE,
)
from repro.util.errors import ValidationError
from repro.util.hashing import UniversalHashFamily
from repro.util.validation import as_int_array, check_in_range

__all__ = ["SlabPool", "SlabArena"]


class SlabPool:
    """Growable slab storage plus a free-list allocator.

    Parameters
    ----------
    weighted:
        If True, build the concurrent-map layout (15 KV pairs per slab and a
        parallel value matrix); otherwise the concurrent-set layout (30 keys
        per slab, no values).
    initial_capacity:
        Number of slabs to preallocate; the pool doubles as needed.
    """

    def __init__(self, weighted: bool, initial_capacity: int = 64) -> None:
        self.weighted = bool(weighted)
        self.lane_capacity = SLAB_KV_CAPACITY if weighted else SLAB_KEY_CAPACITY
        cap = max(int(initial_capacity), 1)
        self._keys = GrowableArray(cap, KEY_DTYPE, width=self.lane_capacity, fill_value=EMPTY_KEY)
        self._next = GrowableArray(cap, np.int64, fill_value=NULL_SLAB)
        self._values = (
            GrowableArray(cap, VALUE_DTYPE, width=self.lane_capacity, fill_value=0)
            if weighted
            else None
        )
        self._bump = 0  # next never-used slab
        self._free = np.empty(0, dtype=np.int64)  # stack of recycled slab ids

    # -- storage views -----------------------------------------------------

    @property
    def keys(self) -> np.ndarray:
        """Full-capacity key lane matrix (rows beyond allocation are junk)."""
        return self._keys.data

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise ValidationError("set-variant pool has no values")
        return self._values.data

    @property
    def next_slab(self) -> np.ndarray:
        return self._next.data

    @property
    def num_allocated(self) -> int:
        """Slabs currently owned by tables (bump minus free-list size)."""
        return self._bump - self._free.shape[0]

    @property
    def allocated_bytes(self) -> int:
        """Device bytes consumed by slabs currently owned by tables.

        Each slab is 128 bytes regardless of variant (the set variant packs
        more keys into the same footprint).
        """
        return self.num_allocated * 128

    # -- allocation --------------------------------------------------------

    def allocate(self, n: int) -> np.ndarray:
        """Allocate ``n`` slabs (freshly zeroed) and return their ids.

        Recycled slabs are preferred; the remainder comes from the bump
        pointer.  Each allocation is charged as one simulated atomic
        (SlabAlloc hands out slabs with atomic tickets).
        """
        n = int(n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        counters = get_counters()
        counters.slabs_allocated += n
        counters.atomics += n
        from_free = min(n, self._free.shape[0])
        recycled = self._free[self._free.shape[0] - from_free :]
        self._free = self._free[: self._free.shape[0] - from_free]
        fresh_n = n - from_free
        fresh = np.arange(self._bump, self._bump + fresh_n, dtype=np.int64)
        self._bump += fresh_n
        self._ensure(self._bump)
        ids = np.concatenate([recycled, fresh]) if from_free else fresh
        # Reset recycled rows (fresh rows are already in the fill state).
        if from_free:
            self._keys.data[recycled] = EMPTY_KEY
            self._next.data[recycled] = NULL_SLAB
            if self._values is not None:
                self._values.data[recycled] = 0
        return ids

    def allocate_contiguous(self, n: int) -> int:
        """Bulk-allocate ``n`` contiguous slabs; return the first id.

        Used for base slabs: the paper stores a table's buckets at
        consecutive addresses so a single base pointer plus the bucket index
        addresses any bucket.
        """
        n = int(n)
        counters = get_counters()
        counters.slabs_allocated += n
        counters.atomics += 1  # one bulk reservation
        start = self._bump
        self._bump += n
        self._ensure(self._bump)
        return start

    def free(self, ids: np.ndarray) -> None:
        """Return slabs to the free list (no validation of double frees in
        the hot path; :meth:`check_free_list` verifies it in debug mode)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        counters = get_counters()
        counters.slabs_freed += int(ids.size)
        counters.atomics += int(ids.size)
        self._free = np.concatenate([self._free, ids])

    def _ensure(self, needed: int) -> None:
        self._keys.ensure(needed)
        self._next.ensure(needed)
        if self._values is not None:
            self._values.ensure(needed)

    # -- debugging helpers ---------------------------------------------------

    def free_list_size(self) -> int:
        return int(self._free.shape[0])

    def check_free_list(self, table_base: np.ndarray, table_buckets: np.ndarray) -> None:
        """Raise if the free list could hand out a slab that is still in use.

        A free slab must appear on the list once, must not be a base slab
        of a live table (``table_base``/``table_buckets`` as kept by
        :class:`SlabArena`), and must not be the ``next_slab`` of an
        allocated slab.  O(pool + tables); run in debug mode only.
        """
        free = self._free
        uniq, counts = np.unique(free, return_counts=True)
        if uniq.size != free.size:
            raise AssertionError(f"free list holds slab {int(uniq[counts > 1][0])} twice")
        is_free = np.zeros(self._bump, dtype=bool)
        is_free[free] = True
        live = table_base != NULL_SLAB
        base = np.zeros(self._bump + 1, dtype=np.int64)
        np.add.at(base, table_base[live], 1)
        np.add.at(base, table_base[live] + table_buckets[live], -1)
        is_base = np.cumsum(base[:-1]) > 0
        if (is_free & is_base).any():
            slab = int(np.flatnonzero(is_free & is_base)[0])
            raise AssertionError(f"free slab {slab} is a live table's base slab")
        nxt = self.next_slab[: self._bump][~is_free]
        linked = nxt[nxt != NULL_SLAB]
        if is_free[linked].any():
            slab = int(linked[is_free[linked]][0])
            raise AssertionError(f"free slab {slab} is linked from an allocated slab")

    def check_empty_suffix(self) -> None:
        """Raise if an allocated slab holds a key after an empty lane.

        The empty-lane-suffix invariant (see
        :mod:`repro.slabhash.constants`) that the probe kernels' lane
        arithmetic and last-lane miss test rely on.  O(pool); run in debug
        mode only.
        """
        empty = self.keys[: self._bump] == KEY_DTYPE(EMPTY_KEY)
        broken = (empty[:, :-1] & ~empty[:, 1:]).any(axis=1)
        broken[self._free] = False  # freed slabs hold stale lanes until reuse
        if broken.any():
            slab = int(np.flatnonzero(broken)[0])
            raise AssertionError(
                f"slab {slab} holds a key after an empty lane: {self.keys[slab].tolist()}"
            )


class SlabArena:
    """Many slab-hash tables sharing one :class:`SlabPool`.

    A table is identified by a dense integer id (for the graph, the vertex
    id).  Per-table metadata:

    - ``table_base[t]``  — first base-slab id (buckets are contiguous), or
      ``NULL_SLAB`` if the table was never created;
    - ``table_buckets[t]`` — bucket count.

    All operations are *batched*: they take parallel arrays of table ids and
    keys and execute in vectorized probe rounds (see
    :mod:`repro.slabhash.insert` etc. for the kernel mechanics).
    """

    def __init__(
        self,
        num_tables: int,
        weighted: bool,
        initial_slab_capacity: int = 64,
        hash_seed: int = 0x5AB0,
    ) -> None:
        if num_tables < 0:
            raise ValidationError("num_tables must be non-negative")
        self.pool = SlabPool(weighted, initial_capacity=initial_slab_capacity)
        self.num_tables = int(num_tables)
        self.table_base = np.full(max(num_tables, 1), NULL_SLAB, dtype=np.int64)[:num_tables]
        self.table_buckets = np.zeros(num_tables, dtype=np.int64)
        self.hash_family = UniversalHashFamily(num_tables, seed=hash_seed)

    # -- table lifecycle -----------------------------------------------------

    def grow_tables(self, new_num_tables: int) -> None:
        """Extend the table-id space, preserving existing tables."""
        if new_num_tables <= self.num_tables:
            return
        extra = new_num_tables - self.num_tables
        self.table_base = np.concatenate(
            [self.table_base, np.full(extra, NULL_SLAB, dtype=np.int64)]
        )
        self.table_buckets = np.concatenate([self.table_buckets, np.zeros(extra, dtype=np.int64)])
        self.hash_family.grow(new_num_tables)
        self.num_tables = int(new_num_tables)

    def create_tables(self, table_ids: np.ndarray, num_buckets: np.ndarray) -> None:
        """Create tables with the given bucket counts (bulk base allocation).

        Base slabs for *all* requested tables are carved from one contiguous
        reservation — the paper's bulk static allocation that avoids
        per-table ``cudaMalloc`` calls.
        """
        table_ids = as_int_array(table_ids, "table_ids")
        num_buckets = as_int_array(num_buckets, "num_buckets")
        if table_ids.shape != num_buckets.shape:
            raise ValidationError("table_ids and num_buckets must have equal length")
        if table_ids.size == 0:
            return
        check_in_range(table_ids, 0, self.num_tables, "table_ids")
        if np.any(num_buckets < 1):
            raise ValidationError("every table needs at least one bucket")
        if np.any(self.table_base[table_ids] != NULL_SLAB):
            raise ValidationError("a requested table already exists")
        total = int(num_buckets.sum())
        start = self.pool.allocate_contiguous(total)
        offsets = np.concatenate([[0], np.cumsum(num_buckets)[:-1]]) + start
        self.table_base[table_ids] = offsets
        self.table_buckets[table_ids] = num_buckets

    def has_table(self, table_ids: np.ndarray) -> np.ndarray:
        table_ids = as_int_array(table_ids, "table_ids")
        return self.table_base[table_ids] != NULL_SLAB

    @staticmethod
    def buckets_for(expected_size, load_factor: float, lane_capacity: int) -> np.ndarray:
        """Bucket count for an expected entry count and load factor.

        ``ceil(|A_u| / (lf * Bc))`` per Section IV-A2, minimum one bucket.
        """
        expected = np.atleast_1d(np.asarray(expected_size, dtype=np.float64))
        buckets = np.ceil(expected / (float(load_factor) * lane_capacity))
        return np.maximum(buckets, 1).astype(np.int64)

    # -- batched kernels (implemented in sibling modules) ---------------------

    def insert(self, table_ids, keys, values=None) -> np.ndarray:
        """Batched insert-with-replace; see :func:`repro.slabhash.insert.insert_batch`."""
        from repro.slabhash.insert import insert_batch

        return insert_batch(self, table_ids, keys, values)

    def delete(self, table_ids, keys) -> np.ndarray:
        """Batched tombstone delete; see :func:`repro.slabhash.delete.delete_batch`."""
        from repro.slabhash.delete import delete_batch

        return delete_batch(self, table_ids, keys)

    def search(self, table_ids, keys):
        """Batched membership probe; see :func:`repro.slabhash.search.search_batch`."""
        from repro.slabhash.search import search_batch

        return search_batch(self, table_ids, keys)

    def iterate(self, table_ids):
        """Gather all live entries of the given tables; see
        :func:`repro.slabhash.iterate.iterate_tables`."""
        from repro.slabhash.iterate import iterate_tables

        return iterate_tables(self, table_ids)

    def clear_tables(self, table_ids) -> None:
        """Empty tables and free their overflow slabs (vertex deletion).

        Base slabs are reset to empty but retained ("statically allocated
        memory is not reclaimed", Section IV-D2); chain slabs go back to the
        allocator.
        """
        from repro.slabhash.iterate import clear_tables

        clear_tables(self, table_ids)

    def flush_tombstones(self, table_ids) -> None:
        """Compact tables in place: drop tombstones, refill densely.

        The paper notes tombstones "can later be completely flushed out of
        the data structure, if required" — this is that optional pass.
        """
        from repro.slabhash.iterate import flush_tombstones

        flush_tombstones(self, table_ids)

    # -- chain geometry (used by kernels and stats) ----------------------------

    def bucket_heads(self, table_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Head slab id for each (table, key) pair."""
        bucket = self.hash_family.bucket(table_ids, keys, self.table_buckets)
        return self.table_base[table_ids] + bucket

    def table_slabs(self, table_ids: np.ndarray):
        """All slab ids belonging to the given tables.

        Returns ``(slab_ids, owner_pos, is_base)`` where ``owner_pos[i]``
        indexes into ``table_ids`` and ``is_base`` marks base slabs.
        """
        from repro.slabhash.iterate import collect_table_slabs

        return collect_table_slabs(self, table_ids)

    # -- scalar reference implementations (the executable specification) ------

    def reference_insert_one(self, table: int, key: int, value: int = 0) -> bool:
        """Chain-walking scalar insert-with-replace; True iff newly added."""
        if key > MAX_KEY:
            raise ValidationError(f"key {key} exceeds MAX_KEY")
        head = int(self.table_base[table])
        if head == NULL_SLAB:
            raise ValidationError(f"table {table} does not exist")
        slab = head + self.hash_family.bucket_single(table, key, int(self.table_buckets[table]))
        pool = self.pool
        while True:
            row = pool.keys[slab]
            hit = np.flatnonzero(row == KEY_DTYPE(key))
            if hit.size:
                if pool.weighted:
                    pool.values[slab, hit[0]] = VALUE_DTYPE(value)
                return False
            empty = np.flatnonzero(row == KEY_DTYPE(EMPTY_KEY))
            if empty.size:
                pool.keys[slab, empty[0]] = KEY_DTYPE(key)
                if pool.weighted:
                    pool.values[slab, empty[0]] = VALUE_DTYPE(value)
                return True
            nxt = int(pool.next_slab[slab])
            if nxt == NULL_SLAB:
                new = int(self.pool.allocate(1)[0])
                pool.next_slab[slab] = new
                nxt = new
            slab = nxt

    def reference_delete_one(self, table: int, key: int) -> bool:
        """Chain-walking scalar tombstone delete; True iff key existed."""
        head = int(self.table_base[table])
        if head == NULL_SLAB:
            return False
        slab = head + self.hash_family.bucket_single(table, key, int(self.table_buckets[table]))
        pool = self.pool
        while slab != NULL_SLAB:
            row = pool.keys[slab]
            hit = np.flatnonzero(row == KEY_DTYPE(key))
            if hit.size:
                pool.keys[slab, hit[0]] = KEY_DTYPE(0xFFFFFFFE)  # TOMBSTONE_KEY
                return True
            if np.any(row == KEY_DTYPE(EMPTY_KEY)):
                return False  # empties only at the tail => key absent
            slab = int(pool.next_slab[slab])
        return False

    def reference_search_one(self, table: int, key: int):
        """Chain-walking scalar search; returns (found, value)."""
        head = int(self.table_base[table])
        if head == NULL_SLAB:
            return False, 0
        slab = head + self.hash_family.bucket_single(table, key, int(self.table_buckets[table]))
        pool = self.pool
        while slab != NULL_SLAB:
            row = pool.keys[slab]
            hit = np.flatnonzero(row == KEY_DTYPE(key))
            if hit.size:
                value = int(pool.values[slab, hit[0]]) if pool.weighted else 0
                return True, value
            if np.any(row == KEY_DTYPE(EMPTY_KEY)):
                return False, 0
            slab = int(pool.next_slab[slab])
        return False, 0
