"""The public dynamic graph (Sections III-IV).

:class:`DynamicGraph` composes the vertex dictionary with the batched
kernels in the sibling modules.  Directed and undirected graphs are
supported (undirected operations mirror both orientations); the *weighted*
flag selects the slab-hash variant — concurrent map (15 KV lanes/slab)
when True, concurrent set (30 key lanes/slab) when False — exactly the two
variants the paper offers.

The class also implements the scalar :class:`repro.gpusim.wcws.WCWSTarget`
protocol so the literal Algorithm 1/2 reference engine can drive it; tests
use that to certify that the vectorized kernels and the paper's pseudocode
agree.
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import GraphBackend
from repro.api.capabilities import Capabilities
from repro.coo import COO
from repro.core import bulk as _bulk
from repro.core import edge_ops as _edge_ops
from repro.core import queries as _queries
from repro.core import rehash as _rehash
from repro.core import vertex_ops as _vertex_ops
from repro.core.vertex_dict import VertexDictionary
from repro.slabhash.stats import ArenaStats, compute_stats
from repro.util.errors import ValidationError
from repro.util.validation import as_int_array, check_in_range

__all__ = ["DynamicGraph"]


class DynamicGraph(GraphBackend):
    """A hash-table-per-vertex dynamic graph.

    Parameters
    ----------
    num_vertices:
        Vertex-dictionary capacity.  Choosing it generously avoids the
        (cheap, pointer-only) reallocation on vertex insertion.
    weighted:
        Map variant (True) or set variant (False).
    directed:
        Undirected graphs mirror every edge operation.
    load_factor:
        Target hash-table load factor used whenever connectivity
        information is available to size buckets (paper default 0.7).
    hash_seed:
        Seed for the per-vertex universal hash coefficients.

    Examples
    --------
    >>> g = DynamicGraph(num_vertices=100, weighted=True)
    >>> g.insert_edges([0, 1], [1, 2], weights=[10, 20])
    2
    >>> bool(g.edge_exists(0, 1)[0])
    True
    """

    capabilities = Capabilities(
        weighted=True,
        vertex_dynamic=True,
        rehash=True,
        tombstone_flush=True,
        vertex_id_reuse=True,
    )

    def __init__(
        self,
        num_vertices: int,
        weighted: bool = True,
        directed: bool = True,
        load_factor: float = 0.7,
        hash_seed: int = 0x5AB0,
        reuse_vertex_ids: bool = False,
    ) -> None:
        # Load factors above 1 deliberately undersize buckets to force
        # multi-slab chains — the Figure 2/3 sweeps rely on this.
        if not (0.0 < load_factor <= 16.0):
            raise ValidationError("load_factor must be in (0, 16]")
        self.weighted = bool(weighted)
        self.directed = bool(directed)
        self.load_factor = float(load_factor)
        self._dict = VertexDictionary(num_vertices, weighted=self.weighted, hash_seed=hash_seed)
        # Optional deleted-id recycling (the faimGraph feature the paper
        # names as straightforward future work; see core/id_reuse.py).
        self._recycler = None
        if reuse_vertex_ids:
            from repro.core.id_reuse import VertexIdRecycler

            self._recycler = VertexIdRecycler()

    # -- capacity / size -------------------------------------------------------

    @property
    def vertex_capacity(self) -> int:
        """Current dictionary capacity (ids addressable without growth)."""
        return self._dict.capacity

    @property
    def num_vertices(self) -> int:
        """Protocol name for :attr:`vertex_capacity` (GraphBackend)."""
        return self._dict.capacity

    def num_edges(self) -> int:
        """Exact directed-slot edge count (an undirected edge counts twice).

        O(1): reads the incrementally maintained aggregate counter.
        """
        return self._dict.total_edges()

    def num_active_vertices(self) -> int:
        """Vertices that currently participate in at least one edge ever
        inserted and were not deleted.

        O(1): reads the incrementally maintained aggregate counter.
        """
        return self._dict.num_active()

    def degree(self, vertex_ids) -> np.ndarray:
        """Exact out-degree per requested vertex (maintained counters)."""
        vids = as_int_array(vertex_ids, "vertex_ids")
        check_in_range(vids, 0, self.vertex_capacity, "vertex_ids")
        return self._dict.edge_count[vids].copy()

    # -- mutation ---------------------------------------------------------------

    def insert_edges(self, src, dst, weights=None) -> int:
        """Batched edge insertion (Algorithm 1); returns edges newly added."""
        return _edge_ops.insert_edges(self, src, dst, weights)

    def delete_edges(self, src, dst) -> int:
        """Batched edge deletion; returns edges actually removed."""
        return _edge_ops.delete_edges(self, src, dst)

    def insert_vertices(self, vertex_ids, expected_degree=None) -> None:
        """Register vertices ahead of their edges (Section IV-D1)."""
        _vertex_ops.insert_vertices(self, vertex_ids, expected_degree)

    def delete_vertices(self, vertex_ids) -> int:
        """Delete vertices and all incident edges (Algorithm 2).

        With ``reuse_vertex_ids=True`` the deleted ids enter a recycling
        queue served by :meth:`allocate_vertex_ids`.  Only ids the deletion
        actually deactivated are queued: never-active ids and repeat
        deletions of an already-dead id vend nothing to the recycler.
        """
        removed, deactivated = _vertex_ops.delete_vertices(self, vertex_ids)
        if self._recycler is not None and deactivated.size:
            self._recycler.push(deactivated)
        return removed

    def allocate_vertex_ids(self, n: int) -> np.ndarray:
        """Vend ``n`` usable vertex ids, preferring recycled ones.

        Requires ``reuse_vertex_ids=True``; implements the memory-
        efficiency strategy the paper credits to faimGraph (Section
        VI-A3).  Returned ids are registered (tables created lazily on
        first insertion).
        """
        if self._recycler is None:
            raise ValidationError("construct the graph with reuse_vertex_ids=True to recycle ids")
        self._bump_version()
        ids = self._recycler.allocate_ids(self, n)
        self._dict.activate(ids)
        return ids

    def bulk_build(self, coo: COO) -> int:
        """One-shot build with a-priori bucket sizing (Table V workload)."""
        return _bulk.bulk_build(self, coo)

    def incremental_build(self, coo: COO, batch_size: int, on_batch=None) -> int:
        """Streamed build with single-bucket tables (Table VI workload)."""
        return _bulk.incremental_build(self, coo, batch_size, on_batch)

    # -- queries ------------------------------------------------------------------

    def edge_exists(self, src, dst) -> np.ndarray:
        """Vectorized edgeExist (Section IV-B)."""
        return _queries.edge_exists(self, src, dst)

    def edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """(found, weight) per queried pair."""
        return _queries.edge_weights(self, src, dst)

    def neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One adjacency list as (destinations, weights), unordered."""
        return _queries.neighbors(self, vertex)

    def adjacencies(self, vertex_ids):
        """Batched adjacency iterator: (owner_pos, destinations, weights)."""
        return _queries.adjacencies(self, vertex_ids)

    def export_coo(self) -> COO:
        """Snapshot the live edge set."""
        return _queries.export_coo(self)

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(row_ptr, col_idx) sorted CSR snapshot.

        The hash-based structure never *maintains* sort order — that is the
        point of the paper — but tests and harnesses want a canonical view;
        this pays an explicit export + sort to produce one.
        """
        coo = self.export_coo()
        return coo.to_csr()[:2]

    # -- maintenance -----------------------------------------------------------------

    def rehash_candidates(self, max_chain_slabs: float = 2.0) -> np.ndarray:
        """Vertices whose chains exceed the threshold (Section III)."""
        return _rehash.rehash_candidates(self, max_chain_slabs)

    def rehash(self, vertex_ids=None, load_factor: float | None = None) -> int:
        """Rebuild overloaded (or given) tables at the target load factor;
        returns how many distinct tables were rebuilt."""
        if vertex_ids is None:
            vertex_ids = self.rehash_candidates()
        vertex_ids = np.unique(np.asarray(vertex_ids, dtype=np.int64))
        self._bump_version()
        _rehash.rehash_vertices(self, vertex_ids, load_factor)
        return int(vertex_ids.size)

    def flush_tombstones(self, vertex_ids=None) -> None:
        """Compact tombstoned lanes (optional cleanup, Section IV-C2)."""
        if vertex_ids is None:
            vertex_ids = np.flatnonzero(self._dict.arena.table_base != -1)
        self._bump_version()
        self._dict.arena.flush_tombstones(vertex_ids)
        self._dict.debug_check()

    def stats(self) -> ArenaStats:
        """Aggregate slab statistics over all existing tables (Figure 2)."""
        existing = np.flatnonzero(self._dict.arena.table_base != -1)
        return compute_stats(self._dict.arena, existing)

    def memory_bytes(self) -> int:
        """Bytes currently held in slabs (Figure 2c's metric)."""
        return self._dict.arena.pool.allocated_bytes

    # -- WCWS reference protocol (executable specification hooks) ----------------

    def reference_replace(self, src: int, dst: int, weight: int) -> bool:
        if src == dst:
            return False
        self._dict.ensure_tables(np.array([src], dtype=np.int64))
        self._dict.activate(np.array([src, dst], dtype=np.int64))
        self._bump_version()
        return self._dict.arena.reference_insert_one(src, dst, weight)

    def reference_delete(self, src: int, dst: int) -> bool:
        self._bump_version()
        return self._dict.arena.reference_delete_one(src, dst)

    def reference_increment_edge_count(self, src: int, amount: int) -> None:
        self._dict.increment_edge_count(src, amount)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "map" if self.weighted else "set"
        direction = "directed" if self.directed else "undirected"
        return (
            f"DynamicGraph({direction}, {kind}, |V|cap={self.vertex_capacity}, "
            f"|E|={self.num_edges()}, lf={self.load_factor})"
        )
