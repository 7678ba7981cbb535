"""k-truss decomposition — the in-algorithm dynamic-deletion workload.

The paper's introduction names k-truss as the canonical example of an
algorithm that *mutates* the graph while running ("edge deletion in
k-truss"): edges whose triangle support drops below k-2 are repeatedly
deleted until a fixpoint.  This implementation performs those deletions
through the dynamic structure's ``delete_edges`` — each peeling round is a
genuine batched update phase followed by a query phase, exactly the
phase-concurrent pattern the data structure is designed for.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError
from repro.util.groupby import segment_positions

__all__ = ["ktruss"]


def _edge_support(
    row_ptr: np.ndarray, col_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support (triangles through each edge) for a sorted symmetric CSR.

    Returns (u, v, support) for each undirected edge u < v.
    """
    n = row_ptr.shape[0] - 1
    deg = np.diff(row_ptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    comp = (src << np.int64(32)) | col_idx.astype(np.int64)
    keep = src < col_idx
    u, v = src[keep], col_idx[keep].astype(np.int64)
    if u.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    swap = deg[u] > deg[v]
    small = np.where(swap, v, u)
    big = np.where(swap, u, v)
    lens = deg[small]
    starts = row_ptr[small]
    m = int(lens.sum())
    flat = segment_positions(starts, lens)
    w = col_idx[flat].astype(np.int64)
    probe = (np.repeat(big, lens).astype(np.int64) << np.int64(32)) | w
    loc = np.searchsorted(comp, probe)
    safe = np.minimum(loc, comp.shape[0] - 1)
    found = (loc < comp.shape[0]) & (comp[safe] == probe)
    support = np.bincount(
        np.repeat(np.arange(u.shape[0], dtype=np.int64), lens)[found],
        minlength=u.shape[0],
    )
    return u, v, support.astype(np.int64)


def ktruss(graph, k: int, max_rounds: int = 10_000) -> int:
    """Peel the graph (in place!) to its k-truss; returns edges deleted.

    The graph must hold a symmetric edge set.  Each round recomputes edge
    supports from a snapshot and issues one batched ``delete_edges`` for
    the sub-threshold edges (both orientations).
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    threshold = k - 2
    deleted_total = 0
    for _ in range(max_rounds):
        row_ptr, col_idx = graph.sorted_adjacency()
        u, v, support = _edge_support(row_ptr, col_idx)
        weak = support < threshold
        if not weak.any() or u.size == 0:
            break
        du, dv = u[weak], v[weak]
        if getattr(graph, "directed", True):
            # Symmetric set stored in a directed structure: delete both
            # orientations explicitly.
            graph.delete_edges(np.concatenate([du, dv]), np.concatenate([dv, du]))
        else:
            graph.delete_edges(du, dv)  # undirected mode mirrors internally
        deleted_total += int(weak.sum())
        if graph.num_edges() == 0:
            break
    return deleted_total
