"""Vectorized group-by / segmented primitives.

The batched kernels in :mod:`repro.slabhash` and the baselines all follow the
same pattern a GPU kernel does: sort work items by a key (the slab, page, or
vertex they target), then let each "group" of items cooperate.  These helpers
implement that pattern with NumPy so no per-item Python loop ever runs in a
hot path (see the hpc-parallel guide: vectorize, avoid copies, keep arrays
contiguous).

All functions operate on 1-D integer arrays and are allocation-conscious:
they return views or freshly-computed small arrays, never modify inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "first_occurrence_mask",
    "group_starts",
    "last_occurrence_mask",
    "rank_within_group",
    "segment_lengths_from_starts",
    "segment_positions",
    "segmented_sum",
    "sorted_group_ids",
]


def sorted_group_ids(sorted_keys: np.ndarray) -> np.ndarray:
    """Return a dense 0-based group id for each element of a *sorted* array.

    ``sorted_group_ids([3, 3, 5, 9, 9, 9]) == [0, 0, 1, 2, 2, 2]``.

    The input must already be sorted (ascending); this is not checked for
    speed.  Runs in O(n).
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.cumsum(boundary, dtype=np.int64) - 1


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each group begins in a *sorted* key array.

    ``group_starts([3, 3, 5, 9, 9, 9]) == [0, 2, 3]``.
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def segment_lengths_from_starts(starts: np.ndarray, total: int) -> np.ndarray:
    """Lengths of segments given their start offsets and the total length."""
    if starts.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    return np.diff(np.append(starts, total)).astype(np.int64, copy=False)


def segment_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the concatenated ranges ``[starts[i], starts[i] + lens[i])``.

    ``segment_positions([5, 0], [2, 3]) == [5, 6, 0, 1, 2]`` — the batched
    row gather of a CSR (one index per gathered edge, rows in request
    order).
    """
    m = int(lens.sum())
    return (
        np.arange(m, dtype=np.int64)
        - np.repeat(np.concatenate([[0], np.cumsum(lens)[:-1]]), lens)
        + np.repeat(starts, lens)
    )


def rank_within_group(sorted_keys: np.ndarray) -> np.ndarray:
    """0-based rank of each element within its group, for sorted keys.

    ``rank_within_group([3, 3, 5, 9, 9, 9]) == [0, 1, 0, 0, 1, 2]``.

    This is the vectorized analogue of a warp lane computing its position in
    a coalesced same-destination group (Algorithm 1, lines 7-9).
    """
    n = sorted_keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    starts = group_starts(sorted_keys)
    gids = np.zeros(n, dtype=np.int64)
    gids[starts[1:]] = 1
    gids = np.cumsum(gids)
    return np.arange(n, dtype=np.int64) - starts[gids]


def segmented_sum(values: np.ndarray, group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    """Sum ``values`` per dense group id (like a segmented reduction).

    ``group_ids`` need not be sorted.  Equivalent to ``np.bincount`` with
    weights but keeps an integer dtype for integer inputs.
    """
    if np.issubdtype(values.dtype, np.integer) or values.dtype == bool:
        out = np.bincount(group_ids, weights=values.astype(np.float64), minlength=num_groups)
        return out.astype(np.int64)
    return np.bincount(group_ids, weights=values, minlength=num_groups)


def last_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the *last* occurrence of each distinct key.

    Order of first appearance is irrelevant; "last" means highest index.
    Used to realize the paper's replace semantics within a batch: when a
    batch contains the same edge several times with different weights, only
    the most recent one survives (Section IV-C1).

    Implemented with a stable sort so ties preserve input order.
    """
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=bool)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    is_last_in_sorted = np.empty(n, dtype=bool)
    is_last_in_sorted[-1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_last_in_sorted[:-1])
    mask = np.zeros(n, dtype=bool)
    mask[order[is_last_in_sorted]] = True
    return mask


def first_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the *first* occurrence of each distinct key."""
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=bool)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    is_first_in_sorted = np.empty(n, dtype=bool)
    is_first_in_sorted[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_first_in_sorted[1:])
    mask = np.zeros(n, dtype=bool)
    mask[order[is_first_in_sorted]] = True
    return mask
