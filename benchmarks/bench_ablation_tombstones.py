"""Ablation — tombstone policy (Section IV-C2's design discussion).

The paper chooses append-past-tombstones ("faster insertion rates ... at
the expense of having unused memory locations") over the two-stage
overwrite policy.  This bench measures both sides of the trade-off after a
delete-heavy phase: insertion cost with tombstones left in place versus
after an explicit flush, and the memory each policy holds.
"""

import numpy as np
import pytest

from repro.core import DynamicGraph
from repro.gpusim.counters import counting
from repro.gpusim.model import simulated_seconds

N = 4000
CHURN = 6000


def _churned_graph(flush: bool):
    rng = np.random.default_rng(9)
    g = DynamicGraph(N, weighted=False)
    src = rng.integers(0, N, CHURN)
    dst = rng.integers(0, N, CHURN)
    g.insert_edges(src, dst)
    g.delete_edges(src[: CHURN // 2], dst[: CHURN // 2])
    if flush:
        g.flush_tombstones()
    return g, rng


@pytest.mark.parametrize("policy", ["tombstones", "flushed"])
def test_insert_after_churn(benchmark, policy):
    def setup():
        g, rng = _churned_graph(flush=(policy == "flushed"))
        src = rng.integers(0, N, 2048)
        dst = rng.integers(0, N, 2048)
        return (g, src, dst), {}

    def op(g, src, dst):
        g.insert_edges(src, dst)

    benchmark.pedantic(op, setup=setup, rounds=3)


def test_tradeoff_memory_vs_flush_cost():
    """Tombstones hold more memory; flushing reclaims it but costs a pass
    over every chain (read, repack, free) — the trade the paper describes."""
    g_keep, _ = _churned_graph(flush=False)
    g_flush, _ = _churned_graph(flush=False)
    kept_stats = g_keep.stats()
    assert kept_stats.tombstones > 0

    with counting() as flush_delta:
        g_flush.flush_tombstones()
    flushed_stats = g_flush.stats()
    assert flushed_stats.tombstones == 0
    assert flushed_stats.memory_bytes <= kept_stats.memory_bytes
    # The flush pass is real work, not free.
    assert simulated_seconds(flush_delta) > 0

    # Both policies expose the same live edge set.
    a = g_keep.export_coo()
    b = g_flush.export_coo()
    assert set(zip(a.src.tolist(), a.dst.tolist())) == set(zip(b.src.tolist(), b.dst.tolist()))
