"""Delta-scaling guard — an incremental k-core repair must beat a cold run.

Locks in the region-bounded repair of :class:`repro.stream.IncrementalKCore`:
after a 512-edge insert into an RMAT scale-15 graph, ``members()`` must cost
at most half of a cold :func:`repro.analytics.kcore_membership` on the same
snapshot.  The repair touches only the candidate region, so any
whole-edge-set pass re-entering it (a reverse index sorted over all |E|
destinations, say) pushes the ratio past 1 and trips the guard.

Both sides are timed in the same run and compared as a ratio of medians —
never as absolute times.  Marked ``slow`` (the suite-wide marker) so
constrained machines can skip it with ``-m 'not slow'``.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.analytics import kcore_membership
from repro.api import Graph
from repro.datasets.rmat import rmat_graph
from repro.stream import IncrementalKCore

SCALE = 15
EDGE_FACTOR = 8
BATCH = 512
K = 3
REPEATS = 7
MAX_RATIO = 0.5


def measure_kcore_repair(seed: int = 3) -> tuple[list[float], list[float]]:
    """Per repeat, time one incremental repair and one cold run on the
    snapshot it repaired against; returns ``(repair_s, cold_s)``."""
    base = rmat_graph(SCALE, EDGE_FACTOR, seed=seed, deduplicate=True).without_self_loops()
    n = base.num_vertices
    g = Graph.create("slabhash", n, weighted=False)
    g.bulk_build(base)
    kc = IncrementalKCore(g, k=K)
    kc.members()  # one-off cold init
    rng = np.random.default_rng(seed)
    repair, cold = [], []
    for _ in range(REPEATS):
        g.insert_edges(rng.integers(0, n, BATCH), rng.integers(0, n, BATCH))
        snap = g.snapshot()  # the merge is not the repair's cost
        t0 = perf_counter()
        got = kc.members()
        t1 = perf_counter()
        want = kcore_membership(snap, K)
        t2 = perf_counter()
        assert kc.last_mode == "incremental"
        assert np.array_equal(got, want)
        repair.append(t1 - t0)
        cold.append(t2 - t1)
    return repair, cold


@pytest.mark.slow
def test_incremental_kcore_beats_cold():
    repair, cold = measure_kcore_repair()
    ratio = float(np.median(repair) / np.median(cold))
    assert ratio <= MAX_RATIO, (
        f"incremental/cold k-core ratio {ratio:.2f} exceeds {MAX_RATIO} "
        f"(median repair {np.median(repair) * 1e3:.2f} ms, "
        f"cold {np.median(cold) * 1e3:.2f} ms); "
        "a whole-edge-set pass has re-entered the k-core repair"
    )
