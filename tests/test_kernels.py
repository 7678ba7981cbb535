"""Kernel-tier dispatch and counter parity.

Pins the contracts the ``repro.kernels`` refactor introduced:

- tier selection (``REPRO_JIT`` override, auto-detection, forced fallback);
- the jit tier is **bit-identical** to the reference tier — outputs, pool
  mutations, device-model counters, and the t2-family bench metrics built
  from them — even when it runs as the uncompiled Python fallback;
- the committed quick baseline carries the ``t15`` parity proofs.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import create
from repro.api.snapshot import CSRSnapshot, merge_csr_delta, merge_event_window
from repro.bench.kernel_bench import OPS, kernel_artifact, op_parity
from repro.bench.results import environment_fingerprint
from repro.bench.tables import table2_edge_insertion
from repro.coo import COO
from repro.eventlog.events import EdgeBatch
from repro.gpusim.counters import get_counters
from repro.kernels import (
    KERNEL_TIERS,
    _resolve_initial_tier,
    available_tiers,
    current_tier,
    jit_available,
    kernel_tier,
    set_tier,
    use_tier,
)
from repro.util.errors import ValidationError

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks/baselines/BENCH_baseline_quick.json"


def counters_dict():
    c = get_counters()
    return {k: v for k, v in vars(c).items() if k != "_extra"}


class TestTierSelection:
    def test_tier_registry(self):
        assert KERNEL_TIERS == ("reference", "jit")
        assert current_tier() in available_tiers()
        assert kernel_tier() == current_tier()
        assert "reference" in available_tiers()

    def test_env_off_forces_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        assert _resolve_initial_tier() == "reference"
        monkeypatch.setenv("REPRO_JIT", "off")
        assert _resolve_initial_tier() == "reference"

    def test_env_on_requests_jit(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "1")
        if jit_available():
            assert _resolve_initial_tier() == "jit"
        else:
            with pytest.warns(RuntimeWarning, match="numba is not installed"):
                assert _resolve_initial_tier() == "reference"

    def test_env_unset_autodetects(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        expected = "jit" if jit_available() else "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_initial_tier() == expected

    def test_env_garbage_warns_and_autodetects(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "maybe")
        with pytest.warns(RuntimeWarning, match="unrecognised REPRO_JIT"):
            tier = _resolve_initial_tier()
        assert tier == ("jit" if jit_available() else "reference")

    def test_set_tier_unknown_raises(self):
        with pytest.raises(ValidationError, match="unknown kernel tier"):
            set_tier("cuda")

    @pytest.mark.skipif(jit_available(), reason="numba installed; jit is selectable")
    def test_set_tier_jit_without_numba_requires_force(self):
        with pytest.raises(ValidationError, match="requires numba"):
            set_tier("jit")

    def test_use_tier_restores_previous(self):
        before = current_tier()
        with use_tier("jit", force=True):
            assert current_tier() == "jit"
            with use_tier("reference"):
                assert current_tier() == "reference"
            assert current_tier() == "jit"
        assert current_tier() == before

    def test_fingerprint_records_tier(self):
        assert environment_fingerprint()["kernel_tier"] == current_tier()


def facade_workload(weighted):
    """A mixed insert/delete/search/snapshot/compaction run on the facade."""
    rng = np.random.default_rng(1234)
    g = create("slabhash", num_vertices=48, weighted=weighted)
    src = rng.integers(0, 48, 400)
    dst = rng.integers(0, 48, 400)
    w = rng.integers(1, 100, 400) if weighted else None
    if weighted:
        g.insert_edges(src, dst, w)
    else:
        g.insert_edges(src, dst)
    g.delete_edges(src[:120], dst[:120])
    exists = np.asarray(g.edge_exists(src, dst))
    snap = g.snapshot()
    g.flush_tombstones()
    s, d = g.sorted_adjacency()
    return (
        exists,
        snap.row_ptr,
        snap.col_idx,
        snap.weights,
        np.asarray(s),
        np.asarray(d),
        counters_dict(),
    )


def assert_state_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, dict):
            assert x == y
        elif x is None:
            assert y is None
        else:
            assert np.array_equal(x, y)


class TestCounterParity:
    @pytest.mark.parametrize("weighted", [True, False])
    def test_facade_workload_bit_identical(self, weighted):
        get_counters().reset()
        ref = facade_workload(weighted)
        get_counters().reset()
        with use_tier("jit", force=True):
            jit = facade_workload(weighted)
        assert_state_equal(ref, jit)

    def test_merge_event_window_bit_identical(self):
        rng = np.random.default_rng(7)
        comp = np.unique(
            (rng.integers(0, 32, 300).astype(np.int64) << 32)
            | rng.integers(0, 32, 300)
        )
        base = CSRSnapshot.from_coo(
            COO(comp >> 32, comp & 0xFFFFFFFF, 32,
                weights=np.arange(comp.size, dtype=np.int64))
        )
        events = [
            EdgeBatch(
                seq=i,
                before_version=i,
                after_version=i + 1,
                is_insert=bool(i % 2 == 0),
                src=rng.integers(0, 32, 50),
                dst=rng.integers(0, 32, 50),
                weights=rng.integers(1, 9, 50),
                rows=50,
            )
            for i in range(4)
        ]

        def run():
            get_counters().reset()
            out = merge_event_window(base, events)
            return out.row_ptr, out.col_idx, out.weights, counters_dict()

        ref = run()
        with use_tier("jit", force=True):
            jit = run()
        assert_state_equal(ref, jit)

    def test_merge_duplicate_base_raises_in_both_tiers(self):
        empty = np.empty(0, dtype=np.int64)

        def base(row_ptr, col_idx):
            return CSRSnapshot(
                row_ptr=np.array(row_ptr, dtype=np.int64),
                col_idx=np.array(col_idx, dtype=np.int64),
                weights=None,
                num_vertices=len(row_ptr) - 1,
            )

        duplicated = base([0, 2], [5, 5])
        descending = base([0, 2], [5, 3])
        # Row 0 ends and row 1 starts with column 4: still strictly
        # increasing composite keys, so a valid base.
        seam = base([0, 2, 4], [1, 4, 4, 6])
        for tier in ("reference", "jit"):
            with use_tier(tier, force=True):
                for bad in (duplicated, descending):
                    with pytest.raises(ValidationError, match="duplicate"):
                        merge_csr_delta(bad, empty, None, empty)
                out = merge_csr_delta(seam, np.array([(1 << 32) | 5]), None, empty)
                assert out.row_ptr.tolist() == [0, 2, 5]
                assert out.col_idx.tolist() == [1, 4, 4, 5, 6]

    def test_t2_metrics_bit_identical(self):
        """The t2 bench values derive from modeled counters, so the whole
        table must be bit-identical with the jit tier on."""
        rng = np.random.default_rng(5)
        comp = np.unique(
            (rng.integers(0, 64, 500).astype(np.int64) << 32)
            | rng.integers(0, 64, 500)
        )
        datasets = {"tiny": COO(comp >> 32, comp & 0xFFFFFFFF, 64)}

        def metrics():
            art = table2_edge_insertion(seed=3, datasets=datasets, quick=True)
            return {r.metric: r.value for r in art.results}

        ref = metrics()
        with use_tier("jit", force=True):
            jit = metrics()
        assert ref == jit
        assert ref  # sanity: the table actually produced metrics


#: Composite keys over a 6-vertex graph (rows 0 and 5 are the first and
#: last vertex rows; any row the draw misses is empty).
_MERGE_V = 6
_merge_keys = st.sets(
    st.tuples(st.integers(0, _MERGE_V - 1), st.integers(0, _MERGE_V - 1)), max_size=24
)


class TestMergeProperty:
    """``merge_csr_delta`` equals a cold ``from_coo`` of the same live set,
    in both tiers, with equal counter deltas."""

    @settings(max_examples=60, deadline=None)
    @given(
        base=_merge_keys,
        delta=st.dictionaries(
            st.tuples(st.integers(0, _MERGE_V - 1), st.integers(0, _MERGE_V - 1)),
            st.one_of(st.none(), st.integers(1, 99)),  # None = delete
            max_size=16,
        ),
        weighted=st.booleans(),
        upsert_weights=st.booleans(),
    )
    @example(base=set(), delta={(0, 1): 7, (5, 5): 3}, weighted=True, upsert_weights=True)
    @example(
        base={(0, 0), (0, 3), (5, 1), (5, 4)},
        # (0, 2) is inserted right before the replaced (0, 3).
        delta={(0, 2): 11, (0, 3): 42, (5, 4): 9, (2, 2): None, (5, 0): None},
        weighted=True,
        upsert_weights=True,
    )
    def test_matches_cold_rebuild(self, base, delta, weighted, upsert_weights):
        def comp(pairs):
            return np.array(sorted((u << 32) | v for u, v in pairs), dtype=np.int64)

        base_comp = comp(base)
        base_w = (base_comp * 7 + 3) % 101 if weighted else None
        snap = CSRSnapshot.from_coo(
            COO(base_comp >> 32, base_comp & 0xFFFFFFFF, _MERGE_V, weights=base_w)
        )
        ups = comp(k for k, w in delta.items() if w is not None)
        dels = comp(k for k, w in delta.items() if w is None)
        up_w = None
        if upsert_weights:
            by_key = {(u << 32) | v: w for (u, v), w in delta.items()}
            up_w = np.array([by_key[int(c)] for c in ups], dtype=np.int64)

        live = dict(zip(base_comp.tolist(), base_w.tolist() if weighted else [0] * len(base)))
        for c in dels.tolist():
            live.pop(c, None)
        for i, c in enumerate(ups.tolist()):
            live[c] = int(up_w[i]) if up_w is not None else 0
        live_comp = np.array(sorted(live), dtype=np.int64)
        live_w = np.array([live[c] for c in sorted(live)], dtype=np.int64) if weighted else None
        want = CSRSnapshot.from_coo(
            COO(live_comp >> 32, live_comp & 0xFFFFFFFF, _MERGE_V, weights=live_w)
        )

        def run():
            get_counters().reset()
            out = merge_csr_delta(snap, ups, up_w, dels)
            return out, counters_dict()

        ref, ref_counters = run()
        with use_tier("jit", force=True):
            jit, jit_counters = run()
        assert ref_counters == jit_counters
        for out in (ref, jit):
            assert out.row_ptr.dtype == np.int64 and out.col_idx.dtype == np.int64
            assert np.array_equal(out.row_ptr, want.row_ptr)
            assert np.array_equal(out.col_idx, want.col_idx)
            if weighted:
                assert out.weights.dtype == np.int64
                assert np.array_equal(out.weights, want.weights)
            else:
                assert out.weights is None


class TestKernelBenchArtifact:
    def test_op_parity_all_ops(self):
        for op in OPS:
            assert op_parity(op, seed=11) == 1.0, op

    def test_artifact_shape(self):
        art = kernel_artifact(seed=0, quick=True)
        keys = {r.metric for r in art.results}
        for op in OPS:
            assert f"t15/{op}/reference_wall_ms" in keys
            assert f"t15/{op}/jit_parity" in keys
        parities = [r.value for r in art.results if r.metric.endswith("_parity")]
        assert parities and all(v == 1.0 for v in parities)


class TestBaselineGates:
    """The committed quick baseline must carry the tier-parity proofs."""

    def baseline_metrics(self):
        doc = json.loads(BASELINE.read_text())
        return doc, {
            r["metric"]: r["value"]
            for art in doc["artifacts"]
            for r in art["results"]
        }

    def test_baseline_carries_t15_parity(self):
        doc, metrics = self.baseline_metrics()
        for op in OPS:
            assert metrics.get(f"t15/{op}/jit_parity") == 1.0
        assert doc["environment"].get("kernel_tier") in KERNEL_TIERS

    def test_baseline_jit_speedup_gate_when_present(self):
        """On jit-enabled hosts the baseline must show the compiled tier
        actually paying off (≥3x on insert per the acceptance bar)."""
        _, metrics = self.baseline_metrics()
        speedups = {k: v for k, v in metrics.items() if k.endswith("/jit_speedup")}
        if not speedups:
            pytest.skip("baseline generated without numba; no jit wall metrics")
        assert speedups.get("t15/insert/jit_speedup", 0.0) >= 3.0
