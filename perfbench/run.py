"""Wall-clock benchmark of the dynamic-graph library.

One workload per process (the numbers are this host's wall clock, beside
the modeled ``repro.bench`` tables)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` wraps each layer's public functions and reports the per-layer
metrics.  ``--all`` runs every workload untraced, traced, and traced
again to check that the exact counts repeat, each in a fresh process::

    python3 perfbench/run.py --all --seed 1

Every metric is printed as ``<workload> <name> = <value> <unit> (n=<samples>)``
beside an environment fingerprint; the last line of a single-workload run
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Exit status: 0 when every correctness check passes, 1 when one fails,
2 when the library sources (``src/`` beside this directory) are missing.
"""

from __future__ import annotations

import os

# One thread per numeric library, set before NumPy is first imported, and
# the reference kernel tier, so runs compare like with like.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
os.environ["REPRO_JIT"] = "0"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingest", "analytics", "service")

#: Metrics that must repeat exactly for a seed (checked by ``--all``).
EXACT = (
    "gpusim.probe_rounds",
    "gpusim.slab_reads",
    "gpusim.slab_writes",
    "gpusim.slabs_allocated",
    "gpusim.sorted_elements",
    "gpusim.model_ms",
    "snapshot.merges",
    "snapshot.cold",
    "stream.pagerank_sweeps",
    "persist.replayed_events",
    "persist.wal_bytes_per_row",
)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def git_sha():
    """The checkout's commit, read from ``.git`` (None outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint(name, seed, size, profile_name):
    from perfbench.workloads import FSYNC
    from repro.kernels import kernel_tier

    return {
        "workload": name,
        "seed": seed,
        "profile": profile_name,
        "kernel_tier": kernel_tier(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "fsync": FSYNC if name == "service" else None,
        "compaction_every_rounds": size.epoch if name != "analytics" else None,
        "checkpoint_every_rounds": size.epoch if name == "service" else None,
        "git_sha": git_sha(),
    }


class Loop:
    """What the timed loop measured."""

    def __init__(self) -> None:
        self.round_s: list = []
        self.traced: list = []
        #: ``(rounds, seconds)`` per epoch, maintenance included.
        self.epochs: list = []
        #: Per-round ``rows / seconds`` inside each kind of call, for every
        #: round and for the untraced rounds after the count window.
        self.rates: dict = {}
        self.untraced_rates: dict = {}
        self.exact: dict = {}
        self.slab_samples: list = []
        #: ``(seconds, replayed_events, traced)`` per shard rebuild.
        self.rebuilds: list = []
        self.problems: list = []

    @property
    def rounds(self) -> int:
        return len(self.round_s)

    def add(self, round_s, timing, traced, counted) -> None:
        self.round_s.append(round_s)
        self.traced.append(traced)
        for kind in ("insert", "delete", "query"):
            if timing.get(kind):
                rate = timing[kind + "_rows"] / timing[kind] / 1e6
                self.rates.setdefault(kind, []).append(rate)
                if not traced and not counted:
                    self.untraced_rates.setdefault(kind, []).append(rate)


@contextmanager
def session(tracer, w, ctx, on):
    """Install the tracer's shims for one round, maintenance step or rebuild."""
    if not on:
        yield False
        return
    from perfbench.tracer import targets_for

    with tracer.installed(targets_for(w.g, w.analytics), ctx):
        yield True


def run_loop(w, seconds, tracer) -> Loop:
    """Closed loop with one client, in whole epochs, until the rounds and
    their maintenance have taken ``seconds`` and at least
    ``size.min_rounds`` rounds have run.

    In a traced run the first ``count_rounds`` rounds are all traced (the
    exact counts come from them); after that every other round is, so the
    untraced ones give the tracing overhead.  Maintenance steps are always
    traced, rebuilds every other one.  Shard rebuilds run once, right
    after round ``count_rounds``, outside the measured time, so they
    always replay the same history.
    """
    from repro.gpusim.counters import get_counters
    from repro.gpusim.model import simulated_seconds

    size = w.size
    loop = Loop()
    counters = get_counters()
    before = counters.snapshot()
    wal_before = w.wal_totals() if hasattr(w, "wal_totals") else None

    @contextmanager
    def traced_rebuild(i):
        with session(tracer, w, ("rebuild", i), tracer is not None and i % 2 == 0) as on:
            yield on

    measured = 0.0
    r = 0
    while r < size.min_rounds or measured < seconds:
        w.start_epoch(r // size.epoch)
        epoch_s = 0.0
        for r in range(r + 1, r + size.epoch + 1):
            inputs = w.stream.batch(r)
            counted = r <= size.count_rounds
            timing: dict = {}
            traced = tracer is not None and (counted or r % 2 == 1)
            with session(tracer, w, ("round", r), traced):
                t0 = perf_counter()
                w.round(r, inputs, timing)
                round_s = perf_counter() - t0
            epoch_s += round_s
            if w.maintenance_due(r):
                if tracer is not None:
                    loop.slab_samples.append(w.slab_stats())
                with session(tracer, w, ("maint", r), tracer is not None):
                    t0 = perf_counter()
                    w.maintain(r)
                    epoch_s += perf_counter() - t0
            loop.add(round_s, timing, traced, counted)
            if r == size.count_rounds:
                delta = counters.diff(before)
                for key in ("probe_rounds", "slab_reads", "slab_writes", "slabs_allocated",
                            "sorted_elements"):
                    loop.exact[f"gpusim.{key}"] = delta[key]
                loop.exact["gpusim.model_ms"] = simulated_seconds(delta) * 1e3
                if wal_before is not None:
                    wal_bytes, wal_rows = (a - b for a, b in zip(w.wal_totals(), wal_before))
                    loop.exact["persist.wal_bytes_per_row"] = wal_bytes / max(wal_rows, 1)
                if hasattr(w, "recover"):
                    loop.rebuilds, loop.problems = w.recover(traced_rebuild)
        loop.epochs.append((size.epoch, epoch_s))
        measured += epoch_s
    if tracer is not None:
        loop.slab_samples.append(w.slab_stats())
    return loop


def end_to_end(w, setups, loop, peak_mb) -> list:
    """``(name, value, unit, samples)`` of every end-to-end metric; the
    first six are the ones ``BENCHMARK.json`` gates on every workload."""
    epoch_rps = [n / s for n, s in loop.epochs]
    # p90 per block of ``min_rounds`` rounds (ten samples beyond it), median
    # over blocks, so a stall confined to a few blocks does not move it.
    block = w.size.min_rounds
    p90s = [np.percentile(loop.round_s[i : i + block], 90)
            for i in range(0, loop.rounds - block + 1, block)]
    inserts = loop.rates["insert"]
    rows = [
        ("setup_s", median(setups), "s", len(setups)),
        ("rounds_per_s", median(epoch_rps), "1/s", len(epoch_rps)),
        ("round_ms_p50", median(loop.round_s) * 1e3, "ms", loop.rounds),
        ("round_ms_p90", median(p90s) * 1e3, "ms", loop.rounds),
        ("insert_medges_per_s", median(inserts), "MEdge/s", len(inserts)),
        ("peak_rss_mb", peak_mb, "MB", 1),
    ]
    for kind, name, unit in (("delete", "delete_medges_per_s", "MEdge/s"),
                             ("query", "query_mprobes_per_s", "MProbe/s")):
        if kind in loop.rates:
            rows.append((name, median(loop.rates[kind]), unit, len(loop.rates[kind])))
    if loop.rebuilds:
        rebuild_s = [s for s, _, _ in loop.rebuilds]
        rows.append(("recovery_s", median(rebuild_s), "s", len(rebuild_s)))
    rows.append(
        ("op_error_ratio", w.ops.failed / max(w.ops.attempted, 1), "ratio", w.ops.attempted)
    )
    return rows


def per_layer(w, tracer, loop) -> list:
    """``(name, value, unit, samples)`` of every per-layer metric, from
    the traced run's spans (0 where the workload never enters a layer)."""
    from perfbench.tracer import CTX, END, NAME, PARENT, ROWS, START, VALUE

    spans = tracer.spans
    traced_rounds = [("round", r + 1) for r, on in enumerate(loop.traced) if on]
    by_round = tracer.per_ctx("round")
    by_maint = tracer.per_ctx("maint")
    out = []

    def round_ms(metric):
        values = [by_round.get(ctx, {}).get(metric, 0.0) for ctx in traced_rounds]
        out.append((metric, median(values), "ms", len(values)))

    def maint_ms(metric):
        values = [v[metric] for v in by_maint.values() if metric in v]
        out.append((metric, median(values), "ms", len(values)))

    def inclusive_ms(metric, kind, name):
        """Median, over the maintenance steps or rebuilds that ran ``name``,
        of the time inside its spans, children included."""
        per: dict = {}
        for s in spans:
            if s[CTX] is not None and s[CTX][0] == kind and s[NAME] == name:
                per[s[CTX]] = per.get(s[CTX], 0.0) + (s[END] - s[START]) / 1e6
        out.append((metric, median(list(per.values())), "ms", len(per)))

    def ratio(name, num, den, unit="ratio"):
        out.append((name, num / den if den else 0.0, unit, den))

    in_rounds = [s for s in spans if s[CTX] is not None and s[CTX][0] == "round"]
    counted = [
        s for s in spans
        if s[CTX] is not None and s[CTX][0] != "rebuild" and s[CTX][1] <= w.size.count_rounds
    ]

    round_ms("facade.normalize_ms")
    round_ms("facade.self_ms")

    for metric in ("slabhash.insert_ms", "slabhash.delete_ms", "slabhash.search_ms"):
        round_ms(metric)
    inclusive_ms("slabhash.flush_ms", "maint", "slabhash.flush")
    tombs = [t for t, _, _ in loop.slab_samples]
    out.append(("slabhash.tombstones_peak", max(tombs, default=0), "count", len(tombs)))
    chains = [slabs / buckets for _, slabs, buckets in loop.slab_samples if buckets]
    out.append(("slabhash.chain_len_mean", float(np.mean(chains)) if chains else 0.0,
                "slabs", len(chains)))
    ins = [s for s in in_rounds if s[NAME] == "slabhash.insert"]
    ratio("slabhash.insert_new_ratio", sum(s[VALUE] for s in ins), sum(s[ROWS] for s in ins))
    hits = [s for s in in_rounds if s[NAME] == "slabhash.search" and s[VALUE] is not None]
    ratio("slabhash.hit_ratio", sum(s[VALUE] for s in hits), sum(s[ROWS] for s in hits))

    for metric in ("kernels.insert_ms", "kernels.search_ms", "kernels.delete_ms"):
        round_ms(metric)
    maint_ms("kernels.walk_ms")
    round_ms("kernels.merge_ms")
    calls: dict = {}
    for s in in_rounds:
        if s[NAME].startswith("kernels."):
            calls[s[CTX]] = calls.get(s[CTX], 0) + 1
    out.append(("kernels.calls", median([calls.get(c, 0) for c in traced_rounds]), "count",
                len(traced_rounds)))

    for key in (k for k in EXACT if k.startswith("gpusim.")):
        unit = "ms" if key.endswith("_ms") else "count"
        out.append((key, loop.exact.get(key, 0), unit, w.size.count_rounds))

    round_ms("eventlog.publish_ms")

    round_ms("snapshot.ms")
    kinds = [s[VALUE] for s in counted if s[NAME] == "snapshot"]
    out.append(("snapshot.merges", kinds.count("merge"), "count", len(kinds)))
    out.append(("snapshot.cold", kinds.count("cold"), "count", len(kinds)))

    for metric in ("stream.cc_ms", "stream.pagerank_ms", "stream.tc_ms", "stream.bfs_ms",
                   "stream.kcore_ms"):
        round_ms(metric)
    queries = [s for s in in_rounds if s[NAME].startswith("stream.")]
    ratio("stream.warm_ratio", sum(s[VALUE][0] for s in queries), len(queries))
    sweeps = [s[VALUE][1] for s in counted if s[NAME] == "stream.pagerank"]
    out.append(("stream.pagerank_sweeps", sum(sweeps), "count", len(sweeps)))

    round_ms("sharding.router_ms")
    fan: dict = {}
    for s in in_rounds:
        if s[NAME] == "facade.op" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "sharding.op":
            fan.setdefault(s[PARENT], []).append(s[ROWS])
    ratio("sharding.shards_per_batch", sum(len(v) for v in fan.values()), len(fan), "shards")
    skew = [max(v) / (sum(v) / len(v)) for v in fan.values() if sum(v)]
    ratio("sharding.row_skew", sum(skew), len(skew))
    retries = w.g.fault_stats["retries"] if hasattr(w.g, "fault_stats") else 0
    out.append(("sharding.retries", retries, "count", 1))

    round_ms("persist.wal_append_ms")
    round_ms("persist.sync_ms")
    inclusive_ms("persist.checkpoint_ms", "maint", "persist.checkpoint")
    out.append(("persist.wal_bytes_per_row", loop.exact.get("persist.wal_bytes_per_row", 0.0),
                "B/row", w.size.count_rounds))
    ckpt = [s[VALUE] / 1e6 for s in spans if s[NAME] == "persist.checkpoint"]
    out.append(("persist.checkpoint_mb", median(ckpt), "MB", len(ckpt)))
    for name in ("persist.scan", "persist.ckpt_load", "persist.replay"):
        inclusive_ms(name + "_ms", "rebuild", name)
    replayed = [n for _, n, _ in loop.rebuilds]
    out.append(("persist.replayed_events", median(replayed), "count", len(replayed)))

    # End-to-end figures of operations not every workload issues, from
    # the untraced rounds and rebuilds of this run.
    for kind, name, unit in (("delete", "ops.delete_medges_per_s", "MEdge/s"),
                             ("query", "ops.query_mprobes_per_s", "MProbe/s")):
        values = loop.untraced_rates.get(kind, [])
        out.append((name, median(values), unit, len(values)))
    plain = [s for s, _, traced in loop.rebuilds if not traced]
    out.append(("ops.recovery_s", median(plain), "s", len(plain)))

    split = [(t, on) for i, (t, on) in enumerate(zip(loop.round_s, loop.traced))
             if i >= w.size.count_rounds]
    on = [t for t, traced in split if traced]
    off = [t for t, traced in split if not traced]
    overhead = (len(on) / sum(on)) / (len(off) / sum(off)) if on and off else 0.0
    out.append(("trace.overhead_ratio", overhead, "ratio", len(split)))
    return out


def run_workload(name, seed, seconds, trace, profile_name) -> int:
    from perfbench.tracer import Tracer
    from perfbench.workloads import PROFILES, WORKLOADS

    profile = PROFILES[profile_name]
    size = profile[name]
    workroot = HERE / ".work" / f"{name}-{os.getpid()}"
    w = None
    try:
        setups = []
        for i in range(profile["setups"]):
            if w is not None:
                w.close()
                w = None
                gc.collect()
            w = WORKLOADS[name](seed, size, workroot / f"setup-{i}")
            t0 = perf_counter()
            w.setup()
            setups.append(perf_counter() - t0)
        tracer = Tracer() if trace else None
        loop = run_loop(w, seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = loop.problems + w.check(loop.rounds)
        env = fingerprint(name, seed, size, profile_name)
        if trace:
            rows = per_layer(w, tracer, loop)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{name}-seed{seed}.jsonl", env)
        else:
            rows = end_to_end(w, setups, loop, peak_mb)
        print("env " + json.dumps(env, sort_keys=True))
        for metric, value, unit, samples in rows:
            print(f"{name} {metric} = {value:.6g} {unit} (n={samples})")
        for problem in problems:
            print(f"{name} CHECK FAILED: {problem}")
        for error in w.ops.errors:
            print(f"{name} OPERATION RAISED: {error}")
        gated = rows if trace else rows[:6]
        result = {
            "correct": not problems,
            "attempted": w.ops.attempted,
            "failed": w.ops.failed,
            "metrics": {
                metric: {"value": float(value), "unit": unit}
                for metric, value, unit, _ in gated
            },
        }
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        if w is not None:
            w.close()
        shutil.rmtree(workroot, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, each in its own process: untraced, traced, and
    traced again for one second to check that the exact counts repeat."""
    status = 0
    for name in WORKLOAD_NAMES:
        traced = []
        runs = ((0, args.seconds, True), (1, args.seconds, True), (1, 1, False))
        for trace, seconds, echo in runs:
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
                "--size", args.size,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if echo or proc.returncode != 0:
                print("\n".join(lines[:-1] if proc.returncode == 0 else lines) + proc.stderr)
            if proc.returncode != 0:
                print(f"{name} FAILED (exit {proc.returncode})")
                status = 1
            elif trace:
                traced.append(json.loads(lines[-1])["metrics"])
        if len(traced) == 2:
            differ = [k for k in EXACT if traced[0][k]["value"] != traced[1][k]["value"]]
            if differ:
                print(f"{name} CHECK FAILED: exact counts differ between two runs: {differ}")
                status = 1
            else:
                print(f"{name} exact counts repeat across two traced runs ({len(EXACT)} checked)")
    print("ALL CHECKS PASSED" if status == 0 else "SOME CHECKS FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"library sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    sys.path[:0] = [str(SRC), str(ROOT)]
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)


if __name__ == "__main__":
    sys.exit(main())
