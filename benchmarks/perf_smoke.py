#!/usr/bin/env python
"""Round-engine perf smoke: optimized hot paths vs frozen seed implementations.

Runs in well under 60 seconds and produces ``BENCH_round_engine.json`` (at
the repository root by default), the machine-readable evidence for this
repo's round-level speedups:

* ``signguard_pipeline``   — full ``SignGuardPipeline.aggregate`` (plain
  variant) at n=100 clients, dim=100k, vs the seed pipeline.
* ``krum_scoring_round``   — Krum scoring *inside a round* (the distance
  matrix is shared round-level state) vs the seed per-call Gram rebuild.
* ``bulyan``               — full Bulyan aggregation vs the seed's
  per-iteration Gram rebuild.
* ``meanshift``            — vectorized Mean-Shift fit vs the seed's
  per-iteration full recompute + Python merge loop; a ``meanshift/binned``
  row records the grid-seeded (``bin_seeding=True``) fit vs the unbinned
  one at the same n=400 feature set, after asserting both discover the
  same trusted majority.
* ``collect_gradients``    — the round's sequential collect stage at
  n=100 clients whose dispatch carries a small simulated latency
  (``time.sleep``; ``simulated_client_latency_s`` in the JSON): the
  full-round baseline of the sampled row below.
* ``collect_gradients_sampled`` — the same collect stage under partial
  participation (a 20% cohort via ``rows=``): a sampled round must be
  measurably cheaper than a full round (>= 2x floor), because collect cost
  scales with the cohort, not the population.  Non-contiguous subsets are
  first verified **bit-identical** on the sequential, ``process`` and
  distributed backends.
* ``collect_gradients_cpu_bound/process4`` — the compute-bound collect
  stage (no latency) on the ``process`` backend: a local fleet of 4
  ``repro-worker`` subprocesses (BLAS threads pinned to their share of
  the cores) driven by :class:`repro.fl.transport.DistributedCollector`
  over localhost TCP, vs the sequential loop.  A >= 1.5x floor is
  enforced whenever the host has more than one core (``cpu_count`` is
  recorded in the JSON; on a single-core host the fleet cannot beat
  sequential and the floor is reported as skipped); the JSON also records
  ``bytes_per_round`` on the wire.  Before any timing, full **and**
  sampled ``process`` and distributed collects are verified
  **bit-identical** to the sequential path.
* ``collect_gradients_wire_codec/<codec>`` — one row per registered
  gradient wire codec (``raw``, ``sign1bit``, ``int8``, ``fp16``,
  ``topk``): the same distributed collect with the codec negotiated,
  recording the **steady-state received bytes per round** and the
  compression ratio vs ``raw``.  Two floors are enforced (ISSUE 7's
  acceptance numbers): ``sign1bit`` must receive <= raw/16 and ``int8``
  <= raw/4, each plus a small fixed-overhead allowance for message
  envelopes and trailers.
* ``profiled_round``       — per-stage timings of real federated rounds via
  :class:`repro.perf.RoundProfiler`, including per-worker collect stages
  (context, not a speedup claim).
* ``large_cohort/*``       — the n=10,000 tier from ``large_cohort.py``:
  blocked Krum scoring, streamed SignGuard features, subsampled Mean-Shift
  bandwidth, and DnC power iteration, each under its memory floor (no
  n x n allocation, proved by ``tracemalloc``) and speedup floors.
  Recorded on full/``--quick`` runs; ``--check`` skips it because CI
  enforces the same floors in a dedicated ``large_cohort.py --check``
  step.

Every bench row additionally records ``peak_rss_bytes``, the process
high-water-mark RSS at measurement time (stamped by ``run_benchmark``).

The script **fails loudly** (non-zero exit) when an optimized path stops
using the cache (detected via ``GradientBatch.compute_counts``), when a
fleet collect stops matching the sequential collect bit-for-bit, or when
a speedup regresses below its floor.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--output PATH] [--quick]
    PYTHONPATH=src python benchmarks/perf_smoke.py --check   # CI: no rewrite
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.aggregators.base import ServerContext  # noqa: E402
from repro.aggregators.bulyan import BulyanAggregator  # noqa: E402
from repro.aggregators.krum import (  # noqa: E402
    krum_scores_from_sq_distances,
)
from repro.clustering import MeanShift  # noqa: E402
from repro.core.pipeline import SignGuardPipeline  # noqa: E402
from repro.data.factory import build_dataset  # noqa: E402
from repro.fl.client import BenignClient  # noqa: E402
from repro.fl import SequentialCollector, make_collector  # noqa: E402
from repro.fl.transport import (  # noqa: E402
    DistributedCollector,
    start_thread_fleet,
    wire_codec_names,
)
from repro.nn.models.factory import build_model  # noqa: E402
from repro.perf import (  # noqa: E402
    RoundProfiler,
    run_benchmark,
    speedup,
    write_bench_json,
)
from repro.perf import reference as ref  # noqa: E402
from repro.utils.batch import GradientBatch  # noqa: E402
from repro.utils.rng import RngFactory  # noqa: E402

import large_cohort  # noqa: E402  (sibling module in benchmarks/)


class SmokeFailure(RuntimeError):
    """Raised when the optimized path regressed or fell back to naive code."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def make_population(n_clients: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    signal = rng.normal(0.05, 1.0, size=dim)
    honest = signal[None, :] + rng.normal(
        0, 0.3, size=(n_clients - n_clients // 5, dim)
    )
    malicious = -signal[None, :] + rng.normal(0, 0.05, size=(n_clients // 5, dim))
    return np.vstack([honest, malicious])


def check_cache_discipline(gradients: np.ndarray) -> None:
    """Prove the optimized round never recomputes a cached quantity.

    This is the "no silent fallback to naive" guard: if a future change stops
    consuming the shared GradientBatch, a quantity's compute count goes to 0
    (bypassed entirely — recomputed outside the cache) or above 1 and this
    check fails the smoke run.
    """
    batch = GradientBatch(gradients)
    pipeline = SignGuardPipeline(similarity="euclidean")
    pipeline.aggregate(batch, rng=np.random.default_rng(0))
    context = ServerContext.make(rng=0, num_byzantine_hint=len(gradients) // 5)
    context.batch = batch
    BulyanAggregator().aggregate(batch.matrix, context)
    for name in ("norms", "gram", "sq_distances", "distances"):
        count = batch.compute_count(name)
        _require(
            count == 1,
            f"cache discipline violated: '{name}' computed {count} times "
            "(expected exactly 1 across pipeline + Bulyan in one round)",
        )


class LatencyClient(BenignClient):
    """Benign client with a simulated per-dispatch communication delay.

    A deployed federation pays a network round-trip per client; the
    ``time.sleep`` stand-in makes the sequential full round cost what such
    a round would, so the sampled round's saving is measured against it.
    """

    def __init__(self, *args, latency_s: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.latency_s = latency_s

    def compute_gradient(self, model):
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().compute_gradient(model)


def make_collect_population(
    n_clients: int, latency_s: float, seed: int = 0, *, plain_clients: bool = False
):
    """(clients, model, buffer) for the collect-stage benchmark.

    Every client's batch-sampling RNG is an :class:`RngFactory` child stream
    fixed here — before any dispatch — which is what makes a fleet collect
    bit-identical to the sequential one.

    ``plain_clients=True`` builds :class:`BenignClient`\\ s (importable from
    ``repro``) instead of the script-local :class:`LatencyClient` — required
    when the population is pickled to ``repro-worker`` subprocesses, which
    cannot import this script's ``__main__`` classes.
    """
    samples_per_client = 20
    split = build_dataset(
        "mnist_like",
        num_train=n_clients * samples_per_client,
        num_test=16,
        rng=np.random.default_rng(seed),
    )
    rng_factory = RngFactory(seed)
    partitions = np.array_split(np.arange(len(split.train)), n_clients)
    client_kwargs = {} if plain_clients else {"latency_s": latency_s}
    client_cls = BenignClient if plain_clients else LatencyClient
    clients = [
        client_cls(
            client_id,
            split.train.subset(indices),
            batch_size=16,
            rng=rng_factory.make(f"client-{client_id}"),
            **client_kwargs,
        )
        for client_id, indices in enumerate(partitions)
    ]
    model = build_model(
        "mlp", split.spec, rng=rng_factory.make("model"), params={"hidden_dims": (32,)}
    )
    buffer = np.empty((n_clients, model.num_parameters()), dtype=np.float64)
    return clients, model, buffer


def check_collect_equivalence(n_clients: int) -> None:
    """The ``process`` backend's float64 collect must be bit-identical to
    sequential (same per-client RNG streams, fixed before dispatch)."""
    clients_a, model, buffer_a = make_collect_population(
        n_clients, latency_s=0.0, plain_clients=True
    )
    clients_b, _, buffer_b = make_collect_population(
        n_clients, latency_s=0.0, plain_clients=True
    )
    SequentialCollector().collect(clients_a, model, buffer_a)
    with make_collector(backend="process", n_workers=2) as collector:
        collector.collect(clients_b, model, buffer_b)
    _require(
        bool(np.array_equal(buffer_a, buffer_b)),
        "process float64 collect is not bit-identical to the sequential path",
    )


def check_sampled_collect_equivalence(n_clients: int) -> None:
    """A non-contiguous participation subset must be bit-identical on the
    sequential and ``process`` backends (round-1 rows also match a full
    collect's rows)."""
    rows = list(range(1, n_clients, 3))
    clients_full, model, buffer_full = make_collect_population(n_clients, latency_s=0.0)
    SequentialCollector().collect(clients_full, model, buffer_full)
    reference = buffer_full[rows]
    for label, build in (
        ("sequential", SequentialCollector),
        ("process", lambda: make_collector(backend="process", n_workers=2)),
    ):
        clients, _, _ = make_collect_population(
            n_clients, latency_s=0.0, plain_clients=True
        )
        subset = np.empty((len(rows), model.num_parameters()))
        with build() as collector:
            collector.collect(clients, model, subset, rows=rows)
        _require(
            bool(np.array_equal(reference, subset)),
            f"{label} sampled collect is not bit-identical to the "
            "sequential full collect's sampled rows",
        )


def check_distributed_collect_equivalence(n_clients: int) -> None:
    """Full and sampled distributed collects must be bit-identical to the
    sequential path (client RNG streams live in the owning worker)."""
    clients_ref, model, buffer_ref = make_collect_population(n_clients, latency_s=0.0)
    SequentialCollector().collect(clients_ref, model, buffer_ref)
    rows = list(range(1, n_clients, 3))
    with start_thread_fleet(2) as fleet:
        clients, _, buffer = make_collect_population(n_clients, latency_s=0.0)
        with DistributedCollector(fleet.addresses) as collector:
            collector.collect(clients, model, buffer)
            _require(
                bool(np.array_equal(buffer_ref, buffer)),
                "distributed float64 collect is not bit-identical to the "
                "sequential path",
            )
            _require(
                collector.failed_rows == (),
                "healthy localhost fleet reported failed rows",
            )
    with start_thread_fleet(3) as fleet:
        clients, _, _ = make_collect_population(n_clients, latency_s=0.0)
        subset = np.empty((len(rows), model.num_parameters()))
        with DistributedCollector(fleet.addresses) as collector:
            collector.collect(clients, model, subset, rows=rows)
        _require(
            bool(np.array_equal(buffer_ref[rows], subset)),
            "distributed sampled collect is not bit-identical to the "
            "sequential full collect's sampled rows",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_round_engine.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller problem sizes (CI smoke); skips the acceptance-size run",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "CI regression gate: run at --quick sizes, enforce every floor "
            "and equivalence guard, and do NOT write the baseline JSON"
        ),
    )
    args = parser.parse_args(argv)
    if args.check:
        args.quick = True

    if args.quick:
        n_clients, dim, repeats = 50, 20_000, 2
    else:
        n_clients, dim, repeats = 100, 100_000, 3
    f = n_clients // 5
    collect_clients = 100  # the acceptance size for the collect stage
    collect_latency_s = 0.008
    collect_workers = 4  # the process backend's fleet size

    print(f"perf smoke: n_clients={n_clients} dim={dim} repeats={repeats}")
    gradients = make_population(n_clients, dim)
    results = []

    # ------------------------------------------------------------------
    # Guard: optimized paths actually consume the cache.
    # ------------------------------------------------------------------
    check_cache_discipline(gradients)
    print("cache discipline: OK (each derived quantity computed exactly once)")

    # ------------------------------------------------------------------
    # SignGuardPipeline.aggregate (plain variant)
    # ------------------------------------------------------------------
    pipeline = SignGuardPipeline()
    seed_pipeline = run_benchmark(
        lambda: ref.signguard_pipeline_reference(
            gradients, rng=np.random.default_rng(1)
        ),
        name="signguard_pipeline/seed",
        repeats=repeats,
    )
    optimized_pipeline = run_benchmark(
        lambda: pipeline.aggregate(gradients, rng=np.random.default_rng(1)),
        name="signguard_pipeline/optimized",
        repeats=repeats,
    )
    pipeline_speedup = speedup(seed_pipeline, optimized_pipeline)
    print(
        f"signguard_pipeline: seed {seed_pipeline.best_s * 1e3:.1f} ms -> "
        f"optimized {optimized_pipeline.best_s * 1e3:.1f} ms "
        f"({pipeline_speedup:.2f}x)"
    )

    # ------------------------------------------------------------------
    # Krum scoring as part of a round (distance matrix is round state)
    # ------------------------------------------------------------------
    seed_krum = run_benchmark(
        lambda: ref.krum_scores_reference(gradients, f),
        name="krum_scoring_round/seed",
        repeats=repeats,
    )
    round_batch = GradientBatch(gradients)
    round_batch.sq_distances()  # the round has computed its distances once
    optimized_krum = run_benchmark(
        lambda: krum_scores_from_sq_distances(round_batch.sq_distances(), f),
        name="krum_scoring_round/optimized",
        repeats=repeats,
    )
    krum_speedup = speedup(seed_krum, optimized_krum)
    print(
        f"krum_scoring_round: seed {seed_krum.best_s * 1e3:.1f} ms -> "
        f"optimized {optimized_krum.best_s * 1e3:.3f} ms ({krum_speedup:.0f}x)"
    )

    # ------------------------------------------------------------------
    # Bulyan end-to-end
    # ------------------------------------------------------------------
    bulyan = BulyanAggregator(num_byzantine=f)
    seed_bulyan = run_benchmark(
        lambda: ref.bulyan_reference(gradients, f),
        name="bulyan/seed",
        repeats=1,
        warmup=0,
    )
    optimized_bulyan = run_benchmark(
        lambda: bulyan(gradients, ServerContext.make(rng=0)),
        name="bulyan/optimized",
        repeats=repeats,
    )
    bulyan_speedup = speedup(seed_bulyan, optimized_bulyan)
    print(
        f"bulyan: seed {seed_bulyan.best_s:.2f} s -> "
        f"optimized {optimized_bulyan.best_s:.3f} s ({bulyan_speedup:.1f}x)"
    )

    # ------------------------------------------------------------------
    # Mean-Shift on a large feature set
    # ------------------------------------------------------------------
    feature_rng = np.random.default_rng(2)
    features = np.vstack(
        [
            feature_rng.normal([0.6, 0.05, 0.35], 0.02, size=(300, 3)),
            feature_rng.normal([0.3, 0.05, 0.65], 0.02, size=(100, 3)),
        ]
    )
    seed_meanshift = run_benchmark(
        lambda: ref.meanshift_reference(features, quantile=0.5),
        name="meanshift/seed",
        repeats=repeats,
    )
    optimized_meanshift = run_benchmark(
        lambda: MeanShift(quantile=0.5).fit(features),
        name="meanshift/optimized",
        repeats=repeats,
    )
    meanshift_speedup = speedup(seed_meanshift, optimized_meanshift)
    print(
        f"meanshift: seed {seed_meanshift.best_s * 1e3:.1f} ms -> "
        f"optimized {optimized_meanshift.best_s * 1e3:.1f} ms "
        f"({meanshift_speedup:.2f}x)"
    )

    # Binned seeding (sklearn-style bin_seeding): the shift iterations run
    # from occupied grid cells instead of every sample.  Must discover the
    # same trusted majority as the unbinned fit on these features.
    unbinned_fit = MeanShift(quantile=0.5).fit(features)
    binned_fit = MeanShift(quantile=0.5, bin_seeding=True).fit(features)
    _require(
        bool(
            np.array_equal(
                unbinned_fit.largest_cluster(), binned_fit.largest_cluster()
            )
        ),
        "binned Mean-Shift trusted majority diverged from the unbinned fit",
    )
    binned_meanshift = run_benchmark(
        lambda: MeanShift(quantile=0.5, bin_seeding=True).fit(features),
        name="meanshift/binned",
        repeats=repeats,
    )
    binned_meanshift_speedup = speedup(optimized_meanshift, binned_meanshift)
    print(
        f"meanshift_binned: unbinned {optimized_meanshift.best_s * 1e3:.1f} ms -> "
        f"binned {binned_meanshift.best_s * 1e3:.1f} ms "
        f"({binned_meanshift_speedup:.2f}x, n={len(features)} features)"
    )

    # ------------------------------------------------------------------
    # Collect stage at n=100: sequential, sampled, and the process fleet
    # ------------------------------------------------------------------
    check_collect_equivalence(16)
    print("collect equivalence: OK (process float64 bit-identical to sequential)")
    check_sampled_collect_equivalence(16)
    print(
        "sampled collect equivalence: OK "
        "(non-contiguous subsets bit-identical on sequential + process)"
    )
    check_distributed_collect_equivalence(16)
    print(
        "distributed collect equivalence: OK "
        "(localhost fleet bit-identical to sequential, full + sampled)"
    )

    clients, collect_model, collect_buffer = make_collect_population(
        collect_clients, latency_s=collect_latency_s
    )
    sequential_collector = SequentialCollector()
    seed_collect = run_benchmark(
        lambda: sequential_collector.collect(clients, collect_model, collect_buffer),
        name="collect_gradients/sequential",
        repeats=repeats,
    )
    print(
        f"collect_gradients: sequential {seed_collect.best_s * 1e3:.0f} ms "
        f"(n={collect_clients}, {collect_latency_s * 1e3:.0f} ms simulated "
        "client latency)"
    )

    # Sampled round (participation_fraction=0.2): the collect stage's cost
    # must scale with the cohort, not the population — the acceptance
    # criterion of the participation-aware round engine.
    sampled_fraction = 0.2
    sampled_rows = np.sort(
        np.random.default_rng(0).choice(
            collect_clients,
            size=max(1, int(round(sampled_fraction * collect_clients))),
            replace=False,
        )
    )
    sampled_buffer = np.empty(
        (len(sampled_rows), collect_model.num_parameters()), dtype=np.float64
    )
    sampled_collect = run_benchmark(
        lambda: sequential_collector.collect(
            clients, collect_model, sampled_buffer, rows=sampled_rows
        ),
        name=f"collect_gradients_sampled/cohort{len(sampled_rows)}",
        repeats=repeats,
    )
    sampled_collect_speedup = speedup(seed_collect, sampled_collect)
    print(
        f"collect_gradients_sampled: full {seed_collect.best_s * 1e3:.0f} ms -> "
        f"cohort({len(sampled_rows)}/{collect_clients}) "
        f"{sampled_collect.best_s * 1e3:.0f} ms "
        f"({sampled_collect_speedup:.2f}x cheaper per round)"
    )

    # Compute-bound variant (no latency) on the process backend: a local
    # repro-worker fleet sidesteps the GIL, so this one carries a floor —
    # enforced on multi-core hosts, where the paper's experiments actually
    # run.  Plain BenignClients: the population is pickled to the workers,
    # which cannot import this script's __main__ classes.
    cpu_count = os.cpu_count() or 1
    enforce_process_floor = cpu_count >= 2
    cpu_clients, cpu_model, cpu_buffer = make_collect_population(
        collect_clients, latency_s=0.0, plain_clients=True
    )
    cpu_sequential = run_benchmark(
        lambda: SequentialCollector().collect(cpu_clients, cpu_model, cpu_buffer),
        name="collect_gradients_cpu_bound/sequential",
        repeats=repeats,
    )
    with make_collector(
        backend="process", n_workers=collect_workers
    ) as process_collector:
        process_collect = run_benchmark(
            lambda: process_collector.collect(cpu_clients, cpu_model, cpu_buffer),
            name=f"collect_gradients_cpu_bound/process{collect_workers}",
            repeats=repeats,
        )
        process_bytes_round = sum(process_collector.last_round_bytes)
    process_collect_speedup = speedup(cpu_sequential, process_collect)
    print(
        f"collect_gradients_cpu_bound/process: {process_collect_speedup:.2f}x "
        f"over TCP ({process_bytes_round / 2**20:.2f} MiB/round on the wire, "
        f"cpu_count={cpu_count}, floor "
        f"{'enforced' if enforce_process_floor else 'skipped: single-core host'})"
    )

    # ------------------------------------------------------------------
    # Wire codecs: shard traffic per round under each negotiated codec
    # ------------------------------------------------------------------
    distributed_workers = 2
    # Fresh population and fleet per codec; run_benchmark's warmup pass
    # absorbs the handshake + setup round, so the timed collects — and the
    # byte counters read afterwards — are steady-state rounds.
    codec_benches = []
    codec_bytes_by_name = {}
    for codec_name in wire_codec_names():
        codec_clients, codec_model, codec_buffer = make_collect_population(
            collect_clients, latency_s=0.0, plain_clients=True
        )
        with start_thread_fleet(distributed_workers) as fleet:
            with DistributedCollector(
                fleet.addresses, wire_codec=codec_name
            ) as codec_collector:
                codec_bench = run_benchmark(
                    lambda: codec_collector.collect(
                        codec_clients, codec_model, codec_buffer
                    ),
                    name=f"collect_gradients_wire_codec/{codec_name}",
                    repeats=repeats,
                )
                codec_bytes_by_name[codec_name] = int(
                    codec_collector.last_round_bytes[1]
                )
        codec_benches.append(codec_bench)
    raw_bytes_round = codec_bytes_by_name["raw"]
    codec_compression = {
        name: raw_bytes_round / max(1, received)
        for name, received in codec_bytes_by_name.items()
    }
    for codec_name in wire_codec_names():
        print(
            f"wire_codec/{codec_name}: "
            f"{codec_bytes_by_name[codec_name] / 2**20:.3f} MiB/round received "
            f"({codec_compression[codec_name]:.1f}x vs raw)"
        )

    # ------------------------------------------------------------------
    # Per-stage profile of real federated rounds (context numbers)
    # ------------------------------------------------------------------
    from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
    from repro.fl import run_experiment

    profiler = RoundProfiler()
    run_experiment(
        ExperimentConfig(
            num_clients=15,
            seed=0,
            data=DataConfig(dataset="mnist_like", num_train=300, num_test=100),
            training=TrainingConfig(
                model="mlp",
                rounds=5,
                batch_size=16,
                n_workers=2,
                collect_backend="process",
            ),
            defense=DefenseConfig(name="signguard"),
        ),
        profiler=profiler,
    )
    profile = profiler.to_dict()
    round_mean_ms = profile["stages"]["round_total"]["mean_s"] * 1e3
    worker_stages = sorted(
        s for s in profile["stages"] if s.startswith("collect_worker")
    )
    print(
        f"profiled_round: {profile['num_rounds']} rounds, mean {round_mean_ms:.1f} ms, "
        f"per-worker collect stages: {worker_stages}"
    )

    # ------------------------------------------------------------------
    # Large-cohort tier (n=10,000): blocked/streamed/subsampled defenses
    # under memory + speedup floors.  Skipped under --check because CI
    # enforces the identical floors in a dedicated large_cohort.py --check
    # step; recording runs embed the rows in BENCH_round_engine.json.
    # ------------------------------------------------------------------
    large_cohort_metadata = None
    if not args.check:
        large_results, large_cohort_metadata = large_cohort.run_large_cohort(
            quick=args.quick, require=_require
        )
        results.extend(large_results)

    collect_extra = {
        "n_clients": collect_clients,
        "n_workers": collect_workers,
        "simulated_client_latency_s": collect_latency_s,
        "model": "mlp(hidden=32)",
        "buffer_mb": collect_buffer.nbytes / 2**20,
    }
    cpu_extra = {
        "n_clients": collect_clients,
        "n_workers": collect_workers,
        "simulated_client_latency_s": 0.0,
        "model": "mlp(hidden=32)",
    }
    for bench, extra in (
        (seed_pipeline, {}),
        (optimized_pipeline, {"speedup_vs_seed": pipeline_speedup}),
        (seed_krum, {}),
        (optimized_krum, {"speedup_vs_seed": krum_speedup}),
        (seed_bulyan, {}),
        (optimized_bulyan, {"speedup_vs_seed": bulyan_speedup}),
        (seed_meanshift, {}),
        (optimized_meanshift, {"speedup_vs_seed": meanshift_speedup}),
        (binned_meanshift, {"speedup_vs_unbinned": binned_meanshift_speedup}),
    ):
        bench.extra.update({"n_clients": n_clients, "dim": dim, **extra})
        results.append(bench)
    seed_collect.extra.update(collect_extra)
    sampled_collect.extra.update(
        {
            **collect_extra,
            "participation_fraction": sampled_fraction,
            "cohort_size": int(len(sampled_rows)),
            "speedup_vs_full_round": sampled_collect_speedup,
        }
    )
    cpu_sequential.extra.update(cpu_extra)
    process_collect.extra.update(
        {
            **cpu_extra,
            "speedup_vs_sequential": process_collect_speedup,
            "cpu_count": cpu_count,
            "bytes_per_round": process_bytes_round,
            "transport": "tcp localhost (repro-worker subprocesses)",
            "floor_enforced": enforce_process_floor,
        }
    )
    for codec_bench in codec_benches:
        codec_name = codec_bench.name.rsplit("/", 1)[1]
        codec_bench.extra.update(
            {
                **cpu_extra,
                "n_workers": distributed_workers,
                "wire_codec": codec_name,
                "bytes_received_per_round": codec_bytes_by_name[codec_name],
                "compression_vs_raw": codec_compression[codec_name],
            }
        )
    results.extend(
        [
            seed_collect,
            sampled_collect,
            cpu_sequential,
            process_collect,
            *codec_benches,
        ]
    )

    metadata = {
        "suite": "round_engine",
        "quick": bool(args.quick),
        "n_clients": n_clients,
        "dim": dim,
        "num_byzantine": f,
        "collect": {
            "n_clients": collect_clients,
            "n_workers": collect_workers,
            "simulated_client_latency_s": collect_latency_s,
            "bit_identical_to_sequential": True,
            "cpu_count": cpu_count,
            "process_bytes_per_round": process_bytes_round,
            "process_floor_enforced": enforce_process_floor,
        },
        "participation": {
            "sampled_fraction": sampled_fraction,
            "cohort_size": int(len(sampled_rows)),
            "subset_bit_identical_across_backends": True,
        },
        "distributed": {
            "n_workers": distributed_workers,
            "bytes_per_round_by_codec": codec_bytes_by_name,
            "compression_vs_raw_by_codec": codec_compression,
            "cpu_count": cpu_count,
            "bit_identical_to_sequential": True,
        },
        "round_profile": profile["stages"],
        "large_cohort": large_cohort_metadata,
        "speedups": {
            "signguard_pipeline": pipeline_speedup,
            "krum_scoring_round": krum_speedup,
            "bulyan": bulyan_speedup,
            "meanshift": meanshift_speedup,
            "meanshift_binned_vs_unbinned": binned_meanshift_speedup,
            "collect_gradients_sampled_vs_full": sampled_collect_speedup,
            "collect_gradients_cpu_bound_process": process_collect_speedup,
        },
    }
    if args.check:
        print("check mode: baseline JSON left untouched")
    else:
        write_bench_json(args.output, results, metadata=metadata)
        print(f"wrote {args.output}")

    # ------------------------------------------------------------------
    # Regression floors (fail loudly).
    # ------------------------------------------------------------------
    _require(
        pipeline_speedup >= 2.0,
        f"SignGuardPipeline speedup regressed: {pipeline_speedup:.2f}x < 2.0x",
    )
    _require(
        krum_speedup >= 2.0,
        f"round-level Krum scoring speedup regressed: {krum_speedup:.2f}x < 2.0x",
    )
    _require(
        bulyan_speedup >= 2.0,
        f"Bulyan speedup regressed: {bulyan_speedup:.2f}x < 2.0x",
    )
    _require(
        meanshift_speedup >= 1.0,
        f"Mean-Shift regressed below seed: {meanshift_speedup:.2f}x",
    )
    _require(
        sampled_collect_speedup >= 2.0,
        "sampled round collect is not measurably cheaper than a full round: "
        f"{sampled_collect_speedup:.2f}x < 2.0x "
        f"(cohort {len(sampled_rows)}/{collect_clients})",
    )
    _require(
        binned_meanshift_speedup >= 1.0,
        "binned Mean-Shift regressed below the unbinned fit: "
        f"{binned_meanshift_speedup:.2f}x",
    )
    # Per-round overhead every codec pays identically (message envelopes,
    # pickled trailers with per-client RNG states) — allowed on top of the
    # shard-traffic compression ratios.
    codec_overhead_allowance = 64 * 1024
    _require(
        codec_bytes_by_name["sign1bit"]
        <= raw_bytes_round / 16 + codec_overhead_allowance,
        "sign1bit wire traffic misses its 16x compression floor: "
        f"{codec_bytes_by_name['sign1bit']} bytes/round vs raw "
        f"{raw_bytes_round}",
    )
    _require(
        codec_bytes_by_name["int8"]
        <= raw_bytes_round / 4 + codec_overhead_allowance,
        "int8 wire traffic misses its 4x compression floor: "
        f"{codec_bytes_by_name['int8']} bytes/round vs raw {raw_bytes_round}",
    )
    if enforce_process_floor:
        _require(
            process_collect_speedup >= 1.5,
            "process collect speedup regressed: "
            f"{process_collect_speedup:.2f}x < 1.5x on a {cpu_count}-core host "
            f"(n={collect_clients}, {collect_workers} workers, compute-bound)",
        )
    else:
        print(
            "process collect floor skipped: single-core host "
            f"(recorded {process_collect_speedup:.2f}x as context)"
        )
    print("all speedup floors met")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as failure:
        print(f"PERF SMOKE FAILURE: {failure}", file=sys.stderr)
        sys.exit(1)
