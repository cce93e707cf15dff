"""Tests for the parallel collect path over a threaded worker fleet.

The parallel path is a ``DistributedCollector`` driving ``repro-worker``
servers; here they are in-process threads (``start_thread_fleet``), so the
wire protocol is real but no process is spawned.  The contract under test:
the fleet is *bit-identical* to the sequential collector at float64 (the
per-client RNG streams are fixed before dispatch, so scheduling cannot
change results), equivalent within tolerance at float32, robust across
worker-count edge cases, propagates client exceptions, NaN-invalidates the
reused round buffer so stale rows cannot leak, and reports BatchNorm
running-statistics updates whose replay onto the global model makes
evaluation metrics match the sequential path exactly.

(The ``process`` backend — the same collector over spawned ``repro-worker``
subprocesses — shares these contracts; its tests live in
``test_fl_process_collect.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
from repro.data.factory import build_dataset
from repro.fl.client import BenignClient
from repro.fl.collector import SequentialCollector, make_collector, replay_batch_stats
from repro.fl.experiment import run_experiment
from repro.fl.metrics import evaluate_model
from repro.fl.transport import DistributedCollector, start_thread_fleet
from repro.nn.activations import ReLU
from repro.nn.layers import BatchNorm1d, Flatten, Linear, Sequential
from repro.nn.models.mlp import MLP
from repro.nn.module import Module
from repro.utils.rng import RngFactory


def make_clients(n_clients, *, num_train=200, batch_size=16, seed=0):
    """A small benign population with RngFactory-derived client streams."""
    split = build_dataset(
        "mnist_like", num_train=num_train, num_test=40, rng=np.random.default_rng(seed)
    )
    rng_factory = RngFactory(seed)
    indices = np.array_split(np.arange(num_train), n_clients)
    return [
        BenignClient(
            cid,
            split.train.subset(idx),
            batch_size=batch_size,
            rng=rng_factory.make(f"client-{cid}"),
        )
        for cid, idx in enumerate(indices)
    ]


def make_model(seed=1, dtype=None):
    model = MLP(14 * 14, 10, hidden_dims=(24,), rng=np.random.default_rng(seed))
    if dtype is not None:
        model.astype(dtype)
    return model


class BatchNormMLP(Module):
    """A small model with BatchNorm running statistics (buffer state)."""

    def __init__(self, seed=1):
        rng = np.random.default_rng(seed)
        super().__init__()
        self.network = Sequential(
            Flatten(),
            Linear(14 * 14, 16, rng=rng),
            BatchNorm1d(16),
            ReLU(),
            Linear(16, 10, rng=rng),
        )

    def forward(self, x):
        return self.network(x)

    def backward(self, grad_output):
        return self.network.backward(grad_output)


class ExplodingClient(BenignClient):
    """A client whose gradient computation raises (pickles by reference)."""

    def compute_gradient(self, model):
        raise RuntimeError(f"boom: client {self.client_id} went Byzantine for real")


def exploding_client(client):
    """``client``'s population slot taken by an :class:`ExplodingClient`."""
    return ExplodingClient(
        client.client_id, client.dataset, batch_size=4, rng=np.random.default_rng(0)
    )


def fleet_collector(n_workers, **kwargs):
    """A ``DistributedCollector`` owning a fresh ``n_workers`` thread fleet.

    ``close()`` terminates the fleet with the collector.
    """
    fleet = start_thread_fleet(n_workers)
    collector = DistributedCollector(
        fleet.addresses, connect_timeout=5.0, round_timeout=30.0, **kwargs
    )
    collector.fleet = fleet
    return collector


def collect_with(collector, n_clients, *, dtype=np.float64, model_dtype=None):
    clients = make_clients(n_clients)
    model = make_model(dtype=model_dtype)
    out = np.empty((n_clients, model.num_parameters()), dtype=dtype)
    try:
        result = collector.collect(clients, model, out)
    finally:
        collector.close()
    assert result is out
    return out


class TestBitEquality:
    def test_threaded_float64_bit_identical_to_sequential(self):
        n_clients = 10
        sequential = collect_with(SequentialCollector(), n_clients)
        threaded = collect_with(fleet_collector(4), n_clients)
        # Bit-for-bit, not allclose: scheduling must not change anything.
        assert np.array_equal(sequential, threaded)

    def test_threaded_collect_repeatable_across_runs(self):
        first = collect_with(fleet_collector(3), 8)
        second = collect_with(fleet_collector(3), 8)
        assert np.array_equal(first, second)

    def test_full_experiment_equivalent_with_workers(self):
        def run(**collect):
            config = ExperimentConfig(
                num_clients=8,
                seed=5,
                data=DataConfig(dataset="mnist_like", num_train=160, num_test=40),
                training=TrainingConfig(
                    model="mlp", rounds=3, batch_size=16, **collect
                ),
                defense=DefenseConfig(name="signguard"),
            )
            return run_experiment(config)

        sequential = run()
        with start_thread_fleet(3) as fleet:
            threaded = run(collect_backend="distributed", workers=fleet.addresses)
        for a, b in zip(sequential.rounds, threaded.rounds):
            assert a.train_loss == b.train_loss
            assert a.test_accuracy == b.test_accuracy
            assert a.selected_clients == b.selected_clients


class TestFloat32:
    def test_float32_threaded_matches_sequential_bitwise(self):
        # Determinism is dtype-independent: even at float32 the threaded
        # path is bit-identical to the sequential float32 path.
        sequential = collect_with(
            SequentialCollector(), 6, dtype=np.float32, model_dtype=np.float32
        )
        threaded = collect_with(
            fleet_collector(3), 6, dtype=np.float32, model_dtype=np.float32
        )
        assert sequential.dtype == np.float32
        assert np.array_equal(sequential, threaded)

    def test_float32_close_to_float64_reference(self):
        reference = collect_with(SequentialCollector(), 6)
        reduced = collect_with(
            fleet_collector(3), 6, dtype=np.float32, model_dtype=np.float32
        )
        scale = np.abs(reference).max()
        assert np.allclose(reference, reduced, atol=1e-5 * max(scale, 1.0))


class TestWorkerCounts:
    @pytest.mark.parametrize("n_workers", [1, 7, 20])
    def test_edge_worker_counts_match_sequential(self, n_workers):
        # 1 worker, exactly n_clients, and > n_clients (idle workers).
        n_clients = 7
        sequential = collect_with(SequentialCollector(), n_clients)
        threaded = collect_with(fleet_collector(n_workers), n_clients)
        assert np.array_equal(sequential, threaded)

    def test_worker_timings_cover_all_clients(self):
        collector = fleet_collector(3)
        addresses = collector.worker_addresses
        clients = make_clients(8)
        model = make_model()
        out = np.empty((8, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
            timings = collector.worker_timings
        finally:
            collector.close()
        assert len(timings) == 3
        assert sorted(w for w, _, _ in timings) == sorted(addresses)
        assert sum(count for _, _, count in timings) == 8
        assert all(seconds >= 0 for _, seconds, _ in timings)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            start_thread_fleet(0)
        with pytest.raises(ValueError, match="n_workers"):
            make_collector(TrainingConfig(collect_backend="process", n_workers=0))

    def test_build_collector_dispatch(self):
        # The default backend is sequential at any worker count; the
        # fleet spellings are covered by test_fl_collector_factory.py.
        for training in (
            TrainingConfig(),
            TrainingConfig(n_workers=4),
            TrainingConfig(collect_backend="sequential", n_workers=4),
            TrainingConfig(collect_backend="process", n_workers=1),
        ):
            assert isinstance(make_collector(training), SequentialCollector)

    def test_build_collector_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="collect_backend"):
            make_collector(TrainingConfig(collect_backend="greenlet", n_workers=4))

    def test_collector_reusable_after_close(self):
        # A collector over a fleet it does not own only disconnects on
        # close(); the next collect reconnects and re-ships the shards.
        clients = make_clients(5)
        model = make_model()
        out = np.empty((5, model.num_parameters()))
        with start_thread_fleet(2) as fleet:
            collector = DistributedCollector(fleet.addresses, connect_timeout=5.0)
            collector.collect(clients, model, out)
            collector.close()
            collector.collect(clients, model, out)
            collector.close()
        assert np.all(np.isfinite(out))


class TestExceptionPropagation:
    def test_failing_client_raises(self):
        clients = make_clients(6)
        clients[3] = exploding_client(clients[3])
        model = make_model()
        out = np.zeros((6, model.num_parameters()))
        collector = fleet_collector(3)
        try:
            with pytest.raises(RuntimeError, match="went Byzantine"):
                collector.collect(clients, model, out)
        finally:
            collector.close()

    def test_other_clients_still_collected_on_failure(self):
        clients = make_clients(4)
        clients[0] = exploding_client(clients[0])
        model = make_model()
        out = np.zeros((4, model.num_parameters()))
        collector = fleet_collector(2)
        try:
            with pytest.raises(RuntimeError):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # Worker 1 (clients 2 and 3) finished its shard before the error
        # surfaced; its rows are populated.  Worker 0's rows (the failing
        # client and everything after it in the shard) are NaN-invalidated.
        assert np.all(np.isfinite(out[2]))
        assert np.all(np.isfinite(out[3]))
        assert np.all(np.isnan(out[0]))
        assert np.all(np.isnan(out[1]))


class TestStochasticForwardModels:
    def test_dropout_model_rejected_by_parallel_collector(self):
        from repro.nn.layers import Dropout, Flatten, Linear, Sequential
        from repro.nn.module import Module

        class DropoutMLP(Module):
            def __init__(self):
                super().__init__()
                self.network = Sequential(
                    Flatten(), Linear(14 * 14, 10, rng=0), Dropout(0.5, rng=0)
                )

            def forward(self, x):
                return self.network(x)

            def backward(self, grad_output):
                return self.network.backward(grad_output)

        clients = make_clients(4)
        model = DropoutMLP()
        out = np.empty((4, model.num_parameters()))
        collector = fleet_collector(2)
        try:
            # Dropout draws masks from a model-owned RNG; replicas would
            # consume that stream per chunk instead of in client order, so
            # the collector must refuse rather than silently diverge.
            with pytest.raises(ValueError, match="RNG-consuming"):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # The sequential strategy (n_workers=1) still accepts the model.
        SequentialCollector().collect(clients, model, out)
        assert np.all(np.isfinite(out))


class TestProfilerIntegration:
    def test_per_worker_stages_recorded(self):
        from repro.perf.profiler import RoundProfiler

        profiler = RoundProfiler()
        with start_thread_fleet(3) as fleet:
            config = ExperimentConfig(
                num_clients=6,
                seed=0,
                data=DataConfig(dataset="mnist_like", num_train=120, num_test=40),
                training=TrainingConfig(
                    model="mlp",
                    rounds=2,
                    batch_size=16,
                    collect_backend="distributed",
                    workers=fleet.addresses,
                ),
                defense=DefenseConfig(name="signguard"),
            )
            run_experiment(config, profiler=profiler)
        summary = profiler.summary()
        assert "collect_gradients" in summary
        worker_stages = [s for s in summary if s.startswith("collect_worker_")]
        expected = sorted(f"collect_worker_{a}" for a in fleet.addresses)
        assert sorted(worker_stages) == expected
        assert summary[expected[0]]["count"] == 2  # one sample per round


class TestBufferInvalidation:
    """A failed round must never leave stale gradients in the reused buffer."""

    # ``None`` stands for the two-worker thread fleet.
    @pytest.mark.parametrize("make_collector", [SequentialCollector, None])
    def test_stale_rows_are_nan_after_failure(self, make_collector):
        collector = make_collector() if make_collector else fleet_collector(2)
        clients = make_clients(4)
        clients[2] = exploding_client(clients[2])
        model = make_model()
        # Simulate a buffer still holding the previous round's gradients.
        out = np.full((4, model.num_parameters()), 7.0)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # No row may still hold the previous round's values: each row is
        # either this round's gradient or NaN.
        assert not np.any(out == 7.0)
        assert np.all(np.isnan(out[2]))

    def test_successful_round_overwrites_invalidation(self):
        clients = make_clients(5)
        model = make_model()
        out = np.full((5, model.num_parameters()), np.nan)
        SequentialCollector().collect(clients, model, out)
        assert np.all(np.isfinite(out))


def run_batchnorm_rounds(make_collector, rounds=3, n_clients=6, seed=0):
    """Collect ``rounds`` rounds with a BatchNorm model; return the final
    round buffer, evaluation metrics, and the global model's buffers.

    ``collect`` leaves the model alone, so each round replays the
    collector's reported batch statistics, as the simulation does.  Shared
    with ``test_fl_process_collect.py`` so every backend is checked against
    the same sequential reference.
    """
    split = build_dataset(
        "mnist_like",
        num_train=180,
        num_test=60,
        rng=np.random.default_rng(seed),
    )
    rng_factory = RngFactory(seed)
    indices = np.array_split(np.arange(180), n_clients)
    clients = [
        BenignClient(
            cid,
            split.train.subset(idx),
            batch_size=16,
            rng=rng_factory.make(f"client-{cid}"),
        )
        for cid, idx in enumerate(indices)
    ]
    model = BatchNormMLP()
    out = np.empty((n_clients, model.num_parameters()))
    with make_collector() as collector:
        for _ in range(rounds):
            collector.collect(clients, model, out)
            replay_batch_stats(model, collector.last_round_batch_stats)
    accuracy, loss = evaluate_model(model, split.test)
    buffers = {name: value.copy() for name, value in model.named_buffers()}
    return out.copy(), accuracy, loss, buffers


class TestBatchNormBufferParity:
    """Sequential and thread-fleet collect agree on BatchNorm buffers and eval.

    Every backend reports its clients' per-batch statistics, and replaying
    them onto the global model in client order makes running statistics —
    and therefore evaluation metrics — bit-identical between backends.
    """

    def test_threaded_buffers_and_eval_match_sequential(self):
        seq_out, seq_acc, seq_loss, seq_buffers = run_batchnorm_rounds(
            SequentialCollector
        )
        par_out, par_acc, par_loss, par_buffers = run_batchnorm_rounds(
            lambda: fleet_collector(3)
        )
        assert np.array_equal(seq_out, par_out)
        assert seq_acc == par_acc
        assert seq_loss == par_loss
        assert set(seq_buffers) == set(par_buffers)
        for name in seq_buffers:
            assert np.array_equal(seq_buffers[name], par_buffers[name]), name

    def test_global_model_buffers_actually_updated(self):
        # The replay must reach the *global* model: after collect rounds the
        # running statistics have moved away from their (0, 1) init.
        _, _, _, buffers = run_batchnorm_rounds(
            lambda: fleet_collector(2), rounds=2
        )
        mean_name = next(name for name in buffers if "running_mean" in name)
        assert not np.allclose(buffers[mean_name], 0.0)
