"""Tests for the ``process`` collect backend: a spawned local fleet.

Contract: ``make_collector`` on a ``collect_backend="process"`` config
with ``n_workers=n >= 2`` spawns ``n`` ``repro-worker`` subprocesses and
returns a ``DistributedCollector`` that owns them.  Each worker holds a
shard of the client population (and those clients' RNG streams) plus a
model replica; per round the caller broadcasts the global
``state_dict()`` and gathers the gradient shards.  Results must be
bit-identical to the sequential path at any worker count, across rounds,
including BatchNorm buffer state and evaluation metrics; client exceptions
propagate; a dead worker's rows are re-dispatched to the survivors; the
buffer is NaN-invalidated against stale rows.  ``close()`` terminates the
workers, and so does the death of the process that spawned them (but not
the end of the thread that spawned them) or the fleet being
garbage-collected.  A worker answers only the process that spawned it: a
handshake without its key is refused.

The fleet helpers themselves are covered here too: concurrent spawn, the
BLAS thread pinning, startup failure reporting, and the worker's import
cost (no scipy).

The suite uses 2 workers and tiny populations so it stays fast on one core.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import DataConfig, DefenseConfig, ExperimentConfig, TrainingConfig
from repro.fl.collector import SequentialCollector, make_collector
from repro.fl.experiment import run_experiment
from repro.fl.transport import (
    DistributedCollector,
    model_signature,
    parse_address,
    spawn_local_fleet,
)
from repro.fl.transport.codec import MSG_ERROR, MSG_HELLO
from repro.fl.transport.fleet import BLAS_THREAD_VARS
from repro.fl.transport.protocol import Channel, hello_header
from test_fl_parallel_collect import (
    BatchNormMLP,
    exploding_client,
    make_clients,
    make_model,
    run_batchnorm_rounds,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Fleet SETUP pickles clients and models by reference: the spawned workers
# must be able to import the test modules that define some of them.
pytestmark = pytest.mark.usefixtures("workers_import_tests")


def process_collector(n_workers=2):
    config = TrainingConfig(collect_backend="process", n_workers=n_workers)
    return make_collector(config)


def collect_rounds(make_collector, *, n_clients=6, rounds=3, dtype=np.float64):
    """Round buffers from ``rounds`` successive collects with one collector."""
    clients = make_clients(n_clients)
    model = make_model(dtype=None if dtype == np.float64 else dtype)
    out = np.empty((n_clients, model.num_parameters()), dtype=dtype)
    buffers = []
    with make_collector() as collector:
        for _ in range(rounds):
            collector.collect(clients, model, out)
            buffers.append(out.copy())
    losses = [client.last_loss for client in clients]
    return buffers, losses


def process_state(pid):
    """``/proc`` state letter of ``pid`` (``None`` once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


def spawned_workers():
    """PIDs of live ``repro-worker`` children of this process."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as cmdline:
                command = cmdline.read()
        except OSError:
            continue
        state, ppid = fields[0], int(fields[1])
        if (
            ppid == os.getpid()
            and state != "Z"
            and b"repro.fl.transport.worker" in command
        ):
            pids.add(int(entry))
    return pids


needs_proc = pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs /proc to observe workers"
)


class TestBitEquality:
    def test_process_float64_bit_identical_to_sequential(self):
        sequential, seq_losses = collect_rounds(SequentialCollector)
        process, proc_losses = collect_rounds(process_collector)
        for seq_round, proc_round in zip(sequential, process):
            assert np.array_equal(seq_round, proc_round)
        # Worker-side client state (the loss of the round's batch) is
        # mirrored back onto the caller's client objects.
        assert seq_losses == proc_losses

    def test_process_float32_bit_identical_to_sequential(self):
        sequential, _ = collect_rounds(SequentialCollector, dtype=np.float32)
        process, _ = collect_rounds(process_collector, dtype=np.float32)
        assert sequential[0].dtype == np.float32
        for seq_round, proc_round in zip(sequential, process):
            assert np.array_equal(seq_round, proc_round)

    def test_worker_count_does_not_change_results(self):
        two, _ = collect_rounds(lambda: process_collector(2), rounds=2)
        three, _ = collect_rounds(lambda: process_collector(3), rounds=2)
        for a, b in zip(two, three):
            assert np.array_equal(a, b)

    def test_single_worker_degenerates_to_sequential_inline(self):
        # n_workers=1 never spawns processes; the in-process loop runs.
        collector = process_collector(1)
        assert isinstance(collector, SequentialCollector)
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        with collector:
            collector.collect(clients, model, out)
        assert np.all(np.isfinite(out))

    def test_full_experiment_equivalent_with_process_backend(self):
        def run(backend, n_workers):
            config = ExperimentConfig(
                num_clients=6,
                seed=5,
                data=DataConfig(dataset="mnist_like", num_train=120, num_test=40),
                training=TrainingConfig(
                    model="mlp",
                    rounds=2,
                    batch_size=16,
                    n_workers=n_workers,
                    collect_backend=backend,
                ),
                defense=DefenseConfig(name="signguard"),
            )
            return run_experiment(config)

        sequential = run("sequential", 1)
        process = run("process", 2)
        for a, b in zip(sequential.rounds, process.rounds):
            assert a.train_loss == b.train_loss
            assert a.test_accuracy == b.test_accuracy
            assert a.selected_clients == b.selected_clients


class TestWorkerLifecycle:
    def test_workers_persist_across_rounds(self):
        collector = process_collector(2)
        assert isinstance(collector, DistributedCollector)
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        try:
            first_pids = [worker.process.pid for worker in collector.fleet.workers]
            collector.collect(clients, model, out)
            collector.collect(clients, model, out)
            assert [w.process.pid for w in collector.fleet.workers] == first_pids
            assert all(worker.alive for worker in collector.fleet.workers)
        finally:
            collector.close()

    def test_close_terminates_the_fleet(self):
        collector = process_collector(2)
        workers = collector.fleet.workers
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
        finally:
            collector.close()
        assert collector.fleet is None
        assert not any(worker.alive for worker in workers)
        assert np.all(np.isfinite(out))
        collector.close()  # idempotent

    def test_worker_timings_cover_all_clients(self):
        collector = process_collector(3)
        addresses = collector.worker_addresses
        clients = make_clients(8)
        model = make_model()
        out = np.empty((8, model.num_parameters()))
        try:
            collector.collect(clients, model, out)
            timings = collector.worker_timings
        finally:
            collector.close()
        assert sorted(worker for worker, _, _ in timings) == sorted(addresses)
        assert sum(count for _, _, count in timings) == 8
        assert all(seconds >= 0 for _, seconds, _ in timings)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            process_collector(0)
        with pytest.raises(ValueError, match="n_workers"):
            spawn_local_fleet(0)

    def test_profiler_records_per_worker_stages(self):
        from repro.perf.profiler import RoundProfiler

        profiler = RoundProfiler()
        config = ExperimentConfig(
            num_clients=4,
            seed=0,
            data=DataConfig(dataset="mnist_like", num_train=80, num_test=40),
            training=TrainingConfig(
                model="mlp",
                rounds=2,
                batch_size=16,
                n_workers=2,
                collect_backend="process",
            ),
            defense=DefenseConfig(name="signguard"),
        )
        run_experiment(config, profiler=profiler)
        summary = profiler.summary()
        worker_stages = [s for s in summary if s.startswith("collect_worker_")]
        assert len(worker_stages) == 2


class TestFailureSemantics:
    def test_client_exception_propagates_and_invalidates(self):
        clients = make_clients(4)
        clients[0] = exploding_client(clients[0])
        model = make_model()
        out = np.full((4, model.num_parameters()), 7.0)
        collector = process_collector(2)
        try:
            with pytest.raises(RuntimeError, match="went Byzantine"):
                collector.collect(clients, model, out)
        finally:
            collector.close()
        # Stale previous-round values cannot survive a failed round: the
        # failing worker's remaining rows are NaN, the other worker's rows
        # hold this round's gradients.
        assert not np.any(out == 7.0)
        assert np.all(np.isnan(out[0]))
        assert np.all(np.isnan(out[1]))
        assert np.all(np.isfinite(out[2]))
        assert np.all(np.isfinite(out[3]))

    def test_dead_workers_climb_the_recovery_ladder(self):
        reference, _ = collect_rounds(SequentialCollector, n_clients=4, rounds=2)
        clients = make_clients(4)
        model = make_model()
        out = np.empty((4, model.num_parameters()))
        collector = process_collector(2)
        try:
            collector.collect(clients, model, out)
            collector.fleet.workers[0].kill()
            out.fill(7.0)  # the "previous round" a caller might aggregate
            # Re-dispatch: the survivor recomputes the dead worker's
            # clients from their last-known RNG states, bit-exactly.
            collector.collect(clients, model, out)
            assert collector.failed_rows == ()
            assert collector.last_round_redispatched == (0, 1)
            assert np.array_equal(out, reference[1])
            # Demote: with no survivor every row fails and stays NaN.
            collector.fleet.workers[1].kill()
            out.fill(7.0)
            collector.collect(clients, model, out)
            assert collector.failed_rows == (0, 1, 2, 3)
        finally:
            collector.close()
        assert np.all(np.isnan(out))

    def test_dropout_model_rejected(self):
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
        collector = process_collector(2)
        try:
            with pytest.raises(ValueError, match="RNG-consuming"):
                collector.collect(clients, model, out)
        finally:
            collector.close()


class TestBatchNormParity:
    def test_process_buffers_and_eval_match_sequential(self):
        seq_out, seq_acc, seq_loss, seq_buffers = run_batchnorm_rounds(
            SequentialCollector
        )
        proc_out, proc_acc, proc_loss, proc_buffers = run_batchnorm_rounds(
            process_collector
        )
        assert np.array_equal(seq_out, proc_out)
        assert seq_acc == proc_acc
        assert seq_loss == proc_loss
        for name in seq_buffers:
            assert np.array_equal(seq_buffers[name], proc_buffers[name]), name

    def test_batchnorm_model_collects_without_nan(self):
        clients = make_clients(5)
        model = BatchNormMLP()
        out = np.empty((5, model.num_parameters()))
        with process_collector(2) as collector:
            collector.collect(clients, model, out)
        assert np.all(np.isfinite(out))


class TestConfigValidation:
    def test_collect_backend_validated(self):
        config = TrainingConfig(collect_backend="process", n_workers=2)
        assert config.validate() is config
        for retired in ("gevent", "thread"):
            with pytest.raises(ValueError, match="collect_backend must be one of"):
                TrainingConfig(collect_backend=retired).validate()

    def test_collect_backend_serialization_round_trip(self):
        config = ExperimentConfig(
            training=TrainingConfig(collect_backend="process", n_workers=4)
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.training.collect_backend == "process"
        assert restored.training.n_workers == 4


class TestLocalFleet:
    def test_blas_threads_pinned_unless_the_caller_sets_them(self, monkeypatch):
        if not os.path.exists(f"/proc/{os.getpid()}/environ"):
            pytest.skip("needs /proc/<pid>/environ")
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        expected = str(max(1, (os.cpu_count() or 1) // 2))
        with spawn_local_fleet(2) as fleet:
            for worker in fleet.workers:
                with open(f"/proc/{worker.process.pid}/environ", "rb") as handle:
                    entries = handle.read().decode().split("\0")
                env = dict(entry.split("=", 1) for entry in entries if "=" in entry)
                assert env["OPENBLAS_NUM_THREADS"] == expected
                assert env["MKL_NUM_THREADS"] == expected
                assert env["OMP_NUM_THREADS"] == "3"

    def test_failed_start_names_the_worker_and_tears_down_the_rest(self):
        # An unknown flag makes every worker exit at argument parsing.
        with pytest.raises(RuntimeError, match="repro-worker 0 failed") as info:
            spawn_local_fleet(2, extra_args=["--no-such-flag"])
        assert "--no-such-flag" in str(info.value)  # the stderr tail

    @needs_proc
    def test_workers_die_with_a_killed_spawner(self):
        script = textwrap.dedent(
            """
            import time
            import numpy as np
            from repro.data.factory import build_dataset
            from repro.fl.client import BenignClient
            from repro import TrainingConfig
            from repro.fl.collector import make_collector
            from repro.nn.models.mlp import MLP

            split = build_dataset(
                "mnist_like", num_train=40, num_test=10,
                rng=np.random.default_rng(0),
            )
            clients = [
                BenignClient(i, split.train.subset(np.arange(i * 10, i * 10 + 10)),
                             batch_size=4, rng=np.random.default_rng(i))
                for i in range(4)
            ]
            model = MLP(14 * 14, 10, hidden_dims=(8,), rng=np.random.default_rng(1))
            out = np.empty((4, model.num_parameters()))
            collector = make_collector(
                TrainingConfig(collect_backend="process", n_workers=2)
            )
            collector.collect(clients, model, out)
            pids = [worker.process.pid for worker in collector.fleet.workers]
            print(" ".join(map(str, pids)), flush=True)
            time.sleep(120)
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        spawner = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            line = spawner.stdout.readline()
            pids = [int(pid) for pid in line.split()]
            assert len(pids) == 2, line
            assert all(process_state(pid) not in (None, "Z") for pid in pids)
            spawner.send_signal(signal.SIGKILL)
            spawner.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if all(process_state(pid) in (None, "Z") for pid in pids):
                    break
                time.sleep(0.05)
            assert all(process_state(pid) in (None, "Z") for pid in pids)
        finally:
            if spawner.poll() is None:
                spawner.kill()
                spawner.wait(timeout=10)
            spawner.stdout.close()

    @needs_proc
    def test_fleet_outlives_the_thread_that_spawned_it(self):
        # Workers follow their spawning *process*: a collector built in a
        # short-lived thread keeps its fleet once that thread has ended.
        built = []
        spawner = threading.Thread(target=lambda: built.append(process_collector()))
        spawner.start()
        spawner.join()
        time.sleep(1.0)
        with built[0] as collector:
            assert all(worker.alive for worker in collector.fleet.workers)
            clients = make_clients(4)
            model = make_model()
            out = np.empty((4, model.num_parameters()))
            collector.collect(clients, model, out)
            assert collector.failed_rows == ()
        reference = np.empty_like(out)
        SequentialCollector().collect(make_clients(4), model, reference)
        assert np.array_equal(reference, out)

    @needs_proc
    def test_dropped_fleet_terminates_its_workers(self):
        fleet = spawn_local_fleet(2)
        pids = {worker.process.pid for worker in fleet.workers}
        assert pids <= spawned_workers()
        del fleet
        gc.collect()
        assert not pids & spawned_workers()

    @needs_proc
    def test_rejected_simulation_leaves_no_workers(self, monkeypatch):
        # run_experiment spawns the fleet before it builds the simulation;
        # a constructor check that raises must not strand the workers.  The
        # traceback (kept alive in ``rejected``) still references the
        # collector, so only an explicit close stops them.
        def reject(*args, **kwargs):
            raise ValueError("rejected simulation")

        monkeypatch.setattr("repro.fl.experiment.FederatedSimulation", reject)
        before = spawned_workers()
        config = ExperimentConfig(
            num_clients=4,
            data=DataConfig(dataset="mnist_like", num_train=80, num_test=40),
            training=TrainingConfig(
                model="mlp", rounds=1, n_workers=2, collect_backend="process"
            ),
        )
        with pytest.raises(ValueError, match="rejected") as rejected:
            run_experiment(config)
        gc.collect()
        assert spawned_workers() <= before
        assert rejected.traceback

    def test_handshake_without_the_worker_key_is_refused(self):
        model = make_model()
        with process_collector() as collector:
            host, port = parse_address(collector.fleet.addresses[0])
            for key in (None, "0" * 32):
                with socket.create_connection((host, port), timeout=10) as sock:
                    channel = Channel(sock)
                    channel.settimeout(10)
                    channel.send(
                        MSG_HELLO, hello_header(model_signature(model), key=key)
                    )
                    msg_type, header, _ = channel.recv()
                assert msg_type == MSG_ERROR
                assert "authentication" in header["error"]
            # The spawning process presents the key and is served.
            clients = make_clients(4)
            out = np.empty((4, model.num_parameters()))
            collector.collect(clients, model, out)
            assert collector.failed_rows == ()
            assert np.all(np.isfinite(out))

    def test_worker_import_does_not_load_scipy(self):
        # scipy.stats is LIE's z_max helper's dependency only; importing it
        # would cost every spawned worker about a second of startup.
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.fl.transport.worker; "
                "print('scipy' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
            check=True,
        )
        assert probe.stdout.strip() == "False"
