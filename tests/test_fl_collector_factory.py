"""The collector factory: one config in, one validated collector out.

``make_collector`` is the only path from a config to a collect strategy.
It validates the config first, so it accepts exactly what
``TrainingConfig.validate()`` accepts, and every collector option is a
``TrainingConfig`` field.
"""

from __future__ import annotations

import pytest

from repro import ExperimentConfig, TrainingConfig
import repro.fl.transport.collector
import repro.fl.transport.fleet
from repro.fl import COLLECT_BACKENDS, SequentialCollector, make_collector
from repro.fl.transport import DistributedCollector, ThreadFleet, start_thread_fleet


@pytest.fixture
def thread_spawned_fleets(monkeypatch):
    """``"process"`` fleets started as in-process threads (wiring tests)."""
    monkeypatch.setattr(
        repro.fl.transport.fleet, "spawn_local_fleet", start_thread_fleet
    )


class TestRegistry:
    """Backend names: the documented tuple, matched exactly."""

    def test_builtin_backends_registered(self):
        assert COLLECT_BACKENDS == ("sequential", "process", "distributed")

    def test_unknown_backend_keeps_documented_error(self):
        # The factory and the config validate through the same path: a
        # name only matches exactly, and a codec needs a wire.
        for training in (
            TrainingConfig(collect_backend="carrier-pigeon", n_workers=2),
            TrainingConfig(collect_backend="Sequential"),
        ):
            with pytest.raises(ValueError, match="collect_backend must be one of"):
                make_collector(training)
        with pytest.raises(ValueError, match="only meaningful on a worker fleet"):
            make_collector(TrainingConfig(wire_codec="int8"))


class TestBuildCollector:
    """Each backend name builds the collector its config describes."""

    def test_sequential(self):
        training = TrainingConfig(collect_backend="sequential")
        assert isinstance(make_collector(training), SequentialCollector)

    def test_thread(self):
        # The thread backend is retired; no alias maps it anywhere.
        with pytest.raises(ValueError, match="collect_backend must be one of"):
            make_collector(TrainingConfig(collect_backend="thread", n_workers=4))

    def test_single_worker_degrades_to_sequential(self):
        training = TrainingConfig(collect_backend="process", n_workers=1)
        assert isinstance(make_collector(training), SequentialCollector)

    def test_process(self):
        # A real local fleet: the collector owns the repro-worker
        # subprocesses it spawned and terminates them on close().
        collector = make_collector(
            TrainingConfig(collect_backend="process", n_workers=2, round_timeout=None)
        )
        workers = collector.fleet.workers
        try:
            assert isinstance(collector, DistributedCollector)
            assert collector.n_workers == 2
            assert collector.worker_addresses == collector.fleet.addresses
            assert all(worker.alive for worker in workers)
            assert all(conn.round_timeout is None for conn in collector._conns)
        finally:
            collector.close()
        assert not any(worker.alive for worker in workers)

    def test_process_passes_fleet_options(self, thread_spawned_fleets):
        collector = make_collector(
            TrainingConfig(collect_backend="process", n_workers=3, wire_codec="int8"),
            redispatch=False,
            retry_seed=7,
        )
        try:
            assert isinstance(collector.fleet, ThreadFleet)
            assert collector.n_workers == 3
            assert collector.wire_codec == "int8"
            assert collector.redispatch is False
        finally:
            collector.close()

    def test_process_tears_the_fleet_down_on_a_bad_option(self, monkeypatch):
        class RecordingFleet:
            addresses = ["127.0.0.1:1", "127.0.0.1:2"]
            terminated = False

            def terminate(self):
                self.terminated = True

        def refuse(*args, **kwargs):
            raise ValueError("collector refused its options")

        fleet = RecordingFleet()
        monkeypatch.setattr(
            repro.fl.transport.fleet, "spawn_local_fleet", lambda n_workers: fleet
        )
        monkeypatch.setattr(
            repro.fl.transport.collector, "DistributedCollector", refuse
        )
        with pytest.raises(ValueError, match="refused"):
            make_collector(TrainingConfig(collect_backend="process", n_workers=2))
        assert fleet.terminated

    def test_distributed_passes_codec_and_timeouts(self):
        collector = make_collector(
            TrainingConfig(
                collect_backend="distributed",
                workers=["127.0.0.1:1"],
                round_timeout=None,
                wire_codec="sign1bit",
            )
        )
        assert isinstance(collector, DistributedCollector)
        assert collector.wire_codec == "sign1bit"
        assert all(conn.round_timeout is None for conn in collector._conns)

    def test_distributed_requires_workers(self):
        with pytest.raises(ValueError, match="requires workers"):
            make_collector(TrainingConfig(collect_backend="distributed"))


class TestMakeCollector:
    def test_defaults_without_a_config(self):
        assert isinstance(make_collector(), SequentialCollector)
        assert isinstance(
            make_collector(TrainingConfig(n_workers=4)), SequentialCollector
        )

    def test_from_training_config(self, thread_spawned_fleets):
        config = TrainingConfig(collect_backend="process", n_workers=3)
        with make_collector(config) as collector:
            assert isinstance(collector, DistributedCollector)
            assert collector.n_workers == 3

    def test_from_experiment_config(self, thread_spawned_fleets):
        config = ExperimentConfig(
            training=TrainingConfig(collect_backend="process", n_workers=2)
        )
        with make_collector(config) as collector:
            assert isinstance(collector, DistributedCollector)
            assert collector.n_workers == 2

    def test_config_wire_codec_flows_through(self):
        config = TrainingConfig(
            collect_backend="distributed",
            workers=["127.0.0.1:1"],
            wire_codec="topk",
        )
        collector = make_collector(config)
        assert isinstance(collector, DistributedCollector)
        assert collector.wire_codec == "topk"

    def test_none_is_a_meaningful_override(self):
        # round_timeout=None means "wait forever", not "use the default".
        config = TrainingConfig(
            collect_backend="distributed",
            workers=["127.0.0.1:1"],
            round_timeout=None,
        )
        collector = make_collector(config)
        assert all(conn.round_timeout is None for conn in collector._conns)

    def test_distributed_still_requires_workers(self):
        config = ExperimentConfig(
            training=TrainingConfig(collect_backend="distributed")
        )
        with pytest.raises(ValueError, match="requires workers"):
            make_collector(config)
