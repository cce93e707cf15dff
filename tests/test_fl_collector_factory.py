"""The collector factory API: registry dispatch, config-driven construction.

``make_collector`` is the one public path from a config to a collect
strategy; ``build_collector`` keeps its original keyword surface for
callers that predate the factory.  Both dispatch through
``COLLECTOR_REGISTRY``, so a registered third-party backend constructs
exactly like the built-ins.
"""

from __future__ import annotations

import pytest

from repro import ExperimentConfig, TrainingConfig
import repro.fl.transport.fleet
from repro.fl import (
    COLLECT_BACKENDS,
    COLLECTOR_REGISTRY,
    SequentialCollector,
    build_collector,
    make_collector,
)
from repro.fl.transport import DistributedCollector, ThreadFleet, start_thread_fleet


@pytest.fixture
def thread_spawned_fleets(monkeypatch):
    """``"process"`` fleets started as in-process threads (wiring tests)."""
    monkeypatch.setattr(
        repro.fl.transport.fleet, "spawn_local_fleet", start_thread_fleet
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert COLLECT_BACKENDS == ("sequential", "process", "distributed")
        assert set(COLLECT_BACKENDS) <= set(COLLECTOR_REGISTRY.names())

    def test_unknown_backend_keeps_documented_error(self):
        with pytest.raises(ValueError, match="collect backend must be one of"):
            build_collector(2, "carrier-pigeon")

    def test_backend_names_are_case_insensitive(self):
        collector = build_collector(1, "Sequential")
        assert isinstance(collector, SequentialCollector)

    def test_third_party_backend_constructs_through_the_factory(self):
        class RecordingCollector(SequentialCollector):
            def __init__(self, options):
                super().__init__(fault_schedule=options["fault_schedule"])
                self.options = options

        COLLECTOR_REGISTRY.register("test_recording", RecordingCollector)
        try:
            collector = make_collector(
                backend="test_recording", wire_codec="int8"
            )
            assert isinstance(collector, RecordingCollector)
            assert collector.options["wire_codec"] == "int8"
        finally:
            COLLECTOR_REGISTRY._factories.pop("test_recording")


class TestBuildCollector:
    """The pre-factory keyword surface keeps working unchanged."""

    def test_sequential(self):
        assert isinstance(build_collector(1, "sequential"), SequentialCollector)

    def test_thread(self):
        # The thread backend is retired; no alias maps it anywhere.
        with pytest.raises(ValueError, match="collect backend must be one of"):
            build_collector(4, "thread")

    def test_single_worker_degrades_to_sequential(self):
        assert isinstance(build_collector(1, "process"), SequentialCollector)

    def test_process(self):
        # A real local fleet: the collector owns the repro-worker
        # subprocesses it spawned and terminates them on close().
        collector = build_collector(2, "process", round_timeout=None)
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
        collector = build_collector(
            3, "process", wire_codec="int8", redispatch=False, retry_seed=7
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

        fleet = RecordingFleet()
        monkeypatch.setattr(
            repro.fl.transport.fleet, "spawn_local_fleet", lambda n_workers: fleet
        )
        with pytest.raises(ValueError, match="codec"):
            build_collector(2, "process", wire_codec="gzip")
        assert fleet.terminated

    def test_distributed_passes_codec_and_timeouts(self):
        collector = build_collector(
            1,
            "distributed",
            workers=["127.0.0.1:1"],
            round_timeout=None,
            wire_codec="sign1bit",
        )
        assert isinstance(collector, DistributedCollector)
        assert collector.wire_codec == "sign1bit"
        assert all(conn.round_timeout is None for conn in collector._conns)

    def test_distributed_requires_workers(self):
        with pytest.raises(ValueError, match="requires workers"):
            build_collector(1, "distributed")


class TestMakeCollector:
    def test_defaults_without_a_config(self):
        assert isinstance(make_collector(), SequentialCollector)
        assert isinstance(make_collector(n_workers=4), SequentialCollector)

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

    def test_overrides_beat_the_config(self):
        config = TrainingConfig(collect_backend="process", n_workers=4)
        assert isinstance(
            make_collector(config, backend="sequential"), SequentialCollector
        )
        collector = make_collector(
            config,
            backend="distributed",
            workers=["127.0.0.1:1"],
            wire_codec="fp16",
        )
        assert collector.wire_codec == "fp16"

    def test_none_is_a_meaningful_override(self):
        # round_timeout=None means "wait forever" — the sentinel must not
        # mistake it for "not overridden".
        config = TrainingConfig(
            collect_backend="distributed",
            workers=["127.0.0.1:1"],
            round_timeout=30.0,
        )
        collector = make_collector(config, round_timeout=None)
        assert all(conn.round_timeout is None for conn in collector._conns)

    def test_distributed_still_requires_workers(self):
        config = TrainingConfig()
        with pytest.raises(ValueError, match="requires workers"):
            make_collector(config, backend="distributed")
